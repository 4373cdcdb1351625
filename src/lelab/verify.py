"""Numerical checks of the identities and inequalities attached to the system.

Each operation returns a VerificationReport with a named check, the two
sides being compared, a residual, the tolerance it was judged against, and
a pass flag.  Reports serialize to a flat JSON document (see to_dict).

Checks:

- check_singular_residual: the singular pair solves the system (analytic
  Laplacian of a power law, no quadrature).
- check_comparison: the component comparison v^(p+1)/(p+1) <= u^(q+1)/(q+1)
  along a positive trajectory.
- check_pohozaev: the weighted bulk/boundary integral identity on a ball,
  valid for every weight split a1 + a2 = d - 2.
- check_energy_growth: the moment integral over B_R of u^s grows like
  R^(d - s*alpha) along slow-decay solutions.
- rayleigh_stability_margin: the sharp Hardy quotient reproduces the
  stability threshold of the singular solution.
- spherical_mode_margins: per-spherical-mode stability margins of the
  constant angular profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InsufficientDecayWindowError,
    InvalidInputError,
    UndefinedSingularError,
)
from .exponents import SystemParams, derive_constants, jl_margin, linearisation
from .radial import RadialSolution, RadialStatus, _basis, _bernstein

__all__ = [
    "PohozaevWeights",
    "VerificationReport",
    "check_singular_residual",
    "check_comparison",
    "check_pohozaev",
    "pohozaev_sides",
    "check_energy_growth",
    "rayleigh_stability_margin",
    "spherical_mode_margins",
]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(7)
# Bernstein weights at the nodes of a whole step, and of its two halves in
# turn: the nodes of every full step sit at the same tau
_GL_TAU = 0.5 * (1.0 + _GL_NODES)
_GL_BASIS = tuple(np.array(_basis(t)) for t in (_GL_TAU, np.append(0.5 * _GL_TAU, 0.5 + 0.5 * _GL_TAU)))
# exact on the polynomial pieces of _cutoff_quotient
_GL3_NODES, _GL3_WEIGHTS = np.polynomial.legendre.leggauss(3)


@dataclass(frozen=True)
class PohozaevWeights:
    """Weight split (a1, a2) of the ball identity; must satisfy a1 + a2 = d - 2."""

    a1: float
    a2: float

    @classmethod
    def from_a1(cls, params: SystemParams, a1: float) -> "PohozaevWeights":
        return cls(a1=a1, a2=params.d - 2.0 - a1)


@dataclass(frozen=True)
class VerificationReport:
    check: str
    params: SystemParams
    lhs: float
    rhs: float
    residual: float
    tolerance: float
    passed: bool
    details: str

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "params": {"p": self.params.p, "q": self.params.q, "d": self.params.d},
            "lhs": self.lhs,
            "rhs": self.rhs,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "details": self.details,
        }


def _report(check, params, lhs, rhs, residual, tolerance, details="") -> VerificationReport:
    return VerificationReport(
        check=check,
        params=params,
        lhs=float(lhs),
        rhs=float(rhs),
        residual=float(residual),
        tolerance=float(tolerance),
        passed=bool(residual <= tolerance),
        details=details,
    )


def check_singular_residual(
    params: SystemParams,
    radii,
    a_coef: float | None = None,
    b_coef: float | None = None,
    tolerance: float = 1e-12,
) -> VerificationReport:
    """Residual of (a r^-alpha, b r^-beta) in both equations, analytically.

    Uses the closed-form Laplacian of a power law, so the only arithmetic
    is the amplitude relations a*lambda = b^p and b*mu = a^q evaluated on a
    radius sample.  Amplitude overrides allow perturbation tests; they must
    be finite and nonnegative (b^p of a negative b is complex).  A radius
    where a side overflows, or both sides are 0, compares nothing and is
    refused.
    """
    c = derive_constants(params)
    if not (math.isfinite(c.a_coef) and math.isfinite(c.b_coef)):  # lambda, mu > 0, no overflow
        raise UndefinedSingularError(f"lambda={c.lam}, mu={c.mu}: no singular solution with finite amplitudes")
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1 or len(radii) == 0 or not np.all((radii > 0.0) & (radii < math.inf)):
        raise InvalidInputError("radii must be a nonempty sequence of positive finite numbers")
    a = c.a_coef if a_coef is None else float(a_coef)
    b = c.b_coef if b_coef is None else float(b_coef)
    if not (0.0 <= a < math.inf and 0.0 <= b < math.inf):  # NaN fails too
        raise InvalidInputError(f"amplitudes must be finite and nonnegative, got a={a!r}, b={b!r}")
    p, q = params.p, params.q
    worst = (0.0, 0.0, 0.0)
    for r in radii:
        # -Laplacian(a r^-alpha) = a*lam*r^(-alpha-2); forcing is (b r^-beta)^p
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            pairs = (
                (a * c.lam * r ** (-c.alpha - 2.0), b**p * r ** (-c.beta * p)),
                (b * c.mu * r ** (-c.beta - 2.0), a**q * r ** (-c.alpha * q)),
            )
        for lhs, rhs in pairs:
            if not (lhs < math.inf and rhs < math.inf) or lhs == rhs == 0.0:  # NaN fails too
                raise InvalidInputError(
                    f"at r={float(r)!r} the sides {float(lhs)!r}, {float(rhs)!r} overflow or both vanish"
                )
            rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs))
            if rel > worst[0]:  # rel is in [0, 1]: both sides are finite, >= 0 and not both 0
                worst = (rel, lhs, rhs)
    return _report(
        "singular_residual",
        params,
        worst[1],
        worst[2],
        worst[0],
        tolerance,
        details=f"amplitudes a={a!r}, b={b!r}; max relative PDE residual over {len(radii)} radii",
    )


def check_comparison(sol: RadialSolution, tolerance: float = 1e-10) -> VerificationReport:
    """Souplet-type comparison v^(p+1)/(p+1) <= u^(q+1)/(q+1) along a trajectory.

    The residual is the largest positive excess of the normalized ratio
    over 1; the final event row (where a component sits on its located
    zero) is excluded.
    """
    end = len(sol.r) if sol.status is RadialStatus.COMPLETED else len(sol.r) - 1
    if end == 0 or not sol.positive:
        raise InvalidInputError("comparison check needs a positive trajectory with a sample before its last row")
    p, q = sol.params.p, sol.params.q
    u, v = sol.u[:end], sol.v[:end]
    ratio = v ** (p + 1.0) * (q + 1.0) / ((p + 1.0) * u ** (q + 1.0))
    worst = int(np.argmax(ratio))
    residual = max(float(ratio[worst] - 1.0), 0.0)
    return _report(
        "comparison",
        sol.params,
        ratio[worst],
        1.0,
        residual,
        tolerance,
        details=f"worst ratio at r={sol.r[worst]!r} over {end} samples",
    )


def _gauss_nodes(lo, hi, halved: bool):
    """Node radii and half widths of 7-point Gauss-Legendre on each [lo, hi];
    halved splits each interval in two."""
    if halved:
        mid = 0.5 * (lo + hi)
        lo, hi = np.column_stack((lo, mid)).ravel(), np.column_stack((mid, hi)).ravel()
    half = 0.5 * (hi - lo)
    return (0.5 * (hi + lo))[:, None] + half[:, None] * _GL_NODES, half


def _step_parts(rr, half, w, s: float, m: float) -> np.ndarray:
    """Gauss-Legendre parts half * sum_j weight_j max(w, 0)^s r^m, one per
    interval, each 7-node sum taken left to right."""
    f = np.maximum(w, 0.0) ** s * rr**m
    acc = f[:, 0] * _GL_WEIGHTS[0]
    for j in range(1, len(_GL_WEIGHTS)):
        acc = acc + f[:, j] * _GL_WEIGHTS[j]
    return half * acc


def _moment_integral(sol: RadialSolution, component: str, s: float, m: float,
                     r_end: float, halved: bool = False) -> float:
    """integral_0^r_end w^s r^m dr on the dense output, w = u or v.

    Per accepted step the integrand is evaluated at 7-point Gauss-Legendre
    nodes of the degree-7 Hermite reconstruction (split in half when
    halved, the re-quadrature oracle), each step's weighted sum taken left
    to right over its 7 nodes.  The first call for a key (component, s, m,
    halved) builds the nodes of every step, evaluates w's table there with
    the fixed Bernstein weights _GL_BASIS and caches the part of every
    whole step on the solution.  A call then adds, with one math.fsum, the
    parts of the last, partial interval, evaluated afresh, the cached parts
    below r_end and the closed core.  fsum rounds the exact sum, so the
    result depends neither on the order of the parts, nor on r_end's
    neighbours, nor on earlier calls.
    The unsampled core [0, r_start] is closed with the leading constant
    term; slightly negative interpolant values near a located zero are
    clamped at zero.
    """
    grid = sol.r
    if r_end > grid[-1] * (1 + 1e-12):
        raise InvalidInputError(f"r_end={r_end} beyond the sampled grid")
    w0 = sol.u[0] if component == "u" else sol.v[0]
    core = [w0**s * grid[0] ** (m + 1.0) / (m + 1.0)]
    n = min(int(np.searchsorted(grid, r_end, side="left")), len(grid) - 1)
    if n == 0:
        return math.fsum(core)
    table = sol._tables()[component != "u"]
    cache = getattr(sol, "_moment_parts", None)
    if cache is None:
        cache = {}
        object.__setattr__(sol, "_moment_parts", cache)
    key = (component, s, m, halved)
    if key not in cache:
        rr, half = _gauss_nodes(grid[:-1], grid[1:], halved)
        w = _bernstein(table.T[:, :, None], _GL_BASIS[halved]).reshape(rr.shape)
        # last step first: the parts mostly grow with r, and fsum is several
        # times faster when it meets the large ones first
        cache[key] = _step_parts(rr, half, w, s, m)[::-1].tolist()
    parts = cache[key]
    below = parts[len(parts) - (n - 1) * (1 + halved) :]
    rr, half = _gauss_nodes(grid[n - 1 : n], np.minimum(grid[n : n + 1], r_end), halved)
    (w,) = sol._dense((table,), n - 1, rr)
    return math.fsum(_step_parts(rr, half, w, s, m).tolist() + below + core)


def pohozaev_sides(
    sol: RadialSolution,
    R: float,
    weights: PohozaevWeights,
    halved: bool = False,
) -> tuple[float, float, dict]:
    """Bulk and boundary sides of the ball identity, sphere factor cancelled.

    bulk = (d/(p+1) - a1) I_v + (d/(q+1) - a2) I_u with I_w the weighted
    moment integrals up to R; boundary = R^d (u^(q+1)/(q+1) + v^(p+1)/(p+1))
    + R^(d-1) (a1 v u' + a2 u v') + R^d u' v', all at R.  The weight a1
    multiplies v u' because a1 v is the multiplier tested against the
    equation forced by v^p; the identity then holds for every admissible
    split, which the splitting-invariance tests pin down.  Returns both
    sides and the individual terms.
    """
    p, q, d = sol.params.p, sol.params.q, sol.params.d
    if not abs(weights.a1 + weights.a2 - (d - 2.0)) <= 1e-12 * max(1.0, abs(d)):  # NaN and inf fail too
        raise InvalidInputError(f"weights must be finite with a1 + a2 = d - 2, got {weights}")
    R = float(R)
    if not sol.r[0] <= R <= sol.r[-1] * (1 + 1e-12):  # NaN fails too
        raise InvalidInputError(f"R={R} outside the sampled grid")
    Iv = _moment_integral(sol, "v", p + 1.0, d - 1.0, R, halved)
    Iu = _moment_integral(sol, "u", q + 1.0, d - 1.0, R, halved)
    bulk_v = (d / (p + 1.0) - weights.a1) * Iv
    bulk_u = (d / (q + 1.0) - weights.a2) * Iu
    u, v, du, dv = (float(x[0]) for x in sol.evaluate(R))
    t_energy = R**d * (u ** (q + 1.0) / (q + 1.0) + v ** (p + 1.0) / (p + 1.0))
    t_mixed = R ** (d - 1.0) * (weights.a1 * v * du + weights.a2 * u * dv)
    t_flux = R**d * du * dv
    lhs = bulk_v + bulk_u
    rhs = t_energy + t_mixed + t_flux
    terms = {
        "bulk_v": bulk_v,
        "bulk_u": bulk_u,
        "boundary_energy": t_energy,
        "boundary_mixed": t_mixed,
        "boundary_flux": t_flux,
    }
    return lhs, rhs, terms


def check_pohozaev(
    sol: RadialSolution,
    R: float,
    weights: PohozaevWeights,
    tolerance: float = 1e-7,
    halved: bool = False,
) -> VerificationReport:
    """Ball identity residual |bulk - boundary| over the term scale.

    The residual is normalized by max(|lhs|, |rhs|, sum of term magnitudes),
    so the check degrades gracefully at critical points where both sides
    vanish identically (every individual boundary term still sets the scale).
    """
    lhs, rhs, terms = pohozaev_sides(sol, R, weights, halved)
    scale = max(
        abs(lhs),
        abs(rhs),
        sum(abs(t) for t in terms.values()),
        1e-30,
    )
    residual = abs(lhs - rhs) / scale
    detail = ", ".join(f"{k}={v!r}" for k, v in terms.items())
    return _report(
        "pohozaev",
        sol.params,
        lhs,
        rhs,
        residual,
        tolerance,
        details=f"R={float(R)!r}, a1={weights.a1!r}, a2={weights.a2!r}; {detail}",
    )


def check_energy_growth(
    sol: RadialSolution,
    s: float,
    radii,
    tolerance: float = 0.1,
) -> VerificationReport:
    """Growth exponent of M(R) = integral_0^R u^s r^(d-1) dr against d - s*alpha.

    Fits log M against log R over the supplied radii and takes the slope.
    Far out u approaches the singular pair as a r^-alpha (1 + A r^sigma),
    with sigma the slowest decaying root of the linearisation, so log M
    carries a transient R^-kappa cos(omega log R + phase) that decays
    slowly just above the Sobolev exponent.  The fit therefore has the
    columns (1, log R, R^-kappa cos(omega log R), R^-kappa sin(omega log R)),
    or (1, log R, R^-kappa) when sigma is real, and is a plain line when no
    singular pair exists; details names the model.  When d - s*alpha < 0
    the moment integral of a regular solution saturates; the check then
    expects slope 0 and flags the saturated regime.
    """
    if not 0.0 < s < math.inf:  # NaN fails too
        raise InvalidInputError(f"s must be positive and finite, got {s!r}")
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1 or len(radii) < 4 or not np.all(np.diff(radii) > 0.0):
        raise InvalidInputError("need >= 4 strictly increasing radii")
    if radii[-1] > sol.r[-1] * (1 + 1e-12):
        raise InsufficientDecayWindowError(
            f"solution ends at r={sol.r[-1]}, radii reach {radii[-1]}"
        )
    if not sol.positive:
        raise InsufficientDecayWindowError("growth check needs a positive trajectory")
    d = sol.params.d
    c = derive_constants(sol.params)
    M = np.array([_moment_integral(sol, "u", s, d - 1.0, R) for R in radii])
    if not np.all((M > 0.0) & (M < math.inf)):  # NaN fails too
        raise InvalidInputError(f"moment integrals M(R) must be finite and positive, got {M.tolist()}")
    log_r = np.log(radii)
    columns, model = [np.ones_like(log_r), log_r], "line"
    if c.lam > 0.0 and c.mu > 0.0:
        lin = linearisation(sol.params)
        decay = (radii / radii[0]) ** -lin.kappa  # scaled to 1 at the first radius
        if lin.omega > 0.0:
            columns += [decay * np.cos(lin.omega * log_r), decay * np.sin(lin.omega * log_r)]
            model = f"line + R^-kappa (cos, sin)(omega log R), kappa={lin.kappa!r}, omega={lin.omega!r}"
        else:
            columns.append(decay)
            model = f"line + R^-kappa, kappa={lin.kappa!r}"
    slope = float(np.linalg.lstsq(np.column_stack(columns), np.log(M), rcond=None)[0][1])
    expected = d - s * c.alpha
    saturated = expected < 0.0
    target = 0.0 if saturated else expected
    residual = abs(slope - target)
    note = "saturated regime: moment integral bounded, expected slope 0" if saturated else ""
    return _report(
        "energy_growth",
        sol.params,
        slope,
        target,
        residual,
        tolerance,
        details=f"s={s!r}, d - s*alpha = {expected!r}, radii in [{radii[0]}, {radii[-1]}]; fit: {model}"
        + ("; " + note if note else ""),
    )


def _cutoff_quotient(d: float, gamma: float, t: float) -> float:
    """Radial Hardy quotient of phi(r) = r^(-(d-2)/2) kappa(log r).

    kappa is a trapezoid in log-radius: unit ramps on either side of a
    plateau of width t.  In log coordinates the quotient reduces to
    Q = (int ((d-2)/2 kappa - kappa')^2 ds - (gamma^2/4) int kappa^2 ds)
        / int kappa^2 ds,
    and every piece is polynomial, so 3-point Gauss-Legendre per piece is
    exact.
    """
    half = 0.5 * t
    pieces = (
        (-half - 1.0, -half, lambda x: x + half + 1.0, 1.0),
        (-half, half, lambda x: np.ones_like(x), 0.0),
        (half, half + 1.0, lambda x: half + 1.0 - x, -1.0),
    )
    num = 0.0
    den = 0.0
    c2 = 0.5 * (d - 2.0)
    for lo, hi, kap, dkap in pieces:
        hw = 0.5 * (hi - lo)
        x = 0.5 * (hi + lo) + hw * _GL3_NODES
        k = kap(x)
        num += hw * float(np.dot(_GL3_WEIGHTS, (c2 * k - dkap) ** 2))
        den += hw * float(np.dot(_GL3_WEIGHTS, k * k))
    return (num - gamma * gamma / 4.0 * den) / den


def rayleigh_stability_margin(
    params: SystemParams,
    n_cutoffs: int,
    tolerance: float = 0.02,
) -> VerificationReport:
    """Stability margin of the singular solution via the sharp Hardy family.

    The interaction weight of the singular pair is sqrt(pq*lambda*mu)/r^2
    exactly, so stability reduces to comparing the Hardy-type quotient
    Q(phi) = [int phi'^2 r^(d-1) dr - (gamma^2/4) int phi^2 r^(d-3) dr]
    / int phi^2 r^(d-3) dr against sqrt(pq*lambda*mu).  The test family
    phi_t = r^(-(d-2)/2) * (log-plateau cutoff of width t) drives Q down to
    its infimum H from above as t grows.

    The report passes when the quotient infimum lands within `tolerance`
    (relatively) of H and the sign of the margin inf Q - sqrt(pq*lambda*mu)
    agrees with the sign of the closed-form margin H^2 - pq*lambda*mu.
    """
    if n_cutoffs < 1:
        raise InvalidInputError("n_cutoffs must be >= 1")
    c = derive_constants(params)
    if not (c.lam > 0.0 and c.mu > 0.0):
        raise UndefinedSingularError(f"lambda={c.lam}, mu={c.mu}: no singular solution")
    quotients = [_cutoff_quotient(params.d, c.gamma, float(t)) for t in range(1, n_cutoffs + 1)]
    inf_q = min(quotients)
    weight = math.sqrt(params.p * params.q * c.lam * c.mu)
    margin = inf_q - weight
    closed = jl_margin(params)
    sign_ok = (margin >= 0.0) == (closed >= 0.0)
    rel_gap = abs(inf_q - c.H) / abs(c.H) if c.H != 0.0 else abs(inf_q)
    residual = rel_gap if sign_ok else max(rel_gap, 1.0)
    return _report(
        "rayleigh_stability_margin",
        params,
        inf_q,
        weight,
        residual,
        tolerance,
        details=(
            f"hardy target H={c.H!r}, margin={margin!r}, closed-form margin={closed!r}, "
            f"sign agreement={sign_ok}, cutoffs=1..{n_cutoffs}"
        ),
    )


def spherical_mode_margins(
    params: SystemParams,
    l_max: int,
    tolerance: float = 1e-12,
) -> VerificationReport:
    """Per-mode stability margins of the constant angular profile.

    The constant profile (f, g) = (a, b) solves the angular system
    (lambda f = g^p, mu g = f^q), and its interaction weight is
    sqrt(pq) f^((q-1)/2) g^((p-1)/2).  Mode l of the sphere Laplacian
    contributes l(l + d - 2), so the margin of mode l is

        m_l = l(l + d - 2) + H - sqrt(pq) a^((q-1)/2) b^((p-1)/2).

    The minimum sits at l = 0 and must reproduce the closed form
    H - sqrt(pq*lambda*mu) through the amplitude route; the sign of the
    minimum decides whether a stable homogeneous solution exists.
    """
    if l_max < 0:
        raise InvalidInputError("l_max must be >= 0")
    c = derive_constants(params)
    if not (math.isfinite(c.a_coef) and math.isfinite(c.b_coef)):  # lambda, mu > 0, no overflow
        raise UndefinedSingularError(f"lambda={c.lam}, mu={c.mu}: no singular solution with finite amplitudes")
    p, q, d = params.p, params.q, params.d
    weight = math.sqrt(p * q) * c.a_coef ** ((q - 1.0) / 2.0) * c.b_coef ** ((p - 1.0) / 2.0)
    margins = [l * (l + d - 2.0) + c.H - weight for l in range(l_max + 1)]
    m_min = min(margins)
    l_min = margins.index(m_min)
    m0_closed = c.H - math.sqrt(p * q * c.lam * c.mu)
    residual = abs(m_min - m0_closed) / max(1.0, abs(m0_closed))
    return _report(
        "spherical_mode_margins",
        params,
        m_min,
        m0_closed,
        residual,
        tolerance,
        details=(
            f"minimum at l={l_min}; stable homogeneous solution "
            f"{'exists' if m_min >= 0 else 'does not exist'}; modes 0..{l_max}"
        ),
    )
