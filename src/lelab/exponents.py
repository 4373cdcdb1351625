"""Closed-form constants of the Lane-Emden system and its stability quartics.

Everything in this module is an explicit function of the exponent pair
(p, q) and the dimension d: the decay exponents (alpha, beta) of the
scale-invariant solution, the Hardy-type constant H entering the stability
quadratic form, the coefficients lambda = alpha(d-2-alpha) and
mu = beta(d-2-beta), the amplitudes (a, b) of the singular pair
(a r^-alpha, b r^-beta), and two quartic polynomials whose largest real
roots encode dimension thresholds for Liouville-type nonexistence.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from itertools import chain

import numpy as np

from .errors import (
    InvalidMoserExponentError,
    InvalidParamsError,
    NoRealRootError,
    UndefinedSingularError,
)

__all__ = [
    "SystemParams",
    "DerivedConstants",
    "QuarticKind",
    "MoserConstants",
    "derive_constants",
    "quartic_coefficients",
    "quartic_eval",
    "largest_root",
    "jl_margin",
    "Linearisation",
    "linearisation",
    "moser_constants",
]


@dataclass(frozen=True)
class SystemParams:
    """Exponent triple (p, q, d) with p >= q >= 1, pq > 1 and d >= 3.

    The dimension is a real number: non-integer d is accepted so that
    curves can be traced in d, but theorem-applicability flags downstream
    attach only to integer dimensions.
    """

    p: float
    q: float
    d: float

    def __post_init__(self):
        p, q, d = float(self.p), float(self.q), float(self.d)
        if not (math.isfinite(p) and math.isfinite(q) and math.isfinite(d)):
            raise InvalidParamsError("p, q, d must be finite")
        if not (p >= q >= 1.0):
            raise InvalidParamsError(f"need p >= q >= 1, got p={p}, q={q}")
        if not p * q > 1.0:
            raise InvalidParamsError(f"need pq > 1 strictly, got pq={p * q}")
        if not d >= 3.0:
            raise InvalidParamsError(f"need d >= 3, got d={d}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "d", d)

    @property
    def integer_dimension(self) -> bool:
        return float(self.d).is_integer()


@dataclass(frozen=True)
class DerivedConstants:
    """Closed-form constants attached to a parameter triple.

    a_coef and b_coef are the singular-solution amplitudes; they are NaN
    when lambda <= 0 or mu <= 0, i.e. when no positive singular solution
    exists (alpha or beta not below d-2), and inf past the float range.
    """

    alpha: float
    beta: float
    gamma: float
    H: float
    lam: float
    mu: float
    a_coef: float
    b_coef: float


class QuarticKind(Enum):
    """Which stability quartic to evaluate.

    PLAIN_H:          x^4 - pq*alpha*beta*(4x^2 - 2(alpha+beta)x + alpha*beta)
    JOSEPH_LUNDGREN:  (x^2 - gamma^2/4)^2 - pq*alpha*beta*(4x^2 - 2(alpha+beta)x + alpha*beta)
    """

    PLAIN_H = "plain_h"
    JOSEPH_LUNDGREN = "joseph_lundgren"


@dataclass(frozen=True)
class MoserConstants:
    """Exponent pair (a, b) of the iteration scheme and its gain factors A, B."""

    a: float
    b: float
    A: float
    B: float

    @property
    def ab_exceeds_one(self) -> bool:
        return self.A * self.B > 1.0


def derive_constants(params: SystemParams) -> DerivedConstants:
    """Compute alpha, beta, gamma, H, lambda, mu and the singular amplitudes.

    alpha = 2(p+1)/(pq-1),  beta = 2(q+1)/(pq-1),  gamma = alpha - beta,
    H = ((d-2)^2 - gamma^2)/4,  lambda = alpha(d-2-alpha),  mu = beta(d-2-beta),
    a = (lambda mu^p)^(1/(pq-1)),  b = (mu lambda^q)^(1/(pq-1)).

    The amplitudes satisfy a*lambda = b^p and b*mu = a^q, so the pair
    (a r^-alpha, b r^-beta) solves the system away from the origin.
    """
    p, q = params.p, params.q
    alpha, beta, gamma, H, lam, mu = _closed_forms(p, q, params.d)
    pq1 = p * q - 1.0
    a_coef = b_coef = math.nan
    if lam > 0.0 and mu > 0.0:
        try:  # near pq = 1 the power 1/(pq - 1) can overflow
            a_coef = (lam * mu**p) ** (1.0 / pq1)
        except OverflowError:
            a_coef = math.inf
        try:
            b_coef = (mu * lam**q) ** (1.0 / pq1)
        except OverflowError:
            b_coef = math.inf
    return DerivedConstants(alpha, beta, gamma, H, lam, mu, a_coef, b_coef)


def _closed_forms(p: float, q: float, d: float) -> tuple[float, float, float, float, float, float]:
    """alpha, beta, gamma, H, lambda and mu of derive_constants, for a valid triple."""
    pq1 = p * q - 1.0
    alpha = 2.0 * (p + 1.0) / pq1
    beta = 2.0 * (q + 1.0) / pq1
    gamma = alpha - beta
    H = ((d - 2.0) ** 2 - gamma**2) / 4.0
    lam = alpha * (d - 2.0 - alpha)
    mu = beta * (d - 2.0 - beta)
    return alpha, beta, gamma, H, lam, mu


def quartic_coefficients(params: SystemParams, kind: QuarticKind) -> tuple[float, float, float, float, float]:
    """Monic coefficients (c0, c1, c2, c3, c4=1) of the requested quartic."""
    return _quartic_from_constants(params, derive_constants(params), kind)


def _quartic_from_constants(params: SystemParams, c: DerivedConstants, kind: QuarticKind):
    K = params.p * params.q * c.alpha * c.beta
    c0 = -K * c.alpha * c.beta
    c1 = 2.0 * K * (c.alpha + c.beta)
    c2 = -4.0 * K
    if kind is QuarticKind.JOSEPH_LUNDGREN:
        g = c.gamma**2 / 4.0
        c0 += g * g
        c2 -= 2.0 * g
    return (c0, c1, c2, 0.0, 1.0)


def quartic_eval(params: SystemParams, kind: QuarticKind, x: float) -> float:
    """Evaluate the requested quartic at x (Horner form; accepts arrays)."""
    return _horner(quartic_coefficients(params, kind), x)


def bisect_root(c, lo: float, hi: float, flo: float, fhi: float, rel: float = 1e-13) -> float:
    """Root in [lo, hi] of the polynomial c = (c0, ..., c4) in Horner form, with
    flo = f(lo) and fhi = f(hi) of opposite sign, to rel*max(1, |root|)."""
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= rel * max(1.0, abs(mid)):
            return mid
        fm = _horner(c, mid)
        if fm == 0.0:
            return mid
        if (flo < 0.0) != (fm < 0.0):
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def _roots_from_right(c, points):
    """Real roots of the polynomial c = (c0, ..., c4), largest first, lazily.

    points run downward and split the domain into monotone pieces, each with
    at most one candidate.  A sweep from the left drops each candidate within
    1e-12*max(1, |r|) of the last one kept; nothing left of a point can drop
    a candidate more than that above it, so the sweep is replayed from there.
    """
    pending: list[float] = []  # candidates not yet yielded, largest first
    hi = fhi = None
    for lo in chain(points, [None]):
        if lo is not None:
            flo = _horner(c, lo)
            if hi is not None and (flo == 0.0 or fhi == 0.0 or (flo < 0.0) != (fhi < 0.0)):
                # a zero end is the candidate itself: bisect_root returns it
                pending.append(bisect_root(c, lo, hi, flo, fhi))
            hi, fhi = lo, flo
        if pending and (lo is None or pending[-1] - lo > 1e-12 * max(1.0, abs(pending[-1]))):
            kept = [pending.pop()]
            for r in reversed(pending):
                if r - kept[-1] > 1e-12 * max(1.0, abs(r)):
                    kept.append(r)
            yield from reversed(kept)
            pending = []


def _derivative_points(c):
    """Cauchy bound x_hi = 1 + max|c_i| of the quartic c, and the points that
    split its f' into monotone pieces, downward: x_hi, the roots of f''
    inside (-x_hi, x_hi), -x_hi."""
    c0, c1, c2, c3, _ = c
    x_hi = 1.0 + max(abs(c0), abs(c1), abs(c2), abs(c3))

    # f'' = 12 x^2 + 6 c3 x + 2 c2, solved exactly
    disc = 36.0 * c3 * c3 - 96.0 * c2
    inflections = []
    if disc > 0.0:
        s = math.sqrt(disc)
        inflections = sorted(((-6.0 * c3 - s) / 24.0, (-6.0 * c3 + s) / 24.0), reverse=True)
    elif disc == 0.0:
        inflections = [-c3 / 4.0]
    return x_hi, [x_hi] + [x for x in inflections if -x_hi < x < x_hi] + [-x_hi]


def largest_root(params: SystemParams, kind: QuarticKind) -> float:
    """Largest real root x0 of the requested quartic.

    The roots of f'' (a quadratic, solved exactly) split f' into monotone
    pieces, whose roots split f into monotone pieces, inside the Cauchy
    bound x_hi = 1 + max|c_i|.  Both levels are scanned from the right and
    only as far as needed, usually one bisection each.  Roots are refined
    to relative width 1e-13, well inside the 1e-12 contract; of two roots
    within 1e-12 the smaller is returned.
    """
    c = quartic_coefficients(params, kind)
    x_hi, points = _derivative_points(c)
    criticals = _roots_from_right(_derivative(c), points)
    for root in _roots_from_right(c, chain([x_hi], (x for x in criticals if -x_hi < x < x_hi), [-x_hi])):
        return root
    raise NoRealRootError(f"quartic {kind.value} has no real root for {params}")


#: why a lane of _lockstep_largest_roots left the common path (code = index)
LOCKSTEP_FALLBACKS = ("", "exact zero at a bracket end", "no sign change on the first piece",
                      "critical point outside (-x_hi, x_hi)", "root inside the dedupe window", "x_hi not finite")


def _horner(c, x):
    return (((c[4] * x + c[3]) * x + c[2]) * x + c[1]) * x + c[0]


def _derivative(c):
    # f' as a quartic with leading coefficient 0, since 0*x + 4 is exactly 4
    return (c[1], 2.0 * c[2], 3.0 * c[3], 4.0, 0.0)


def _lockstep_piece(c, lo, hi, why):
    """The root that _roots_from_right takes from its first piece [lo, hi],
    for all lanes at once; marks in why the lanes that would need more."""
    flo, fhi = _horner(c, lo), _horner(c, hi)
    why[(why == 0) & ((flo == 0.0) | (fhi == 0.0))] = 1
    why[(why == 0) & ((flo < 0.0) == (fhi < 0.0))] = 2
    # bisect_root step for step on the lanes with no reason yet; a lane keeps
    # its value once it stops.  a only moves to a midpoint where f has f(a)'s sign
    a, b, root, live, neg = lo, hi, np.full_like(lo, math.nan), why == 0, flo < 0.0
    for _ in range(200):
        if not live.any():
            break
        mid = 0.5 * (a + b)
        fm = _horner(c, mid)
        stop = live & ((b - a <= 1e-13 * np.maximum(1.0, np.abs(mid))) | (fm == 0.0))
        np.copyto(root, mid, where=stop)
        live ^= stop
        left = neg != (fm < 0.0)
        a, b = np.where(left, a, mid), np.where(left, mid, b)
    np.copyto(root, 0.5 * (a + b), where=live)
    why[(why == 0) & ~(root - lo > 1e-12 * np.maximum(1.0, np.abs(root)))] = 4
    return root


def _lockstep_bounds(c):
    """_derivative_points' x_hi and first point below it, for the lanes of c at once;
    Python's max and numpy's differ on NaN, so only a finite x_hi keeps its bits."""
    x_hi = 1.0 + np.abs(c[:4]).max(axis=0)
    disc = 36.0 * c[3] * c[3] - 96.0 * c[2]
    s = np.sqrt(np.maximum(disc, 0.0))
    # the roots of f'' in (-x_hi, x_hi), the upper one first; -c3/4 when disc == 0
    upper = np.where(disc > 0.0, (-6.0 * c[3] + s) / 24.0, -c[3] / 4.0)
    lower = (-6.0 * c[3] - s) / 24.0
    below = -x_hi
    np.copyto(below, lower, where=(disc > 0.0) & (-x_hi < lower) & (lower < x_hi))
    np.copyto(below, upper, where=(disc >= 0.0) & (-x_hi < upper) & (upper < x_hi))
    return x_hi, below


def _lockstep_largest_roots(coeffs):
    """largest_root's common path, one lane per monic quartic c = (c0, ..., c4):
    f' is bisected on its first piece below x_hi for the largest critical
    point x1, then f on [x1, x_hi].  numpy's elementwise float64 + - * /,
    sqrt, abs, maximum and comparisons round as Python floats do, so every
    lane keeps the bits of the scalar scan.  Returns the roots and per lane an
    index into LOCKSTEP_FALLBACKS; where it is not 0, ask largest_root.
    """
    c = np.array(coeffs, dtype=float).reshape(-1, 5).T
    why = np.zeros(c.shape[1], dtype=int)
    with np.errstate(over="ignore", invalid="ignore"):
        x_hi, below = _lockstep_bounds(c)
        why[~(x_hi < math.inf)] = 5  # NaN too
        x1 = _lockstep_piece(_derivative(c), below, x_hi, why)
        why[(why == 0) & ~((-x_hi < x1) & (x1 < x_hi))] = 3
        return _lockstep_piece(c, x1, x_hi, why), why


def jl_margin(params: SystemParams) -> float:
    """Stability margin H^2 - pq*lambda*mu of the singular solution.

    Sign convention: >= 0 means (p, q) lies on or above the Joseph-Lundgren
    curve at dimension d (the existence side for d >= 11); < 0 is the
    nonexistence side.  Equality is grouped with the existence side.
    """
    c = derive_constants(params)
    return _margin(params.p, params.q, c.H, c.lam, c.mu)


def _margin(p: float, q: float, H: float, lam: float, mu: float) -> float:
    return H * H - p * q * lam * mu


@dataclass(frozen=True)
class Linearisation:
    """Roots sigma of P at the singular pair, and the slowest decaying one.

    kappa = -Re sigma is the decay rate of the slowest root and
    omega = |Im sigma| its frequency in log r (0 when it is real).
    """

    roots: tuple[complex, complex, complex, complex]
    slowest: complex

    @property
    def kappa(self) -> float:
        return -self.slowest.real

    @property
    def omega(self) -> float:
        return abs(self.slowest.imag)


def linearisation(params: SystemParams) -> Linearisation:
    """Exponents sigma of u ~ a r^-alpha (1 + A r^sigma), v ~ b r^-beta (1 + B r^sigma).

    They solve P(sigma) = (sigma-alpha)(sigma-alpha+d-2)(sigma-beta)(sigma-beta+d-2)
    - pq*lambda*mu = 0.  With D = (d-2)/2 and g = gamma/2, z = sigma + D -
    (alpha+beta)/2 gives P = (z^2 - w+)(z^2 - w-), where w+ + w- = 2(D^2 + g^2)
    and w+ w- = H^2 - pq*lambda*mu = jl_margin, so all four roots are real
    exactly when the margin is >= 0.  For p = q, P has the factor
    sigma^2 + (d-2-2alpha) sigma + (p-1) lambda.
    """
    c = derive_constants(params)
    if not (c.lam > 0.0 and c.mu > 0.0):
        raise UndefinedSingularError(f"lambda={c.lam}, mu={c.mu}: no singular solution")
    D, g = 0.5 * (params.d - 2.0), 0.5 * c.gamma
    w_plus = D * D + g * g + math.sqrt(4.0 * D * D * g * g + params.p * params.q * c.lam * c.mu)
    shift = 0.5 * (c.alpha + c.beta) - D
    w_minus = _margin(params.p, params.q, c.H, c.lam, c.mu) / w_plus
    roots = tuple(shift + sign * cmath.sqrt(w) for w in (w_plus, w_minus) for sign in (1.0, -1.0))
    # shift - sqrt(w+) < (alpha + beta)/2 - (d - 2) < 0, so a decaying root exists
    slowest = max((r for r in roots if r.real < 0.0), key=lambda r: (r.real, r.imag))
    return Linearisation(roots, slowest)


def moser_constants(params: SystemParams, a: float) -> MoserConstants:
    """Gain factors A = sqrt(pq)(2a-1)/a^2 and B = sqrt(pq)(2b-1)/b^2.

    b is tied to a by b(q+1) = a(p+1).  Requires a >= (q+1)/2 and a b that
    does not overflow; the product AB > 1 is the condition under which the
    energy iteration closes.
    """
    p, q = params.p, params.q
    if not (q + 1.0) / 2.0 <= a < math.inf:  # NaN fails too
        raise InvalidMoserExponentError(f"need finite a >= (q+1)/2 = {(q + 1.0) / 2.0}, got a={a}")
    b = a * (p + 1.0) / (q + 1.0)
    if b == math.inf:
        raise InvalidMoserExponentError(f"b = a(p+1)/(q+1) overflows at a={a}")
    spq = math.sqrt(p * q)
    # (2x - 1)/x^2, taken as (2 - 1/x)/x where x*x overflows
    A, B = (spq * (2.0 * x - 1.0) / (x * x) if x * x < math.inf else spq * (2.0 - 1.0 / x) / x
            for x in (a, b))
    return MoserConstants(a=a, b=b, A=A, B=B)
