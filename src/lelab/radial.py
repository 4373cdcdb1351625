"""Radial solver for the Lane-Emden system.

The system in radial coordinates,

    u'' + (d-1)/r u' + |v|^(p-1) v = 0,
    v'' + (d-1)/r v' + |u|^(q-1) u = 0,

is integrated from r_start = 1e-6 with a second-order series start forced
by regularity at the origin, using an adaptive embedded Dormand-Prince 5(4)
pair.  Dense output on each accepted step is a two-point Hermite polynomial
of degree 7; the ODE supplies the higher derivatives at the step endpoints,
and the radial derivatives carry their own Hermite data so that they are
reconstructed at derivative scale.  A solution builds its coefficient
tables once, on first use; dense evaluation at any set of radii is then a
row lookup and one Horner pass.  Events (a component hitting zero,
blowup) are sampled on the dense output of each accepted step at nine
points, all in one pass, and located by bisection between the samples.

Shooting reduces the search for positive trajectories to bisection in the
initial value v(0); u(0) = 1 is fixed by the scaling freedom of the system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .classifier import hyperbola_gap
from .errors import (
    BadBracketError,
    DerivativesMissingError,
    InsufficientWindowError,
    InvalidInputError,
    UndefinedSingularError,
    WindowNotCoveredError,
)
from .exponents import SystemParams, derive_constants

__all__ = [
    "RadialStatus",
    "RadialSolution",
    "DecayClass",
    "DecayFit",
    "integrate",
    "shoot_ground_state",
    "find_separating_v0",
    "fit_decay",
    "blow_down",
    "singular_profile",
    "R_START",
    "BLOWUP_THRESHOLD",
]

R_START = 1e-6
BLOWUP_THRESHOLD = 1e8
#: integration stops with STEP_UNDERFLOW when the step drops below this * r
STEP_FLOOR = 1e-14
#: events are localized to a radius interval of width 1e-12 * r
EVENT_RTOL = 1e-12
_ATOL_FLOOR = 1e-300

# Dormand-Prince 5(4): 5th-order propagation, 4th-order error estimate, FSAL.
_DP_C = (0.2, 0.3, 0.8, 8.0 / 9.0, 1.0)
_DP_A = (
    (0.2,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0),
)
_DP_B = (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0)
_DP_E = (
    71.0 / 57600.0,
    0.0,
    -71.0 / 16695.0,
    71.0 / 1920.0,
    -17253.0 / 339200.0,
    22.0 / 525.0,
    -1.0 / 40.0,
)


def _signed_pow(w: float, e: float) -> float:
    if w == 0.0:
        return 0.0
    return math.copysign(abs(w) ** e, w)


def _hermite_matrix() -> np.ndarray:
    # constraints p(0), p'(0), p''(0), p'''(0), p(1), p'(1), p''(1), p'''(1)
    # on the monomial coefficients of a degree-7 polynomial in tau
    k = np.arange(8, dtype=float)
    m = np.zeros((8, 8))
    m[0, 0] = 1.0
    m[1, 1] = 1.0
    m[2, 2] = 2.0
    m[3, 3] = 6.0
    m[4] = 1.0
    m[5] = k
    m[6] = k * (k - 1.0)
    m[7] = k * (k - 1.0) * (k - 2.0)
    return m


_HERMITE_INV = np.linalg.inv(_hermite_matrix())


def _hermite_coeffs(h, w0, d0, dd0, ddd0, w1, d1, dd1, ddd1) -> np.ndarray:
    data = np.array(
        [w0, h * d0, h * h * dd0, h**3 * ddd0, w1, h * d1, h * h * dd1, h**3 * ddd1]
    )
    return _HERMITE_INV @ data


def _polyval(c: np.ndarray, t):
    out = c[-1]
    for k in range(len(c) - 2, -1, -1):
        out = out * t + c[k]
    return out


def _polyder(c: np.ndarray) -> np.ndarray:
    return c[1:] * np.arange(1, len(c), dtype=float)


class RadialStatus(Enum):
    COMPLETED = "completed"
    U_HIT_ZERO = "u_hit_zero"
    V_HIT_ZERO = "v_hit_zero"
    BLOWUP = "blowup"
    STEP_UNDERFLOW = "step_underflow"


class DecayClass(Enum):
    SLOW = "slow"
    FAST = "fast"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class DecayFit:
    """Log-log power-law fit w ~ amplitude * r^-exponent over a window.

    residual is the maximum absolute deviation of log w from the fitted
    line, i.e. the maximum relative deviation of w from the power law.
    SLOW means the exponent matches alpha (for u) or beta (for v) within
    5 percent; FAST means it matches d-2 within 5 percent.
    """

    exponent: float
    amplitude: float
    window: tuple[float, float]
    residual: float
    classification: DecayClass


@dataclass(frozen=True)
class RadialSolution:
    """Sampled radial trajectory with stored derivatives.

    One row per accepted integrator step (plus the series start and, for
    event-terminated runs, the interpolated event point).  Immutable; the
    arrays are read-only views.
    """

    params: SystemParams
    u0: float
    v0: float
    r: np.ndarray
    u: np.ndarray
    v: np.ndarray
    du: Optional[np.ndarray]
    dv: Optional[np.ndarray]
    status: RadialStatus
    event_radius: Optional[float]
    rel_tol: float

    def __post_init__(self):
        for name in ("r", "u", "v", "du", "dv"):
            arr = getattr(self, name)
            if arr is None:
                continue
            arr = np.asarray(arr, dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def has_derivatives(self) -> bool:
        return self.du is not None and self.dv is not None

    def _node_higher_derivatives(self):
        if not self.has_derivatives:
            raise DerivativesMissingError("solution carries no stored derivatives")
        p, q, d = self.params.p, self.params.q, self.params.d
        r, u, v, du, dv = self.r, self.u, self.v, self.du, self.dv
        c = (d - 1.0) / r
        ddu = -c * du - np.sign(v) * np.abs(v) ** p
        ddv = -c * dv - np.sign(u) * np.abs(u) ** q
        dddu = c / r * du - c * ddu - p * np.abs(v) ** (p - 1.0) * dv
        dddv = c / r * dv - c * ddv - q * np.abs(u) ** (q - 1.0) * du
        # |w|^(p-2) blows up at a zero with exponent below 2; those rows only
        # occur at located events, where quartic data is never consumed
        vp2 = np.where(v != 0.0, np.sign(v) * np.abs(v) ** (p - 2.0), 0.0)
        uq2 = np.where(u != 0.0, np.sign(u) * np.abs(u) ** (q - 2.0), 0.0)
        d4u = (
            -2.0 * c / r**2 * du + 2.0 * c / r * ddu - c * dddu
            - p * (p - 1.0) * vp2 * dv**2 - p * np.abs(v) ** (p - 1.0) * ddv
        )
        d4v = (
            -2.0 * c / r**2 * dv + 2.0 * c / r * ddv - c * dddv
            - q * (q - 1.0) * uq2 * du**2 - q * np.abs(u) ** (q - 1.0) * ddu
        )
        return ddu, ddv, dddu, dddv, d4u, d4v

    def _tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Read-only (N-1)x8 coefficient tables of u, v, u', v', one row per step.

        Built on first use and cached on the instance.  u' and v' carry their
        own Hermite data (u' through the fourth derivative of u, supplied by
        the ODE), so reconstructing them does not difference the much larger
        values; this keeps their relative accuracy at derivative scale even
        on the tiny near-origin steps.
        """
        tables = getattr(self, "_table_cache", None)
        if tables is None:
            ddu, ddv, dddu, dddv, d4u, d4v = self._node_higher_derivatives()
            # Each row is rounded exactly as _hermite_coeffs rounds one step
            # (libm's scalar pow for h**3, one 8x8 matrix-vector product per
            # row): at a critical triple the Pohozaev boundary terms cancel to
            # ~1e-10 of their size, so one ulp would show in the output.
            powers = np.array([(1.0, h, h * h, h**3) for h in np.diff(self.r).tolist()])
            nodes = np.array([
                (self.u, self.du, ddu, dddu),
                (self.v, self.dv, ddv, dddv),
                (self.du, ddu, dddu, d4u),
                (self.dv, ddv, dddv, d4v),
            ]).transpose(0, 2, 1)
            data = np.concatenate((powers * nodes[:, :-1], powers * nodes[:, 1:]), axis=-1)
            coeffs = (_HERMITE_INV @ data[..., None])[..., 0]
            coeffs.setflags(write=False)
            tables = tuple(coeffs)
            object.__setattr__(self, "_table_cache", tables)
        return tables

    def hermite_coefficients(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Degree-7 dense-output coefficients for the values u, v on step i.

        Coefficients are monomial in the local variable tau = (r - r_i)/h_i;
        the rows are read-only views of the solution's cached table.
        """
        cu, cv, _, _ = self._tables()
        return cu[i], cv[i]

    def derivative_coefficients(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Degree-7 dense-output coefficients for u', v' on step i (read-only rows)."""
        _, _, cdu, cdv = self._tables()
        return cdu[i], cdv[i]

    def evaluate(self, r) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Dense evaluation of (u, v, u', v') at radii inside the grid."""
        tables = self._tables()
        r_arr = np.atleast_1d(np.asarray(r, dtype=float))
        eps = 1e-12 * max(1.0, self.r[-1])
        if np.any((r_arr < self.r[0] - eps) | (r_arr > self.r[-1] + eps)):
            raise InvalidInputError(
                f"evaluation radii must lie in [{self.r[0]}, {self.r[-1]}]"
            )
        idx = np.clip(np.searchsorted(self.r, r_arr, side="right") - 1, 0, len(self.r) - 2)
        tau = (r_arr - self.r[idx]) / (self.r[idx + 1] - self.r[idx])
        out = []
        for table in tables:  # Horner on columns gathered at idx one at a time: no (len(r), 8) copy
            w = table[idx, 7]
            for k in range(6, -1, -1):
                w = w * tau + table[idx, k]
            out.append(w)
        return tuple(out)

    @property
    def positive(self) -> bool:
        """True when u > 0 and v > 0 at every interior sample.

        The final row of an event-terminated run sits on the located zero
        and is exempted.
        """
        end = len(self.r) if self.status is RadialStatus.COMPLETED else len(self.r) - 1
        return bool(np.all(self.u[:end] > 0.0) and np.all(self.v[:end] > 0.0))


def _rhs(r, u, v, du, dv, p, q, dm1):
    c = dm1 / r
    return (du, dv, -c * du - _signed_pow(v, p), -c * dv - _signed_pow(u, q))


def _third_derivs(r, du, dv, ddu, ddv, u, v, p, q, dm1):
    c = dm1 / r
    dddu = c / r * du - c * ddu - p * abs(v) ** (p - 1.0) * dv
    dddv = c / r * dv - c * ddv - q * abs(u) ** (q - 1.0) * du
    return dddu, dddv


def _step_coeffs(r0, h, y0, k0, y1, k1, p, q, dm1):
    # k holds (u', v', u'', v''); third derivatives come from the ODE
    ddd0 = _third_derivs(r0, k0[0], k0[1], k0[2], k0[3], y0[0], y0[1], p, q, dm1)
    ddd1 = _third_derivs(r0 + h, k1[0], k1[1], k1[2], k1[3], y1[0], y1[1], p, q, dm1)
    cu = _hermite_coeffs(h, y0[0], k0[0], k0[2], ddd0[0], y1[0], k1[0], k1[2], ddd1[0])
    cv = _hermite_coeffs(h, y0[1], k0[1], k0[3], ddd0[1], y1[1], k1[1], k1[3], ddd1[1])
    return cu, cv


# dense samples of each accepted step scanned for events: tau = 0, 1/8, ..., 1
_EVENT_TAU = np.arange(9) / 8.0
# event functions sign*(w - level), positive before their event, in order of
# precedence at equal tau: v and u reaching zero, u and v reaching blowup
_EVENT_STATUS = (RadialStatus.V_HIT_ZERO, RadialStatus.U_HIT_ZERO) + 2 * (RadialStatus.BLOWUP,)
_EVENT_LEVEL = np.array([[0.0], [0.0], [BLOWUP_THRESHOLD], [BLOWUP_THRESHOLD]])
_EVENT_SIGN = np.array([[1.0], [1.0], [-1.0], [-1.0]])


def _scan_events(r0, h, y0, k0, y1, k1, p, q, dm1):
    """Earliest event on the accepted step, or None.

    Candidates: u or v crossing zero from above, |u| or |v| crossing the
    blowup threshold from below, all sampled at _EVENT_TAU in one pass.  A
    simultaneous zero of u and v (exact symmetric trajectories) is reported
    as V_HIT_ZERO.
    """
    cu, cv = _step_coeffs(r0, h, y0, k0, y1, k1, p, q, dm1)
    c = np.array((cv, cu, cu, cv))  # one row per event function
    w = c[:, 7:]
    for k in range(6, -1, -1):  # the order of _polyval, so samples match its scalar values bitwise
        w = w * _EVENT_TAU + c[:, k : k + 1]
    hits = _EVENT_SIGN * (w - _EVENT_LEVEL) <= 0.0
    if not hits.any():
        return None
    t_star = math.inf
    for j in np.flatnonzero(hits.any(axis=1)):
        k = int(hits[j].argmax())
        # the step start was verified positive when the previous step was
        # accepted; a nonpositive reconstruction there is roundoff, so keep
        # the event strictly inside the step (lo = t: nothing to bisect)
        lo, t = (1e-9, 1e-9) if k == 0 else (float(_EVENT_TAU[k - 1]), float(_EVENT_TAU[k]))
        level, sign = _EVENT_LEVEL[j, 0], _EVENT_SIGN[j, 0]
        for _ in range(200):
            if (t - lo) * h <= EVENT_RTOL * (r0 + lo * h):
                break
            mid = 0.5 * (lo + t)
            if sign * (_polyval(c[j], mid) - level) <= 0.0:
                t = mid
            else:
                lo = mid
        if t < t_star:
            t_star, status = t, _EVENT_STATUS[j]
    r_event = r0 + t_star * h
    u = _polyval(cu, t_star)
    v = _polyval(cv, t_star)
    du = _polyval(_polyder(cu), t_star) / h
    dv = _polyval(_polyder(cv), t_star) / h
    return r_event, status, (u, v, du, dv)


def integrate(
    params: SystemParams,
    v0: float,
    r_max: float,
    rel_tol: float = 1e-10,
    u0: float = 1.0,
) -> RadialSolution:
    """Integrate the radial system from r_start = 1e-6 to r_max or an event.

    Starts from the regular series u = u0 - v0^p r^2/(2d), v = v0 - u0^q
    r^2/(2d).  Error control is relative with a 1e-300 absolute floor, so
    decaying components stay resolved over many decades.  Positivity and
    blowup are monitored on the dense output of every accepted step; the
    run stops at the earliest event with the interpolated event point
    appended to the grid.
    """
    if not v0 > 0.0 or not u0 > 0.0:
        raise InvalidInputError(f"need u0 > 0 and v0 > 0, got u0={u0}, v0={v0}")
    if not r_max > R_START:
        raise InvalidInputError(f"need r_max > {R_START}")
    if not 1e-13 <= rel_tol <= 1e-6:
        raise InvalidInputError(f"rel_tol must be in [1e-13, 1e-6], got {rel_tol}")

    p, q, d = params.p, params.q, params.d
    dm1 = d - 1.0
    vp = _signed_pow(v0, p)
    uq = _signed_pow(u0, q)

    r = R_START
    y = (
        u0 - vp * r * r / (2.0 * d),
        v0 - uq * r * r / (2.0 * d),
        -vp * r / d,
        -uq * r / d,
    )
    rows_r = [r]
    rows = [y]
    k1 = _rhs(r, *y, p, q, dm1)
    h = 0.1 * r
    status = RadialStatus.COMPLETED
    event_radius: Optional[float] = None

    while r < r_max:
        h = min(h, r_max - r)
        if h < STEP_FLOOR * r:
            status = RadialStatus.STEP_UNDERFLOW
            event_radius = r
            break

        # DP54 stages
        ks = [k1]
        for ci, ai in zip(_DP_C, _DP_A):
            yi = tuple(
                y[j] + h * sum(aij * ks[m][j] for m, aij in enumerate(ai))
                for j in range(4)
            )
            ks.append(_rhs(r + ci * h, *yi, p, q, dm1))
        y_new = tuple(
            y[j] + h * sum(bj * ks[m][j] for m, bj in enumerate(_DP_B))
            for j in range(4)
        )
        k7 = _rhs(r + h, *y_new, p, q, dm1)
        ks.append(k7)

        err_sq = 0.0
        for j in range(4):
            e_j = h * sum(ej * ks[m][j] for m, ej in enumerate(_DP_E))
            scale = _ATOL_FLOOR + rel_tol * max(abs(y[j]), abs(y_new[j]))
            err_sq += (e_j / scale) ** 2
        err = math.sqrt(err_sq / 4.0)

        if err > 1.0:
            h *= max(0.2, 0.9 * err**-0.2)
            continue

        event = _scan_events(r, h, y, k1, y_new, k7, p, q, dm1)
        if event is not None:
            r_event, status, y_event = event
            rows_r.append(r_event)
            rows.append(y_event)
            event_radius = r_event
            break

        r = r + h
        rows_r.append(r)
        rows.append(y_new)
        y = y_new
        k1 = k7
        factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err**-0.2))
        h *= factor

    arr = np.array(rows, dtype=float)
    return RadialSolution(
        params=params,
        u0=u0,
        v0=v0,
        r=np.array(rows_r),
        u=arr[:, 0],
        v=arr[:, 1],
        du=arr[:, 2],
        dv=arr[:, 3],
        status=status,
        event_radius=event_radius,
        rel_tol=rel_tol,
    )


def _shot_side(sol: RadialSolution) -> int:
    """Bisection side of a shot: 0 below the separatrix, 1 at or above.

    v hitting zero marks the low side and u hitting zero the high side.  A
    trajectory still positive at r_max is classified by the sign of
    u^(q+1)/(q+1) - v^(p+1)/(p+1) at its endpoint, the functional whose
    sign the two crossing types carry (positive at a v-zero, negative at a
    u-zero).  For p = q this discriminates sides down to machine width; in
    general the resolution is limited by how far the trajectories were
    followed.
    """
    if sol.status is RadialStatus.V_HIT_ZERO:
        return 0
    if sol.status is RadialStatus.U_HIT_ZERO:
        return 1
    if sol.status is RadialStatus.COMPLETED:
        p, q = sol.params.p, sol.params.q
        theta = sol.u[-1] ** (q + 1.0) / (q + 1.0) - sol.v[-1] ** (p + 1.0) / (p + 1.0)
        return 0 if theta >= 0.0 else 1
    raise BadBracketError(f"trajectory ended with unusable status {sol.status.value}")


def _bisect_v0(params, v0_lo, v0_hi, r_max, rel_tol, width_rel):
    # a narrower width can stall the bisection on two adjacent doubles
    if not 1e-15 <= width_rel < 1.0:
        raise InvalidInputError(f"width_rel must be in [1e-15, 1), got {width_rel}")
    if not 0.0 < v0_lo < v0_hi:
        raise BadBracketError(f"need 0 < v0_lo < v0_hi, got ({v0_lo}, {v0_hi})")
    sol_lo = integrate(params, v0_lo, r_max, rel_tol)
    sol_hi = integrate(params, v0_hi, r_max, rel_tol)
    side_lo = _shot_side(sol_lo)
    side_hi = _shot_side(sol_hi)
    if side_lo == side_hi:
        raise BadBracketError(
            f"bracket endpoints give the same side: {sol_lo.status.value} / {sol_hi.status.value}"
        )
    best = None
    for sol, v in ((sol_lo, v0_lo), (sol_hi, v0_hi)):
        if sol.status is RadialStatus.COMPLETED:
            best = (v, sol)
    lo, hi = v0_lo, v0_hi
    while hi - lo > width_rel * hi:
        mid = 0.5 * (lo + hi)
        sol = integrate(params, mid, r_max, rel_tol)
        if sol.status is RadialStatus.COMPLETED:
            best = (mid, sol)
        if _shot_side(sol) == side_lo:
            lo = mid
        else:
            hi = mid
    mid = 0.5 * (lo + hi)
    sol = integrate(params, mid, r_max, rel_tol)
    if sol.status is RadialStatus.COMPLETED:
        return mid, sol
    if best is not None:
        return best
    raise BadBracketError(
        "no positive trajectory found inside the bracket; widen it or reduce r_max"
    )


def shoot_ground_state(
    params: SystemParams,
    v0_bracket: tuple[float, float],
    r_max: float = 200.0,
    rel_tol: float = 1e-10,
) -> tuple[float, RadialSolution]:
    """Ground-state shooting on the critical hyperbola.

    Bisects v(0) between a bracket whose endpoints end on opposite sides of
    the separatrix (one trajectory crossing zero, the other overshooting),
    to a width of 1e-12 * v0.  Returns the separating value and a
    trajectory positive up to r_max.
    """
    if abs(hyperbola_gap(params)) > 1e-8:
        raise InvalidInputError(
            "ground states exist on the critical hyperbola only; "
            f"gap = {hyperbola_gap(params):.3e}"
        )
    return _bisect_v0(params, v0_bracket[0], v0_bracket[1], r_max, rel_tol, 1e-12)


def find_separating_v0(
    params: SystemParams,
    v0_bracket: tuple[float, float],
    r_max: float = 50.0,
    rel_tol: float = 1e-8,
    width_rel: float = 1e-12,
) -> tuple[float, RadialSolution]:
    """Search the v(0) value separating the two crossing behaviours.

    Same bisection engine as ground-state shooting but without the
    hyperbola requirement: in the supercritical regime it locates the
    initial value whose trajectory stays positive over [r_start, r_max].
    The reported window is what the bisection found; no completeness claim
    is attached to it.
    """
    return _bisect_v0(params, v0_bracket[0], v0_bracket[1], r_max, rel_tol, width_rel)


def fit_decay(sol: RadialSolution, r_lo: float, r_hi: float) -> tuple[DecayFit, DecayFit]:
    """Least-squares power-law fits of u and v over [r_lo, r_hi].

    The slope of log w against log r gives the decay exponent; the fit is
    classified SLOW when it matches alpha (u) or beta (v) within 5 percent
    and FAST when it matches d-2 within 5 percent.
    """
    if not r_hi >= 4.0 * r_lo:
        raise InsufficientWindowError(f"need r_hi >= 4*r_lo, got [{r_lo}, {r_hi}]")
    if sol.status is not RadialStatus.COMPLETED or sol.r[-1] < r_hi:
        raise InsufficientWindowError("solution does not extend past the fit window")
    mask = (sol.r >= r_lo) & (sol.r <= r_hi)
    if int(mask.sum()) < 5:
        raise InsufficientWindowError("fewer than 5 samples in the fit window")
    consts = derive_constants(sol.params)
    d2 = sol.params.d - 2.0
    fits = []
    for w, slow_ref in ((sol.u[mask], consts.alpha), (sol.v[mask], consts.beta)):
        if not np.all(w > 0.0):
            raise InsufficientWindowError("component not positive on the fit window")
        logr = np.log(sol.r[mask])
        logw = np.log(w)
        slope, intercept = np.polyfit(logr, logw, 1)
        exponent = -float(slope)
        residual = float(np.max(np.abs(logw - (slope * logr + intercept))))
        slow_ok = abs(exponent - slow_ref) < 0.05 * slow_ref
        fast_ok = abs(exponent - d2) < 0.05 * d2
        if slow_ok and fast_ok:
            cls = DecayClass.SLOW if abs(exponent - slow_ref) <= abs(exponent - d2) else DecayClass.FAST
        elif slow_ok:
            cls = DecayClass.SLOW
        elif fast_ok:
            cls = DecayClass.FAST
        else:
            cls = DecayClass.UNDETERMINED
        fits.append(
            DecayFit(
                exponent=exponent,
                amplitude=float(math.exp(intercept)),
                window=(r_lo, r_hi),
                residual=residual,
                classification=cls,
            )
        )
    return fits[0], fits[1]


def blow_down(
    sol: RadialSolution,
    R: float,
    r_lo: Optional[float] = None,
    r_hi: Optional[float] = None,
) -> RadialSolution:
    """Rescale a solution by (u, v)(r) -> (R^alpha u(Rr), R^beta v(Rr)).

    Derivatives pick up the chain-rule factor R.  When an output window
    [r_lo, r_hi] is requested, the input grid must cover [R*r_lo, R*r_hi].
    """
    if not R > 0.0:
        raise InvalidInputError("R must be positive")
    consts = derive_constants(sol.params)
    mask = np.ones(len(sol.r), dtype=bool)
    if r_lo is not None or r_hi is not None:
        lo = sol.r[0] if r_lo is None else R * r_lo
        hi = sol.r[-1] if r_hi is None else R * r_hi
        if lo < sol.r[0] * (1 - 1e-12) or hi > sol.r[-1] * (1 + 1e-12):
            raise WindowNotCoveredError(
                f"grid [{sol.r[0]}, {sol.r[-1]}] does not cover [{lo}, {hi}]"
            )
        # keep one grid point on either side so the output covers the window
        i_lo = max(int(np.searchsorted(sol.r, lo, side="right")) - 1, 0)
        i_hi = min(int(np.searchsorted(sol.r, hi, side="left")) + 1, len(sol.r))
        mask = np.zeros(len(sol.r), dtype=bool)
        mask[i_lo:i_hi] = True
    ra = R**consts.alpha
    rb = R**consts.beta
    status = sol.status if mask[-1] else RadialStatus.COMPLETED
    event = sol.event_radius / R if (mask[-1] and sol.event_radius is not None) else None
    u = ra * sol.u[mask]
    v = rb * sol.v[mask]
    du = ra * R * sol.du[mask] if sol.du is not None else None
    dv = rb * R * sol.dv[mask] if sol.dv is not None else None
    return RadialSolution(
        params=sol.params,
        u0=float(u[0]),
        v0=float(v[0]),
        r=sol.r[mask] / R,
        u=u,
        v=v,
        du=du,
        dv=dv,
        status=status,
        event_radius=event,
        rel_tol=sol.rel_tol,
    )


def singular_profile(params: SystemParams, r) -> RadialSolution:
    """Exact singular pair (a r^-alpha, b r^-beta) sampled on a given grid.

    The profile solves the system away from the origin exactly and is
    scale-invariant under blow_down.  Requires lambda > 0 and mu > 0.
    """
    c = derive_constants(params)
    if not (math.isfinite(c.a_coef) and math.isfinite(c.b_coef)):
        raise UndefinedSingularError(
            f"singular amplitudes undefined: lambda={c.lam}, mu={c.mu}"
        )
    r = np.asarray(r, dtype=float)
    if r.ndim != 1 or len(r) < 2 or not np.all(np.diff(r) > 0) or r[0] <= 0.0:
        raise InvalidInputError("grid must be increasing, positive, length >= 2")
    u = c.a_coef * r**-c.alpha
    v = c.b_coef * r**-c.beta
    du = -c.alpha * c.a_coef * r ** (-c.alpha - 1.0)
    dv = -c.beta * c.b_coef * r ** (-c.beta - 1.0)
    return RadialSolution(
        params=params,
        u0=float(u[0]),
        v0=float(v[0]),
        r=r,
        u=u,
        v=v,
        du=du,
        dv=dv,
        status=RadialStatus.COMPLETED,
        event_radius=None,
        rel_tol=0.0,
    )
