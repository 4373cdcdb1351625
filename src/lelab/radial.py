"""Radial solver for the Lane-Emden system.

The system in radial coordinates,

    u'' + (d-1)/r u' + |v|^(p-1) v = 0,
    v'' + (d-1)/r v' + |u|^(q-1) u = 0,

is integrated from r_start = 1e-6 with a second-order series start forced
by regularity at the origin, using Prince & Dormand's adaptive 8(5,3)
pair, DOP853, whose 12 stages are written out on plain floats.  The step
loop carries each node as one flat row of 12 floats, u, v and their first
five derivatives (see _row); a solution keeps the first ten columns.
Dense output on each accepted step is a two-point Hermite polynomial of
degree 7; the ODE supplies the second through fourth derivatives at the
step endpoints, and the radial derivatives carry their own Hermite data so
that they are reconstructed at derivative scale.  Its interpolation error
is bounded on every step: the degree-9 Hermite correction, from the next
derivative at both ends, is held to the tolerance of the step's error
control, and a step it exceeds is shortened.  The bound reads the two rows
of the step, and a solution's tables are built from the same rows, so
evaluate interpolates the data that was bounded.  The polynomial
is held by its 8 Bernstein control points, which come straight from the
endpoint data; one function makes them for the hull test, the event search
and the tables, and one evaluator sums the control points against the
Bernstein basis.  A solution builds its control-point tables once, on
first use; dense evaluation at any set of radii is then a row lookup and
one basis pass.
Events (a component hitting zero, blowup) are found on the dense output of
each accepted step by Bernstein subdivision: the first interval whose
control points do not clear the level is split down to 1e-12 r.  Level 0,
all control points of u and v in (0, 1e8), is a hull test that clears
nearly every step; splits never leave that range, so it needs no margin.
The step kernel has a fast path, bit for bit, for the signs of shots.

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
#: integrate raises InvalidInputError on a run that needs more rows than
#: this, 150 times the longest run of the tests and the benchmark; a run
#: reaches it in about 2.5 s and 55 MB (CPython 3.11, a 2-vCPU Xeon VM)
MAX_ROWS = 100_000
_ATOL_FLOOR = 1e-300

# Prince & Dormand's 8(5,3) pair, DOP853 (Hairer, Norsett & Wanner, Solving
# ODEs I, II.10): 8th-order propagation, error estimates of orders 5 and 3,
# FSAL.  Row i of _DOP_A holds a_i1 .. a_i,i-1 of stage i = 2..12.
_DOP_C = (
    0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510, 0.281649658092772603273242802490,
    0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
    0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142, 1.0,
)
_DOP_A = (
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2),
    (2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
     9.24834003261792003115737966543e-1),
    (3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
     1.25467687566822425016691814123e-1),
    (3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
     6.02165389804559606850219397283e-2, -1.7578125e-2),
    (3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
     1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
     8.27378916381402288758473766002e-3),
    (6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
     -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
     2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1),
    (4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
     -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
     1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
     -2.03312017085086261358222928593e-2),
    (-9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
     1.09143734899672957818500254654, -8.14978701074692612513997267357,
     -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
     2.49360555267965238987089396762, -3.0467644718982195003823669022),
    (2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
     -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
     2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
     -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
     6.43392746015763530355970484046e-1),
)
_DOP_B = (
    5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0, 4.45031289275240888144113950566,
    1.89151789931450038304281599044, -5.8012039600105847814672114227,
    3.1116436695781989440891606237e-1, -1.52160949662516078556178806805e-1,
    2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2,
)
# the 5th-order estimate; the 3rd-order one is b minus the weights bhh
_DOP_E5 = (
    0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0, -0.1225156446376204440720569753e1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1,
)
_DOP_BHH = {0: 0.244094488188976377952755905512, 8: 0.733846688281611857341361741547,
            11: 0.220588235294117647058823529412e-1}
_DOP_E3 = tuple(b - _DOP_BHH.get(i, 0.0) for i, b in enumerate(_DOP_B))
# the same tableau unpacked for the written-out step in _dop853_step; the
# zero weights, skipped there, go to _
_C2, _C3, _C4, _C5, _C6, _C7, _C8, _C9, _C10, _C11, _C12 = _DOP_C
(
    (_A2_1,),
    (_A3_1, _A3_2),
    (_A4_1, _, _A4_3),
    (_A5_1, _, _A5_3, _A5_4),
    (_A6_1, _, _, _A6_4, _A6_5),
    (_A7_1, _, _, _A7_4, _A7_5, _A7_6),
    (_A8_1, _, _, _A8_4, _A8_5, _A8_6, _A8_7),
    (_A9_1, _, _, _A9_4, _A9_5, _A9_6, _A9_7, _A9_8),
    (_A10_1, _, _, _A10_4, _A10_5, _A10_6, _A10_7, _A10_8, _A10_9),
    (_A11_1, _, _, _A11_4, _A11_5, _A11_6, _A11_7, _A11_8, _A11_9, _A11_10),
    (_A12_1, _, _, _A12_4, _A12_5, _A12_6, _A12_7, _A12_8, _A12_9, _A12_10, _A12_11),
) = _DOP_A
_B1, _, _, _, _, _B6, _B7, _B8, _B9, _B10, _B11, _B12 = _DOP_B
_E5_1, _, _, _, _, _E5_6, _E5_7, _E5_8, _E5_9, _E5_10, _E5_11, _E5_12 = _DOP_E5
_E3_1, _, _, _, _, _E3_6, _E3_7, _E3_8, _E3_9, _E3_10, _E3_11, _E3_12 = _DOP_E3


def _signed_pow(w: float, e: float) -> float:
    if w == 0.0:
        return 0.0
    return math.copysign(abs(w) ** e, w)


def _control_points(w0, d0, dd0, t0, w1, d1, dd1, t1):
    """Bernstein control points on [0, 1] of a degree-7 Hermite interpolant.

    The data are one component's value and its first three derivatives at
    both ends of a step, the k-th derivative times h^k.  The same
    expressions run on floats and on numpy arrays, so the hull test, the
    event search and the cached tables hold the same numbers for the same data.
    """
    return (
        w0,
        w0 + d0 / 7.0,
        w0 + 2.0 * d0 / 7.0 + dd0 / 42.0,
        w0 + 3.0 * d0 / 7.0 + dd0 / 14.0 + t0 / 210.0,
        w1 - 3.0 * d1 / 7.0 + dd1 / 14.0 - t1 / 210.0,
        w1 - 2.0 * d1 / 7.0 + dd1 / 42.0,
        w1 - d1 / 7.0,
        w1,
    )


def _basis(t, n: int = 7) -> list:
    """Bernstein basis C(n, k) t^k (1 - t)^(n - k), k = 0..n, at a float or array t."""
    s = 1.0 - t
    tk, sk = [1.0], [1.0]
    for _ in range(n):
        tk.append(tk[-1] * t)
        sk.append(sk[-1] * s)
    return [math.comb(n, k) * tk[k] * sk[n - k] for k in range(n + 1)]


def _bernstein(b, basis):
    """sum_k b[k] * basis[k], left to right: the polynomial with control points b."""
    w = b[0] * basis[0]
    for k in range(1, len(basis)):
        w = w + b[k] * basis[k]
    return w


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
    event-terminated runs, the interpolated event point).  higher holds
    u'', v'', u''', v''', u'''' and v'''' at each row (N x 6), the rest of
    the rows' Hermite data.  Immutable; the arrays are read-only views.
    """

    params: SystemParams
    u0: float
    v0: float
    r: np.ndarray
    u: np.ndarray
    v: np.ndarray
    du: np.ndarray
    dv: np.ndarray
    higher: np.ndarray
    status: RadialStatus
    event_radius: Optional[float]
    rel_tol: float

    def __post_init__(self):
        for name in ("r", "u", "v", "du", "dv", "higher"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def _tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Read-only (N-1)x8 control-point tables of u, v, u', v', one row per step.

        Built on first use from the rows' stored derivatives and cached on
        the instance.  u' and v' carry their own Hermite data (u' through
        the fourth derivative of u), so reconstructing them does not
        difference the much larger values; this keeps their relative
        accuracy at derivative scale even on the tiny near-origin steps.
        """
        tables = getattr(self, "_table_cache", None)
        if tables is None:
            ddu, ddv, dddu, dddv, d4u, d4v = self.higher.T
            # the data are scaled as the hull test scales one step (libm's
            # scalar pow for h**3), so a row holds that test's numbers
            powers = np.array([(1.0, h, h * h, h**3) for h in np.diff(self.r).tolist()]).T
            nodes = np.array([
                (self.u, self.du, ddu, dddu),
                (self.v, self.dv, ddv, dddv),
                (self.du, ddu, dddu, d4u),
                (self.dv, ddv, dddv, d4v),
            ]).transpose(1, 0, 2)  # derivative order, table, node
            start, end = powers[:, None] * nodes[..., :-1], powers[:, None] * nodes[..., 1:]
            points = np.stack(_control_points(*start, *end), axis=-1)
            points.setflags(write=False)
            tables = tuple(points)
            object.__setattr__(self, "_table_cache", tables)
        return tables

    def hermite_coefficients(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Bernstein control points of the dense output of u, v on step i.

        The degree-7 polynomial in tau = (r - r_i)/h_i is
        sum_k b_k C(7, k) tau^k (1 - tau)^(7 - k); the rows are read-only
        views of the solution's cached table.
        """
        cu, cv, _, _ = self._tables()
        return cu[i], cv[i]

    def derivative_coefficients(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Bernstein control points of the dense output of u', v' on step i (read-only rows)."""
        _, _, cdu, cdv = self._tables()
        return cdu[i], cdv[i]

    def evaluate(self, r) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Dense evaluation of (u, v, u', v') at radii inside the grid.

        Between rows i and i+1 each of u, v, u', v' is the degree-7 Hermite
        polynomial of the two rows' stored data, the data for which
        integrate held the estimate of its interpolation error (the
        degree-9 Hermite correction, exact when w is a polynomial of degree
        9) to at most 1e-300 + rel_tol max(|w_i|, |w_i+1|) for each
        component w.  Between the rows the
        dense output thus adds about that to the error that the
        integration carries at the rows.  On the step into a located zero
        the bound is that of the trial step [r_i, r_i + h] that crossed
        it, whose polynomial gives the event row and which the table
        interpolates again on [r_i, r_event]; past a zero of v (u) with p
        (q) below 3 the fifth derivative of u (v) is infinite at the zero,
        and the estimate is a heuristic there.  A run that ends in
        STEP_UNDERFLOW or at r_max is bounded on every step.
        """
        tables = self._tables()
        r_arr = np.atleast_1d(np.asarray(r, dtype=float))
        eps = 1e-12 * max(1.0, self.r[-1])
        if not np.all((r_arr >= self.r[0] - eps) & (r_arr <= self.r[-1] + eps)):  # NaN fails too
            raise InvalidInputError(
                f"evaluation radii must lie in [{self.r[0]}, {self.r[-1]}]"
            )
        idx = np.clip(np.searchsorted(self.r, r_arr, side="right") - 1, 0, len(self.r) - 2)
        return self._dense(tables, idx, r_arr)

    def _dense(self, tables, idx, r) -> tuple[np.ndarray, ...]:
        """Each table at radii r on steps idx (an int, or an array shaped as r)."""
        basis = _basis((r - self.r[idx]) / (self.r[idx + 1] - self.r[idx]))
        return tuple(_bernstein(table[idx].T, basis) for table in tables)

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


def _row(r, u, v, du, dv, ddu, ddv, p, q, dm1):
    """The row of a node: u, v and their derivatives through the fifth.

    (u, v, u', v', u'', v'', u''', v''', u'''', v'''', u^(5), v^(5)), the
    third to fifth from the ODE differentiated once to three times more.
    Each power is raised once.  At an exact zero of v the terms in
    |v|^(p-2) and |v|^(p-3) read 0, and likewise for u: the fourth
    derivatives of an event row stay finite.
    """
    c = dm1 / r
    cr = c / r
    # fv, fv2, fv3: the first three derivatives of sign(v)|v|^p with respect
    # to v, on either side of zero
    fv = p * (v ** (p - 1.0) if v > 0.0 else abs(v) ** (p - 1.0))
    fu = q * (u ** (q - 1.0) if u > 0.0 else abs(u) ** (q - 1.0))
    dddu = cr * du - c * ddu - fv * dv
    dddv = cr * dv - c * ddv - fu * du
    fv2 = (p - 1.0) * fv / v if v else 0.0
    fv3 = (p - 2.0) * fv2 / v if v else 0.0
    fu2 = (q - 1.0) * fu / u if u else 0.0
    fu3 = (q - 2.0) * fu2 / u if u else 0.0
    d4u = -2.0 * cr / r * du + 2.0 * cr * ddu - c * dddu - fv2 * dv * dv - fv * ddv
    d4v = -2.0 * cr / r * dv + 2.0 * cr * ddv - c * dddv - fu2 * du * du - fu * ddu
    d5u = (
        6.0 * cr / (r * r) * du - 6.0 * cr / r * ddu + 3.0 * cr * dddu - c * d4u
        - fv3 * dv * dv * dv - 3.0 * fv2 * dv * ddv - fv * dddv
    )
    d5v = (
        6.0 * cr / (r * r) * dv - 6.0 * cr / r * ddv + 3.0 * cr * dddv - c * d4v
        - fu3 * du * du * du - 3.0 * fu2 * du * ddu - fu * dddu
    )
    return u, v, du, dv, ddu, ddv, dddu, dddv, d4u, d4v, d5u, d5v


def _node(r, y, p, q, dm1):
    """The row at a point y = (u, v, u', v') that the step loop did not
    reach by a step (the start and event rows), u'' and v'' from _rhs."""
    return _row(r, y[0], y[1], *_rhs(r, *y, p, q, dm1), p, q, dm1)


def _dense_error(h, rel_tol, start, end):
    """Estimated error of a step's dense output, in units of the error control.

    start and end are the rows (see _row) at the step's ends.  Each table
    (u, v, u', v') interpolates a component w and its first three
    derivatives by the degree-7 Hermite polynomial P7.  With the fourth
    derivative of w at both ends too, the degree-9 interpolant is P7 +
    tau^4 (1-tau)^4 (a (1-tau) + b tau), where 24 a and 24 b are h^4 w''''
    less P7'''' at tau = 0 and 1; the correction is at most max(|a|, |b|)
    / 256.  With m = 24 (a + b) and n = 24 (a - b), written out in the sums
    s_k and differences e_k of h^k w^(k) at the two ends, that is (|m| +
    |n|) / 12288.  Returns the largest correction over the four tables,
    each divided by 1e-300 + rel_tol max(|w(r0)|, |w(r1)|) (a comparison
    for the signs of shots, as in _dop853_step).
    """
    u0, v0, du0, dv0, ddu0, ddv0, dddu0, dddv0, d4u0, d4v0, d5u0, d5v0 = start
    u1, v1, du1, dv1, ddu1, ddv1, dddu1, dddv1, d4u1, d4v1, d5u1, d5v1 = end
    h2 = h * h
    h3 = h2 * h
    h4 = h2 * h2
    h5 = h4 * h
    worst = 0.0
    for w0, d0, dd0, t0, f0, g0, w1, d1, dd1, t1, f1, g1 in (
        (u0, du0, ddu0, dddu0, d4u0, d5u0, u1, du1, ddu1, dddu1, d4u1, d5u1),
        (v0, dv0, ddv0, dddv0, d4v0, d5v0, v1, dv1, ddv1, dddv1, d4v1, d5v1),
    ):
        s1, e1 = h * (d0 + d1), h * (d0 - d1)
        s2, e2 = h2 * (dd0 + dd1), h2 * (dd0 - dd1)
        s3, e3 = h3 * (t0 + t1), h3 * (t0 - t1)
        s4, e4 = h4 * (f0 + f1), h4 * (f0 - f1)
        s5, e5 = h5 * (g0 + g1), h5 * (g0 - g1)
        # the table of w, then that of w' (its data h times w' and up)
        m = 120.0 * e1 + 60.0 * s2 + 12.0 * e3 + s4
        n = 840.0 * s1 + 180.0 * e2 + 20.0 * s3 + e4 + 1680.0 * (w0 - w1)
        scale = (w1 if w1 > w0 else w0) if w0 > 0.0 and w1 > 0.0 else max(abs(w0), abs(w1))
        x = (abs(m) + abs(n)) / (_ATOL_FLOOR + rel_tol * scale)
        worst = x if x > worst else worst
        m = 120.0 * e2 + 60.0 * s3 + 12.0 * e4 + s5
        n = 840.0 * s2 + 180.0 * e3 + 20.0 * s4 + e5 + 1680.0 * e1
        scale = (-d1 if d1 < d0 else -d0) if d0 < 0.0 and d1 < 0.0 else max(abs(d0), abs(d1))
        x = (abs(m) + abs(n)) / (h * (_ATOL_FLOOR + rel_tol * scale))
        worst = x if x > worst else worst
    return worst / 12288.0


def _step_data(h, start, end):
    """Hermite data of u and of v on a step from the rows at its ends: value
    and h^k times the k-th derivative, k = 1..3, at each end.  The hull test
    and the event search take the same data."""
    u0, v0, du0, dv0, ddu0, ddv0, dddu0, dddv0, _, _, _, _ = start
    u1, v1, du1, dv1, ddu1, ddv1, dddu1, dddv1, _, _, _, _ = end
    hh = h * h
    h3 = h**3
    return (
        (u0, h * du0, hh * ddu0, h3 * dddu0, u1, h * du1, hh * ddu1, h3 * dddu1),
        (v0, h * dv0, hh * ddv0, h3 * dddv0, v1, h * dv1, hh * ddv1, h3 * dddv1),
    )


def _hull_clear(h, start, end):
    """True when all control points of u and v on the step between the rows
    start and end lie strictly inside (0, 1e8).

    Level 0 of the event search on the data of _step_data, written out
    with the scaling inlined: it runs on every accepted step.  A float
    average fl(0.5 (x + y)) never leaves [min(x, y), max(x, y)] unless
    x + y overflows, and then it is +-inf of their sign; so every
    subinterval's control points pass too, and _scan_events returns None
    on the same data.  A non-finite value gives False.
    """
    u0, v0, du0, dv0, ddu0, ddv0, dddu0, dddv0, _, _, _, _ = start
    u1, v1, du1, dv1, ddu1, ddv1, dddu1, dddv1, _, _, _, _ = end
    hh = h * h
    h3 = h**3
    top = BLOWUP_THRESHOLD
    for b0, b1, b2, b3, b4, b5, b6, b7 in (
        _control_points(u0, h * du0, hh * ddu0, h3 * dddu0, u1, h * du1, hh * ddu1, h3 * dddu1),
        _control_points(v0, h * dv0, hh * ddv0, h3 * dddv0, v1, h * dv1, hh * ddv1, h3 * dddv1),
    ):
        if not (0.0 < b0 < top and 0.0 < b1 < top and 0.0 < b2 < top and 0.0 < b3 < top
                and 0.0 < b4 < top and 0.0 < b5 < top and 0.0 < b6 < top and 0.0 < b7 < top):
            return False
    return True


def _halves(b):
    """Control points of the two halves of [0, 1], by de Casteljau at 1/2."""
    b0, b1, b2, b3, b4, b5, b6, b7 = b
    c0, c1, c2, c3 = 0.5 * (b0 + b1), 0.5 * (b1 + b2), 0.5 * (b2 + b3), 0.5 * (b3 + b4)
    c4, c5, c6 = 0.5 * (b4 + b5), 0.5 * (b5 + b6), 0.5 * (b6 + b7)
    d0, d1, d2, d3 = 0.5 * (c0 + c1), 0.5 * (c1 + c2), 0.5 * (c2 + c3), 0.5 * (c3 + c4)
    d4, d5 = 0.5 * (c4 + c5), 0.5 * (c5 + c6)
    e0, e1, e2 = 0.5 * (d0 + d1), 0.5 * (d1 + d2), 0.5 * (d2 + d3)
    e3, e4 = 0.5 * (d3 + d4), 0.5 * (d4 + d5)
    f0, f1, f2, f3 = 0.5 * (e0 + e1), 0.5 * (e1 + e2), 0.5 * (e2 + e3), 0.5 * (e3 + e4)
    g0, g1, g2 = 0.5 * (f0 + f1), 0.5 * (f1 + f2), 0.5 * (f2 + f3)
    k0, k1 = 0.5 * (g0 + g1), 0.5 * (g1 + g2)
    m = 0.5 * (k0 + k1)
    return (b0, c0, d0, e0, f0, g0, k0, m), (m, k1, g2, f3, e4, d5, c6, b7)


# splits in one search; h < 4 r0 in integrate, so a search reaches the final
# width in at most 42, and it backtracks only where the polynomial nears 0
_MAX_SPLITS = 200


def _first_hit(g, r0, h):
    """End tau of the first interval of [0, 1] on which the polynomial with
    Bernstein control points g may be <= 0, or None.

    Lane & Riesenfeld's search: an interval with no control point <= 0
    holds a positive polynomial (its convex hull) and is dropped; any other
    is split by _halves, left half first, down to (hi - lo) h <= EVENT_RTOL
    (r0 + lo h).  A hit at tau = 0 thus ends the first interval of that
    width.  NaN is never <= 0: NaN data hold no event.  At _MAX_SPLITS
    splits the interval in hand hits.
    """
    lo, hi, pending, splits = 0.0, 1.0, [], 0
    while True:
        b0, b1, b2, b3, b4, b5, b6, b7 = g
        if not (b0 <= 0.0 or b1 <= 0.0 or b2 <= 0.0 or b3 <= 0.0
                or b4 <= 0.0 or b5 <= 0.0 or b6 <= 0.0 or b7 <= 0.0):
            if not pending:
                return None
            lo, hi, g = pending.pop()
        elif (hi - lo) * h <= EVENT_RTOL * (r0 + lo * h) or splits == _MAX_SPLITS:
            return hi
        else:
            splits += 1
            mid = 0.5 * (lo + hi)
            g, right = _halves(g)
            pending.append((mid, hi, right))
            hi = mid


def _scan_events(r0, h, data):
    """Earliest event on the accepted step [r0, r0 + h] with _step_data data, or None.

    The event functions, by precedence at equal tau: v and u reaching zero,
    u and v reaching blowup, each searched by _first_hit on its control
    points b, or 1e8 - b, whose float sign is exact: on finite data level 0
    is _hull_clear.  A simultaneous zero of u and v (exact symmetric
    trajectories) is reported as V_HIT_ZERO.
    """
    bu, bv = (_control_points(*d) for d in data)
    t_star = math.inf
    for status, g in (
        (RadialStatus.V_HIT_ZERO, bv),
        (RadialStatus.U_HIT_ZERO, bu),
        (RadialStatus.BLOWUP, [BLOWUP_THRESHOLD - b for b in bu]),
        (RadialStatus.BLOWUP, [BLOWUP_THRESHOLD - b for b in bv]),
    ):
        t = _first_hit(g, r0, h)
        if t is not None and t < t_star:
            t_star, event_status = t, status
    if t_star == math.inf:
        return None
    basis, slope_basis = _basis(t_star), _basis(t_star, 6)
    values = [_bernstein(b, basis) for b in (bu, bv)]
    slopes = []
    for w0, d0, dd0, t0, w1, d1, dd1, t1 in data:
        # 7 (c_k+1 - c_k) are the control points of the slope; c, those of
        # w - w0, keep the digits of the change over the step at any |w|
        c = _control_points(0.0, d0, dd0, t0, w1 - w0, d1, dd1, t1)
        slopes.append(7.0 * _bernstein([c[k + 1] - c[k] for k in range(7)], slope_basis) / h)
    return r0 + t_star * h, event_status, (*values, *slopes)


def _dop853_step(r, h, u, v, du, dv, ddu1, ddv1, p, q, dm1, rel_tol):
    """One DOP853 trial step from (u, v, u', v') at r, with u'', v'' there.

    The FSAL slope of stage 1 is (u', v', u'', v''), the state's own u' and
    v' and the ODE's u'' and v''.  Returns (u, v, u', v', u'', v'', err) at
    r + h, the last four the slope there; a trial step whose stages or
    error norms overflow returns six None and err = inf, which the caller
    rejects.  Stage i holds u, v, u', v' in plain floats and its slope is
    (dui, dvi, ddui, ddvi).  Every weighted sum runs left to right
    from 0.0, which rounds as the int 0 that starts sum() on Python 3.11
    (0 + x is 0.0 + x for every float x; a -0.0 sum becomes +0.0) but adds
    float to float, the cheaper path.  Zero tableau weights are skipped:
    their terms are not formed, so an infinite slope they multiply does not
    make the sum NaN (0.0 * inf is NaN).  The error norm is Hairer's
    err5^2 h / sqrt(4 (err5^2 + 0.01 err3^2)) over the four components,
    each estimate scaled by 1e-300 + rel_tol max(|w|, |w_new|); an infinite
    or NaN norm is returned as inf.  Shots have u, v > 0 and u', v' < 0: a
    stage power sign(w)|w|^p is w ** p when w > 0.0, and an error scale
    max(|w|, |w_new|) one comparison when w and w_new have that sign;
    zeros, other signs and NaN take the copysign and max(abs, abs) forms
    (abs clears the sign bit of a NaN).  The bits are those of the generic
    stage loop that tests/test_kernel_reference.py keeps.
    """
    try:
        u2 = u + h * (0.0 + _A2_1 * du)
        v2 = v + h * (0.0 + _A2_1 * dv)
        du2 = du + h * (0.0 + _A2_1 * ddu1)
        dv2 = dv + h * (0.0 + _A2_1 * ddv1)
        c = dm1 / (r + _C2 * h)
        ddu2 = -c * du2 - (v2 ** p if v2 > 0.0 else math.copysign(abs(v2) ** p, v2) if v2 else 0.0)
        ddv2 = -c * dv2 - (u2 ** q if u2 > 0.0 else math.copysign(abs(u2) ** q, u2) if u2 else 0.0)

        u3 = u + h * (0.0 + _A3_1 * du + _A3_2 * du2)
        v3 = v + h * (0.0 + _A3_1 * dv + _A3_2 * dv2)
        du3 = du + h * (0.0 + _A3_1 * ddu1 + _A3_2 * ddu2)
        dv3 = dv + h * (0.0 + _A3_1 * ddv1 + _A3_2 * ddv2)
        c = dm1 / (r + _C3 * h)
        ddu3 = -c * du3 - (v3 ** p if v3 > 0.0 else math.copysign(abs(v3) ** p, v3) if v3 else 0.0)
        ddv3 = -c * dv3 - (u3 ** q if u3 > 0.0 else math.copysign(abs(u3) ** q, u3) if u3 else 0.0)

        u4 = u + h * (0.0 + _A4_1 * du + _A4_3 * du3)
        v4 = v + h * (0.0 + _A4_1 * dv + _A4_3 * dv3)
        du4 = du + h * (0.0 + _A4_1 * ddu1 + _A4_3 * ddu3)
        dv4 = dv + h * (0.0 + _A4_1 * ddv1 + _A4_3 * ddv3)
        c = dm1 / (r + _C4 * h)
        ddu4 = -c * du4 - (v4 ** p if v4 > 0.0 else math.copysign(abs(v4) ** p, v4) if v4 else 0.0)
        ddv4 = -c * dv4 - (u4 ** q if u4 > 0.0 else math.copysign(abs(u4) ** q, u4) if u4 else 0.0)

        u5 = u + h * (0.0 + _A5_1 * du + _A5_3 * du3 + _A5_4 * du4)
        v5 = v + h * (0.0 + _A5_1 * dv + _A5_3 * dv3 + _A5_4 * dv4)
        du5 = du + h * (0.0 + _A5_1 * ddu1 + _A5_3 * ddu3 + _A5_4 * ddu4)
        dv5 = dv + h * (0.0 + _A5_1 * ddv1 + _A5_3 * ddv3 + _A5_4 * ddv4)
        c = dm1 / (r + _C5 * h)
        ddu5 = -c * du5 - (v5 ** p if v5 > 0.0 else math.copysign(abs(v5) ** p, v5) if v5 else 0.0)
        ddv5 = -c * dv5 - (u5 ** q if u5 > 0.0 else math.copysign(abs(u5) ** q, u5) if u5 else 0.0)

        u6 = u + h * (0.0 + _A6_1 * du + _A6_4 * du4 + _A6_5 * du5)
        v6 = v + h * (0.0 + _A6_1 * dv + _A6_4 * dv4 + _A6_5 * dv5)
        du6 = du + h * (0.0 + _A6_1 * ddu1 + _A6_4 * ddu4 + _A6_5 * ddu5)
        dv6 = dv + h * (0.0 + _A6_1 * ddv1 + _A6_4 * ddv4 + _A6_5 * ddv5)
        c = dm1 / (r + _C6 * h)
        ddu6 = -c * du6 - (v6 ** p if v6 > 0.0 else math.copysign(abs(v6) ** p, v6) if v6 else 0.0)
        ddv6 = -c * dv6 - (u6 ** q if u6 > 0.0 else math.copysign(abs(u6) ** q, u6) if u6 else 0.0)

        u7 = u + h * (0.0 + _A7_1 * du + _A7_4 * du4 + _A7_5 * du5 + _A7_6 * du6)
        v7 = v + h * (0.0 + _A7_1 * dv + _A7_4 * dv4 + _A7_5 * dv5 + _A7_6 * dv6)
        du7 = du + h * (0.0 + _A7_1 * ddu1 + _A7_4 * ddu4 + _A7_5 * ddu5 + _A7_6 * ddu6)
        dv7 = dv + h * (0.0 + _A7_1 * ddv1 + _A7_4 * ddv4 + _A7_5 * ddv5 + _A7_6 * ddv6)
        c = dm1 / (r + _C7 * h)
        ddu7 = -c * du7 - (v7 ** p if v7 > 0.0 else math.copysign(abs(v7) ** p, v7) if v7 else 0.0)
        ddv7 = -c * dv7 - (u7 ** q if u7 > 0.0 else math.copysign(abs(u7) ** q, u7) if u7 else 0.0)

        u8 = u + h * (0.0 + _A8_1 * du + _A8_4 * du4 + _A8_5 * du5 + _A8_6 * du6 + _A8_7 * du7)
        v8 = v + h * (0.0 + _A8_1 * dv + _A8_4 * dv4 + _A8_5 * dv5 + _A8_6 * dv6 + _A8_7 * dv7)
        du8 = du + h * (0.0 + _A8_1 * ddu1 + _A8_4 * ddu4 + _A8_5 * ddu5 + _A8_6 * ddu6
            + _A8_7 * ddu7)
        dv8 = dv + h * (0.0 + _A8_1 * ddv1 + _A8_4 * ddv4 + _A8_5 * ddv5 + _A8_6 * ddv6
            + _A8_7 * ddv7)
        c = dm1 / (r + _C8 * h)
        ddu8 = -c * du8 - (v8 ** p if v8 > 0.0 else math.copysign(abs(v8) ** p, v8) if v8 else 0.0)
        ddv8 = -c * dv8 - (u8 ** q if u8 > 0.0 else math.copysign(abs(u8) ** q, u8) if u8 else 0.0)

        u9 = u + h * (0.0 + _A9_1 * du + _A9_4 * du4 + _A9_5 * du5 + _A9_6 * du6 + _A9_7 * du7
            + _A9_8 * du8)
        v9 = v + h * (0.0 + _A9_1 * dv + _A9_4 * dv4 + _A9_5 * dv5 + _A9_6 * dv6 + _A9_7 * dv7
            + _A9_8 * dv8)
        du9 = du + h * (0.0 + _A9_1 * ddu1 + _A9_4 * ddu4 + _A9_5 * ddu5 + _A9_6 * ddu6
            + _A9_7 * ddu7 + _A9_8 * ddu8)
        dv9 = dv + h * (0.0 + _A9_1 * ddv1 + _A9_4 * ddv4 + _A9_5 * ddv5 + _A9_6 * ddv6
            + _A9_7 * ddv7 + _A9_8 * ddv8)
        c = dm1 / (r + _C9 * h)
        ddu9 = -c * du9 - (v9 ** p if v9 > 0.0 else math.copysign(abs(v9) ** p, v9) if v9 else 0.0)
        ddv9 = -c * dv9 - (u9 ** q if u9 > 0.0 else math.copysign(abs(u9) ** q, u9) if u9 else 0.0)

        u10 = u + h * (0.0 + _A10_1 * du + _A10_4 * du4 + _A10_5 * du5 + _A10_6 * du6
            + _A10_7 * du7 + _A10_8 * du8 + _A10_9 * du9)
        v10 = v + h * (0.0 + _A10_1 * dv + _A10_4 * dv4 + _A10_5 * dv5 + _A10_6 * dv6
            + _A10_7 * dv7 + _A10_8 * dv8 + _A10_9 * dv9)
        du10 = du + h * (0.0 + _A10_1 * ddu1 + _A10_4 * ddu4 + _A10_5 * ddu5 + _A10_6 * ddu6
            + _A10_7 * ddu7 + _A10_8 * ddu8 + _A10_9 * ddu9)
        dv10 = dv + h * (0.0 + _A10_1 * ddv1 + _A10_4 * ddv4 + _A10_5 * ddv5 + _A10_6 * ddv6
            + _A10_7 * ddv7 + _A10_8 * ddv8 + _A10_9 * ddv9)
        c = dm1 / (r + _C10 * h)
        ddu10 = -c * du10 - (v10 ** p if v10 > 0.0 else math.copysign(abs(v10) ** p, v10) if v10 else 0.0)
        ddv10 = -c * dv10 - (u10 ** q if u10 > 0.0 else math.copysign(abs(u10) ** q, u10) if u10 else 0.0)

        u11 = u + h * (0.0 + _A11_1 * du + _A11_4 * du4 + _A11_5 * du5 + _A11_6 * du6
            + _A11_7 * du7 + _A11_8 * du8 + _A11_9 * du9 + _A11_10 * du10)
        v11 = v + h * (0.0 + _A11_1 * dv + _A11_4 * dv4 + _A11_5 * dv5 + _A11_6 * dv6
            + _A11_7 * dv7 + _A11_8 * dv8 + _A11_9 * dv9 + _A11_10 * dv10)
        du11 = du + h * (0.0 + _A11_1 * ddu1 + _A11_4 * ddu4 + _A11_5 * ddu5 + _A11_6 * ddu6
            + _A11_7 * ddu7 + _A11_8 * ddu8 + _A11_9 * ddu9 + _A11_10 * ddu10)
        dv11 = dv + h * (0.0 + _A11_1 * ddv1 + _A11_4 * ddv4 + _A11_5 * ddv5 + _A11_6 * ddv6
            + _A11_7 * ddv7 + _A11_8 * ddv8 + _A11_9 * ddv9 + _A11_10 * ddv10)
        c = dm1 / (r + _C11 * h)
        ddu11 = -c * du11 - (v11 ** p if v11 > 0.0 else math.copysign(abs(v11) ** p, v11) if v11 else 0.0)
        ddv11 = -c * dv11 - (u11 ** q if u11 > 0.0 else math.copysign(abs(u11) ** q, u11) if u11 else 0.0)

        u12 = u + h * (0.0 + _A12_1 * du + _A12_4 * du4 + _A12_5 * du5 + _A12_6 * du6
            + _A12_7 * du7 + _A12_8 * du8 + _A12_9 * du9 + _A12_10 * du10 + _A12_11 * du11)
        v12 = v + h * (0.0 + _A12_1 * dv + _A12_4 * dv4 + _A12_5 * dv5 + _A12_6 * dv6
            + _A12_7 * dv7 + _A12_8 * dv8 + _A12_9 * dv9 + _A12_10 * dv10 + _A12_11 * dv11)
        du12 = du + h * (0.0 + _A12_1 * ddu1 + _A12_4 * ddu4 + _A12_5 * ddu5 + _A12_6 * ddu6
            + _A12_7 * ddu7 + _A12_8 * ddu8 + _A12_9 * ddu9 + _A12_10 * ddu10 + _A12_11 * ddu11)
        dv12 = dv + h * (0.0 + _A12_1 * ddv1 + _A12_4 * ddv4 + _A12_5 * ddv5 + _A12_6 * ddv6
            + _A12_7 * ddv7 + _A12_8 * ddv8 + _A12_9 * ddv9 + _A12_10 * ddv10 + _A12_11 * ddv11)
        c = dm1 / (r + _C12 * h)
        ddu12 = -c * du12 - (v12 ** p if v12 > 0.0 else math.copysign(abs(v12) ** p, v12) if v12 else 0.0)
        ddv12 = -c * dv12 - (u12 ** q if u12 > 0.0 else math.copysign(abs(u12) ** q, u12) if u12 else 0.0)

        u13 = u + h * (0.0 + _B1 * du + _B6 * du6 + _B7 * du7 + _B8 * du8 + _B9 * du9 + _B10 * du10
            + _B11 * du11 + _B12 * du12)
        v13 = v + h * (0.0 + _B1 * dv + _B6 * dv6 + _B7 * dv7 + _B8 * dv8 + _B9 * dv9 + _B10 * dv10
            + _B11 * dv11 + _B12 * dv12)
        du13 = du + h * (0.0 + _B1 * ddu1 + _B6 * ddu6 + _B7 * ddu7 + _B8 * ddu8 + _B9 * ddu9
            + _B10 * ddu10 + _B11 * ddu11 + _B12 * ddu12)
        dv13 = dv + h * (0.0 + _B1 * ddv1 + _B6 * ddv6 + _B7 * ddv7 + _B8 * ddv8 + _B9 * ddv9
            + _B10 * ddv10 + _B11 * ddv11 + _B12 * ddv12)
        e5u = (0.0 + _E5_1 * du + _E5_6 * du6 + _E5_7 * du7 + _E5_8 * du8 + _E5_9 * du9
            + _E5_10 * du10 + _E5_11 * du11 + _E5_12 * du12)
        e3u = (0.0 + _E3_1 * du + _E3_6 * du6 + _E3_7 * du7 + _E3_8 * du8 + _E3_9 * du9
            + _E3_10 * du10 + _E3_11 * du11 + _E3_12 * du12)
        e5v = (0.0 + _E5_1 * dv + _E5_6 * dv6 + _E5_7 * dv7 + _E5_8 * dv8 + _E5_9 * dv9
            + _E5_10 * dv10 + _E5_11 * dv11 + _E5_12 * dv12)
        e3v = (0.0 + _E3_1 * dv + _E3_6 * dv6 + _E3_7 * dv7 + _E3_8 * dv8 + _E3_9 * dv9
            + _E3_10 * dv10 + _E3_11 * dv11 + _E3_12 * dv12)
        e5du = (0.0 + _E5_1 * ddu1 + _E5_6 * ddu6 + _E5_7 * ddu7 + _E5_8 * ddu8 + _E5_9 * ddu9
            + _E5_10 * ddu10 + _E5_11 * ddu11 + _E5_12 * ddu12)
        e3du = (0.0 + _E3_1 * ddu1 + _E3_6 * ddu6 + _E3_7 * ddu7 + _E3_8 * ddu8 + _E3_9 * ddu9
            + _E3_10 * ddu10 + _E3_11 * ddu11 + _E3_12 * ddu12)
        e5dv = (0.0 + _E5_1 * ddv1 + _E5_6 * ddv6 + _E5_7 * ddv7 + _E5_8 * ddv8 + _E5_9 * ddv9
            + _E5_10 * ddv10 + _E5_11 * ddv11 + _E5_12 * ddv12)
        e3dv = (0.0 + _E3_1 * ddv1 + _E3_6 * ddv6 + _E3_7 * ddv7 + _E3_8 * ddv8 + _E3_9 * ddv9
            + _E3_10 * ddv10 + _E3_11 * ddv11 + _E3_12 * ddv12)

        su = _ATOL_FLOOR + rel_tol * (
            (u13 if u13 > u else u) if u > 0.0 and u13 > 0.0 else max(abs(u), abs(u13))
        )
        sv = _ATOL_FLOOR + rel_tol * (
            (v13 if v13 > v else v) if v > 0.0 and v13 > 0.0 else max(abs(v), abs(v13))
        )
        sdu = _ATOL_FLOOR + rel_tol * (
            (-du13 if du13 < du else -du) if du < 0.0 and du13 < 0.0 else max(abs(du), abs(du13))
        )
        sdv = _ATOL_FLOOR + rel_tol * (
            (-dv13 if dv13 < dv else -dv) if dv < 0.0 and dv13 < 0.0 else max(abs(dv), abs(dv13))
        )
        err5 = 0.0 + (e5u / su) ** 2 + (e5v / sv) ** 2 + (e5du / sdu) ** 2 + (e5dv / sdv) ** 2
        err3 = 0.0 + (e3u / su) ** 2 + (e3v / sv) ** 2 + (e3du / sdu) ** 2 + (e3dv / sdv) ** 2
        c = dm1 / (r + h)
        ddu13 = -c * du13 - (v13 ** p if v13 > 0.0 else math.copysign(abs(v13) ** p, v13) if v13 else 0.0)
        ddv13 = -c * dv13 - (u13 ** q if u13 > 0.0 else math.copysign(abs(u13) ** q, u13) if u13 else 0.0)
    except OverflowError:
        return None, None, None, None, None, None, math.inf
    deno = err5 + 0.01 * err3
    if not deno < math.inf:
        err = math.inf
    elif deno > 0.0:
        err = h * err5 / (2.0 * math.sqrt(deno))
    else:
        err = 0.0
    return u13, v13, du13, dv13, ddu13, ddv13, err


def integrate(
    params: SystemParams,
    v0: float,
    r_max: float,
    rel_tol: float = 1e-10,
    u0: float = 1.0,
) -> RadialSolution:
    """Integrate the radial system from r_start = 1e-6 to r_max or an event.

    Starts from the regular series u = u0 - v0^p r^2/(2d), v = v0 - u0^q
    r^2/(2d), which must be positive at r_start.  Error control is
    relative with a 1e-300 absolute floor, so decaying components stay
    resolved over many decades; it covers the step's end values and the
    dense output between them (see RadialSolution.evaluate).  Positivity and
    blowup are monitored on the dense output of every accepted step; the
    run stops at the earliest event with the interpolated event point
    appended to the grid.  A run that needs more than MAX_ROWS rows raises
    InvalidInputError.
    """
    if not (0.0 < v0 < math.inf and 0.0 < u0 < math.inf):
        raise InvalidInputError(f"need finite u0 > 0 and v0 > 0, got u0={u0}, v0={v0}")
    if not R_START < r_max < math.inf:
        raise InvalidInputError(f"need {R_START} < r_max < inf, got r_max={r_max}")
    if not 1e-13 <= rel_tol <= 1e-6:
        raise InvalidInputError(f"rel_tol must be in [1e-13, 1e-6], got {rel_tol}")

    p, q, d = params.p, params.q, params.d
    dm1 = d - 1.0
    r = R_START
    try:
        vp = _signed_pow(v0, p)
        uq = _signed_pow(u0, q)
        y = (
            u0 - vp * r * r / (2.0 * d),
            v0 - uq * r * r / (2.0 * d),
            -vp * r / d,
            -uq * r / d,
        )
        row = _node(r, y, p, q, dm1)
    except OverflowError:
        raise InvalidInputError(f"the series start overflows, u0={u0}, v0={v0}") from None
    if not (y[0] > 0.0 and y[1] > 0.0):
        raise InvalidInputError(
            f"the series start is not positive: u(r_start)={y[0]}, v(r_start)={y[1]} "
            f"for u0={u0}, v0={v0}"
        )
    # each row is the one that the dense output bound and the event search
    # took at its node; a step starts from the last row's first six floats
    rows_r = [r]
    rows = [row]
    u, v, du, dv, ddu, ddv = row[:6]
    h = 0.1 * r
    status = RadialStatus.COMPLETED
    event_radius: Optional[float] = None

    while r < r_max:
        h = r_max - r if r_max - r < h else h
        if h < STEP_FLOOR * r:
            status = RadialStatus.STEP_UNDERFLOW
            event_radius = r
            break
        if len(rows) == MAX_ROWS:
            raise InvalidInputError(f"integration needs more than {MAX_ROWS} rows "
                                    f"(r={r!r} of r_max={r_max!r}, step {h!r})")

        u1, v1, du1, dv1, ddu1, ddv1, err = _dop853_step(r, h, u, v, du, dv, ddu, ddv, p, q, dm1, rel_tol)
        if err > 1.0:
            h *= max(0.2, 0.9 * err**-0.125)
            continue

        end = _row(r + h, u1, v1, du1, dv1, ddu1, ddv1, p, q, dm1)
        # the dense output bound, wherever u and v are nonzero at the step
        # end (the start is positive): also on a step past a zero, so that
        # the event search runs on a bounded polynomial
        if u1 != 0.0 and v1 != 0.0:
            dense = _dense_error(h, rel_tol, row, end)
            if dense > 1.0:
                h *= max(0.2, 0.9 * dense**-0.125)
                continue
            err = dense if dense > err else err
        if not _hull_clear(h, row, end):
            event = _scan_events(r, h, _step_data(h, row, end))
            if event is not None:
                r_event, status, y_event = event
                rows_r.append(r_event)
                rows.append(_node(r_event, y_event, p, q, dm1))
                event_radius = r_event
                break

        r = r + h
        rows_r.append(r)
        rows.append(end)
        row = end
        u, v, du, dv, ddu, ddv = u1, v1, du1, dv1, ddu1, ddv1
        factor = 5.0 if err == 0.0 else 0.9 * err**-0.125
        h *= (factor if factor < 5.0 else 5.0) if factor > 0.2 else 0.2  # min(5, max(0.2, .))

    arr = np.array(rows)
    return RadialSolution(
        params=params,
        u0=u0,
        v0=v0,
        r=np.array(rows_r),
        u=arr[:, 0],
        v=arr[:, 1],
        du=arr[:, 2],
        dv=arr[:, 3],
        higher=arr[:, 4:10],
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
    if not 0.0 < R < math.inf:  # NaN fails too
        raise InvalidInputError(f"R must be positive and finite, got {R!r}")
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
    try:
        ra = R**consts.alpha
        rb = R**consts.beta
        # column k of higher holds derivatives of order 2 + k // 2
        factors = [w * R**n for n in (2, 3, 4) for w in (ra, rb)]
    except OverflowError:
        raise InvalidInputError(f"blow_down scale factors overflow at R={R!r}") from None
    status = sol.status if mask[-1] else RadialStatus.COMPLETED
    event = sol.event_radius / R if (mask[-1] and sol.event_radius is not None) else None
    with np.errstate(over="ignore", invalid="ignore"):
        r = sol.r[mask] / R
        u = ra * sol.u[mask]
        v = rb * sol.v[mask]
        du = ra * R * sol.du[mask]
        dv = rb * R * sol.dv[mask]
        higher = sol.higher[mask] * factors
    if not all(np.isfinite(a).all() for a in (r, u, v, du, dv, higher)):
        raise InvalidInputError(f"blow_down by R={R!r} leaves the float range")
    return RadialSolution(
        params=sol.params,
        u0=float(u[0]),
        v0=float(v[0]),
        r=r,
        u=u,
        v=v,
        du=du,
        dv=dv,
        higher=higher,
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
    # the k-th derivative of A r^-e is A (-e)(-e-1)...(-e-k+1) r^(-e-k)
    u, v, du, dv, *higher = (
        amp * math.prod(-e - j for j in range(k)) * r ** (-e - k)
        for k in range(5) for amp, e in ((c.a_coef, c.alpha), (c.b_coef, c.beta))
    )
    return RadialSolution(
        params=params,
        u0=float(u[0]),
        v0=float(v[0]),
        r=r,
        u=u,
        v=v,
        du=du,
        dv=dv,
        higher=np.stack(higher, axis=1),
        status=RadialStatus.COMPLETED,
        event_radius=None,
        rel_tol=0.0,
    )
