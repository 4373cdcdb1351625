"""Regime taxonomy for parameter triples and tracing of the critical curves.

classify() maps a triple (p, q, d) to its criticality class and to the
applicability flags of the nonexistence/existence statements implemented by
this package.  trace_hyperbola() and trace_jl_curve() trace, at fixed d,
the critical Sobolev hyperbola 1/(p+1) + 1/(q+1) = 1 - 2/d and the
Joseph-Lundgren curve (the zero set of the stability margin H^2 - pq*lambda*mu).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .errors import EmptyTraceError, InvalidInputError
from .exponents import (
    DerivedConstants,
    QuarticKind,
    SystemParams,
    _closed_forms,
    _lockstep_largest_roots,
    _margin,
    _quartic_from_constants,
    derive_constants,
    jl_margin,
    largest_root,
)

__all__ = [
    "Criticality",
    "RegimeReport",
    "CurveKind",
    "CurvePointStatus",
    "CurvePoint",
    "CurveTrace",
    "hyperbola_gap",
    "criticality",
    "classify",
    "trace_hyperbola",
    "trace_jl_curve",
    "grid_classify",
    "jl_threshold_dimension",
]

#: half-width of the equality band on the hyperbola gap
HYPERBOLA_BAND = 1e-12

#: JL curve points are converged when |margin| < JL_CURVE_TOL * max(1, H^2)
JL_CURVE_TOL = 1e-9


class Criticality(Enum):
    SUBCRITICAL = "subcritical"
    CRITICAL_HYPERBOLA = "critical_hyperbola"
    SUPERCRITICAL = "supercritical"


def hyperbola_gap(params: SystemParams) -> float:
    """1/(p+1) + 1/(q+1) - (1 - 2/d); <= 0 is the supercritical side."""
    return 1.0 / (params.p + 1.0) + 1.0 / (params.q + 1.0) - (1.0 - 2.0 / params.d)


def criticality(params: SystemParams) -> Criticality:
    return _criticality_of(hyperbola_gap(params))


def _criticality_of(gap: float) -> Criticality:
    if abs(gap) <= HYPERBOLA_BAND:
        return Criticality.CRITICAL_HYPERBOLA
    return Criticality.SUPERCRITICAL if gap < 0.0 else Criticality.SUBCRITICAL


@dataclass(frozen=True)
class RegimeReport:
    """Classification of one parameter triple.

    The thm_* flags state whether the hypotheses of the corresponding
    statement hold; they are None (not applicable) for non-integer d.

    - thm_d_le_10_applies: low-dimension nonexistence of positive stable
      solutions (d <= 10).
    - thm_below_jl_applies: nonexistence below the Joseph-Lundgren curve,
      in the threshold form d < 2 + 2*x0 with x0 the largest root of the
      Joseph-Lundgren quartic; stated for asymptotically homogeneous
      solutions (see notes).
    - thm_quartic_applies: nonexistence for d < 2 + 2*x0 with x0 the
      largest root of the plain quartic (no homogeneity assumption).
    - thm_stable_radial_exists: a positive radial stable solution exists
      (integer d >= 11, supercritical, on or above the Joseph-Lundgren curve).
    """

    params: SystemParams
    constants: DerivedConstants
    criticality: Criticality
    jl_margin: float
    x0_plain: float
    x0_jl: float
    on_or_above_jl: bool
    thm_d_le_10_applies: Optional[bool]
    thm_below_jl_applies: Optional[bool]
    thm_quartic_applies: Optional[bool]
    thm_stable_radial_exists: Optional[bool]
    notes: tuple[str, ...]


def classify(params: SystemParams) -> RegimeReport:
    """Full regime report for one triple.  Pure function of its input."""
    return _report(params, derive_constants(params), largest_root(params, QuarticKind.PLAIN_H),
                   largest_root(params, QuarticKind.JOSEPH_LUNDGREN))


def _report(params: SystemParams, consts: DerivedConstants, x0_plain: float, x0_jl: float) -> RegimeReport:
    margin = _margin(params.p, params.q, consts.H, consts.lam, consts.mu)
    gap = hyperbola_gap(params)
    crit = _criticality_of(gap)
    on_or_above = margin >= 0.0

    notes: list[str] = []
    if params.integer_dimension:
        d = params.d
        thm_d_le_10 = d <= 10.0
        thm_below_jl = d < 2.0 + 2.0 * x0_jl
        thm_quartic = d < 2.0 + 2.0 * x0_plain
        stable_exists = d >= 11.0 and on_or_above and gap <= HYPERBOLA_BAND
        if thm_below_jl:
            notes.append(
                "below-curve nonexistence assumes asymptotically homogeneous "
                "solutions; homogeneity of blow-down limits is not decidable "
                "from a finite radial sample"
            )
        if crit is Criticality.CRITICAL_HYPERBOLA:
            notes.append(
                "on the critical hyperbola: variants for solutions stable only "
                "outside a compact set require staying off the hyperbola and do "
                "not apply here (ground states exist on the hyperbola)"
            )
        if stable_exists:
            notes.append(
                "existence side: d >= 11 and (p, q) on or above the "
                "Joseph-Lundgren curve; the singular solution is stable"
            )
    else:
        thm_d_le_10 = thm_below_jl = thm_quartic = stable_exists = None
        notes.append(
            "analytic-continuation: non-integer dimension accepted for curve "
            "tracing only; theorem flags not asserted"
        )

    return RegimeReport(
        params=params,
        constants=consts,
        criticality=crit,
        jl_margin=margin,
        x0_plain=x0_plain,
        x0_jl=x0_jl,
        on_or_above_jl=on_or_above,
        thm_d_le_10_applies=thm_d_le_10,
        thm_below_jl_applies=thm_below_jl,
        thm_quartic_applies=thm_quartic,
        thm_stable_radial_exists=stable_exists,
        notes=tuple(notes),
    )


class CurveKind(Enum):
    JL = "jl"
    HYPERBOLA = "hyperbola"


class CurvePointStatus(Enum):
    OK = "ok"
    #: converged zero of the margin, but at a subcritical point where no
    #: singular solution exists (spurious branch, not a stability boundary)
    OK_SUBCRITICAL = "ok_subcritical"
    #: admissible q would violate the p >= q >= 1 normalization
    OUT_OF_RANGE = "out_of_range"
    #: no sign change of the margin found for this p
    NO_SIGN_CHANGE = "no_sign_change"
    #: closed form undefined (hyperbola) or no admissible q at all
    UNDEFINED = "undefined"


@dataclass(frozen=True)
class CurvePoint:
    p: float
    q: float
    status: CurvePointStatus


@dataclass(frozen=True)
class CurveTrace:
    d: float
    curve: CurveKind
    points: tuple[CurvePoint, ...]

    @property
    def ok_points(self) -> tuple[CurvePoint, ...]:
        return tuple(pt for pt in self.points if pt.status is CurvePointStatus.OK)


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    if n < 2:
        raise InvalidInputError("need at least 2 sample points")
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def trace_hyperbola(d: float, p_min: float, p_max: float, n: int) -> CurveTrace:
    """Critical hyperbola q(p) = 1/(1 - 2/d - 1/(p+1)) - 1 at fixed d.

    Points whose closed-form q falls outside [1, p] are emitted with an
    out-of-range status; points where the closed form is undefined (the
    denominator is nonpositive) are marked undefined.  Raises EmptyTraceError
    when no sampled p yields an admissible q.
    """
    if not d > 2.0:
        raise InvalidInputError(f"need d > 2, got d={d}")
    if not p_max >= p_min >= 1.0:
        raise InvalidInputError("need p_max >= p_min >= 1")
    points = []
    for p in _linspace(p_min, p_max, n):
        den = 1.0 - 2.0 / d - 1.0 / (p + 1.0)
        if den <= 0.0:
            points.append(CurvePoint(p, math.nan, CurvePointStatus.UNDEFINED))
            continue
        q = 1.0 / den - 1.0
        if q < 1.0 or q > p:
            points.append(CurvePoint(p, q, CurvePointStatus.OUT_OF_RANGE))
        else:
            points.append(CurvePoint(p, q, CurvePointStatus.OK))
    trace = CurveTrace(d=d, curve=CurveKind.HYPERBOLA, points=tuple(points))
    if not trace.ok_points:
        raise EmptyTraceError(f"no admissible hyperbola point for d={d}, p in [{p_min}, {p_max}]")
    return trace


def trace_jl_curve(d: float, p_min: float, p_max: float, n: int) -> CurveTrace:
    """Joseph-Lundgren curve q*(p) at fixed d, by bisection of the margin.

    For each sampled p the margin is bisected over q in [1, p] when a sign
    change exists there.  Otherwise the upper bracket expands monotonically
    past p (using the p <-> q symmetry of the margin); a crossing found at
    q > p is emitted with an out-of-range status rather than swapped.  The
    trace never raises: statuses carry per-point failures, and for d <= 10
    every point reports no sign change (the curve is empty).
    """
    if not p_max >= p_min:
        raise InvalidInputError("need p_max >= p_min")
    points = []
    for p in _linspace(p_min, p_max, n):
        if p <= 1.0:
            points.append(CurvePoint(p, math.nan, CurvePointStatus.UNDEFINED))
            continue
        points.append(_jl_curve_point(p, d))
    return CurveTrace(d=d, curve=CurveKind.JL, points=tuple(points))


def _margin_and_tol(p: float, q: float, d: float) -> tuple[float, float]:
    """The JL margin at (p, q, d) and half its convergence tolerance, from one
    set of closed forms.  The margin is symmetric under swapping p and q; the
    pair is normalized as SystemParams would need it past q = p.  The caller
    has checked p and d with SystemParams, and keeps q finite and >= 1."""
    if q > p:
        p, q = q, p
    _, _, _, H, lam, mu = _closed_forms(p, q, d)
    return _margin(p, q, H, lam, mu), 0.5 * JL_CURVE_TOL * max(1.0, H**2)


def _jl_curve_point(p: float, d: float) -> CurvePoint:
    checked = SystemParams(p, 1.0, d)  # what every margin evaluation would check
    p, d = checked.p, checked.d
    q_lo, q_hi = 1.0, p
    (f_lo, tol_lo), (f_hi, tol_hi) = _margin_and_tol(p, q_lo, d), _margin_and_tol(p, q_hi, d)
    out_of_range = False
    if abs(f_hi) < tol_hi:
        q_star = q_hi
    elif abs(f_lo) < tol_lo:
        q_star = q_lo
    else:
        if (f_lo < 0.0) == (f_hi < 0.0):
            # expand above the diagonal; crossings there are reported, not swapped
            out_of_range = True
            q_lo, f_lo = q_hi, f_hi
            found = False
            for _ in range(40):
                q_hi = 2.0 * q_lo
                if q_hi == math.inf:
                    SystemParams(q_hi, p, d)  # raises: p, q, d must be finite
                f_hi, _ = _margin_and_tol(p, q_hi, d)
                if (f_lo < 0.0) != (f_hi < 0.0):
                    found = True
                    break
                q_lo, f_lo = q_hi, f_hi
            if not found:
                return CurvePoint(p, math.nan, CurvePointStatus.NO_SIGN_CHANGE)
        for _ in range(200):
            q_mid = 0.5 * (q_lo + q_hi)
            f_mid, tol_mid = _margin_and_tol(p, q_mid, d)
            if abs(f_mid) < tol_mid or q_hi - q_lo < 1e-14 * q_hi:
                break
            if (f_lo < 0.0) != (f_mid < 0.0):
                q_hi, f_hi = q_mid, f_mid
            else:
                q_lo, f_lo = q_mid, f_mid
        q_star = 0.5 * (q_lo + q_hi)

    if out_of_range or q_star > p:
        return CurvePoint(p, q_star, CurvePointStatus.OUT_OF_RANGE)
    pr = SystemParams(p, q_star, d)
    if hyperbola_gap(pr) > HYPERBOLA_BAND:
        return CurvePoint(p, q_star, CurvePointStatus.OK_SUBCRITICAL)
    return CurvePoint(p, q_star, CurvePointStatus.OK)


def grid_classify(
    d: float,
    p_range: tuple[float, float],
    q_range: tuple[float, float],
    resolution: int,
) -> list[RegimeReport]:
    """Classify a (p, q) grid at fixed d, row-major in p then q.

    Grid points violating p >= q >= 1 or pq > 1 are skipped; a non-finite
    range end or an invalid d raises InvalidParamsError.  The output
    order is deterministic, so repeated runs serialize identically.  Each
    report equals classify()'s bit for bit: the largest roots of both
    quartics come from one lockstep bisection over all grid points, which
    follows largest_root's common path exactly, and a point that leaves
    that path asks largest_root itself.
    """
    if resolution < 2:
        raise InvalidInputError("resolution must be >= 2")
    if not (p_range[1] >= p_range[0] and q_range[1] >= q_range[0]):
        raise InvalidInputError("empty parameter range")
    for x in (*p_range, *q_range):  # SystemParams' checks of finiteness and of d, once per grid
        SystemParams(2.0 + abs(x), 1.0, d)  # the pair passes its test when x is finite
    qs = _linspace(q_range[0], q_range[1], resolution)
    triples = []
    for p in _linspace(p_range[0], p_range[1], resolution):
        for q in qs:
            if p >= q >= 1.0 and p * q > 1.0:  # SystemParams' pair test, without the raise
                params = SystemParams(p, q, d)
                triples.append((params, derive_constants(params)))
    kinds = (QuarticKind.PLAIN_H, QuarticKind.JOSEPH_LUNDGREN)
    quartics = [(pr, kind, _quartic_from_constants(pr, c, kind)) for kind in kinds for pr, c in triples]
    roots, why = _lockstep_largest_roots([coeffs for _, _, coeffs in quartics])
    x0 = [largest_root(pr, kind) if w else r for r, w, (pr, kind, _) in zip(roots.tolist(), why, quartics)]
    n = len(triples)
    return [_report(pr, c, x0[i], x0[n + i]) for i, (pr, c) in enumerate(triples)]


def jl_threshold_dimension(p: float, q: float) -> float:
    """Dimension d* at which (p, q) crosses the Joseph-Lundgren curve.

    In x = (d - 2)/2 the margin is the Joseph-Lundgren quartic, so d* =
    2 + 2 x0 with x0 its largest root.  The margin must be negative at the
    critical dimension max(3, 2 + alpha + beta); InvalidInputError otherwise.
    """
    probe = SystemParams(p, q, 3.0)
    c = derive_constants(probe)
    d_lo = max(3.0, 2.0 + c.alpha + c.beta)
    if jl_margin(SystemParams(p, q, d_lo)) >= 0.0:
        raise InvalidInputError(f"margin not negative at the critical dimension d={d_lo}")
    return 2.0 + 2.0 * largest_root(probe, QuarticKind.JOSEPH_LUNDGREN)
