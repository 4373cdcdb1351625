import math

import numpy as np
import pytest

from lelab import (
    Criticality,
    CurvePointStatus,
    EmptyTraceError,
    SystemParams,
    classify,
    derive_constants,
    grid_classify,
    hyperbola_gap,
    jl_margin,
    jl_threshold_dimension,
    trace_hyperbola,
    trace_jl_curve,
)
from lelab import classifier
from lelab.errors import InvalidParamsError
from conftest import sample_supercritical, sample_valid


def test_classify_examples():
    rep = classify(SystemParams(3, 3, 10))
    assert rep.thm_d_le_10_applies is True

    rep = classify(SystemParams(3, 3, 13))
    assert rep.thm_stable_radial_exists is True
    assert rep.thm_below_jl_applies is False
    assert rep.on_or_above_jl

    rep = classify(SystemParams(3, 3, 12))
    assert rep.thm_below_jl_applies is True
    assert rep.thm_stable_radial_exists is False

    rep = classify(SystemParams(5, 5, 3))
    assert rep.criticality is Criticality.CRITICAL_HYPERBOLA


def test_classify_non_integer_dimension():
    rep = classify(SystemParams(3, 3, 12.5))
    assert rep.thm_d_le_10_applies is None
    assert rep.thm_below_jl_applies is None
    assert rep.thm_quartic_applies is None
    assert rep.thm_stable_radial_exists is None
    assert any("analytic-continuation" in note for note in rep.notes)


def test_classify_is_pure():
    a = classify(SystemParams(3, 2, 13))
    b = classify(SystemParams(3, 2, 13))
    assert a == b


def test_region_nesting_random():
    rng = np.random.default_rng(41)
    for _ in range(400):
        base = sample_valid(rng)
        params = SystemParams(base.p, base.q, float(int(base.d)))
        rep = classify(params)
        if rep.thm_quartic_applies:
            assert rep.thm_below_jl_applies
        if rep.thm_stable_radial_exists:
            assert not rep.thm_below_jl_applies


def test_region_nesting_on_grids():
    for d in (11.0, 13.0):
        for rep in grid_classify(d, (1.1, 8.0), (1.1, 8.0), 10):
            if rep.thm_quartic_applies:
                assert rep.thm_below_jl_applies
            if rep.thm_stable_radial_exists:
                assert not rep.thm_below_jl_applies


def test_hyperbola_trace_closed_form_points():
    tr = trace_hyperbola(3.0, 5.0, 5.0, 2)
    assert all(abs(pt.q - 5.0) < 1e-12 for pt in tr.ok_points)

    tr = trace_hyperbola(4.0, 3.0, 3.0, 2)
    assert all(abs(pt.q - 3.0) < 1e-12 for pt in tr.ok_points)

    tr = trace_hyperbola(6.0, 2.0, 2.0, 2)
    assert all(abs(pt.q - 2.0) < 1e-12 for pt in tr.ok_points)


def test_hyperbola_trace_alpha_beta_identity():
    tr = trace_hyperbola(9.0, 1.5, 12.0, 40)
    assert tr.ok_points
    for pt in tr.ok_points:
        c = derive_constants(SystemParams(pt.p, pt.q, tr.d))
        assert abs(c.alpha + c.beta - (tr.d - 2.0)) < 1e-10


def test_hyperbola_trace_out_of_range_flags():
    # at d = 12 the hyperbola leaves q >= 1 for p > 2
    tr = trace_hyperbola(12.0, 1.2, 6.0, 30)
    statuses = {pt.status for pt in tr.points}
    assert CurvePointStatus.OK in statuses
    assert CurvePointStatus.OUT_OF_RANGE in statuses


def test_hyperbola_trace_empty():
    with pytest.raises(EmptyTraceError):
        trace_hyperbola(3.0, 1.2, 1.6, 5)


def test_jl_curve_at_symmetric_threshold():
    d_star = 8.0 + 2.0 * math.sqrt(6.0)
    tr = trace_jl_curve(d_star, 3.0, 3.0, 2)
    for pt in tr.points:
        assert pt.status in (CurvePointStatus.OK, CurvePointStatus.OUT_OF_RANGE)
    ok = tr.ok_points
    assert ok and abs(ok[0].q - 3.0) < 1e-6


def test_jl_curve_empty_below_11():
    # no genuine curve point at d = 10: margin zeros there sit on the
    # subcritical spurious branch and carry a non-OK status
    tr = trace_jl_curve(10.0, 1.5, 6.0, 12)
    assert not tr.ok_points


def test_jl_curve_d13_self_consistency():
    tr = trace_jl_curve(13.0, 2.5, 6.0, 12)
    assert tr.ok_points
    for pt in tr.ok_points:
        params = SystemParams(pt.p, pt.q, 13.0)
        h2 = derive_constants(params).H ** 2
        assert abs(jl_margin(params)) < 1e-9 * max(1.0, h2)
        assert 1.0 <= pt.q <= pt.p


def test_jl_curve_spurious_branch_flagged():
    # small p at d = 13 yields a margin zero on the subcritical side
    tr = trace_jl_curve(13.0, 1.2, 1.2, 2)
    assert all(
        pt.status in (CurvePointStatus.OK_SUBCRITICAL, CurvePointStatus.OUT_OF_RANGE)
        for pt in tr.points
    )


def test_grid_classify_contracts():
    reports = grid_classify(13.0, (1.1, 6.0), (1.1, 6.0), 12)
    assert reports
    for rep in reports:
        assert rep.params.p >= rep.params.q >= 1.0

    single = grid_classify(13.0, (3.0, 3.0), (3.0, 3.0), 2)
    assert all(rep == classify(SystemParams(3, 3, 13)) for rep in single)

    d10 = grid_classify(10.0, (1.1, 8.0), (1.1, 8.0), 15)
    assert d10 and not any(rep.thm_stable_radial_exists for rep in d10)


def test_jl_threshold_dimension_is_where_the_margin_changes_sign():
    # d* comes from the quartic's root; the margin, evaluated in d on its
    # own, must change sign across it
    rng = np.random.default_rng(43)
    pairs = [(1.015625, 1.0)]  # pq near 1: the singular amplitudes overflow at d*
    pairs += [(pr.p, pr.q) for pr in (sample_supercritical(rng, q_hi=4.0, p_extra=3.0) for _ in range(40))]
    for p, q in pairs:
        d_star = jl_threshold_dimension(p, q)
        assert jl_margin(SystemParams(p, q, d_star * (1.0 - 1e-10))) < 0.0
        assert jl_margin(SystemParams(p, q, d_star * (1.0 + 1e-10))) > 0.0


def test_criticality_band():
    on = SystemParams(3, 3, 4)
    assert abs(hyperbola_gap(on)) < 1e-15
    assert classify(on).criticality is Criticality.CRITICAL_HYPERBOLA
    assert classify(SystemParams(3, 3, 5)).criticality is Criticality.SUPERCRITICAL
    assert classify(SystemParams(3, 3, 3)).criticality is Criticality.SUBCRITICAL


def _reference_margin_and_tol(p, q, d):
    """The JL margin path with a SystemParams and the closed forms of
    derive_constants written out at every evaluation."""
    params = SystemParams(q, p, d) if q > p else SystemParams(p, q, d)
    p, q, d = params.p, params.q, params.d
    pq1 = p * q - 1.0
    alpha = 2.0 * (p + 1.0) / pq1
    beta = 2.0 * (q + 1.0) / pq1
    gamma = alpha - beta
    H = ((d - 2.0) ** 2 - gamma**2) / 4.0
    lam = alpha * (d - 2.0 - alpha)
    mu = beta * (d - 2.0 - beta)
    return H * H - p * q * lam * mu, 0.5 * classifier.JL_CURVE_TOL * max(1.0, H**2)


def _trace_bits(d, p_min, p_max, n):
    try:
        trace = trace_jl_curve(d, p_min, p_max, n)
    except InvalidParamsError as exc:
        return str(exc)
    return [(pt.p.hex(), pt.q.hex(), pt.status) for pt in trace.points]


def test_jl_curve_matches_the_per_evaluation_margin_path(monkeypatch):
    rng = np.random.default_rng(25)
    for _ in range(2000):  # q above p too, as the expansion above the diagonal asks
        p, q, d = 1.0 + 10.0 * rng.random(), 1.0 + 40.0 * rng.random(), rng.uniform(3.0, 20.0)
        got = classifier._margin_and_tol(p, q, d)
        assert [x.hex() for x in got] == [x.hex() for x in _reference_margin_and_tol(p, q, d)], (p, q, d)
    cases = [(13.0, 1e296, 1e297, 2)]  # the expansion above the diagonal overflows
    for _ in range(150):
        d = float(rng.integers(3, 21)) if rng.random() < 0.5 else rng.uniform(3.0, 20.0)
        p_min = rng.uniform(0.8, 4.0)
        cases.append((d, p_min, p_min + rng.uniform(0.0, 30.0), int(rng.integers(2, 25))))
    got = [_trace_bits(*case) for case in cases]
    monkeypatch.setattr(classifier, "_margin_and_tol", _reference_margin_and_tol)
    assert got == [_trace_bits(*case) for case in cases]
    assert got[0] == "p, q, d must be finite"
    seen = {status for bits in got[1:] for _, _, status in bits}
    assert seen == set(CurvePointStatus), seen
