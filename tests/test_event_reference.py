"""The one-pass event scan against a per-event-function scalar reference.

The reference keeps the earlier scan: each of the four event functions is
walked over tau = 0, 1/8, ..., 1 through the scalar ``_polyval`` and its
first bracketing subinterval is bisected on its own; the earliest tau wins,
ties going to v-zero, then u-zero, then blowup.  ``_scan_events`` must give
the same bits on the steps of real trajectories and on random steps built
to hold zeros, blowups, ties and hits at the step start.
"""

import math
import random

import numpy as np
import pytest

from lelab import RadialStatus, SystemParams, integrate, radial
from lelab.radial import (
    BLOWUP_THRESHOLD,
    EVENT_RTOL,
    _hermite_coeffs,
    _hull_clear,
    _polyder,
    _polyval,
    _rhs,
    _scan_events,
    _step_coeffs,
    _third_derivs,
)


def _first_crossing(c, level, sign, r0, h):
    g = lambda t: sign * (_polyval(c, t) - level)
    if g(0.0) <= 0.0:
        return 1e-9
    prev_t = 0.0
    for t in np.linspace(0.125, 1.0, 8):
        if g(t) <= 0.0:
            lo, hi = prev_t, float(t)
            for _ in range(200):
                if (hi - lo) * h <= EVENT_RTOL * (r0 + lo * h):
                    break
                mid = 0.5 * (lo + hi)
                if g(mid) <= 0.0:
                    hi = mid
                else:
                    lo = mid
            return hi
        prev_t = float(t)
    return None


def _reference_scan(r0, h, y0, k0, y1, k1, p, q, dm1):
    cu, cv = _step_coeffs(r0, h, y0, k0, y1, k1, p, q, dm1)
    found = [
        (_first_crossing(cv, 0.0, 1, r0, h), 0, RadialStatus.V_HIT_ZERO),
        (_first_crossing(cu, 0.0, 1, r0, h), 1, RadialStatus.U_HIT_ZERO),
        (_first_crossing(cu, BLOWUP_THRESHOLD, -1, r0, h), 2, RadialStatus.BLOWUP),
        (_first_crossing(cv, BLOWUP_THRESHOLD, -1, r0, h), 2, RadialStatus.BLOWUP),
    ]
    found = [f for f in found if f[0] is not None]
    if not found:
        return None
    t, _, status = min(found)
    values = (_polyval(cu, t), _polyval(cv, t),
              _polyval(_polyder(cu), t) / h, _polyval(_polyder(cv), t) / h)
    return r0 + t * h, status, values


def _bits(event):
    if event is None:
        return None
    r_event, status, values = event
    return float(r_event).hex(), status, tuple(float(w).hex() for w in values)


def _check_step(r0, h, y0, y1, p, q, dm1):
    k0 = _rhs(r0, *y0, p, q, dm1)
    k1 = _rhs(r0 + h, *y1, p, q, dm1)
    got = _scan_events(r0, h, y0, k0, y1, k1, p, q, dm1)
    if got is not None:
        assert type(got[0]) is float
    assert _bits(got) == _bits(_reference_scan(r0, h, y0, k0, y1, k1, p, q, dm1))
    return got


@pytest.mark.parametrize("triple, v0, r_max", [
    ((3, 3, 3), 1.0, 50.0),
    ((5, 5, 3), 1.7, 20.0),
    ((3, 2, 13), 1.1, 30.0),
])
def test_scan_matches_reference_on_trajectory_steps(triple, v0, r_max):
    params = SystemParams(*triple)
    p, q, dm1 = params.p, params.q, params.d - 1.0
    sol = integrate(params, v0, r_max, rel_tol=1e-8)
    rows = list(zip(sol.r.tolist(), sol.u.tolist(), sol.v.tolist(),
                    sol.du.tolist(), sol.dv.tolist()))
    # every accepted step; the last one, into the event row, holds the event
    for (r0, *y0), (r1, *y1) in zip(rows[:-1], rows[1:]):
        _check_step(r0, r1 - r0, tuple(y0), tuple(y1), p, q, dm1)


def test_scan_matches_reference_on_random_steps():
    rng = random.Random(2024)
    statuses = set()
    levels = (0.0, BLOWUP_THRESHOLD)
    for _ in range(3000):
        p, q = rng.uniform(1.0, 5.0), rng.uniform(1.0, 5.0)
        dm1 = rng.choice((2.0, 4.0, 12.0))
        r0 = 10.0 ** rng.uniform(-6.0, 2.0)
        h = r0 * 10.0 ** rng.uniform(-3.0, 0.5)
        # endpoint values near a zero or near the blowup level, on either side
        y0 = [rng.choice(levels) + rng.uniform(-0.1, 1.0) * 10.0 ** rng.uniform(-3, 1)
              for _ in range(2)]
        y1 = [rng.choice(levels) + rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-3, 1)
              for _ in range(2)]
        if rng.random() < 0.2:  # exact symmetry: simultaneous events of u and v
            y0[1], y1[1] = y0[0], y1[0]
        slopes = [rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-2, 2) for _ in range(4)]
        event = _check_step(r0, h, (*y0, *slopes[:2]), (*y1, *slopes[2:]), p, q, dm1)
        if event is not None:
            statuses.add(event[1])
    assert statuses == {RadialStatus.V_HIT_ZERO, RadialStatus.U_HIT_ZERO, RadialStatus.BLOWUP}


# --- hull pre-test: whenever _hull_clear says a step is clear, the scan is empty


def _endpoint_derivs(r0, h, y0, y1, p, q, dm1):
    """Slopes and third derivatives at both ends of a step, as integrate forms them."""
    k0 = _rhs(r0, *y0, p, q, dm1)
    k1 = _rhs(r0 + h, *y1, p, q, dm1)
    ddd0 = _third_derivs(r0, *k0, y0[0], y0[1], p, q, dm1)
    ddd1 = _third_derivs(r0 + h, *k1, y1[0], y1[1], p, q, dm1)
    return k0, k1, ddd0, ddd1


def _scaled(h, w0, d0, dd0, t0, w1, d1, dd1, t1):
    """One component's Hermite data: value and h^k times the k-th derivative, k = 1..3."""
    return w0, h * d0, h * h * dd0, h**3 * t0, w1, h * d1, h * h * dd1, h**3 * t1


def _hull_and_scan(r0, h, y0, y1, p, q, dm1):
    k0, k1, ddd0, ddd1 = _endpoint_derivs(r0, h, y0, y1, p, q, dm1)
    clear = _hull_clear(h, y0, k0, ddd0, y1, k1, ddd1)
    return clear, _scan_events(r0, h, y0, k0, y1, k1, p, q, dm1)


def _constructed_steps(rng, n):
    """Steps whose u ends at, or bottoms (tops) out at, a set distance from 0 (1e8).

    u's derivative data do not depend on u itself, so adding a constant to
    u0 and u1 moves the whole dense polynomial of u by that constant: the end
    value is set exactly, the interior extremum to within rounding.  Near
    1e8, q = 1 and short steps keep v's data, which see u**q, moderate.
    """
    for _ in range(n):
        top = rng.random() < 0.5
        interior = rng.random() < 0.5
        if top:
            p, q, dm1 = rng.uniform(1.0, 3.0), 1.0, rng.choice((2.0, 4.0, 12.0))
            r0 = rng.uniform(1.0, 10.0)
            h = r0 * 10.0 ** rng.uniform(-7.0, -6.0)
            slope = lambda: rng.uniform(1e3, 1e5)
            base = BLOWUP_THRESHOLD - rng.uniform(1.0, 100.0)
        else:
            p, q, dm1 = rng.uniform(1.0, 5.0), rng.uniform(1.0, 2.0), rng.choice((2.0, 4.0, 12.0))
            r0 = 10.0 ** rng.uniform(-2.0, 1.0)
            h = r0 * 10.0 ** rng.uniform(-3.0, -0.5)
            slope = lambda: rng.uniform(0.1, 2.0)
            base = rng.uniform(0.5, 2.0)
        # toward the level all along, or toward it and back (an interior extremum)
        toward = 1.0 if top else -1.0
        du0 = toward * slope()
        du1 = (-toward if interior else toward) * slope()
        v0, v1 = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        dv0, dv1 = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
        y0 = [base, v0, du0, dv0]
        y1 = [base if interior else 0.0, v1, du1, dv1]  # an end value is set below
        k0, k1, ddd0, ddd1 = _endpoint_derivs(r0, h, y0, y1, p, q, dm1)
        scale = sum(map(abs, _scaled(h, y0[0], k0[0], k0[2], ddd0[0],
                                     y1[0], k1[0], k1[2], ddd1[0])))
        ulps = 3 * math.ulp(BLOWUP_THRESHOLD if top else 0.0)
        for offset in (0.0, ulps, 1e-16 * scale, 1e-13 * scale, 1e-11 * scale, 1e-10 * scale):
            for sign in (1.0, -1.0):
                target = BLOWUP_THRESHOLD - sign * offset if top else sign * offset
                a, b = list(y0), list(y1)
                if interior:
                    k0, k1, _, _ = _endpoint_derivs(r0, h, a, b, p, q, dm1)
                    cu, _ = _step_coeffs(r0, h, a, k0, b, k1, p, q, dm1)
                    w = _polyval(cu, np.linspace(0.0, 1.0, 4001))
                    shift = target - (w.max() if top else w.min())
                    a[0] += shift
                    b[0] += shift
                else:
                    b[0] = target
                yield r0, h, tuple(a), tuple(b), p, q, dm1


def _random_steps(rng, n):
    for _ in range(n):
        p, q = rng.uniform(1.0, 5.0), rng.uniform(1.0, 5.0)
        dm1 = rng.choice((2.0, 4.0, 12.0))
        r0 = 10.0 ** rng.uniform(-6.0, 2.0)
        h = r0 * 10.0 ** rng.uniform(-4.0, 0.5)
        # endpoint values near a zero, near the blowup level, or between
        levels = (0.0, BLOWUP_THRESHOLD, 10.0 ** rng.uniform(0.0, 7.5))
        y0 = [rng.choice(levels) + rng.uniform(-0.1, 1.0) * 10.0 ** rng.uniform(-3, 1)
              for _ in range(2)]
        y1 = [rng.choice(levels) + rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-3, 1)
              for _ in range(2)]
        slopes = [rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-2, 2) for _ in range(4)]
        yield r0, h, (*y0, *slopes[:2]), (*y1, *slopes[2:]), p, q, dm1


def _trajectory_steps(triple, v0, r_max, rel_tol):
    params = SystemParams(*triple)
    sol = integrate(params, v0, r_max, rel_tol)
    rows = list(zip(sol.r.tolist(), sol.u.tolist(), sol.v.tolist(),
                    sol.du.tolist(), sol.dv.tolist()))
    for (r0, *y0), (r1, *y1) in zip(rows[:-1], rows[1:]):
        yield r0, r1 - r0, tuple(y0), tuple(y1), params.p, params.q, params.d - 1.0


def _hull_tally(steps):
    """(steps the hull cleared, cleared steps on which the scan found an event)."""
    cleared, unsound = 0, []
    for step in steps:
        clear, event = _hull_and_scan(*step)
        cleared += clear
        if clear and event is not None:
            unsound.append(step)
    return cleared, unsound


@pytest.mark.parametrize("triple, v0, r_max, rel_tol", [
    ((3, 3, 3), 1.0, 50.0, 1e-8),
    ((5, 5, 3), 1.7, 20.0, 1e-8),
    ((3, 2, 13), 1.1, 30.0, 1e-8),
    ((1.5, 1.2, 3), 9.9e7, 1.0, 1e-10),
])
def test_hull_is_sound_on_trajectory_steps(triple, v0, r_max, rel_tol):
    steps = list(_trajectory_steps(triple, v0, r_max, rel_tol))
    cleared, unsound = _hull_tally(steps)
    assert unsound == []
    assert cleared >= len(steps) // 2


def test_hull_is_sound_on_random_steps():
    cleared, unsound = _hull_tally(_random_steps(random.Random(2025), 3000))
    assert unsound == []
    assert cleared >= 100


def test_hull_is_sound_near_zero_and_blowup():
    cleared, unsound = _hull_tally(_constructed_steps(random.Random(11), 200))
    assert unsound == []
    assert cleared >= 100


def test_zero_margin_is_caught(monkeypatch):
    # the soundness check has teeth: without the margin it finds cleared
    # steps whose samples reach 0 or 1e8
    monkeypatch.setattr(radial, "_HULL_MARGIN", 0.0)
    _, unsound = _hull_tally(_constructed_steps(random.Random(11), 200))
    assert unsound


def test_non_finite_data_fall_through_to_the_scan():
    y0, y1 = (1.0, 1.0, -0.5, -0.5), (0.9, 0.9, -0.5, -0.5)
    k = (-0.5, -0.5, -1.0, -1.0)
    ddd = (0.1, 0.1)
    assert _hull_clear(0.1, y0, k, ddd, y1, k, ddd)
    for bad in (math.nan, math.inf, -math.inf):
        for j in range(2):
            w = list(ddd)
            w[j] = bad
            assert not _hull_clear(0.1, y0, k, tuple(w), y1, k, ddd)
            w = list(y1)
            w[j] = bad
            assert not _hull_clear(0.1, y0, k, ddd, tuple(w), k, ddd)
            w = list(k)
            w[j + 2] = bad
            assert not _hull_clear(0.1, y0, tuple(w), ddd, y1, k, ddd)
    assert not _hull_clear(math.inf, y0, k, ddd, y1, k, ddd)


def test_hull_clears_every_step_of_a_slow_decay_run(monkeypatch):
    scans = []

    def counting_scan(*args):
        scans.append(args)
        return _scan_events(*args)

    monkeypatch.setattr(radial, "_scan_events", counting_scan)
    sol = integrate(SystemParams(3, 3, 13), 1.0, 1000.0, 1e-11)
    assert len(sol.r) == 1366
    assert scans == []


def _bernstein(c):
    """Degree-7 Bernstein coefficients on [0, 1] of monomial coefficients c."""
    return [sum(math.comb(i, k) / math.comb(7, k) * c[k] for k in range(i + 1)) for i in range(8)]


def test_hull_decision_matches_bernstein_coefficients():
    # the control points _hull_clear builds from endpoint data are the
    # Bernstein coefficients of the dense polynomial: away from the band
    # edges its verdict is the one those coefficients give
    rng = random.Random(5)
    verdicts = []
    for _ in range(3000):
        h = 10.0 ** rng.uniform(-3.0, 1.0)
        level = rng.choice((0.0, BLOWUP_THRESHOLD))
        # u and v data (value and three derivatives at each end) whose scaled
        # values are moderate, so control points fall on both sides of the band edges
        comps = []
        for _ in range(2):
            w = [level + rng.uniform(-0.3, 1.0) * (-1.0 if level else 1.0) for _ in range(2)]
            d = [[rng.uniform(-s, s) / h**k for k, s in ((1, 1.0), (2, 4.0), (3, 40.0))]
                 for _ in range(2)]
            comps.append((w[0], *d[0], w[1], *d[1]))
        (u0, du0, ddu0, dddu0, u1, du1, ddu1, dddu1) = comps[0]
        (v0, dv0, ddv0, dddv0, v1, dv1, ddv1, dddv1) = comps[1]
        args = (h, (u0, v0), (du0, dv0, ddu0, ddv0), (dddu0, dddv0),
                (u1, v1), (du1, dv1, ddu1, ddv1), (dddu1, dddv1))
        expected, ambiguous = True, False
        for data in comps:
            size = sum(map(abs, _scaled(h, *data)))
            m = radial._HULL_MARGIN * size
            top = BLOWUP_THRESHOLD - m
            for b in _bernstein(_hermite_coeffs(h, *data).tolist()):
                expected = expected and m < b < top
                ambiguous = ambiguous or min(abs(b - m), abs(b - top)) < 1e-10 * size
        if not ambiguous:
            assert _hull_clear(*args) == expected
            verdicts.append(expected)
    assert verdicts.count(True) >= 300 and verdicts.count(False) >= 300


@pytest.mark.parametrize("triple, v0, r_max", [((5, 5, 3), 1.7, 20.0), ((3, 3, 13), 1.0, 100.0)])
def test_hull_sees_the_derivatives_of_its_own_step(monkeypatch, triple, v0, r_max):
    # integrate carries each step's end third derivatives over to the next
    # step's start; the hull must see the values of its own endpoints
    calls = []

    def recording_hull(*args):
        calls.append(args)
        return _hull_clear(*args)

    monkeypatch.setattr(radial, "_hull_clear", recording_hull)
    params = SystemParams(*triple)
    p, q, dm1 = params.p, params.q, params.d - 1.0
    sol = integrate(params, v0, r_max, 1e-9)
    assert len(calls) == len(sol.r) - 1
    for i, (h, y0, k0, ddd0, y1, k1, ddd1) in enumerate(calls):
        r0 = float(sol.r[i])
        assert y0 == (sol.u[i], sol.v[i], sol.du[i], sol.dv[i])
        assert k0 == _rhs(r0, *y0, p, q, dm1) and k1 == _rhs(r0 + h, *y1, p, q, dm1)
        assert ddd0 == _third_derivs(r0, *k0, y0[0], y0[1], p, q, dm1)
        assert ddd1 == _third_derivs(r0 + h, *k1, y1[0], y1[1], p, q, dm1)
