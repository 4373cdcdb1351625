"""The one-pass event scan against a per-event-function scalar reference.

The reference keeps the earlier scan: each of the four event functions is
walked over tau = 0, 1/8, ..., 1 through the scalar Bernstein evaluator and
its first bracketing subinterval is bisected on its own; the earliest tau
wins, ties going to v-zero, then u-zero, then blowup.  ``_scan_events``
must find the same event radius and status on the steps of real
trajectories and on random steps built to hold zeros, blowups, ties and
hits at the step start, and its event row must agree with the exact
rational interpolant of the step's data at the reference's tau.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import bernstein_value, hermite_control_points
from lelab import RadialStatus, SystemParams, integrate, radial
from lelab.radial import (
    BLOWUP_THRESHOLD,
    EVENT_RTOL,
    _basis,
    _bernstein,
    _control_points,
    _hull_clear,
    _rhs,
    _scan_events,
    _step_data,
    _third_derivs,
)


def _endpoint_derivs(r0, h, y0, y1, p, q, dm1):
    """Slopes and third derivatives at both ends of a step, as integrate forms them."""
    k0 = _rhs(r0, *y0, p, q, dm1)
    k1 = _rhs(r0 + h, *y1, p, q, dm1)
    ddd0 = _third_derivs(r0, *k0, y0[0], y0[1], p, q, dm1)
    ddd1 = _third_derivs(r0 + h, *k1, y1[0], y1[1], p, q, dm1)
    return k0, k1, ddd0, ddd1


def _data(r0, h, y0, y1, p, q, dm1):
    """The step's Hermite data of u and v, as integrate hands it to the hull and the scan."""
    k0, k1, ddd0, ddd1 = _endpoint_derivs(r0, h, y0, y1, p, q, dm1)
    return _step_data(h, y0, k0, ddd0, y1, k1, ddd1)


def _first_crossing(b, level, sign, r0, h):
    g = lambda t: sign * (_bernstein(b, _basis(t)) - level)
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


def _reference_scan(r0, h, data):
    """(tau, status) of the earliest event, or None."""
    bu, bv = (_control_points(*d) for d in data)
    found = [
        (_first_crossing(bv, 0.0, 1, r0, h), 0, RadialStatus.V_HIT_ZERO),
        (_first_crossing(bu, 0.0, 1, r0, h), 1, RadialStatus.U_HIT_ZERO),
        (_first_crossing(bu, BLOWUP_THRESHOLD, -1, r0, h), 2, RadialStatus.BLOWUP),
        (_first_crossing(bv, BLOWUP_THRESHOLD, -1, r0, h), 2, RadialStatus.BLOWUP),
    ]
    found = [f for f in found if f[0] is not None]
    if not found:
        return None
    t, _, status = min(found)
    return t, status


# the event row against the exact interpolant P of the step's data D at tau:
# values within VALUE_TOL sum|D|, slopes h w' within SLOPE_TOL times the size
# of the data of w - w0 (D with w1 - w0 for the end values)
VALUE_TOL = 1e-15
SLOPE_TOL = 1e-14


def _check_step(r0, h, y0, y1, p, q, dm1):
    data = _data(r0, h, y0, y1, p, q, dm1)
    got = _scan_events(r0, h, data)
    want = _reference_scan(r0, h, data)
    assert (got is None) == (want is None)
    if got is None:
        return None
    r_event, status, values = got
    t, want_status = want
    assert type(r_event) is float
    assert r_event.hex() == (r0 + t * h).hex() and status is want_status
    for j, D in enumerate(data):
        value, slope = values[j], values[j + 2]
        points = hermite_control_points(D)
        change = sum(map(abs, D)) - abs(D[0]) - abs(D[4]) + abs(D[4] - D[0])
        assert abs(Fraction(value) - bernstein_value(points, t)) <= VALUE_TOL * sum(map(abs, D))
        assert abs(Fraction(slope) * Fraction(h) - bernstein_value(points, t, 1)) <= SLOPE_TOL * change
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


def _scaled(h, w0, d0, dd0, t0, w1, d1, dd1, t1):
    """One component's Hermite data: value and h^k times the k-th derivative, k = 1..3."""
    return w0, h * d0, h * h * dd0, h**3 * t0, w1, h * d1, h * h * dd1, h**3 * t1


def _hull_and_scan(r0, h, y0, y1, p, q, dm1):
    data = _data(r0, h, y0, y1, p, q, dm1)
    return _hull_clear(data), _scan_events(r0, h, data)


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
                    bu = _control_points(*_data(r0, h, a, b, p, q, dm1)[0])
                    w = _bernstein(bu, _basis(np.linspace(0.0, 1.0, 4001)))
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
    # the hull and the scan share their control points, so rounding alone
    # cannot take a sample below the smallest one; underflow can: positive
    # control points of size 2^-1074 give products that round to 0.  The
    # margin's absolute floor keeps such a step for the scan.
    tiny = math.ulp(0.0)
    step = [(1.0, 0.1, (tiny, tiny, 0.0, 0.0), (tiny, tiny, 0.0, 0.0), 3.0, 3.0, 2.0)]
    assert _hull_tally(step) == (0, [])
    monkeypatch.setattr(radial, "_HULL_MARGIN", 0.0)
    monkeypatch.setattr(radial, "_ATOL_FLOOR", 0.0)
    cleared, unsound = _hull_tally(step)
    assert cleared == 1 and unsound == step


def test_non_finite_data_fall_through_to_the_scan():
    clear = lambda *step: _hull_clear(_step_data(*step))
    y0, y1 = (1.0, 1.0, -0.5, -0.5), (0.9, 0.9, -0.5, -0.5)
    k = (-0.5, -0.5, -1.0, -1.0)
    ddd = (0.1, 0.1)
    assert clear(0.1, y0, k, ddd, y1, k, ddd)
    for bad in (math.nan, math.inf, -math.inf):
        for j in range(2):
            w = list(ddd)
            w[j] = bad
            assert not clear(0.1, y0, k, tuple(w), y1, k, ddd)
            w = list(y1)
            w[j] = bad
            assert not clear(0.1, y0, k, ddd, tuple(w), k, ddd)
            w = list(k)
            w[j + 2] = bad
            assert not clear(0.1, y0, tuple(w), ddd, y1, k, ddd)
    assert not clear(math.inf, y0, k, ddd, y1, k, ddd)


def test_hull_clears_every_step_of_a_slow_decay_run(monkeypatch):
    scans = []

    def counting_scan(*args):
        scans.append(args)
        return _scan_events(*args)

    monkeypatch.setattr(radial, "_scan_events", counting_scan)
    sol = integrate(SystemParams(3, 3, 13), 1.0, 1000.0, 1e-11)
    assert len(sol.r) == 349
    assert scans == []


def test_hull_decision_matches_bernstein_coefficients():
    # the control points _hull_clear builds from endpoint data are those of
    # the dense polynomial: away from the band edges its verdict is the one
    # the exact control points give
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
            for b in map(float, hermite_control_points(_scaled(h, *data))):
                expected = expected and m < b < top
                ambiguous = ambiguous or min(abs(b - m), abs(b - top)) < 1e-14 * size
        if not ambiguous:
            assert _hull_clear(_step_data(*args)) == expected
            verdicts.append(expected)
    assert verdicts.count(True) >= 300 and verdicts.count(False) >= 300


@pytest.mark.parametrize("triple, v0, r_max", [((5, 5, 3), 1.7, 20.0), ((3, 3, 13), 1.0, 100.0)])
def test_hull_sees_the_derivatives_of_its_own_step(monkeypatch, triple, v0, r_max):
    # integrate carries each step's end third derivatives over to the next
    # step's start; the hull and the scan must see the values of the step's
    # own endpoints
    calls = []

    def recording_data(*args):
        calls.append(args)
        return _step_data(*args)

    monkeypatch.setattr(radial, "_step_data", recording_data)
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
