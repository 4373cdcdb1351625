"""The subdivision event search against the earlier sampling scan and an exact oracle.

The earlier scan is kept here as a reference: each of the four event
functions is sampled at tau = 0, 1/8, ..., 1 through the scalar Bernstein
evaluator, its first bracketing sample interval is bisected, a hit at
tau = 0 is put at tau = 1e-9, and the earliest tau wins, ties going to
v-zero, then u-zero, then blowup.  On every step of real trajectories
``_scan_events`` must give the reference's status, event radius and event
row bit for bit.  On random steps the oracle is the exact polynomial of the
step's computed control points, evaluated in rational arithmetic: the
search may not step over a crossing, and what it reports must be one.
"""

import math
import operator
import random
from fractions import Fraction
from math import comb

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
    _first_hit,
    _halves,
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


def _sampling_scan(r0, h, data):
    """The earlier scan: (r_event, status, event row) or None."""
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
    basis, slope_basis = _basis(t), _basis(t, 6)
    values = [_bernstein(b, basis) for b in (bu, bv)]
    slopes = []
    for w0, d0, dd0, t0, w1, d1, dd1, t1 in data:
        c = _control_points(0.0, d0, dd0, t0, w1 - w0, d1, dd1, t1)
        slopes.append(7.0 * _bernstein([c[k + 1] - c[k] for k in range(7)], slope_basis) / h)
    return r0 + t * h, status, (*values, *slopes)


# the event row against the exact interpolant P of the step's data D at tau:
# values within VALUE_TOL sum|D|, slopes h w' within SLOPE_TOL times the size
# of the data of w - w0 (D with w1 - w0 for the end values)
VALUE_TOL = 1e-15
SLOPE_TOL = 1e-14


def _check_row(h, data, t, row):
    for j, D in enumerate(data):
        value, slope = row[j], row[j + 2]
        points = hermite_control_points(D)
        change = sum(map(abs, D)) - abs(D[0]) - abs(D[4]) + abs(D[4] - D[0])
        assert abs(Fraction(value) - bernstein_value(points, t)) <= VALUE_TOL * sum(map(abs, D))
        assert abs(Fraction(slope) * Fraction(h) - bernstein_value(points, t, 1)) <= SLOPE_TOL * change


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
    events = 0
    # every accepted step; the last one, into the event row, holds the event
    for (r0, *y0), (r1, *y1) in zip(rows[:-1], rows[1:]):
        h = r1 - r0
        data = _data(r0, h, tuple(y0), tuple(y1), p, q, dm1)
        got, want = _scan_events(r0, h, data), _sampling_scan(r0, h, data)
        assert (got is None) == (want is None)
        if got is None:
            continue
        events += 1
        (r_event, status, row), (want_r, want_status, want_row) = got, want
        assert type(r_event) is float
        assert r_event.hex() == want_r.hex() and status is want_status
        assert [x.hex() for x in row] == [x.hex() for x in want_row]
        _check_row(h, data, (want_r - r0) / h, row)
    assert events == (sol.event_radius is not None)


def _event_functions(data):
    """(status, control points searched, exact numerators) per event
    function, in order of precedence: v and u reaching zero, u and v
    reaching blowup.  The exact numerators are those of the computed control
    points b, or of 1e8 - b, positive before the event, over one power of
    two, so the sign of their polynomial at any tau is exact too."""
    bu, bv = (_control_points(*d) for d in data)
    nu, nv = _numerators(bu), _numerators(bv)
    return [
        (RadialStatus.V_HIT_ZERO, bv, nv[0]),
        (RadialStatus.U_HIT_ZERO, bu, nu[0]),
        (RadialStatus.BLOWUP, [BLOWUP_THRESHOLD - x for x in bu], [nu[1] - n for n in nu[0]]),
        (RadialStatus.BLOWUP, [BLOWUP_THRESHOLD - x for x in bv], [nv[1] - n for n in nv[0]]),
    ]


def _numerators(points):
    """Numerators of the float points over their largest denominator, and 1e8 over it."""
    ratios = [x.as_integer_ratio() for x in points]
    den = max(d for _, d in ratios)
    return [n * (den // d) for n, d in ratios], int(BLOWUP_THRESHOLD) * den


def _positive_multiple(nums, tau):
    """The polynomial with control points nums at float tau times a positive integer."""
    a, q = tau.as_integer_ratio()
    return sum(n * comb(7, k) * a**k * (q - a) ** (7 - k) for k, n in enumerate(nums))


_GRID = [k / 16.0 for k in range(17)]
_GRID_WEIGHTS = [[comb(7, k) * j**k * (16 - j) ** (7 - k) for k in range(8)] for j in range(17)]


def _positive_on_grid(nums, below=math.inf):
    """True when the polynomial is > 0 at every tau = j/16 < below."""
    return all(sum(map(operator.mul, nums, w)) > 0
               for tau, w in zip(_GRID, _GRID_WEIGHTS) if tau < below)


def _random_event_steps(rng, n):
    levels = (0.0, BLOWUP_THRESHOLD)
    for _ in range(n):
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
        yield r0, h, (*y0, *slopes[:2]), (*y1, *slopes[2:]), p, q, dm1


def test_scan_matches_reference_on_random_steps():
    # The oracle P is exact, and so is the test at both levels: near 1e8 the
    # search runs on 1e8 - b, which a float difference gives exactly there
    # (Sterbenz), so no ulp(1e8) margin is needed.  With w the widest final
    # interval, a search that reports tau must have P > 0 at every grid point
    # below tau - w and at tau - w, and P <= 0 at tau - w, tau or tau + w; a
    # search that reports nothing must have P > 0 on the grid.  The event
    # row of every step with an event is held to the exact interpolant.
    statuses = set()
    for step in _random_event_steps(random.Random(2024), 3000):
        r0, h = step[0], step[1]
        data = _data(*step)
        w = EVENT_RTOL * (r0 + h) / h
        first = None
        for status, g, nums in _event_functions(data):
            t = _first_hit(g, r0, h)
            if t is None:
                assert _positive_on_grid(nums)
                continue
            assert _positive_on_grid(nums, t - w)
            assert t <= w or _positive_multiple(nums, t - w) > 0
            assert min(_positive_multiple(nums, x) for x in (max(0.0, t - w), t, min(1.0, t + w))) <= 0
            if first is None or t < first[0]:
                first = t, status
        got = _scan_events(r0, h, data)
        if first is None:
            assert got is None
            continue
        r_event, status, row = got
        assert (r_event, status) == (r0 + first[0] * h, first[1])
        _check_row(h, data, first[0], row)
        statuses.add(status)
    assert statuses == {RadialStatus.V_HIT_ZERO, RadialStatus.U_HIT_ZERO, RadialStatus.BLOWUP}


def _quadratic_step(t1, t2):
    """Hermite data of u = (tau - t1)(tau - t2) on [0, 1], and of v = 1."""
    u = (t1 * t2, -(t1 + t2), 2.0, 0.0, (1.0 - t1) * (1.0 - t2), 2.0 - t1 - t2, 2.0, 0.0)
    return u, (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0)


def test_search_finds_a_double_crossing_inside_one_eighth():
    # u dips below 0 between tau = 0.26 and 0.36 and is positive at every
    # sample tau = j/8, so the earlier scan steps over both crossings
    r0, h = 1.0, 0.5
    data = _quadratic_step(0.26, 0.36)
    assert all(_bernstein(_control_points(*data[0]), _basis(j / 8.0)) > 0.0 for j in range(9))
    assert _sampling_scan(r0, h, data) is None
    r_event, status, row = _scan_events(r0, h, data)
    assert status is RadialStatus.U_HIT_ZERO
    t = (r_event - r0) / h
    assert abs(t - 0.26) <= 2.0 * EVENT_RTOL * (r0 + h) / h
    assert abs(row[0]) <= 1e-12 and abs(row[1] - 1.0) <= 1e-15


def test_event_at_the_step_start_ends_the_first_final_interval():
    # whatever the level, an event that holds at tau = 0 is found at the end
    # of the first interval [0, 2^-n] that meets the width rule
    for r0, h in ((1e-6, 1e-7), (1.0, 0.5), (3.0, 11.0)):
        n = 0
        while 2.0**-n * h > EVENT_RTOL * r0:
            n += 1
        expected = r0 + 2.0**-n * h
        positive = (1.0, -0.5, 0.0, 0.0, 0.5, -0.5, 0.0, 0.0)
        for u, status in (
            ((0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0), RadialStatus.U_HIT_ZERO),
            ((-1e-300, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0), RadialStatus.U_HIT_ZERO),
            ((1.01e8, -1.0, 0.0, 0.0, 1.0, -1e8, 0.0, 0.0), RadialStatus.BLOWUP),
            ((BLOWUP_THRESHOLD, 1.0, 0.0, 0.0, 2e8, 1.0, 0.0, 0.0), RadialStatus.BLOWUP),
        ):
            r_event, got, _ = _scan_events(r0, h, (u, positive))
            assert (r_event, got) == (expected, status)
        # v takes precedence over u at the same tau
        start_hit = (0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0)
        assert _scan_events(r0, h, (start_hit, start_hit))[1] is RadialStatus.V_HIT_ZERO


def _exact_halves(b):
    rows = [[Fraction(x) for x in b]]
    while len(rows[-1]) > 1:
        rows.append([(x + y) / 2 for x, y in zip(rows[-1], rows[-1][1:])])
    return [row[0] for row in rows], [row[-1] for row in reversed(rows)]


def test_halves_are_de_casteljau_at_one_half():
    # integers times 2^-10 below 2^30 average exactly over seven levels, so
    # the written-out split must give the exact subdivision bit for bit
    rng = random.Random(7)
    for _ in range(300):
        b = [rng.randint(-2**20, 2**20) * 2.0**-10 for _ in range(8)]
        left, right = _halves(b)
        assert [Fraction(x) for x in left + right] == sum(_exact_halves(b), [])


def _random_points(rng):
    """8 control points of mixed signs and sizes, subnormals included."""
    def point():
        kind = rng.random()
        if kind < 0.3:
            return rng.randint(-2**20, 2**20) * math.ulp(0.0)
        if kind < 0.6:
            return rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-300, 300)
        return rng.uniform(-1.0, 1.0)
    return [point() for _ in range(8)]


def test_halves_stay_inside_the_parent_range():
    # the lemma behind the exact hull test: fl(0.5 (x + y)) never leaves
    # [min(x, y), max(x, y)], so no level of a split leaves [min b, max b]
    rng = random.Random(8)
    for _ in range(400):
        b = _random_points(rng)
        for _ in range(30):
            halves = _halves(b)
            for half in halves:
                assert all(min(b) <= x <= max(b) for x in half)
            b = halves[rng.randrange(2)]
    for _ in range(50000):
        x, y = _random_points(rng)[:2]
        assert min(x, y) <= 0.5 * (x + y) <= max(x, y)


def test_zero_margin_is_caught():
    # the hull test has no margin: control points of size 2^-1074, whose
    # Bernstein products underflow to 0 in a sampled scan, clear it, and
    # the search finds nothing on them, because every split of positive
    # subnormals stays positive at every depth
    tiny = math.ulp(0.0)
    step = [(1.0, 0.1, (tiny, tiny, 0.0, 0.0), (tiny, tiny, 0.0, 0.0), 3.0, 3.0, 2.0)]
    assert _hull_tally(step) == (1, [])
    rng = random.Random(9)
    for _ in range(200):
        level = [[rng.randint(1, 64) * tiny for _ in range(8)]]
        for _ in range(8):  # the whole tree down to depth 8
            level = [half for b in level for half in _halves(b)]
            assert all(x > 0.0 for b in level for x in b)
        b = level[0]
        for _ in range(60):  # and one path down to depth 68
            b = _halves(b)[rng.randrange(2)]
            assert all(x > 0.0 for x in b)
        assert _first_hit(b, 1.0, 0.1) is None


def test_search_work_is_bounded(monkeypatch):
    # a touch of the level costs the most splits; every search stays far
    # below _MAX_SPLITS, and at the cap the interval in hand counts as a hit
    splits = []

    def counting_halves(b):
        splits[-1] += 1
        return _halves(b)

    monkeypatch.setattr(radial, "_halves", counting_halves)
    for t1 in (0.3, 1.0 / 3.0, 0.7):
        for eps in (0.0, 1e-16, -1e-14, -1e-16):
            u = list(_quadratic_step(t1, t1)[0])
            u[0] += eps
            u[4] += eps
            splits.append(0)
            _first_hit(_control_points(*u), 1.0, 0.5)
    for step in _random_event_steps(random.Random(4), 300):
        for _, g, _ in _event_functions(_data(*step)):
            splits.append(0)
            _first_hit(g, step[0], step[1])
    assert 40 <= max(splits) <= 60 < radial._MAX_SPLITS
    monkeypatch.setattr(radial, "_MAX_SPLITS", 3)
    assert _first_hit(_control_points(*_quadratic_step(0.26, 0.36)[0]), 1.0, 0.5) == 0.375


# --- hull pre-test: whenever _hull_clear says a step is clear, the scan is empty
#
# _hull_clear is level 0 of _first_hit written out, the same comparisons on
# the same control points, so these tests pin that copy against the search;
# that no deeper level can find what level 0 cleared is the average lemma,
# checked on its own by test_halves_stay_inside_the_parent_range


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
            if bad != bad:  # and the search finds no event in NaN data
                assert _scan_events(1.0, 0.1, _step_data(0.1, y0, tuple(w), ddd, y1, k, ddd)) is None
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
            for b in map(float, hermite_control_points(_scaled(h, *data))):
                expected = expected and 0.0 < b < BLOWUP_THRESHOLD
                ambiguous = ambiguous or min(abs(b), abs(b - BLOWUP_THRESHOLD)) < 1e-14 * size
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
