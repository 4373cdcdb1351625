"""The one-pass event scan against a per-event-function scalar reference.

The reference keeps the earlier scan: each of the four event functions is
walked over tau = 0, 1/8, ..., 1 through the scalar ``_polyval`` and its
first bracketing subinterval is bisected on its own; the earliest tau wins,
ties going to v-zero, then u-zero, then blowup.  ``_scan_events`` must give
the same bits on the steps of real trajectories and on random steps built
to hold zeros, blowups, ties and hits at the step start.
"""

import random

import numpy as np
import pytest

from lelab import RadialStatus, SystemParams, integrate
from lelab.radial import (
    BLOWUP_THRESHOLD,
    EVENT_RTOL,
    _polyder,
    _polyval,
    _rhs,
    _scan_events,
    _step_coeffs,
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
