import time
from fractions import Fraction
from math import comb, lcm

import numpy as np
import pytest

from lelab import (
    SystemParams,
    derive_constants,
    find_separating_v0,
    integrate,
    shoot_ground_state,
)
from lelab.radial import _shot_side


def hermite_integers(data):
    """Exact Bernstein control points of the degree-7 Hermite interpolant of
    double data (w0, h w0', h^2 w0'', h^3 w0''', w1, h w1', h^2 w1'', h^3 w1'''),
    as integers over one denominator: 210 b_k is an integer combination of
    the data, whose denominators are powers of 2."""
    ratios = [float(x).as_integer_ratio() for x in data]
    den = max(q for _, q in ratios)
    w0, d0, dd0, t0, w1, d1, dd1, t1 = (n * (den // q) for n, q in ratios)
    return [
        210 * w0,
        210 * w0 + 30 * d0,
        210 * w0 + 60 * d0 + 5 * dd0,
        210 * w0 + 90 * d0 + 15 * dd0 + t0,
        210 * w1 - 90 * d1 + 15 * dd1 - t1,
        210 * w1 - 60 * d1 + 5 * dd1,
        210 * w1 - 30 * d1,
        210 * w1,
    ], 210 * den


def hermite_control_points(data):
    """The control points of hermite_integers as Fractions."""
    nums, den = hermite_integers(data)
    return [Fraction(n, den) for n in nums]


def bernstein_value(points, tau, order=0):
    """The order-th tau-derivative at tau of the polynomial with Bernstein
    control points on [0, 1], in exact rational arithmetic."""
    b = [Fraction(x) for x in points]
    for _ in range(order):
        b = [(len(b) - 1) * (y - x) for x, y in zip(b, b[1:])]
    n, (a, q) = len(b) - 1, Fraction(tau).as_integer_ratio()  # tau = a / q
    den = lcm(*(x.denominator for x in b))  # summed as integers over one denominator
    total = sum(x.numerator * (den // x.denominator) * comb(n, k) * a**k * (q - a) ** (n - k)
                for k, x in enumerate(b))
    return Fraction(total, den * q**n)


def sample_supercritical(rng, d_max_extra=25.0, q_hi=6.0, p_extra=5.0):
    """One random valid triple strictly on the supercritical side."""
    while True:
        q = rng.uniform(1.0, q_hi)
        p = q + rng.uniform(0.0, p_extra)
        if p * q <= 1.05:
            continue
        c = derive_constants(SystemParams(p, q, 3.0))
        d = max(3.0, 2.0 + c.alpha + c.beta) + rng.uniform(1e-6, d_max_extra)
        return SystemParams(p, q, d)


def sample_valid(rng):
    """One random valid triple, any criticality."""
    q = rng.uniform(1.0, 6.0)
    p = q + rng.uniform(0.0, 5.0)
    if p * q <= 1.05:
        return sample_valid(rng)
    return SystemParams(p, q, rng.uniform(3.0, 30.0))


def bracketed_separating_v0(params, r_max=30.0, rel_tol=1e-8, width_rel=1e-7):
    """Scan v0 for a side change, then bisect to the separating value."""
    grid = np.geomspace(0.05, 4.0, 14)
    sides = [_shot_side(integrate(params, v, r_max, rel_tol)) for v in grid]
    for i in range(len(grid) - 1):
        if sides[i] != sides[i + 1]:
            return find_separating_v0(
                params, (grid[i], grid[i + 1]), r_max, rel_tol, width_rel
            )
    raise AssertionError(f"no separating bracket found for {params}")


@pytest.fixture(scope="session")
def ground_state_553():
    """Shot ground state at (5, 5, 3) plus the wall time of the shot."""
    t0 = time.perf_counter()
    v0, sol = shoot_ground_state(
        SystemParams(5, 5, 3), (0.6, 1.7), r_max=150.0, rel_tol=1e-11
    )
    elapsed = time.perf_counter() - t0
    return v0, sol, elapsed


@pytest.fixture(scope="session")
def slow_decay_3313():
    """Slow-decay trajectory at (3, 3, 13), v0 = 1, out to r = 1000."""
    return integrate(SystemParams(3, 3, 13), 1.0, 1000.0, rel_tol=1e-11)
