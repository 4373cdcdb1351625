"""Dense output and moment quadrature against per-step reference loops.

The reference rebuilds each step's degree-7 Hermite coefficients from the
node data one step at a time and evaluates them in Python loops, the way
RadialSolution.evaluate and verify._moment_integral once did.  The library
builds one coefficient table per solution and evaluates all radii (or all
quadrature nodes) in one call; the matmul and the summation order differ,
so agreement is required to REL, a few hundred ulps.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from lelab import RadialStatus, SystemParams, integrate
from lelab.radial import _hermite_coeffs, _polyval
from lelab.verify import _GL_NODES, _GL_WEIGHTS, _moment_integral

REL = 1e-13


def _node_data(sol):
    """Hermite node data (w and its first three derivatives) of u, v, u', v'."""
    ddu, ddv, dddu, dddv, d4u, d4v = sol._node_higher_derivatives()
    return (
        (sol.u, sol.du, ddu, dddu),
        (sol.v, sol.dv, ddv, dddv),
        (sol.du, ddu, dddu, d4u),
        (sol.dv, ddv, dddv, d4v),
    )


def _reference_coefficients(sol, data, i):
    """Coefficients on step i, built from the node data of that step alone."""
    h = sol.r[i + 1] - sol.r[i]
    return _hermite_coeffs(h, *(w[i] for w in data), *(w[i + 1] for w in data))


def _reference_evaluate(sol, r):
    r_arr = np.atleast_1d(np.asarray(r, dtype=float))
    idx = np.clip(np.searchsorted(sol.r, r_arr, side="right") - 1, 0, len(sol.r) - 2)
    out = [np.empty_like(r_arr) for _ in range(4)]
    node_data = _node_data(sol)
    for i in np.unique(idx):
        sel = idx == i
        tau = (r_arr[sel] - sol.r[i]) / (sol.r[i + 1] - sol.r[i])
        for dest, data in zip(out, node_data):
            dest[sel] = _polyval(_reference_coefficients(sol, data, i), tau)
    return tuple(out)


def _reference_moment_integral(sol, component, s, m, r_end, halved=False):
    grid = sol.r
    w0 = sol.u[0] if component == "u" else sol.v[0]
    parts = [w0**s * grid[0] ** (m + 1.0) / (m + 1.0)]
    data = _node_data(sol)[0 if component == "u" else 1]
    for i in range(len(grid) - 1):
        a = grid[i]
        if a >= r_end:
            break
        b = min(grid[i + 1], r_end)
        h = grid[i + 1] - grid[i]
        c = _reference_coefficients(sol, data, i)
        pieces = ((a, 0.5 * (a + b)), (0.5 * (a + b), b)) if halved else ((a, b),)
        for lo, hi in pieces:
            half = 0.5 * (hi - lo)
            rr = 0.5 * (hi + lo) + half * _GL_NODES
            w = np.maximum(_polyval(c, (rr - a) / h), 0.0)
            parts.append(half * float(np.dot(_GL_WEIGHTS, w**s * rr**m)))
    return math.fsum(parts)


@pytest.fixture(scope="module", params=["3_3_13_slow", "3_2_13", "3_3_3_event"])
def solution(request, slow_decay_3313):
    if request.param == "3_3_13_slow":
        return slow_decay_3313
    if request.param == "3_2_13":
        return integrate(SystemParams(3, 2, 13), 1.07, 10.0, rel_tol=1e-11)
    sol = integrate(SystemParams(3, 3, 3), 1.0, 50.0, rel_tol=1e-10)
    assert sol.status is RadialStatus.V_HIT_ZERO
    return sol


def test_evaluate_matches_reference_loop(solution):
    r = solution.r
    radii = np.concatenate(
        (r, 0.5 * (r[:-1] + r[1:]), np.geomspace(r[0], r[-1], 997), [r[-1] * (1 + 1e-13)])
    )
    got = solution.evaluate(radii)
    want = _reference_evaluate(solution, radii)
    for g, w in zip(got, want):
        assert g.shape == radii.shape
        assert np.max(np.abs(g - w)) <= REL * np.max(np.abs(w))


@pytest.mark.parametrize("halved", [False, True])
def test_moment_integral_matches_reference_loop(solution, halved):
    p, q, d = solution.params.p, solution.params.q, solution.params.d
    r = solution.r
    for r_end in (0.5 * (r[len(r) // 2] + r[len(r) // 2 + 1]), r[-1]):
        for component, s in (("u", q + 1.0), ("v", p + 1.0), ("u", 2.0)):
            got = _moment_integral(solution, component, s, d - 1.0, r_end, halved)
            want = _reference_moment_integral(solution, component, s, d - 1.0, r_end, halved)
            assert abs(got - want) <= REL * abs(want), (component, s, r_end)


def test_moment_integral_at_grid_start_is_core_only(slow_decay_3313):
    sol = slow_decay_3313
    got = _moment_integral(sol, "u", 4.0, 12.0, sol.r[0])
    assert got == _reference_moment_integral(sol, "u", 4.0, 12.0, sol.r[0])


def test_coefficient_rows_read_only(slow_decay_3313):
    cu, cv = slow_decay_3313.hermite_coefficients(3)
    cdu, cdv = slow_decay_3313.derivative_coefficients(3)
    for row in (cu, cv, cdu, cdv):
        with pytest.raises(ValueError):
            row[0] = 2.0
