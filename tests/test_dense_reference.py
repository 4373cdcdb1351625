"""Dense output and moment quadrature against per-step reference loops.

The reference rebuilds each step's degree-7 Hermite coefficients from the
node data one step at a time and evaluates them in Python loops, the way
RadialSolution.evaluate and verify._moment_integral once did.  The library
builds one coefficient table per solution, evaluates all radii in one
call and the quadrature nodes of all steps once per solution; the matmul
and the summation order differ, so agreement is required to REL, a few
hundred ulps.  Taken left to right, the reference's 7-node sum matches the
library's bit for bit, and the cached nodes must give bits that do not
depend on the order of the calls.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from lelab import (
    PohozaevWeights,
    RadialSolution,
    RadialStatus,
    SystemParams,
    check_energy_growth,
    check_pohozaev,
    integrate,
)
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


def _left_to_right(weights, f):
    acc = weights[0] * f[0]
    for wt, x in zip(weights[1:], f[1:]):
        acc = acc + wt * x
    return acc


def _reference_moment_integral(sol, component, s, m, r_end, halved=False, weighted_sum=np.dot):
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
            parts.append(half * float(weighted_sum(_GL_WEIGHTS, w**s * rr**m)))
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


@pytest.mark.parametrize("halved", [False, True])
def test_moment_integral_sums_each_step_left_to_right(solution, halved):
    # with the 7-node sum of each step taken left to right, the reference
    # loop rounds every part as the library does, so the bits agree
    p, d = solution.params.p, solution.params.d
    r = solution.r
    for r_end in (r[len(r) // 2], 0.5 * (r[len(r) // 2] + r[len(r) // 2 + 1]), r[-1]):
        got = _moment_integral(solution, "v", p + 1.0, d - 1.0, r_end, halved)
        want = _reference_moment_integral(
            solution, "v", p + 1.0, d - 1.0, r_end, halved, weighted_sum=_left_to_right
        )
        assert got.hex() == want.hex(), r_end


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


def _fresh(sol):
    """A copy of sol with none of its caches built."""
    return dataclasses.replace(sol)


def test_moment_integral_clamps_a_last_step_that_dips_below_zero():
    sol = integrate(SystemParams(3, 3, 3), 1.0, 50.0, rel_tol=1e-10)
    assert sol.status is RadialStatus.V_HIT_ZERO
    # v falls from v[-2] to its located zero on the last step; the interpolant
    # of v - eps is that of v shifted by eps, since the higher derivatives of
    # v at the nodes do not involve v itself
    dipped = dataclasses.replace(sol, v=sol.v - 0.75 * sol.v[-2])
    assert np.all(dipped.v[:-1] > 0.0)
    assert dipped.evaluate(0.5 * (sol.r[-2] + sol.r[-1]))[1][0] < 0.0
    d = sol.params.d
    for halved in (False, True):
        # a negative value to the power 2.5 is NaN; the clamp reads it as 0
        got = _moment_integral(dipped, "v", 2.5, d - 1.0, sol.r[-1], halved)
        want = _reference_moment_integral(dipped, "v", 2.5, d - 1.0, sol.r[-1], halved)
        assert math.isfinite(got) and abs(got - want) <= REL * abs(want)


def test_moment_integral_bits_do_not_depend_on_call_order(slow_decay_3313):
    r = slow_decay_3313.r
    k = len(r) // 3
    radii = [
        r[0],
        r[k],
        0.5 * (r[k] + r[k + 1]),
        r[-1] * (1 + 1e-13),
        *np.geomspace(r[-1] / 10.0, r[-1] / 1.05, 5),
    ]
    calls = [(R, halved) for R in radii for halved in (False, True)]

    def run(sol, order):
        return {(R, halved): _moment_integral(sol, "u", 4.0, 12.0, R, halved).hex()
                for R, halved in order}

    forward = run(_fresh(slow_decay_3313), calls)
    backward = run(_fresh(slow_decay_3313), calls[::-1])
    alone = {}
    for call in calls:
        alone.update(run(_fresh(slow_decay_3313), [call]))
    assert forward == backward == alone


def test_node_sets_are_built_once_per_solution(slow_decay_3313, monkeypatch):
    sol = _fresh(slow_decay_3313)
    params, r_max = sol.params, sol.r[-1]
    steps = len(sol.r) - 1
    calls = []
    horner = RadialSolution._horner

    def counted(self, tables, idx, r):
        calls.append((len(tables), np.shape(r)))
        return horner(self, tables, idx, r)

    monkeypatch.setattr(RadialSolution, "_horner", counted)
    check_energy_growth(sol, 1.0, np.geomspace(r_max / 10.0, r_max / 1.05, 5))
    for R, a1, halved in ((2.0, 0.0, False), (2.0, 5.5, False), (900.0, 0.0, False),
                          (900.0, 11.0, False), (900.0, 5.5, True)):
        check_pohozaev(sol, R, PohozaevWeights.from_a1(params, a1), halved=halved)
    # u and v at every node of every step, once per halved flag
    assert [c for c in calls if c[1][0] >= steps] == [(2, (steps, 7)), (2, (2 * steps, 7))]
    # one partial interval per moment integral: 5 growth radii, 2 per Pohozaev check
    assert calls.count((2, (1, 7))) == 5 + 8
    assert calls.count((2, (2, 7))) == 2
    # the boundary terms of each Pohozaev check
    assert calls.count((4, (1,))) == 5
    assert len(calls) == 2 + 15 + 5
