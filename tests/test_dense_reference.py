"""Dense output and moment quadrature against per-step references.

evaluate is held to the exact rational interpolant of each step's Hermite
node data D: the cached Bernstein tables and their evaluation must stay
within EXACT_TOL sum|D| of it, the hull margin's order.  The quadrature
reference loops over the steps and evaluates, by de Casteljau, control
points rounded once from the exact ones; the library evaluates its own
control points in the power form of the Bernstein basis, so agreement is
required to REL, a few hundred ulps.  Fed the library's node values, the
reference's left-to-right 7-node sums match the library's bit for bit,
and the cached parts must give bits that do not depend on the order of
the calls.
"""

from __future__ import annotations

import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import bernstein_value, hermite_integers
from lelab import (
    PohozaevWeights,
    RadialSolution,
    RadialStatus,
    SystemParams,
    check_energy_growth,
    check_pohozaev,
    integrate,
    radial,
    verify,
)
from lelab.radial import _basis, _bernstein, _control_points
from lelab.verify import (
    _GL_BASIS,
    _GL_NODES,
    _GL_WEIGHTS,
    _moment_integral,
)

REL = 1e-13
EXACT_TOL = 1e-15


def _node_data(sol):
    """Hermite node data (w and its first three derivatives) of u, v, u', v'."""
    ddu, ddv, dddu, dddv, d4u, d4v = sol._node_higher_derivatives()
    return (
        (sol.u, sol.du, ddu, dddu),
        (sol.v, sol.dv, ddv, dddv),
        (sol.du, ddu, dddu, d4u),
        (sol.dv, ddv, dddv, d4v),
    )


def _table_data(sol, data, i):
    """The scaled data D of one table on step i, as the solution builds its tables."""
    h = sol.r[i + 1] - sol.r[i]
    powers = (1.0, h, h * h, h**3)
    return tuple(pw * float(w[i + e]) for e in (0, 1) for pw, w in zip(powers, data))


_EXACT = {}


def _exact_points(sol):
    """Per table and step: the exact control points as integers over a common
    denominator, rounded to floats, and sum|D| (cached per solution)."""
    if id(sol) not in _EXACT:
        tables = []
        for data in _node_data(sol):
            steps = []
            for i in range(len(sol.r) - 1):
                D = _table_data(sol, data, i)
                ints, den = hermite_integers(D)
                steps.append((ints, den, [n / den for n in ints], sum(map(abs, D))))
            tables.append(steps)
        _EXACT[id(sol)] = (sol, tables)
    return _EXACT[id(sol)][1]


def _exact_errors(sol, radii):
    """Per table, the largest |evaluate - exact| / sum|D| over the radii."""
    got = sol.evaluate(radii)
    idx = np.clip(np.searchsorted(sol.r, radii, side="right") - 1, 0, len(sol.r) - 2)
    tau = (radii - sol.r[idx]) / (sol.r[idx + 1] - sol.r[idx])  # as evaluate forms it
    worst = [0.0] * 4
    for m, (i, t) in enumerate(zip(idx, tau)):
        a, q = float(t).as_integer_ratio()  # the basis C(7,k) t^k (1-t)^(7-k) is weights / q^7
        weights = [math.comb(7, k) * a**k * (q - a) ** (7 - k) for k in range(8)]
        for j, steps in enumerate(_exact_points(sol)):
            ints, den, _, size = steps[i]
            exact = Fraction(sum(b * w for b, w in zip(ints, weights)), den * q**7)
            err = abs(Fraction(float(got[j][m])) - exact) / Fraction(size)
            worst[j] = max(worst[j], float(err))
    return worst


def _casteljau(b, t):
    while len(b) > 1:
        b = [(1.0 - t) * x + t * y for x, y in zip(b, b[1:])]
    return b[0]


def _left_to_right(weights, f):
    acc = weights[0] * f[..., 0]
    for j in range(1, len(weights)):
        acc = acc + weights[j] * f[..., j]
    return acc


def _reference_moment_integral(sol, component, s, m, r_end, halved=False, library_nodes=False):
    """The moment integral, its nodes laid out step by step.  Node values come
    from the rounded exact control points by de Casteljau, or, with
    library_nodes, from the library's tables and Bernstein weights, summed
    left to right."""
    grid = sol.r
    w0 = sol.u[0] if component == "u" else sol.v[0]
    parts = [w0**s * grid[0] ** (m + 1.0) / (m + 1.0)]
    j = 0 if component == "u" else 1
    last = min(int(np.searchsorted(grid, r_end, side="left")), len(grid) - 1) - 1
    pieces = []  # (step, piece, tau, node radii, half width)
    for i in range(len(grid) - 1):
        a = grid[i]
        if a >= r_end:
            break
        b = min(grid[i + 1], r_end)
        h = grid[i + 1] - grid[i]
        bounds = ((a, 0.5 * (a + b)), (0.5 * (a + b), b)) if halved else ((a, b),)
        for piece, (lo, hi) in enumerate(bounds):
            half = 0.5 * (hi - lo)
            rr = 0.5 * (hi + lo) + half * _GL_NODES
            pieces.append((i, piece, (rr - a) / h, rr, half))
    if not pieces:
        return math.fsum(parts)
    steps, which, tau, rr, half = (np.array(col) for col in zip(*pieces))
    if library_nodes:
        table = sol._tables()[j][steps]
        # a whole step at the fixed tau of the node cache, the partial one at its own
        basis = np.array([_GL_BASIS[halved][:, 7 * k : 7 * k + 7] for k in which]).transpose(1, 0, 2)
        basis[:, steps == last] = np.array(_basis(tau[steps == last]))
        w = _bernstein(table.T[:, :, None], basis)
        weighted = _left_to_right(_GL_WEIGHTS, np.maximum(w, 0.0) ** s * rr**m)
    else:
        points = np.array([_exact_points(sol)[j][i][2] for i in steps])
        w = _casteljau(list(points.T[:, :, None]), tau)
        weighted = np.array([np.dot(_GL_WEIGHTS, f) for f in np.maximum(w, 0.0) ** s * rr**m])
    parts.extend(half * weighted)
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
    assert all(g.shape == radii.shape for g in solution.evaluate(radii))
    assert max(_exact_errors(solution, radii)) <= EXACT_TOL


def test_dense_output_error_against_the_exact_interpolant(slow_decay_3313):
    # 120 random steps, 19 tau each, all four tables; the Bernstein tables
    # and evaluator stay an order below the old monomial path's 6.2e-15
    sol = slow_decay_3313
    steps = random.Random(9).sample(range(len(sol.r) - 1), 120)
    tau = np.arange(1, 20) / 20.0
    radii = np.concatenate([sol.r[i] + tau * (sol.r[i + 1] - sol.r[i]) for i in steps])
    worst = _exact_errors(sol, radii)
    assert max(worst) <= EXACT_TOL, worst


def test_dense_error_bounds_the_degree_9_correction():
    # w is a random degree-9 polynomial on [r0, r0 + h], so its degree-9
    # Hermite interpolant is w itself, and the estimate must bound the
    # degree-7 interpolant's true error, on the table of w and on that of
    # w' (degree 8), and exceed it by no more than max(|a|, |b|) / 256
    # can: 4.8 times when a = -b.  The errors are of order 1e-3, far above
    # the rounding of the float evaluation.
    rng = random.Random(3)
    tau = np.arange(1, 512) / 512.0
    basis = _basis(tau)
    for _ in range(200):
        h = 10.0 ** rng.uniform(-3.0, 1.0)
        w = np.polynomial.Polynomial([rng.uniform(-1.0, 1.0) / h**k for k in range(10)])
        ends = [[float(w.deriv(k)(t * h)) for k in range(6)] for t in (0.0, 1.0)]
        worst = 0.0
        for first in (0, 1):  # the table of w, then that of w'
            data = [ends[e][first + k] * h**k for e in (0, 1) for k in range(4)]
            error = np.abs(_bernstein(_control_points(*data), basis) - w.deriv(first)(tau * h))
            worst = max(worst, error.max() / max(abs(ends[0][first]), abs(ends[1][first])))
        start, end = (
            ((w0, w0, d1, d1), (d1, d1, d2, d2), (d3, d3, 0.0, 0.0), (d4, d4, d5, d5))
            for w0, d1, d2, d3, d4, d5 in ends
        )
        estimate = radial._dense_error(h, 1.0, start, end)
        assert worst <= estimate * (1.0 + 1e-9) and estimate <= 4.9 * worst, (worst, estimate)


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
    # fed the library's node values and summing each step's 7 nodes left to
    # right, the reference loop rounds every part as the library does
    p, d = solution.params.p, solution.params.d
    r = solution.r
    for r_end in (r[len(r) // 2], 0.5 * (r[len(r) // 2] + r[len(r) // 2 + 1]), r[-1]):
        got = _moment_integral(solution, "v", p + 1.0, d - 1.0, r_end, halved)
        want = _reference_moment_integral(
            solution, "v", p + 1.0, d - 1.0, r_end, halved, library_nodes=True
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
    calls, built = [], []
    dense, gauss_nodes = RadialSolution._dense, verify._gauss_nodes

    def counted(self, tables, idx, r):
        calls.append((len(tables), np.shape(r)))
        return dense(self, tables, idx, r)

    def counted_nodes(lo, hi, halved):
        built.append((len(lo), halved))
        return gauss_nodes(lo, hi, halved)

    monkeypatch.setattr(RadialSolution, "_dense", counted)
    monkeypatch.setattr(verify, "_gauss_nodes", counted_nodes)

    def checks():
        check_energy_growth(sol, 1.0, np.geomspace(r_max / 10.0, r_max / 1.05, 5))
        for R, a1, halved in ((2.0, 0.0, False), (2.0, 5.5, False), (900.0, 0.0, False),
                              (900.0, 11.0, False), (900.0, 5.5, True)):
            check_pohozaev(sol, R, PohozaevWeights.from_a1(params, a1), halved=halved)

    checks()
    # the parts of every whole step, once per key: 15 integrals over 5 keys
    p, q, d = params.p, params.q, params.d
    assert sorted(sol._moment_parts) == sorted([
        ("u", 1.0, d - 1.0, False),
        ("u", q + 1.0, d - 1.0, False),
        ("v", p + 1.0, d - 1.0, False),
        ("u", q + 1.0, d - 1.0, True),
        ("v", p + 1.0, d - 1.0, True),
    ])
    assert sorted(b for b in built if b[0] == steps) == [(steps, False)] * 3 + [(steps, True)] * 2
    assert sorted(map(len, sol._moment_parts.values())) == [steps] * 3 + [2 * steps] * 2
    # one partial interval per moment integral, on that component's table
    # alone: 5 growth radii, 2 per Pohozaev check
    assert built.count((1, False)) == 5 + 8 and built.count((1, True)) == 2
    assert calls.count((1, (1, 7))) == 5 + 8
    assert calls.count((1, (2, 7))) == 2
    # the boundary terms of each Pohozaev check
    assert calls.count((4, (1,))) == 5
    assert len(calls) == 15 + 5
    # the same checks again build no parts, and a fresh copy carries none
    built.clear()
    checks()
    assert [b for b in built if b[0] == steps] == []
    assert len(built) == 15
    assert not hasattr(_fresh(sol), "_moment_parts")


@pytest.mark.parametrize("halved", [False, True])
def test_moment_integral_bits_match_one_fsum_over_every_part(solution, halved):
    # random radii, several keys, shuffled calls on one fresh solution: each
    # result is the double of one fsum over every part, as the reference
    # loop fed the library's node values adds them
    p, q, d = solution.params.p, solution.params.q, solution.params.d
    r = solution.r
    rng = random.Random(21 + halved)
    radii = [rng.uniform(r[0], r[-1]) for _ in range(10)]
    radii += [r[rng.randrange(len(r))] for _ in range(3)] + [r[0], r[-1]]
    calls = [(R, c, s) for R in radii for c, s in (("u", q + 1.0), ("v", p + 1.0), ("u", 2.0))]
    rng.shuffle(calls)
    sol = _fresh(solution)
    for R, component, s in calls:
        got = _moment_integral(sol, component, s, d - 1.0, R, halved)
        want = _reference_moment_integral(solution, component, s, d - 1.0, R, halved, library_nodes=True)
        assert got.hex() == want.hex(), (R, component, s)
