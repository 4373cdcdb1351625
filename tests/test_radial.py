import math
import warnings

import numpy as np
import pytest

from conftest import bernstein_value
from lelab import (
    BadBracketError,
    DecayClass,
    InsufficientWindowError,
    InvalidInputError,
    RadialStatus,
    SystemParams,
    UndefinedSingularError,
    WindowNotCoveredError,
    blow_down,
    derive_constants,
    fit_decay,
    integrate,
    radial,
    shoot_ground_state,
    singular_profile,
)


def test_symmetric_trajectories_identical():
    sol = integrate(SystemParams(3, 3, 13), 1.0, 50.0, rel_tol=1e-9)
    assert sol.status is RadialStatus.COMPLETED
    assert np.max(np.abs(sol.u - sol.v)) == 0.0
    assert np.max(np.abs(sol.du - sol.dv)) == 0.0


def test_critical_closed_form_trajectory():
    # u = (1 + r^2/3)^(-1/2) solves the radial equation exactly at (5,5,3)
    sol = integrate(SystemParams(5, 5, 3), 1.0, 10.0, rel_tol=1e-11)
    assert sol.status is RadialStatus.COMPLETED
    exact = (1.0 + sol.r**2 / 3.0) ** -0.5
    assert np.max(np.abs(sol.u / exact - 1.0)) < 1e-8
    rr = np.geomspace(1e-5, 9.9, 200)
    u, v, du, dv = sol.evaluate(rr)
    ex = (1.0 + rr**2 / 3.0) ** -0.5
    dex = -(rr / 3.0) * (1.0 + rr**2 / 3.0) ** -1.5
    assert np.max(np.abs(u / ex - 1.0)) < 1e-8
    assert np.max(np.abs((du - dex) / dex)) < 1e-7


def test_subcritical_crossing_event():
    sol = integrate(SystemParams(3, 3, 3), 1.0, 50.0, rel_tol=1e-10)
    assert sol.status is RadialStatus.V_HIT_ZERO
    assert abs(sol.event_radius - 6.8968486) < 1e-4
    assert abs(sol.v[-1]) < 1e-10
    assert sol.positive

    sol = integrate(SystemParams(2, 2, 5), 1.0, 50.0, rel_tol=1e-10)
    assert sol.status is RadialStatus.V_HIT_ZERO


def test_supercritical_stays_positive():
    # (3, 3, 5) is supercritical: the symmetric trajectory never crosses
    sol = integrate(SystemParams(3, 3, 5), 1.0, 200.0, rel_tol=1e-9)
    assert sol.status is RadialStatus.COMPLETED
    assert sol.positive


def test_ode_residual_at_dense_checkpoints():
    for rel_tol in (1e-6, 1e-8, 1e-10):
        sol = integrate(SystemParams(3, 3, 13), 1.0, 100.0, rel_tol=rel_tol)
        p, q, d = 3.0, 3.0, 13.0
        for i in range(len(sol.r) - 1):
            h = sol.r[i + 1] - sol.r[i]
            rm = sol.r[i] + 0.5 * h
            # the control-point rows, evaluated exactly at the step midpoint
            cu, cv = sol.hermite_coefficients(i)
            cdu, cdv = sol.derivative_coefficients(i)
            u, v, du, dv = (float(bernstein_value(b, 0.5)) for b in (cu, cv, cdu, cdv))
            ddu, ddv = (float(bernstein_value(b, 0.5, 1)) / h for b in (cdu, cdv))
            c = (d - 1.0) / rm
            res_u = abs(ddu + c * du + v**p) / max(abs(ddu), abs(c * du), v**p)
            res_v = abs(ddv + c * dv + u**q) / max(abs(ddv), abs(c * dv), u**q)
            assert max(res_u, res_v) <= 10.0 * rel_tol


def test_scaling_covariance():
    rel_tol = 1e-10
    params = SystemParams(3, 2, 13)
    base = integrate(params, 1.0, 6.0, rel_tol=rel_tol)
    assert base.status is RadialStatus.COMPLETED
    R = 2.0
    consts = derive_constants(params)
    rescaled = blow_down(base, R)
    direct = integrate(
        params, R**consts.beta * 1.0, 2.9, rel_tol=rel_tol, u0=R**consts.alpha
    )
    rr = np.geomspace(1e-3, 2.8, 60)
    u_a = rescaled.evaluate(rr)[0]
    u_b = direct.evaluate(rr)[0]
    assert np.max(np.abs(u_a / u_b - 1.0)) < 10.0 * rel_tol * 100.0


def test_souplet_inequality_along_trajectories():
    for params, v0 in ((SystemParams(3, 3, 13), 1.0), (SystemParams(3, 2, 13), 1.07)):
        sol = integrate(params, v0, 5.0, rel_tol=1e-10)
        end = len(sol.r) if sol.status is RadialStatus.COMPLETED else len(sol.r) - 1
        p, q = params.p, params.q
        lhs = sol.v[:end] ** (p + 1.0) / (p + 1.0)
        rhs = sol.u[:end] ** (q + 1.0) / (q + 1.0)
        assert np.all(lhs <= rhs + 1e-12)


def test_monotone_decreasing_while_positive():
    sol = integrate(SystemParams(3, 2, 13), 1.0, 5.0, rel_tol=1e-10)
    end = len(sol.r) if sol.status is RadialStatus.COMPLETED else len(sol.r) - 1
    assert np.all(sol.du[:end] < 0.0)
    assert np.all(sol.dv[:end] < 0.0)


def test_integrate_validation():
    params = SystemParams(3, 3, 13)
    with pytest.raises(InvalidInputError):
        integrate(params, 0.0, 10.0)
    with pytest.raises(InvalidInputError):
        integrate(params, 1.0, 1e-7)
    with pytest.raises(InvalidInputError):
        integrate(params, 1.0, 10.0, rel_tol=1e-3)
    with pytest.raises(InvalidInputError):
        integrate(params, 1.0, 10.0, rel_tol=1e-14)
    for r_max in (float("inf"), float("nan")):
        with pytest.raises(InvalidInputError, match="r_max"):
            integrate(params, 1.0, r_max)
    with pytest.raises(InvalidInputError, match="overflows"):
        integrate(SystemParams(5, 5, 3), 1e200, 1.0)
    with pytest.raises(InvalidInputError, match="finite"):
        integrate(params, float("inf"), 10.0)


def test_overflowing_series_start_rhs_is_invalid_input():
    # v0 and u0 are finite, but u(r_start) is about -1.7e66, so |u|**q
    # overflows in the first right-hand side, before any step
    with pytest.raises(InvalidInputError, match="overflows"):
        integrate(SystemParams(9.911, 5.256, 3), 1.0000000014e8, 58.4, 3.1e-11)


def test_overflowing_trial_stage_is_a_rejected_step(monkeypatch):
    # |v|**p overflows in the second stage: the kernel gives the step up
    state = (1.0, 1e200, 0.0, 0.0, 0.0, 0.0)
    given_up = (None,) * 6 + (math.inf,)
    assert radial._dop853_step(1e-6, 1e-7, *state, 9.0, 2.0, 4.0, 1e-10) == given_up
    # integrate rejects such a step and retries at a fifth of it, each time
    # until the step falls below the floor
    trial_h = []

    def overflowing(r, h, *args):
        trial_h.append(h)
        return given_up

    monkeypatch.setattr(radial, "_dop853_step", overflowing)
    sol = integrate(SystemParams(3, 3, 13), 1.0, 5.0)
    assert sol.status is RadialStatus.STEP_UNDERFLOW
    assert sol.event_radius == 1e-6
    assert len(sol.r) == 1
    assert trial_h[0] == 0.1 * 1e-6 and len(trial_h) > 5
    assert all(b == 0.2 * a for a, b in zip(trial_h, trial_h[1:]))


@pytest.mark.parametrize("triple, v0, r_max, rel_tol, rows", [
    ((3, 3, 13), 1.0, 1000.0, 1e-11, 349),  # completed at r_max
    ((3, 3, 3), 1.0, 50.0, 1e-10, 51),  # ends in an event row
])
def test_row_budget_refuses_only_a_run_that_needs_more_rows(
    monkeypatch, triple, v0, r_max, rel_tol, rows
):
    monkeypatch.setattr(radial, "MAX_ROWS", rows)
    assert len(integrate(SystemParams(*triple), v0, r_max, rel_tol).r) == rows
    monkeypatch.setattr(radial, "MAX_ROWS", rows - 1)
    with pytest.raises(InvalidInputError, match=f"needs more than {rows - 1} rows"):
        integrate(SystemParams(*triple), v0, r_max, rel_tol)


def test_a_creeping_run_stops_at_the_row_budget(monkeypatch):
    # at d = 1e8 the steps stay near 6e-8 r: the run would take hours
    # and grow without bound; here it stops after a smaller budget
    monkeypatch.setattr(radial, "MAX_ROWS", 2000)
    with pytest.raises(InvalidInputError, match="needs more than 2000 rows"):
        integrate(SystemParams(3, 3, 1e8), 1.0, 5.0, 1e-8)


def test_series_start_must_be_positive():
    # v0**9 r_start**2 / (2 d) is about 2e56 at (9, 2, 5): u(r_start) < 0
    with pytest.raises(InvalidInputError, match="series start is not positive"):
        integrate(SystemParams(9, 2, 5), 5e7, 1.0)
    # and v(r_start) < 0 when u0**q r_start**2 / (2 d) exceeds v0
    with pytest.raises(InvalidInputError, match="series start is not positive"):
        integrate(SystemParams(3, 3, 13), 1e-14, 1.0)


def _bubble(d, r):
    """The exact bubble u = v = (1 + r^2/(d(d-2)))^(-(d-2)/2) and its slope."""
    k = d * (d - 2.0)
    x = 1.0 + r * r / k
    return x ** (-(d - 2.0) / 2.0), -(d - 2.0) / k * r * x ** (-d / 2.0)


@pytest.mark.parametrize("d, p", [(3, 5.0), (4, 3.0), (5, 7.0 / 3.0), (6, 2.0)])
@pytest.mark.parametrize("rel_tol", [1e-10, 1e-11])
def test_dense_output_contract_on_the_bubbles(d, p, rel_tol):
    # evaluate's contract: between rows i and i+1 the dense u and u' stray
    # from the exact solution by at most the larger error at the two rows
    # plus rel_tol max(|w_i|, |w_i+1|)
    sol = integrate(SystemParams(p, p, d), 1.0, 150.0, rel_tol)
    assert sol.status is RadialStatus.COMPLETED
    tau = np.arange(1, 16) / 16.0
    radii = (sol.r[:-1, None] + tau * np.diff(sol.r)[:, None]).ravel()
    u, _, du, _ = sol.evaluate(radii)
    for rows, dense, exact_rows, exact in zip(
        (sol.u, sol.du), (u, du), _bubble(d, sol.r), _bubble(d, radii)
    ):
        node = np.abs(rows - exact_rows)
        inside = np.abs(dense - exact).reshape(-1, len(tau)).max(axis=1)
        scale = np.maximum(np.abs(rows[:-1]), np.abs(rows[1:]))
        excess = (inside - np.maximum(node[:-1], node[1:])) / (rel_tol * scale)
        assert excess.max() <= 1.0, excess.max()


@pytest.mark.parametrize(
    "triple, v0, status",
    [
        ((3, 3, 3), 1.0, RadialStatus.V_HIT_ZERO),
        ((7, 3.8, 3), 1.2, RadialStatus.U_HIT_ZERO),
        # below q = 3 the fifth derivative of v is infinite at u = 0
        ((7.0 / 3.0, 7.0 / 3.0, 5), 1.2, RadialStatus.U_HIT_ZERO),
        ((2, 2, 6), 1.3, RadialStatus.U_HIT_ZERO),
    ],
)
@pytest.mark.parametrize("rel_tol", [1e-10, 1e-11])
def test_dense_output_contract_on_the_step_into_a_zero(triple, v0, status, rel_tol):
    # the same contract on the last step, which ends on the located zero,
    # against a run at rel_tol 1e-13 (up to the reference's own radius).
    # Left unbounded, that step strays in v' by 1.25 rel_tol for (7, 3.8, 3)
    # at 1e-11, by 2.3 and 13.4 for (7/3, 7/3, 5), by 1.5 for (2, 2, 6) at 1e-11
    params = SystemParams(*triple)
    sol = integrate(params, v0, 50.0, rel_tol)
    ref = integrate(params, v0, 50.0, 1e-13)
    assert sol.status is ref.status is status
    r0, r1 = sol.r[-2], min(sol.r[-1], ref.r[-1])
    radii = r0 + np.arange(1, 64) / 64.0 * (sol.r[-1] - r0)
    radii = radii[radii < r1]
    inside = np.abs(np.array(sol.evaluate(radii)) - ref.evaluate(radii)).max(axis=1)
    node = np.abs(np.array(sol.evaluate([r0, r1])) - ref.evaluate([r0, r1])).max(axis=1)
    rows = np.array([sol.u[-2:], sol.v[-2:], sol.du[-2:], sol.dv[-2:]])
    excess = (inside - node) / (rel_tol * np.abs(rows).max(axis=1))
    assert excess.max() <= 1.0, excess


def test_shoot_ground_state_553(ground_state_553):
    v0, sol, _ = ground_state_553
    assert abs(v0 - 1.0) < 1e-10
    assert sol.status is RadialStatus.COMPLETED
    fit_u, fit_v = fit_decay(sol, 10.0, 100.0)
    assert fit_u.classification is DecayClass.FAST
    assert fit_v.classification is DecayClass.FAST


def test_shoot_requires_hyperbola():
    with pytest.raises(InvalidInputError):
        shoot_ground_state(SystemParams(3, 3, 13), (0.5, 2.0))


def test_shoot_statuses_flip_at_334():
    # (3, 3, 4) sits on the hyperbola; the symmetric ground state has v0 = 1
    params = SystemParams(3, 3, 4)
    v0, sol = shoot_ground_state(params, (0.5, 2.0), r_max=60.0, rel_tol=1e-10)
    assert abs(v0 - 1.0) < 1e-9
    below = integrate(params, 0.9, 200.0, rel_tol=1e-10)
    above = integrate(params, 1.1, 200.0, rel_tol=1e-10)
    assert below.status is RadialStatus.V_HIT_ZERO
    assert above.status is RadialStatus.U_HIT_ZERO


def test_shoot_bad_brackets():
    params = SystemParams(5, 5, 3)
    with pytest.raises(BadBracketError):
        shoot_ground_state(params, (1.0, 1.0))
    with pytest.raises(BadBracketError):
        shoot_ground_state(params, (0.3, 0.5), r_max=50.0, rel_tol=1e-9)


def test_fit_decay_exact_power_law():
    params = SystemParams(3, 3, 13)
    prof = singular_profile(params, np.geomspace(0.5, 200.0, 400))
    fit_u, fit_v = fit_decay(prof, 1.0, 100.0)
    assert abs(fit_u.exponent - 1.0) < 1e-12
    assert fit_u.residual < 1e-12
    assert fit_u.classification is DecayClass.SLOW
    assert abs(fit_v.exponent - 1.0) < 1e-12


def test_fit_decay_window_validation(slow_decay_3313):
    with pytest.raises(InsufficientWindowError):
        fit_decay(slow_decay_3313, 10.0, 30.0)
    with pytest.raises(InsufficientWindowError):
        fit_decay(slow_decay_3313, 300.0, 5000.0)


def test_slow_decay_classification(slow_decay_3313):
    fit_u, fit_v = fit_decay(slow_decay_3313, 100.0, 1000.0)
    assert fit_u.classification is DecayClass.SLOW
    assert abs(fit_u.exponent - 1.0) < 0.05


def test_blow_down_identity_and_scale_invariance():
    params = SystemParams(3, 3, 13)
    prof = singular_profile(params, np.geomspace(0.01, 100.0, 200))
    ident = blow_down(prof, 1.0)
    assert np.allclose(ident.u, prof.u, rtol=0, atol=0)
    assert np.array_equal(ident.higher, prof.higher)
    for R in (0.5, 7.0):
        scaled = blow_down(prof, R)
        expect = singular_profile(params, prof.r / R)
        assert np.max(np.abs(scaled.u / expect.u - 1.0)) < 1e-12
        assert np.max(np.abs(scaled.du / expect.du - 1.0)) < 1e-12
        assert np.max(np.abs(scaled.higher / expect.higher - 1.0)) < 1e-12


def test_singular_profile_derivatives_solve_the_system_and_interpolate():
    params = SystemParams(3, 2, 13)
    c = derive_constants(params)
    prof = singular_profile(params, np.geomspace(0.01, 100.0, 200))
    r, (ddu, ddv) = prof.r, prof.higher[:, :2].T
    assert np.max(np.abs(ddu / (-12.0 / r * prof.du - prof.v**3) - 1.0)) < 1e-13
    assert np.max(np.abs(ddv / (-12.0 / r * prof.dv - prof.u**2) - 1.0)) < 1e-13
    # the dense output takes every stored derivative: midway between rows
    # it matches the power laws to the interpolation error, about 1e-12
    mid = np.sqrt(r[1:] * r[:-1])
    u, v, du, dv = prof.evaluate(mid)
    for got, amp, e in ((u, c.a_coef, c.alpha), (v, c.b_coef, c.beta)):
        assert np.max(np.abs(got / (amp * mid**-e) - 1.0)) < 1e-11
    for got, amp, e in ((du, c.a_coef, c.alpha), (dv, c.b_coef, c.beta)):
        assert np.max(np.abs(got / (-e * amp * mid ** (-e - 1.0)) - 1.0)) < 1e-11


def test_blow_down_converges_to_singular_profile(slow_decay_3313):
    c = derive_constants(slow_decay_3313.params)
    bd = blow_down(slow_decay_3313, 100.0, r_lo=0.5, r_hi=2.0)
    rr = np.geomspace(0.5, 2.0, 25)
    u = bd.evaluate(rr)[0]
    singular = c.a_coef * rr**-c.alpha
    assert np.max(np.abs(u / singular - 1.0)) < 0.10


def test_blow_down_window_not_covered(slow_decay_3313):
    with pytest.raises(WindowNotCoveredError):
        blow_down(slow_decay_3313, 100.0, r_lo=0.5, r_hi=20.0)


@pytest.mark.parametrize("R", [math.inf, math.nan, 0.0, -1.0])
def test_blow_down_needs_a_positive_finite_scale(slow_decay_3313, R):
    # an infinite scale would give arrays of inf and a grid of zeros
    with pytest.raises(InvalidInputError):
        blow_down(slow_decay_3313, R)


@pytest.mark.parametrize("triple, R", [((3, 2, 13), 1e300), ((3, 3, 13), 1e80), ((3, 3, 13), 1e-320)])
def test_blow_down_refuses_a_scale_that_leaves_the_float_range(triple, R):
    # R^alpha overflows at 1e300 for (3,2,13) (alpha = 1.6); R^(alpha+4),
    # the factor of the fourth derivatives, at 1e80; r / R at 1e-320
    sol = integrate(SystemParams(*triple), 1.0, 50.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError):
            blow_down(sol, R)


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_row_derivatives_at_an_exact_zero_of_v(p):
    # |v|^(p-2) is infinite at v = 0 for p < 2; the terms that carry it, and
    # |v|^(p-3), read 0 there, so the fourth derivative of u is the rest
    r, dm1 = 2.0, 2.0
    row = radial._node(r, (0.5, 0.0, -0.25, -0.5), p, 1.2, dm1)
    _, _, du, dv, ddu, _, dddu, _, d4u, _, _, _ = row
    c = dm1 / r
    # p |v|^(p-1) is 0 at v = 0, so u''' has no v' term
    assert dddu == c / r * du - c * ddu and dv != 0.0
    assert all(math.isfinite(x) for x in row[8:])
    assert d4u == -2.0 * c / r / r * du + 2.0 * c / r * ddu - c * dddu


def test_singular_profile_requires_amplitudes():
    with pytest.raises(UndefinedSingularError):
        singular_profile(SystemParams(1.2, 1.1, 3), np.geomspace(0.1, 10, 50))


def test_evaluate_matches_nodes(slow_decay_3313):
    sol = slow_decay_3313
    sub = sol.r[10:50]
    u, v, du, dv = sol.evaluate(sub)
    assert np.max(np.abs(u - sol.u[10:50])) < 1e-13 * np.max(sol.u)
    assert np.max(np.abs(du - sol.du[10:50])) < 1e-10 * np.max(np.abs(sol.du))


def test_evaluate_outside_grid_raises(slow_decay_3313):
    with pytest.raises(InvalidInputError):
        slow_decay_3313.evaluate(2000.0)


def test_evaluate_rejects_nan(slow_decay_3313):
    for r in (float("nan"), [1.0, float("nan")]):
        with pytest.raises(InvalidInputError):
            slow_decay_3313.evaluate(r)


def test_integrate_is_deterministic():
    a = integrate(SystemParams(3, 2, 13), 1.05, 20.0, rel_tol=1e-9)
    b = integrate(SystemParams(3, 2, 13), 1.05, 20.0, rel_tol=1e-9)
    assert np.array_equal(a.r, b.r)
    assert np.array_equal(a.u, b.u)
    assert np.array_equal(a.dv, b.dv)
    assert a.status is b.status


def test_find_separating_v0_asymmetric():
    from lelab import find_separating_v0

    params = SystemParams(3, 2, 13)
    v0, sol = find_separating_v0(params, (0.3, 1.3), r_max=30.0, rel_tol=1e-8,
                                 width_rel=1e-7)
    assert sol.status is RadialStatus.COMPLETED
    assert sol.positive
    assert 1.0 < v0 < 1.2


def test_solution_arrays_read_only(slow_decay_3313):
    with pytest.raises(ValueError):
        slow_decay_3313.u[0] = 2.0


@pytest.mark.parametrize("width_rel", [0.0, 1e-16, 1.0, -1e-12, float("nan")])
def test_find_separating_v0_rejects_width_rel(monkeypatch, width_rel):
    # a width below the spacing of doubles would bisect forever; the check
    # must come before any shot is integrated
    from lelab import find_separating_v0, radial

    def no_shots(*args, **kwargs):
        raise AssertionError("integrated a shot before validating width_rel")

    monkeypatch.setattr(radial, "integrate", no_shots)
    with pytest.raises(InvalidInputError, match="width_rel"):
        find_separating_v0(SystemParams(5, 5, 3), (0.6, 1.7), width_rel=width_rel)
