import numpy as np
import pytest

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
    shoot_ground_state,
    singular_profile,
)
from lelab.radial import _polyval, _polyder


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
            cu, cv = sol.hermite_coefficients(i)
            cdu, cdv = sol.derivative_coefficients(i)
            u = _polyval(cu, 0.5)
            v = _polyval(cv, 0.5)
            du = _polyval(cdu, 0.5)
            dv = _polyval(cdv, 0.5)
            ddu = _polyval(_polyder(cdu), 0.5) / h
            ddv = _polyval(_polyder(cdv), 0.5) / h
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
    for R in (0.5, 7.0):
        scaled = blow_down(prof, R)
        expect = singular_profile(params, prof.r / R)
        assert np.max(np.abs(scaled.u / expect.u - 1.0)) < 1e-12
        assert np.max(np.abs(scaled.du / expect.du - 1.0)) < 1e-12


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
