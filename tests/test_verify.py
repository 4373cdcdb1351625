import math
import warnings

import numpy as np
import pytest

from lelab import (
    InvalidInputError,
    PohozaevWeights,
    RadialStatus,
    SystemParams,
    UndefinedSingularError,
    check_comparison,
    check_energy_growth,
    check_pohozaev,
    check_singular_residual,
    derive_constants,
    integrate,
    jl_margin,
    pohozaev_sides,
    rayleigh_stability_margin,
    singular_profile,
    spherical_mode_margins,
)
from lelab.radial import RadialSolution
from lelab import verify
from lelab.verify import _cutoff_quotient, _moment_integral
from conftest import sample_supercritical


def test_singular_residual_pass_and_perturbation():
    params = SystemParams(3, 3, 13)
    rep = check_singular_residual(params, [0.5, 1.0, 2.0])
    assert rep.passed and rep.residual < 1e-12

    c = derive_constants(params)
    rep = check_singular_residual(params, [0.5, 1.0, 2.0], a_coef=1.01 * c.a_coef)
    assert not rep.passed
    assert 1e-3 < rep.residual < 1e-1


@pytest.mark.parametrize("a_coef, radii", [
    (math.nan, [0.5, 1.0, 2.0]),
    (math.inf, [0.5, 1.0, 2.0]),
    (-1.0, [0.5, 1.0, 2.0]),  # b^p of a negative amplitude is complex
    (None, [1.0, math.inf]),
    (None, [1.0, math.nan]),
    (None, [1.0, 1e300]),  # both sides underflow to 0
    (None, [1e-300, 1.0]),  # both sides overflow
])
def test_singular_residual_refuses_what_it_cannot_compare(a_coef, radii):
    # non-finite amplitudes and radii, where a NaN residual was skipped and
    # the check passed with residual 0, and radii that compare nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would raise
        with pytest.raises(InvalidInputError):
            check_singular_residual(SystemParams(3, 3, 13), radii, a_coef=a_coef)


def test_singular_residual_undefined():
    with pytest.raises(UndefinedSingularError):
        check_singular_residual(SystemParams(1.2, 1.1, 3), [1.0])


def test_amplitudes_past_the_float_range_are_refused():
    # near pq = 1 the power 1/(pq - 1) overflows: the amplitudes are inf,
    # the margin stays finite, and the checks that need them refuse the triple
    params = SystemParams(1.015625, 1.0, 600.0)
    c = derive_constants(params)
    assert c.lam > 0.0 and c.mu > 0.0 and c.a_coef == c.b_coef == math.inf
    assert math.isfinite(jl_margin(params))
    with pytest.raises(UndefinedSingularError):
        check_singular_residual(params, [1.0])
    with pytest.raises(UndefinedSingularError):
        spherical_mode_margins(params, 4)


def test_comparison_equality_and_strict_cases(ground_state_553, slow_decay_3313):
    rep = check_comparison(ground_state_553[1])
    assert rep.passed and rep.residual == 0.0

    rep = check_comparison(slow_decay_3313)
    assert rep.passed and rep.residual == 0.0

    sol = integrate(SystemParams(3, 2, 13), 1.05, 5.0, rel_tol=1e-10)
    rep = check_comparison(sol)
    assert rep.passed


def test_comparison_refuses_a_run_without_a_sample_before_its_last_row():
    # at d = 1e300 the first step underflows: one row, which the check
    # excludes, once left an empty sample and a ValueError from argmax
    sol = integrate(SystemParams(3, 3, 1e300), 1.0, 5.0, rel_tol=1e-8)
    assert sol.status is RadialStatus.STEP_UNDERFLOW and len(sol.r) == 1
    with pytest.raises(InvalidInputError):
        check_comparison(sol)


def test_comparison_detects_violation():
    # synthetic data with v above the admissible envelope
    params = SystemParams(3, 2, 13)
    r = np.linspace(1.0, 2.0, 10)
    sol = RadialSolution(
        params=params,
        u0=1.0,
        v0=2.0,
        r=r,
        u=np.full_like(r, 1.0),
        v=np.full_like(r, 2.0),
        du=np.zeros_like(r),
        dv=np.zeros_like(r),
        status=RadialStatus.COMPLETED,
        event_radius=None,
        rel_tol=0.0,
    )
    rep = check_comparison(sol)
    assert not rep.passed and rep.residual > 1.0


def test_pohozaev_zero_solution():
    params = SystemParams(3, 3, 13)
    r = np.linspace(0.5, 3.0, 20)
    zero = RadialSolution(
        params=params, u0=0.0, v0=0.0, r=r,
        u=np.zeros_like(r), v=np.zeros_like(r),
        du=np.zeros_like(r), dv=np.zeros_like(r),
        status=RadialStatus.COMPLETED, event_radius=None, rel_tol=0.0,
    )
    lhs, rhs, _ = pohozaev_sides(zero, 2.0, PohozaevWeights.from_a1(params, 1.0))
    assert lhs == 0.0 and rhs == 0.0


def test_pohozaev_weight_validation(slow_decay_3313):
    with pytest.raises(InvalidInputError):
        check_pohozaev(slow_decay_3313, 2.0, PohozaevWeights(1.0, 1.0))


@pytest.mark.parametrize("weights", [
    PohozaevWeights(math.nan, 11.0),
    PohozaevWeights(11.0, math.nan),
    PohozaevWeights(0.0, math.inf),
    PohozaevWeights.from_a1(SystemParams(3, 3, 13), math.nan),
    PohozaevWeights.from_a1(SystemParams(3, 3, 13), math.inf),
    PohozaevWeights.from_a1(SystemParams(3, 3, 13), -math.inf),
])
def test_pohozaev_rejects_non_finite_weights(slow_decay_3313, weights):
    with pytest.raises(InvalidInputError, match="finite"):
        pohozaev_sides(slow_decay_3313, 2.0, weights)


def test_pohozaev_residual_invariant_under_splitting():
    # the identity holds for every split a1 + a2 = d - 2; the residual must
    # not depend on the choice beyond quadrature error
    sol = integrate(SystemParams(3, 2, 13), 1.07, 10.0, rel_tol=1e-11)
    assert sol.status is RadialStatus.COMPLETED
    residuals = []
    for a1 in (-1.0, 0.0, 11.0 / 4.0, 5.5, 11.0):
        rep = check_pohozaev(sol, 4.0, PohozaevWeights.from_a1(sol.params, a1))
        assert rep.passed
        residuals.append(rep.residual)
    assert max(residuals) < 1e-9


def test_pohozaev_rejects_non_finite_radius(slow_decay_3313):
    w = PohozaevWeights.from_a1(slow_decay_3313.params, 5.5)
    for R in (float("nan"), float("inf"), -float("inf"), np.float64("nan")):
        with pytest.raises(InvalidInputError, match="outside the sampled grid"):
            pohozaev_sides(slow_decay_3313, R, w)


def test_pohozaev_numpy_radius_prints_plain_floats(slow_decay_3313):
    w = PohozaevWeights.from_a1(slow_decay_3313.params, 5.5)
    got = check_pohozaev(slow_decay_3313, np.float64(10.0), w)
    want = check_pohozaev(slow_decay_3313, 10.0, w)
    assert got == want
    assert got.details.startswith("R=10.0, ") and "np." not in got.details


def test_pohozaev_half_step_oracle(slow_decay_3313):
    w = PohozaevWeights.from_a1(slow_decay_3313.params, 5.5)
    full = check_pohozaev(slow_decay_3313, 2.0, w)
    half = check_pohozaev(slow_decay_3313, 2.0, w, halved=True)
    scale = max(abs(full.lhs), abs(full.rhs))
    assert abs(full.lhs - half.lhs) < 0.1 * 1e-7 * scale
    assert abs(full.rhs - half.rhs) == 0.0


def test_energy_growth_exact_profile():
    params = SystemParams(3, 3, 13)
    prof = singular_profile(params, np.geomspace(1e-3, 1100.0, 2500))
    rep = check_energy_growth(prof, 3.0, np.geomspace(10.0, 1000.0, 9))
    assert rep.passed
    assert abs(rep.lhs - 10.0) < 1e-10


def test_energy_growth_computed_solution(slow_decay_3313):
    rep = check_energy_growth(slow_decay_3313, 3.0, np.geomspace(10.0, 1000.0, 9))
    assert rep.passed
    assert abs(rep.lhs - 10.0) <= 0.1


def test_energy_growth_saturated(slow_decay_3313):
    rep = check_energy_growth(slow_decay_3313, 14.0, np.geomspace(100.0, 1000.0, 6))
    assert "saturated" in rep.details
    assert rep.rhs == 0.0
    assert rep.passed


# Draws of the verify benchmark workload (p = q, d = 5, v0 = 1) on which a
# straight line through log M missed d - s*alpha by more than 0.1: a slowly
# decaying oscillation around the singular pair, just above the Sobolev
# exponent, bends log M over these radii.
SLOW_TRANSIENT_DRAWS = [
    (2.574504335495698, 321.0852205996634),
    (2.6498211959672284, 313.18325831277605),
    (2.6171769083749523, 312.8210239864767),
]


@pytest.mark.parametrize("p, r_max", SLOW_TRANSIENT_DRAWS)
def test_energy_growth_fits_the_slow_transient(p, r_max):
    params = SystemParams(p, p, 5.0)
    sol = integrate(params, 1.0, r_max)
    radii = np.geomspace(r_max / 10.0, r_max / 1.05, 5)
    moments = [_moment_integral(sol, "u", 1.0, 4.0, R) for R in radii]
    expected = 5.0 - derive_constants(params).alpha
    assert abs(np.polyfit(np.log(radii), np.log(moments), 1)[0] - expected) > 0.1
    rep = check_energy_growth(sol, 1.0, radii)
    assert rep.passed and rep.residual < 0.03
    assert "fit: line + R^-kappa (cos, sin)(omega log R)" in rep.details


def test_energy_growth_fits_a_line_without_singular_pair():
    sol = integrate(SystemParams(1.5, 1.5, 3), 1.0, 20.0)  # lambda < 0; v hits zero at r = 3.65
    rep = check_energy_growth(sol, 1.0, np.geomspace(sol.r[-1] / 8.0, sol.r[-1] / 1.5, 4))
    assert "; fit: line; saturated" in rep.details


def test_energy_growth_validation(slow_decay_3313):
    with pytest.raises(InvalidInputError):
        check_energy_growth(slow_decay_3313, 3.0, [10.0, 20.0])


@pytest.mark.parametrize("s", [math.inf, math.nan, -math.inf])
def test_energy_growth_rejects_a_non_finite_exponent(slow_decay_3313, s):
    with pytest.raises(InvalidInputError, match="positive and finite"):
        check_energy_growth(slow_decay_3313, s, [10.0, 20.0, 40.0, 80.0])


def test_energy_growth_rejects_a_moment_integral_that_underflows(slow_decay_3313):
    # u < 1 off the origin, so u^1e308 is 0 at every node and M(R) has no log
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="finite and positive"):
            check_energy_growth(slow_decay_3313, 1e308, [10.0, 20.0, 40.0, 80.0])


@pytest.mark.parametrize("value", [0.0, -1.0, math.inf, math.nan])
def test_energy_growth_rejects_moment_integrals_not_finite_and_positive(slow_decay_3313, monkeypatch, value):
    moment = _moment_integral

    def one_bad(sol, component, s, m, R, halved=False):
        return value if R == 40.0 else moment(sol, component, s, m, R, halved)

    monkeypatch.setattr(verify, "_moment_integral", one_bad)
    with pytest.raises(InvalidInputError, match="finite and positive"):
        check_energy_growth(slow_decay_3313, 3.0, [10.0, 20.0, 40.0, 80.0])


def test_rayleigh_examples():
    rep = rayleigh_stability_margin(SystemParams(3, 3, 13), 20)
    assert rep.passed
    assert abs(rep.lhs - 30.25) / 30.25 < 0.02
    assert rep.lhs - rep.rhs > 0.0

    rep = rayleigh_stability_margin(SystemParams(3, 3, 11), 20)
    assert rep.passed
    assert abs(rep.lhs - 20.25) / 20.25 < 0.02
    assert rep.lhs - rep.rhs < 0.0


def test_rayleigh_quotient_monotone_and_bounded():
    params = SystemParams(3, 2, 13)
    c = derive_constants(params)
    qs = [_cutoff_quotient(params.d, c.gamma, float(t)) for t in range(1, 25)]
    assert all(qs[i + 1] <= qs[i] + 1e-13 for i in range(len(qs) - 1))
    assert all(q > c.H for q in qs)


def test_rayleigh_gamma_zero_reduces_to_hardy():
    # symmetric exponents: the quotient tends to the pure Hardy constant
    params = SystemParams(3, 3, 13)
    q = _cutoff_quotient(params.d, 0.0, 200.0)
    assert abs(q - (13.0 - 2.0) ** 2 / 4.0) < 0.02


def test_spherical_examples():
    rep = spherical_mode_margins(SystemParams(3, 3, 13), 8)
    assert rep.passed
    assert abs(rep.lhs - 0.25) < 1e-12
    assert "l=0" in rep.details

    rep = spherical_mode_margins(SystemParams(3, 3, 11), 8)
    assert rep.passed
    assert abs(rep.lhs - (-3.75)) < 1e-12


def test_spherical_sign_matches_jl_margin_random():
    rng = np.random.default_rng(47)
    checked = 0
    while checked < 300:
        params = sample_supercritical(rng)
        c = derive_constants(params)
        m = jl_margin(params)
        if abs(m) < 1e-8:
            continue
        rep = spherical_mode_margins(params, 4)
        assert (rep.lhs >= 0.0) == (m >= 0.0)
        checked += 1


def test_pohozaev_requires_derivatives():
    from lelab import DerivativesMissingError

    params = SystemParams(3, 3, 13)
    r = np.linspace(0.5, 3.0, 20)
    sol = RadialSolution(
        params=params, u0=1.0, v0=1.0, r=r,
        u=np.full_like(r, 0.5), v=np.full_like(r, 0.5),
        du=None, dv=None,
        status=RadialStatus.COMPLETED, event_radius=None, rel_tol=0.0,
    )
    with pytest.raises(DerivativesMissingError):
        check_pohozaev(sol, 2.0, PohozaevWeights.from_a1(params, 1.0))


def test_report_serialization(slow_decay_3313):
    rep = check_comparison(slow_decay_3313)
    doc = rep.to_dict()
    assert set(doc) == {
        "check", "params", "lhs", "rhs", "residual", "tolerance", "passed", "details",
    }
    assert set(doc["params"]) == {"p", "q", "d"}
