import cmath
import math

import numpy as np
import pytest

from lelab import (
    InvalidMoserExponentError,
    InvalidParamsError,
    QuarticKind,
    SystemParams,
    UndefinedSingularError,
    derive_constants,
    jl_margin,
    largest_root,
    linearisation,
    moser_constants,
    quartic_eval,
)
from conftest import sample_supercritical, sample_valid

PLAIN = QuarticKind.PLAIN_H
JL = QuarticKind.JOSEPH_LUNDGREN


def test_symmetric_case_closed_forms():
    c = derive_constants(SystemParams(3, 3, 13))
    assert c.alpha == 1.0 and c.beta == 1.0 and c.gamma == 0.0
    assert c.H == 121.0 / 4.0
    assert c.lam == 10.0 and c.mu == 10.0
    assert abs(c.a_coef - math.sqrt(10)) < 1e-14
    assert abs(c.b_coef - math.sqrt(10)) < 1e-14


def test_asymmetric_case_closed_forms():
    c = derive_constants(SystemParams(5, 1, 12))
    assert c.alpha == 3.0 and c.beta == 1.0 and c.gamma == 2.0
    assert c.H == 24.0 and c.lam == 21.0 and c.mu == 9.0


def test_singular_amplitude_pde_residual():
    # oracle: substitute (a r^-alpha, b r^-beta) into the system using the
    # closed-form Laplacian of a power law
    c = derive_constants(SystemParams(3, 3, 13))
    for r in (0.5, 1.0, 2.0):
        lhs_u = c.a_coef * c.lam * r ** (-c.alpha - 2.0)
        rhs_u = c.b_coef**3 * r ** (-3.0 * c.beta)
        assert abs(lhs_u - rhs_u) / rhs_u < 1e-12
        lhs_v = c.b_coef * c.mu * r ** (-c.beta - 2.0)
        rhs_v = c.a_coef**3 * r ** (-3.0 * c.alpha)
        assert abs(lhs_v - rhs_v) / rhs_v < 1e-12


def test_invalid_params():
    with pytest.raises(InvalidParamsError):
        SystemParams(1, 3, 13)
    with pytest.raises(InvalidParamsError):
        SystemParams(1, 1, 13)
    with pytest.raises(InvalidParamsError):
        SystemParams(3, 0.5, 13)
    with pytest.raises(InvalidParamsError):
        SystemParams(3, 3, 2.5)
    with pytest.raises(InvalidParamsError):
        SystemParams(math.nan, 3, 13)


def test_algebraic_identities_random():
    rng = np.random.default_rng(7)
    for _ in range(10_000):
        params = sample_valid(rng)
        c = derive_constants(params)
        assert abs(c.alpha * params.q - c.beta - 2.0) < 1e-12 * max(1.0, c.alpha * params.q)
        assert abs(c.beta * params.p - c.alpha - 2.0) < 1e-12 * max(1.0, c.beta * params.p)
        assert 0.0 <= c.gamma <= 2.0
        if math.isfinite(c.a_coef):
            assert abs(c.a_coef * c.lam - c.b_coef**params.p) < 1e-12 * c.b_coef**params.p
            assert abs(c.b_coef * c.mu - c.a_coef**params.q) < 1e-12 * c.a_coef**params.q
            lhs = c.a_coef ** (params.q - 1.0) * c.b_coef ** (params.p - 1.0)
            assert abs(lhs - c.lam * c.mu) < 1e-11 * c.lam * c.mu


def test_supercriticality_equivalence_random():
    rng = np.random.default_rng(11)
    for _ in range(10_000):
        params = sample_valid(rng)
        c = derive_constants(params)
        gap = 1.0 / (params.p + 1.0) + 1.0 / (params.q + 1.0) - (1.0 - 2.0 / params.d)
        diff = c.alpha + c.beta - (params.d - 2.0)
        if abs(gap) <= 1e-12 or abs(diff) <= 1e-12:
            continue
        assert (gap <= 0.0) == (diff <= 0.0)


def test_lambda_mu_positive_in_supercritical_range():
    rng = np.random.default_rng(13)
    for _ in range(2_000):
        params = sample_supercritical(rng)
        c = derive_constants(params)
        assert c.lam > 0.0 and c.mu > 0.0


def test_quartic_constant_term():
    for params in (SystemParams(3, 3, 13), SystemParams(5, 2, 11), SystemParams(4, 1, 7)):
        c = derive_constants(params)
        expected = -params.p * params.q * c.alpha**2 * c.beta**2
        assert abs(quartic_eval(params, PLAIN, 0.0) - expected) < 1e-12 * abs(expected)


def test_quartic_symmetric_factorization():
    # for p = q the plain quartic is x^4 - p^2 alpha^2 (2x - alpha)^2
    params = SystemParams(3, 3, 13)
    c = derive_constants(params)
    for x in np.linspace(-3.0, 8.0, 23):
        expected = x**4 - 9.0 * c.alpha**2 * (2.0 * x - c.alpha) ** 2
        assert abs(quartic_eval(params, PLAIN, x) - expected) < 1e-10 * max(1.0, abs(expected))
    root = 3.0 + math.sqrt(6.0)
    assert abs(quartic_eval(params, PLAIN, root)) < 1e-10


def test_largest_root_symmetric_closed_form():
    # at p = q the quartic factors; its largest root is alpha(p + sqrt(p^2 - p))
    for p in (1.5, 2.0, 3.0, 5.0, 8.0):
        params = SystemParams(p, p, 13)
        alpha = 2.0 / (p - 1.0)
        exact = alpha * (p + math.sqrt(p * p - p))
        assert abs(largest_root(params, PLAIN) - exact) <= 1e-10
        assert abs(largest_root(params, PLAIN) - largest_root(params, JL)) <= 1e-10


def test_plain_dominates_jl_and_root_order():
    rng = np.random.default_rng(17)
    for _ in range(300):
        params = sample_valid(rng)
        c = derive_constants(params)
        xs = np.linspace(max(1.0, abs(c.gamma)), 50.0, 20)
        for x in xs:
            if x * x >= c.gamma**2 / 8.0:
                assert quartic_eval(params, PLAIN, x) >= quartic_eval(params, JL, x) - 1e-9
        assert largest_root(params, JL) >= largest_root(params, PLAIN) - 1e-10


def test_largest_root_above_moser_threshold():
    # the plain quartic is negative at (q+1)alpha/2, so its largest root
    # sits strictly above that point
    rng = np.random.default_rng(19)
    for _ in range(300):
        params = sample_valid(rng)
        c = derive_constants(params)
        left = (params.q + 1.0) * c.alpha / 2.0
        assert quartic_eval(params, PLAIN, left) < 0.0
        assert largest_root(params, PLAIN) > left


def test_jl_margin_examples():
    assert abs(jl_margin(SystemParams(3, 3, 13)) - 15.0625) < 1e-12
    assert jl_margin(SystemParams(3, 3, 12)) < 0.0
    assert jl_margin(SystemParams(3, 3, 11)) < 0.0
    assert abs(jl_margin(SystemParams(3, 3, 11)) - (410.0625 - 576.0)) < 1e-9


def test_margin_equals_jl_quartic_at_half_dimension():
    # H_JL((d-2)/2) reproduces H^2 - pq*lambda*mu exactly
    rng = np.random.default_rng(23)
    for _ in range(2_000):
        params = sample_valid(rng)
        m = jl_margin(params)
        val = quartic_eval(params, JL, (params.d - 2.0) / 2.0)
        assert abs(m - val) < 1e-9 * max(1.0, abs(m))


def test_margin_sign_matches_threshold_supercritical():
    rng = np.random.default_rng(29)
    checked = 0
    while checked < 2_000:
        params = sample_supercritical(rng)
        m = jl_margin(params)
        if abs(m) < 1e-8:
            continue
        threshold = 2.0 + 2.0 * largest_root(params, JL)
        assert (m < 0.0) == (params.d < threshold)
        checked += 1


def test_symmetric_threshold_dimension():
    # at p = q = 3, 2 + 2*x0 coincides with the root in d of H^2 = p^2 lambda^2
    x0 = largest_root(SystemParams(3, 3, 13), PLAIN)
    assert abs(2.0 + 2.0 * x0 - (8.0 + 2.0 * math.sqrt(6.0))) < 1e-9


def test_moser_examples():
    m = moser_constants(SystemParams(3, 3, 13), 2.0)
    assert m.b == 2.0 and abs(m.A - 2.25) < 1e-14 and abs(m.B - 2.25) < 1e-14
    assert m.ab_exceeds_one and abs(m.A * m.B - 5.0625) < 1e-12

    m = moser_constants(SystemParams(2, 2, 13), 1.5)
    assert abs(m.A - 2.0 * 2.0 / 2.25) < 1e-12
    assert abs(m.A * m.B - 256.0 / 81.0) < 1e-12


def test_moser_identity_at_lower_threshold():
    # at a = (q+1)/2: AB - 1 = (16 p^2 q^2 - (p+1)^2 (q+1)^2) / ((p+1)^2 (q+1)^2)
    rng = np.random.default_rng(31)
    for _ in range(500):
        params = sample_valid(rng)
        p, q = params.p, params.q
        m = moser_constants(params, (q + 1.0) / 2.0)
        expected = (16.0 * p * p * q * q - (p + 1.0) ** 2 * (q + 1.0) ** 2) / (
            (p + 1.0) ** 2 * (q + 1.0) ** 2
        )
        assert abs(m.A * m.B - 1.0 - expected) < 1e-10 * max(1.0, abs(expected))
        if q > 1.0:
            assert m.ab_exceeds_one


def test_moser_invalid_exponent():
    with pytest.raises(InvalidMoserExponentError):
        moser_constants(SystemParams(3, 3, 13), 1.0)


@pytest.mark.parametrize("a", [math.inf, math.nan])
def test_moser_exponent_must_be_finite(a):
    # a = inf passes a >= (q+1)/2 and would give A = B = nan
    with pytest.raises(InvalidMoserExponentError):
        moser_constants(SystemParams(3, 3, 13), a)


def test_moser_refuses_a_b_that_overflows():
    # b = a(p+1)/(q+1) overflows in a*(p+1) though b = a here
    with pytest.raises(InvalidMoserExponentError, match="overflows"):
        moser_constants(SystemParams(3, 3, 13), 1e308)


@pytest.mark.parametrize("a", [1e200, 1e300, 1.5e154])
def test_moser_gain_where_a_squared_overflows(a):
    # a*a overflows, so the gain is taken as sqrt(pq)(2 - 1/a)/a, not 0
    m = moser_constants(SystemParams(3, 3, 13), a)
    assert m.b == a
    assert m.A == m.B == 3.0 * (2.0 - 1.0 / a) / a
    assert m.A > 0.0 and math.isclose(m.A * a, 6.0)


def test_moser_gain_keeps_its_bits_where_a_squared_is_finite():
    m = moser_constants(SystemParams(5, 2, 13), 1.3e154)
    assert m.A == math.sqrt(10.0) * (2.0 * 1.3e154 - 1.0) / (1.3e154 * 1.3e154)


def test_largest_root_q1_edge():
    # at q = 1 with large p the jl quartic is positive at the origin, so a
    # plain sign bracket from 0 would miss; the cascade must still isolate
    # the largest root
    for p in (5.0, 10.0, 50.0, 100.0):
        params = SystemParams(p, 1.0, 15.0)
        x_plain = largest_root(params, PLAIN)
        x_jl = largest_root(params, JL)
        assert x_jl >= x_plain - 1e-12
        for kind, x in ((PLAIN, x_plain), (JL, x_jl)):
            scale = max(1.0, abs(4.0 * x**3))
            assert abs(quartic_eval(params, kind, x)) < 1e-11 * scale
        assert quartic_eval(params, JL, x_jl * 1.001) > 0.0


def test_quartic_eval_accepts_arrays():
    params = SystemParams(3, 3, 13)
    xs = np.array([0.0, 1.0, 2.0])
    vals = quartic_eval(params, PLAIN, xs)
    assert vals.shape == (3,)
    assert vals[0] == -9.0


def _p_equals_q_roots(params):
    """Roots of sigma^2 + (d-2-2alpha) sigma + (p-1) lambda, larger real part first."""
    c = derive_constants(params)
    b, c0 = params.d - 2.0 - 2.0 * c.alpha, (params.p - 1.0) * c.lam
    s = cmath.sqrt(b * b - 4.0 * c0)
    return (-b + s) / 2.0, (-b - s) / 2.0


@pytest.mark.parametrize("p, d", [(3.0, 13.0), (5.0, 13.0), (3.0, 6.0), (2.0, 7.0)])
def test_linearisation_p_equals_q_reduction_exact(p, d):
    # all four triples make every intermediate value exact, so the
    # factorised form and the quadratic formula agree bit for bit
    params = SystemParams(p, p, d)
    lin = linearisation(params)
    quad = _p_equals_q_roots(params)
    assert set(quad) <= set(lin.roots)
    assert lin.slowest == quad[0]
    assert lin.kappa == -quad[0].real and lin.omega == abs(quad[0].imag)


def test_linearisation_examples():
    lin = linearisation(SystemParams(3, 3, 13))
    # sigma^2 + 9 sigma + 20 = 0 and sigma^2 + 9 sigma - 40 = 0
    assert sorted(r.real for r in lin.roots)[1:3] == [-5.0, -4.0]
    assert sum(r.real > 0.0 for r in lin.roots) == 1
    assert (lin.slowest, lin.kappa, lin.omega) == (-4.0, 4.0, 0.0)
    lin = linearisation(SystemParams(3, 3, 6))  # sigma = -1 +- i sqrt(5)
    assert (lin.kappa, lin.omega) == (1.0, math.sqrt(5.0))
    with pytest.raises(UndefinedSingularError):
        linearisation(SystemParams(3, 3, 3))  # lambda = 0


def test_linearisation_p_equals_q_reduction_random():
    rng = np.random.default_rng(12)
    for _ in range(300):
        p, d = rng.uniform(1.05, 12.0), rng.uniform(3.0, 30.0)
        c = derive_constants(SystemParams(p, p, d))
        if not c.lam > 0.0:
            continue
        lin = linearisation(SystemParams(p, p, d))
        for want in _p_equals_q_roots(SystemParams(p, p, d)):
            assert min(abs(r - want) for r in lin.roots) <= 1e-12 * max(1.0, abs(want))
        if d > 2.0 + 2.0 * c.alpha:  # supercritical: the quadratic holds the slowest root
            assert abs(lin.slowest - _p_equals_q_roots(SystemParams(p, p, d))[0]) <= 1e-12 * max(1.0, lin.kappa)


def _emden_fowler_jacobian(params):
    """Jacobian at (a, 0, b, 0) of the autonomous system that U = r^alpha u and
    V = r^beta v satisfy in t = log r:
    U'' = -(d-2-2alpha) U' + lambda U - V^p,  V'' = -(d-2-2beta) V' + mu V - U^q."""
    c = derive_constants(params)
    p, q, d = params.p, params.q, params.d
    return np.array([
        [0.0, 1.0, 0.0, 0.0],
        [c.lam, -(d - 2.0 - 2.0 * c.alpha), -p * c.b_coef ** (p - 1.0), 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [-q * c.a_coef ** (q - 1.0), 0.0, c.mu, -(d - 2.0 - 2.0 * c.beta)],
    ])


def test_linearisation_matches_emden_fowler_eigenvalues():
    rng = np.random.default_rng(13)
    seen_complex = seen_real = 0
    for _ in range(300):
        params = sample_supercritical(rng)
        if params.p == params.q:
            continue
        lin = linearisation(params)
        eig = sorted(np.linalg.eigvals(_emden_fowler_jacobian(params)), key=lambda z: (z.real, z.imag))
        got = sorted(lin.roots, key=lambda z: (z.real, z.imag))
        scale = max(1.0, max(abs(z) for z in eig))
        assert all(abs(a - b) <= 1e-9 * scale for a, b in zip(got, eig)), (params, got, eig)
        decaying = [z for z in eig if z.real < 0.0]
        assert abs(lin.slowest.real - max(z.real for z in decaying)) <= 1e-9 * scale
        # the roots are real exactly on and above the Joseph-Lundgren curve
        real = all(z.imag == 0.0 for z in lin.roots)
        assert real == (jl_margin(params) >= 0.0), params
        seen_real += real
        seen_complex += not real
    assert seen_real > 20 and seen_complex > 20
