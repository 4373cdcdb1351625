"""The written-out DOP853 step against the generic stage loop, and the tableau.

The reference is a generic loop: the stages walk the Butcher tableau with
one weighted sum per component, and the error norms sum the four scaled
components.  Its sums are accumulated explicitly left to right from the
int 0, which is what ``sum()`` does on Python 3.11 (later versions
compensate float sums), so the reference does not depend on the
interpreter.  Both skip zero tableau weights: a term with weight 0.0 is
never formed, so an infinite slope there cannot make a sum NaN
(0.0 * inf is NaN).  The tableau is kept here as the loop reads it,
transcribed on its own from Prince & Dormand (1981) in the decimals of
Hairer's DOP853, so a changed coefficient in ``radial`` fails too.
``_dop853_step`` must give the same bits of the new state, its slope and
err on every trial step of real trajectories and on random steps with
overflowing stages, zero or -0.0, NaN and infinite components; its FSAL
slope's u' and v' are the state's own.  ``_row``, which builds each
node's derivatives for the dense output, is held the same way to a
reference that takes the third derivatives in their plain
``abs(w) ** (p - 1.0)`` form.  The tableau itself is checked on
``radial``'s constants: row sums against c, the quadrature order
conditions through order 8, and the observed order of fixed steps on the
(5, 5, 3) bubble.
"""

import math
import random
import struct

import pytest

from lelab import RadialStatus, SystemParams, integrate
from lelab import radial
from lelab.radial import _ATOL_FLOOR, _dop853_step, _rhs, _row

_C = (
    0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510, 0.281649658092772603273242802490,
    0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
    0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142, 1.0,
)
_A = (
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2),
    (2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
     9.24834003261792003115737966543e-1),
    (3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
     1.25467687566822425016691814123e-1),
    (3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
     6.02165389804559606850219397283e-2, -1.7578125e-2),
    (3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
     1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
     8.27378916381402288758473766002e-3),
    (6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
     -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
     2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1),
    (4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
     -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
     1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
     -2.03312017085086261358222928593e-2),
    (-9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
     1.09143734899672957818500254654, -8.14978701074692612513997267357,
     -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
     2.49360555267965238987089396762, -3.0467644718982195003823669022),
    (2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
     -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
     2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
     -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
     6.43392746015763530355970484046e-1),
)
_B = (
    5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0, 4.45031289275240888144113950566,
    1.89151789931450038304281599044, -5.8012039600105847814672114227,
    3.1116436695781989440891606237e-1, -1.52160949662516078556178806805e-1,
    2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2,
)
_E5 = (
    0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0, -0.1225156446376204440720569753e1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1,
)
# b less the weights bhh of the 3rd-order solution, on stages 1, 9 and 12
_BHH = (0.244094488188976377952755905512, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
        0.733846688281611857341361741547, 0.0, 0.0, 0.220588235294117647058823529412e-1)
_E3 = tuple(b - bhh for b, bhh in zip(_B, _BHH))


def _weighted(weights, ks, j):
    s = 0  # the int start of sum(): 0 + -0.0 is +0.0
    for w, k in zip(weights, ks):
        if w:  # zero weights are skipped
            s = s + w * k[j]
    return s


# The NaN that an invalid operation such as inf - inf gives on this machine.
# IEEE 754 leaves the sign of a NaN result open, and CPython adds two NaNs
# of opposite sign with the operands in one order before it specialises an
# addition and in the other after, so the sum takes either sign.  The
# random steps draw this NaN, whose sign every generated NaN shares.
_NAN = math.inf - math.inf


def _reference_step(r, h, y, k1, p, q, dm1, rel_tol, stages=None):
    """The generic stage loop; u and v of each stage go to ``stages`` when given."""
    try:
        ks = [k1]
        for ci, ai in zip(_C, _A):
            yi = tuple(y[j] + h * _weighted(ai, ks, j) for j in range(4))
            if stages is not None:
                stages += yi[:2]
            ks.append(_rhs(r + ci * h, *yi, p, q, dm1))
        y_new = tuple(y[j] + h * _weighted(_B, ks, j) for j in range(4))
        if stages is not None:
            stages += y_new[:2]
        err5 = err3 = 0.0
        for j in range(4):
            scale = _ATOL_FLOOR + rel_tol * max(abs(y[j]), abs(y_new[j]))
            err5 += (_weighted(_E5, ks, j) / scale) ** 2
            err3 += (_weighted(_E3, ks, j) / scale) ** 2
        k13 = _rhs(r + h, *y_new, p, q, dm1)
    except OverflowError:
        return None, None, math.inf
    # Hairer's combined norm h err5^2 / sqrt(4 (err5^2 + 0.01 err3^2))
    deno = err5 + 0.01 * err3
    if not deno < math.inf:
        err = math.inf
    elif deno > 0.0:
        err = h * err5 / (2.0 * math.sqrt(deno))
    else:
        err = 0.0
    return y_new, k13, err


def _bits(x):
    if x is None:
        return None
    if isinstance(x, tuple):
        return tuple(_bits(w) for w in x)
    assert type(x) is float
    return struct.pack("<d", x)


def _check(args, stages=None):
    """The kernel on flat args (r, h, u, v, u', v', u'', v'', p, q, dm1,
    rel_tol) against the reference from y = (u, v, u', v') with FSAL slope
    (u', v', u'', v'')."""
    r, h, u, v, du, dv, ddu, ddv, *rest = args
    got = _dop853_step(*args)
    y_new, k13, err = _reference_step(r, h, (u, v, du, dv), (du, dv, ddu, ddv), *rest, stages)
    if y_new is None:
        assert _bits(got) == (None,) * 6 + (_bits(err),), args
    else:
        # the slope at r + h starts with the new state's own u' and v'
        assert _bits(k13[:2]) == _bits(y_new[2:])
        assert _bits(got) == _bits((*y_new, *k13[2:], err)), args
    return got


_TRAJECTORIES = [
    ((3, 3, 13), 1.0, 300.0, 1e-11),
    ((5, 5, 3), 1.7, 20.0, 1e-6),
    # v0 just under the blowup threshold: u falls to zero by r = 1e-5,
    # through rejected trial steps
    ((1.5, 1.2, 3), 5e7, 1.0, 1e-10),
]


@pytest.mark.parametrize("triple, v0, r_max, rel_tol", _TRAJECTORIES)
def test_kernel_matches_reference_on_trajectory_steps(monkeypatch, triple, v0, r_max, rel_tol):
    errs = []

    def checked_step(*args):  # checks each trial step as integrate takes it
        got = _check(args)
        errs.append(got[6])
        return got

    monkeypatch.setattr(radial, "_dop853_step", checked_step)
    sol = integrate(SystemParams(*triple), v0, r_max, rel_tol)
    assert len(errs) >= len(sol.r) - 1
    assert any(e <= 1.0 for e in errs)
    # the (3, 3, 13) run rejects no trial step; the other two do
    assert any(e > 1.0 for e in errs) == (triple != (3, 3, 13))


def _component(rng, nonfinite=False):
    if nonfinite and rng.random() < 0.1:
        return rng.choice((_NAN, math.inf, -math.inf))
    roll = rng.random()
    if roll < 0.1:
        return 0.0
    if roll < 0.2:
        return -0.0
    if roll < 0.3:  # large enough that |w|^p overflows in a stage
        return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(30.0, 300.0)
    return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-8.0, 4.0)


def _subnormal(rng):
    if rng.random() < 0.5:
        return rng.choice((0.0, -0.0))
    return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-323.0, -308.0)


def test_kernel_matches_reference_on_random_steps():
    rng = random.Random(7)
    overflowed = nonfinite_norm = rejected = accepted = signed_zero = 0
    stages = []  # u and v of every stage, the bases of the stage powers
    for case in range(8000):
        # after the first 4000 steps: NaN and infinite components, and in
        # half the steps integer exponents, odd ones keeping the sign of -0.0
        nonfinite = case >= 4000
        if nonfinite and rng.random() < 0.5:
            p, q = float(rng.randint(1, 5)), float(rng.randint(1, 5))
        else:
            p = rng.uniform(1.0, 10.0)
            q = rng.uniform(1.0, p)
        dm1 = rng.choice((2.0, 4.0, 12.0, rng.uniform(2.0, 30.0)))
        r = 10.0 ** rng.uniform(-6.0, 3.0)
        h = r * 10.0 ** rng.uniform(-5.0, 0.5)
        if rng.random() < 0.05:  # the zero solution, signed zeros and all
            y = tuple(rng.choice((0.0, -0.0)) for _ in range(4))
        else:
            y = tuple(_component(rng, nonfinite) for _ in range(4))
        # u'' and v'' at r: the ODE's, as integrate passes them, or drawn
        # (four slopes are drawn and the last two kept, u' and v' being y's)
        if rng.random() < 0.5:
            try:
                k1 = _rhs(r, *y, p, q, dm1)
            except OverflowError:
                k1 = tuple(_component(rng, nonfinite) for _ in range(4))
        else:
            k1 = tuple(_component(rng, nonfinite) for _ in range(4))
        if nonfinite and rng.random() < 0.2:
            # a subnormal solution: h times a stage sum rounds to -0.0, so a
            # stage keeps the -0.0 of its component, and the new slope shows
            # the sign of the stage power when u' or v' at r + h is +0.0
            y, k1 = (tuple(_subnormal(rng) for _ in range(4)) for _ in range(2))
        rel_tol = 10.0 ** rng.uniform(-13.0, -6.0)
        got = _check((r, h, *y, *k1[2:], p, q, dm1, rel_tol), stages)
        y_new, err = got[:4], got[6]
        if err == math.inf and y_new[0] is None:
            overflowed += 1
        elif err == math.inf:  # an infinite or NaN error norm
            nonfinite_norm += 1
        elif err > 1.0:
            rejected += 1
        else:
            accepted += 1
        # a -0.0 component that stays zero: the int start of each sum decides its sign
        if y_new[0] is not None and any(
            w == 0.0 == w_new and math.copysign(1.0, w) < 0.0 for w, w_new in zip(y, y_new)
        ):
            signed_zero += 1
    assert min(overflowed, nonfinite_norm, rejected, accepted) >= 100
    assert signed_zero >= 10
    # the bases of the stage powers: w ** p when w > 0.0, the signed form
    # for the rest, among them NaN and the -0.0 that a >= test would send
    # to w ** p, which keeps the sign of -0.0 for odd integer p
    fast = sum(w > 0.0 for w in stages)
    nan = sum(w != w for w in stages)
    negative_zero = sum(w == 0.0 and math.copysign(1.0, w) < 0.0 for w in stages)
    assert fast >= 10000 and len(stages) - fast >= 10000
    assert nan >= 1000 and negative_zero >= 50


def _reference_third_derivs(r, du, dv, ddu, ddv, u, v, p, q, dm1):
    c = dm1 / r
    fv = p * abs(v) ** (p - 1.0)
    fu = q * abs(u) ** (q - 1.0)
    dddu = c / r * du - c * ddu - fv * dv
    dddv = c / r * dv - c * ddv - fu * du
    return dddu, dddv, fv, fu


def _reference_row(r, u, v, du, dv, ddu, ddv, p, q, dm1):
    """A node's row from the reference third derivatives and their fv, fu;
    the fourth and fifth derivatives are the ODE's, rounded in radial's order."""
    dddu, dddv, fv, fu = _reference_third_derivs(r, du, dv, ddu, ddv, u, v, p, q, dm1)
    c = dm1 / r
    cr = c / r
    fv2 = (p - 1.0) * fv / v if v else 0.0
    fv3 = (p - 2.0) * fv2 / v if v else 0.0
    fu2 = (q - 1.0) * fu / u if u else 0.0
    fu3 = (q - 2.0) * fu2 / u if u else 0.0
    d4u = -2.0 * cr / r * du + 2.0 * cr * ddu - c * dddu - fv2 * dv * dv - fv * ddv
    d4v = -2.0 * cr / r * dv + 2.0 * cr * ddv - c * dddv - fu2 * du * du - fu * ddu
    d5u = (6.0 * cr / (r * r) * du - 6.0 * cr / r * ddu + 3.0 * cr * dddu - c * d4u
           - fv3 * dv * dv * dv - 3.0 * fv2 * dv * ddv - fv * dddv)
    d5v = (6.0 * cr / (r * r) * dv - 6.0 * cr / r * ddv + 3.0 * cr * dddv - c * d4v
           - fu3 * du * du * du - 3.0 * fu2 * du * ddu - fu * dddu)
    return u, v, du, dv, ddu, ddv, dddu, dddv, d4u, d4v, d5u, d5v


def _row_outcome(f, args):
    try:
        return _bits(f(*args))
    except OverflowError:
        return OverflowError


@pytest.mark.parametrize("triple, v0, r_max, rel_tol", _TRAJECTORIES)
def test_third_derivs_match_reference_on_trajectory_steps(
    monkeypatch, triple, v0, r_max, rel_tol
):
    calls, shortened = [], []
    dense_error = radial._dense_error

    def checked(*args):  # checks each row as integrate builds it
        calls.append(args)
        got = _row(*args)
        assert _bits(got) == _bits(_reference_row(*args)), args
        return got

    def counted_dense_error(*args):
        got = dense_error(*args)
        shortened.append(got > 1.0)
        return got

    monkeypatch.setattr(radial, "_row", checked)
    monkeypatch.setattr(radial, "_dense_error", counted_dense_error)
    sol = integrate(SystemParams(*triple), v0, r_max, rel_tol)
    # one call for each row that integrate evaluates the ODE at, the start
    # row and an event row, then one for the end of each step that passes
    # the error test: the accepted rows, the step that ends in the event
    # row, and each step that the dense output bound shortened.  A step
    # start's row is carried over from the previous end, never formed
    # again.
    event = sol.status in (RadialStatus.U_HIT_ZERO, RadialStatus.V_HIT_ZERO, RadialStatus.BLOWUP)
    assert len(calls) == len(sol.r) + sum(shortened) + event


def test_third_derivs_match_reference_on_random_draws():
    rng = random.Random(11)
    signed_zero = 0
    for _ in range(20000):
        # p = 4 makes |v|^(p - 1) a cube, which keeps the sign of -0.0
        p, q = (rng.choice((4.0, rng.uniform(1.0, 10.0))) for _ in range(2))
        r, du, dv, ddu, ddv, u, v = (
            10.0 ** rng.uniform(-6.0, 3.0),
            *(rng.choice((0.0, -0.0, _NAN, _component(rng, True))) for _ in range(6)),
        )
        args = (r, u, v, du, dv, ddu, ddv, p, q, rng.uniform(2.0, 30.0))
        assert _row_outcome(_row, args) == _row_outcome(_reference_row, args), args
        signed_zero += (v == 0.0 and math.copysign(1.0, v) < 0.0 and p == 4.0) + (
            u == 0.0 and math.copysign(1.0, u) < 0.0 and q == 4.0
        )
    assert signed_zero >= 1000


def test_tableau_rows_sum_to_c():
    assert len(radial._DOP_A) == len(radial._DOP_C) == 11
    for i, (row, c) in enumerate(zip(radial._DOP_A, radial._DOP_C)):
        assert len(row) == i + 1
        assert abs(math.fsum(row) - c) <= 2e-15, (i + 2, math.fsum(row) - c)


def test_weights_integrate_powers_through_order_8():
    # sum_i b_i c_i^(k-1) = 1/k holds for k = 1..8 and fails at k = 9
    c = (0.0,) + radial._DOP_C
    b = radial._DOP_B
    residual = [math.fsum(bi * ci ** (k - 1) for bi, ci in zip(b, c)) - 1.0 / k for k in range(1, 10)]
    assert max(map(abs, residual[:8])) <= 2e-15, residual
    assert abs(residual[8]) > 1e-5
    # both error estimates vanish on constants: their weights sum to 0
    assert abs(math.fsum(radial._DOP_E5)) <= 2e-15
    assert abs(math.fsum(radial._DOP_E3)) <= 2e-15


def _bubble_553(r):
    x = 1.0 + r * r / 3.0
    u, du = x**-0.5, -(r / 3.0) * x**-1.5
    return u, u, du, du


def test_observed_order_on_the_bubble():
    # fixed steps from r = 1 to 3 on the exact (5, 5, 3) bubble; halving
    # the step cuts the global error by 2^8 for an 8th-order method
    errors = []
    for n in (2, 4, 8):
        h = 2.0 / n
        y = _bubble_553(1.0)
        state = (*y, *_rhs(1.0, *y, 5.0, 5.0, 2.0)[2:])
        for i in range(n):
            state = _dop853_step(1.0 + i * h, h, *state, 5.0, 5.0, 2.0, 1e-11)[:6]
        errors.append(max(abs(a - b) for a, b in zip(state, _bubble_553(3.0))))
    orders = [math.log2(e0 / e1) for e0, e1 in zip(errors, errors[1:])]
    assert min(orders) >= 7.0, (errors, orders)
