"""The written-out Dormand-Prince 5(4) step against the generic stage loop.

The reference is the loop ``integrate`` once ran: the stages walk the
Butcher tableau with one weighted sum per component, and the error norm
sums the four scaled components.  Its sums are accumulated explicitly left
to right from the int 0, which is what ``sum()`` does on Python 3.11 (later
versions compensate float sums), so the reference does not depend on the
interpreter.  The tableau is kept here as the loop read it, so a changed
coefficient in ``radial`` fails too.  ``_dp54_step`` must give the same bits
of y_new, k7 and err on every trial step of real trajectories and on
random steps with overflowing stages, zero or -0.0, NaN and infinite
components.  ``_third_derivs``, which feeds the dense output, is held the
same way to its plain ``abs(w) ** (p - 1.0)`` form.
"""

import math
import random
import struct

import pytest

from lelab import RadialStatus, SystemParams, integrate
from lelab import radial
from lelab.radial import _ATOL_FLOOR, _dp54_step, _rhs, _third_derivs

_C = (0.2, 0.3, 0.8, 8.0 / 9.0, 1.0)
_A = (
    (0.2,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0),
)
_B = (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0)
_E = (
    71.0 / 57600.0, 0.0, -71.0 / 16695.0, 71.0 / 1920.0, -17253.0 / 339200.0, 22.0 / 525.0,
    -1.0 / 40.0,
)


def _weighted(weights, ks, j):
    s = 0  # the int start of sum(): 0 + -0.0 is +0.0
    for w, k in zip(weights, ks):
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
        k7 = _rhs(r + h, *y_new, p, q, dm1)
        ks.append(k7)
        err_sq = 0.0
        for j in range(4):
            e_j = h * _weighted(_E, ks, j)
            scale = _ATOL_FLOOR + rel_tol * max(abs(y[j]), abs(y_new[j]))
            err_sq += (e_j / scale) ** 2
        err = math.sqrt(err_sq / 4.0)
    except OverflowError:
        return None, None, math.inf
    return y_new, k7, err


def _bits(x):
    if x is None:
        return None
    if isinstance(x, tuple):
        return tuple(_bits(w) for w in x)
    assert type(x) is float
    return struct.pack("<d", x)


def _check(args, stages=None):
    got = _dp54_step(*args)
    assert _bits(got) == _bits(_reference_step(*args, stages)), args
    return got


_TRAJECTORIES = [
    ((3, 3, 13), 1.0, 300.0, 1e-11),
    ((5, 5, 3), 1.7, 20.0, 1e-6),
    # trial stages overflow until the step underflows at r_start
    ((9, 2, 5), 5e7, 1.0, 1e-10),
]


@pytest.mark.parametrize("triple, v0, r_max, rel_tol", _TRAJECTORIES)
def test_kernel_matches_reference_on_trajectory_steps(monkeypatch, triple, v0, r_max, rel_tol):
    errs = []

    def checked_step(*args):  # checks each trial step as integrate takes it
        got = _check(args)
        errs.append(got[2])
        return got

    monkeypatch.setattr(radial, "_dp54_step", checked_step)
    sol = integrate(SystemParams(*triple), v0, r_max, rel_tol)
    assert len(errs) >= len(sol.r) - 1
    if sol.status is RadialStatus.STEP_UNDERFLOW:
        assert math.inf in errs
    else:
        assert any(e > 1.0 for e in errs) and any(e <= 1.0 for e in errs)


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
    overflowed = rejected = accepted = signed_zero = 0
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
        if rng.random() < 0.5:
            try:
                k1 = _rhs(r, *y, p, q, dm1)  # the FSAL slope integrate passes
            except OverflowError:
                k1 = tuple(_component(rng, nonfinite) for _ in range(4))
        else:
            k1 = tuple(_component(rng, nonfinite) for _ in range(4))
        if nonfinite and rng.random() < 0.2:
            # a subnormal solution: h times a stage sum rounds to -0.0, so a
            # stage keeps the -0.0 of its component, and k7 shows the sign
            # of the stage power when u' or v' at r + h is +0.0
            y, k1 = (tuple(_subnormal(rng) for _ in range(4)) for _ in range(2))
        rel_tol = 10.0 ** rng.uniform(-13.0, -6.0)
        y_new, _, err = _check((r, h, y, k1, p, q, dm1, rel_tol), stages)
        if err == math.inf and y_new is None:
            overflowed += 1
        elif err > 1.0:
            rejected += 1
        else:
            accepted += 1
        # a -0.0 component that stays zero: the int start of each sum decides its sign
        if y_new is not None and any(
            w == 0.0 == w_new and math.copysign(1.0, w) < 0.0 for w, w_new in zip(y, y_new)
        ):
            signed_zero += 1
    assert min(overflowed, rejected, accepted) >= 100
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
    dddu = c / r * du - c * ddu - p * abs(v) ** (p - 1.0) * dv
    dddv = c / r * dv - c * ddv - q * abs(u) ** (q - 1.0) * du
    return dddu, dddv


def _third_derivs_outcome(f, args):
    try:
        return _bits(f(*args))
    except OverflowError:
        return OverflowError


@pytest.mark.parametrize("triple, v0, r_max, rel_tol", _TRAJECTORIES)
def test_third_derivs_match_reference_on_trajectory_steps(
    monkeypatch, triple, v0, r_max, rel_tol
):
    calls = []

    def checked(*args):  # checks each accepted step's end as integrate takes it
        calls.append(args)
        got = _third_derivs(*args)
        assert _bits(got) == _bits(_reference_third_derivs(*args)), args
        return got

    monkeypatch.setattr(radial, "_third_derivs", checked)
    sol = integrate(SystemParams(*triple), v0, r_max, rel_tol)
    # one call per accepted step and one for the start of the first
    assert len(calls) == (len(sol.r) if len(sol.r) > 1 else 0)


def test_third_derivs_match_reference_on_random_draws():
    rng = random.Random(11)
    signed_zero = 0
    for _ in range(20000):
        # p = 4 makes |v|^(p - 1) a cube, which keeps the sign of -0.0
        p, q = (rng.choice((4.0, rng.uniform(1.0, 10.0))) for _ in range(2))
        args = (
            10.0 ** rng.uniform(-6.0, 3.0),
            *(rng.choice((0.0, -0.0, _NAN, _component(rng, True))) for _ in range(6)),
            p, q, rng.uniform(2.0, 30.0),
        )
        got = _third_derivs_outcome(_third_derivs, args)
        assert got == _third_derivs_outcome(_reference_third_derivs, args), args
        u, v = args[5:7]
        signed_zero += (v == 0.0 and math.copysign(1.0, v) < 0.0 and p == 4.0) + (
            u == 0.0 and math.copysign(1.0, u) < 0.0 and q == 4.0
        )
    assert signed_zero >= 1000
