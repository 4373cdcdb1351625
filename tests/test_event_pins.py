"""Bit-for-bit pins of event location on trajectories of every end status.

Each case records the status, the event radius, the row count and the
last row (u, v, u', v') as hex floats.  Event scanning does not feed back
into step selection, so any change to how events are sampled, bracketed
or bisected that is meant to be behaviour-preserving must leave all of
these bits alone.  Two longer runs are pinned on every row: a sha256 of
all (r, u, v, u', v') as little-endian float64 covers the step kernel and
step selection as well as the events.
"""

import hashlib

import numpy as np
import pytest

from lelab import RadialStatus, SystemParams, integrate, shoot_ground_state

# (p, q, d), v0, r_max, rel_tol, status, event radius, rows, last (u, v, u', v')
PINS = [
    pytest.param(
        (3, 3, 3), 1.0, 50.0, 1e-10, RadialStatus.V_HIT_ZERO, "0x1.b965f7c0523f7p+2", 161,
        ("-0x1.c85c897d00900p-45", "-0x1.c85c897d00900p-45",
         "-0x1.5b95a6a96722ap-5", "-0x1.5b95a6a96722ap-5"),
        id="333-v-zero",
    ),
    pytest.param(
        (5, 5, 3), 1.7, 20.0, 1e-6, RadialStatus.U_HIT_ZERO, "0x1.52d5b8e4376c0p-1", 22,
        ("-0x1.c45d000000000p-41", "0x1.ad266cd0ab6a2p+0",
         "-0x1.7b47ce4b27d37p+1", "-0x1.2b32e338e1826p-6"),
        id="553-u-zero",
    ),
    pytest.param(
        (5, 5, 3), 0.6, 20.0, 1e-6, RadialStatus.V_HIT_ZERO, "0x1.efa2732c21413p+0", 23,
        ("0x1.f7f73b86f1030p-1", "-0x1.23cd400000000p-40",
         "-0x1.0f37d5c0cf0d5p-8", "-0x1.365a0dd9c5adbp-1"),
        id="553-v-zero",
    ),
    # v0 above the threshold: the scan sees the event at the step start
    # and reports it just inside the first step
    pytest.param(
        (1.5, 1.2, 3), 1.01e8, 1.0, 1e-10, RadialStatus.BLOWUP, "0x1.0c6f7a0b849f2p-20", 2,
        ("0x1.a9622b3825150p-1", "0x1.8148d00000001p+26",
         "-0x1.4a6a7401748c4p+18", "-0x1.65e9f80f3d5dbp-22"),
        id="blowup",
    ),
    pytest.param(
        (2, 2, 5), 1.0, 50.0, 1e-10, RadialStatus.V_HIT_ZERO, "0x1.3d82a649d8c8bp+3", 256,
        ("-0x1.acd6200000000p-48", "-0x1.acd6200000000p-48",
         "-0x1.351f7a89b729cp-7", "-0x1.351f7a89b729cp-7"),
        id="225-v-zero",
    ),
    pytest.param(
        (3, 3, 13), 1.0, 50.0, 1e-9, RadialStatus.COMPLETED, None, 405,
        ("0x1.030ac887814a1p-4", "0x1.030ac887814a1p-4",
         "-0x1.4b8416927b588p-10", "-0x1.4b8416927b588p-10"),
        id="3313-completed",
    ),
]


@pytest.mark.parametrize("triple, v0, r_max, rel_tol, status, event_hex, rows, last", PINS)
def test_event_pins(triple, v0, r_max, rel_tol, status, event_hex, rows, last):
    sol = integrate(SystemParams(*triple), v0, r_max, rel_tol)
    assert sol.status is status
    if event_hex is None:
        assert sol.event_radius is None
    else:
        assert type(sol.event_radius) is float
        assert sol.event_radius.hex() == event_hex
    assert len(sol.r) == rows
    got = tuple(float(w[-1]).hex() for w in (sol.u, sol.v, sol.du, sol.dv))
    assert got == last


def _trajectory_sha256(sol):
    rows = np.column_stack((sol.r, sol.u, sol.v, sol.du, sol.dv)).astype("<f8")
    return hashlib.sha256(rows.tobytes()).hexdigest()


def test_whole_trajectory_pin_integrate():
    sol = integrate(SystemParams(3, 3, 13), 1.0, 1000.0, 1e-11)
    assert sol.status is RadialStatus.COMPLETED
    assert len(sol.r) == 1366
    assert _trajectory_sha256(sol) == (
        "2d9c9b0e374c2f19aedae0ee76040ba1a70b0de398687120b28303a632273da0"
    )


def test_whole_trajectory_pin_ground_state():
    v0, sol = shoot_ground_state(SystemParams(5, 5, 3), (0.6, 1.7), r_max=150.0, rel_tol=1e-11)
    assert v0.hex() == "0x1.ffffffffffbffp-1"
    assert sol.status is RadialStatus.COMPLETED
    assert len(sol.r) == 509
    assert _trajectory_sha256(sol) == (
        "4646ae6035f0bda0a3461cf012ec8ef114ffd5640499fb7c974f2d139ccaa9fc"
    )


def test_whole_trajectory_pin_asymmetric_ground_state():
    # p != q: the bisection converges where the sign of the side functional
    # at r_max changes, which moves with r_max, so ROADMAP item 15 will
    # re-record this pin on purpose when it changes the side rule
    v0, sol = shoot_ground_state(SystemParams(11, 3, 3), (0.8, 1.5), r_max=150.0, rel_tol=1e-10)
    assert v0.hex() == "0x1.14a0b1cf1f266p+0"
    assert sol.status is RadialStatus.COMPLETED
    assert len(sol.r) == 351
    assert _trajectory_sha256(sol) == (
        "e23e0fc5e5b5be8ca43c4e46a1e9e0ce85f9ed5d52413e9275740ee3632dee0e"
    )
