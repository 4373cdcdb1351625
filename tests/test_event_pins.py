"""Bit-for-bit pins of event location on trajectories of every end status.

Each case records the status, the event radius, the row count and the
last row (u, v, u', v') as hex floats.  Event scanning does not feed back
into step selection, so any change to how events are sampled, bracketed
or bisected that is meant to be behaviour-preserving must leave all of
these bits alone.
"""

import pytest

from lelab import RadialStatus, SystemParams, integrate

# (p, q, d), v0, r_max, rel_tol, status, event radius, rows, last (u, v, u', v')
PINS = [
    pytest.param(
        (3, 3, 3), 1.0, 50.0, 1e-10, RadialStatus.V_HIT_ZERO, "0x1.b965f7c0523f7p+2", 161,
        ("-0x1.c85c900000000p-45", "-0x1.c85c900000000p-45",
         "-0x1.5b95a6a96722bp-5", "-0x1.5b95a6a96722bp-5"),
        id="333-v-zero",
    ),
    pytest.param(
        (5, 5, 3), 1.7, 20.0, 1e-6, RadialStatus.U_HIT_ZERO, "0x1.52d5b8e4376c0p-1", 22,
        ("-0x1.c028000000000p-41", "0x1.ad266cd0ab660p+0",
         "-0x1.7b47ce4b27906p+1", "-0x1.2b32e3392b5f1p-6"),
        id="553-u-zero",
    ),
    pytest.param(
        (5, 5, 3), 0.6, 20.0, 1e-6, RadialStatus.V_HIT_ZERO, "0x1.efa2732c21413p+0", 23,
        ("0x1.f7f73b86f103ap-1", "-0x1.239b000000000p-40",
         "-0x1.0f37d5c0c5df4p-8", "-0x1.365a0dd9c5a5ep-1"),
        id="553-v-zero",
    ),
    # v0 above the threshold: the scan sees the event at the step start
    # and reports it just inside the first step
    pytest.param(
        (1.5, 1.2, 3), 1.01e8, 1.0, 1e-10, RadialStatus.BLOWUP, "0x1.0c6f7a0b849f2p-20", 2,
        ("0x1.a9622b382514fp-1", "0x1.8148d00000000p+26",
         "-0x1.4a6a7401748c3p+18", "-0x1.65e9f80f3d5d9p-22"),
        id="blowup",
    ),
    pytest.param(
        (2, 2, 5), 1.0, 50.0, 1e-10, RadialStatus.V_HIT_ZERO, "0x1.3d82a649d8c8bp+3", 256,
        ("-0x1.acb7800000000p-48", "-0x1.acb7800000000p-48",
         "-0x1.351f7a89b71acp-7", "-0x1.351f7a89b71acp-7"),
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
