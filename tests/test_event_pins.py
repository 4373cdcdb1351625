"""Bit-for-bit pins of event location on trajectories of every end status.

Each case records the status, the event radius, the row count and the
last row (u, v, u', v') as hex floats.  Event scanning does not feed back
into step selection, so any change to how events are sampled, bracketed
or bisected that is meant to be behaviour-preserving must leave all of
these bits alone.  Four longer runs are pinned on every row: a sha256 of
all (r, u, v, u', v') as little-endian float64 covers the step kernel and
step selection as well as the events, and a second sha256 covers the
rows' higher derivatives (``higher``), from which the dense output is
built.

After an intended change, print the current pins with
``PYTHONPATH=src python tests/test_event_pins.py`` and copy them in.
"""

import hashlib

import numpy as np
import pytest

from lelab import RadialStatus, SystemParams, integrate, shoot_ground_state

# (p, q, d), v0, r_max, rel_tol, status, event radius, rows, last (u, v, u', v')
PINS = [
    pytest.param(
        (3, 3, 3), 1.0, 50.0, 1e-10, RadialStatus.V_HIT_ZERO, "0x1.b965f7c0750e8p+2", 51,
        ("-0x1.2b6d728000000p-43", "-0x1.2b6d728000000p-43",
         "-0x1.5b95a6a913e80p-5", "-0x1.5b95a6a913e80p-5"),
        id="333-v-zero",
    ),
    pytest.param(
        (5, 5, 3), 1.7, 20.0, 1e-6, RadialStatus.U_HIT_ZERO, "0x1.52d5b9228c554p-1", 19,
        ("-0x1.d3de000000000p-42", "0x1.ad266cbf6f964p+0",
         "-0x1.7b47cf2112ab0p+1", "-0x1.2b32e0352b96ep-6"),
        id="553-u-zero",
    ),
    pytest.param(
        (5, 5, 3), 0.6, 20.0, 1e-6, RadialStatus.V_HIT_ZERO, "0x1.efa27390cf96fp+0", 20,
        ("0x1.f7f73b79e8a4fp-1", "-0x1.5a3d200000000p-44",
         "-0x1.0f37cda95b61dp-8", "-0x1.365a0d881ce25p-1"),
        id="553-v-zero",
    ),
    # v0 above the threshold: the event holds at the step start, so the
    # search reports it at the end of the first interval of final width,
    # tau = 2^-37 of the first step (h = 1e-7)
    pytest.param(
        (1.5, 1.2, 3), 1.01e8, 1.0, 1e-10, RadialStatus.BLOWUP, "0x1.0c6f7a0b5faf9p-20", 2,
        ("0x1.a9622b383ceb0p-1", "0x1.8148d00000000p+26",
         "-0x1.4a6a740147155p+18", "-0x1.65e9f80f29941p-22"),
        id="blowup",
    ),
    pytest.param(
        (2, 2, 5), 1.0, 50.0, 1e-10, RadialStatus.V_HIT_ZERO, "0x1.3d82a6499f2efp+3", 81,
        ("-0x1.5b01994c53d10p-45", "-0x1.5b01994c53d10p-45",
         "-0x1.351f7a891d6c2p-7", "-0x1.351f7a891d6c2p-7"),
        id="225-v-zero",
    ),
    pytest.param(
        (3, 3, 13), 1.0, 50.0, 1e-9, RadialStatus.COMPLETED, None, 149,
        ("0x1.030ac8878936dp-4", "0x1.030ac8878936dp-4",
         "-0x1.4b84169556cbbp-10", "-0x1.4b84169556cbbp-10"),
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


def _higher_sha256(sol):
    return hashlib.sha256(np.ascontiguousarray(sol.higher, dtype="<f8").tobytes()).hexdigest()


def _slow_decay_run():
    return integrate(SystemParams(3, 3, 13), 1.0, 1000.0, 1e-11)


def _ground_state_run():
    return shoot_ground_state(SystemParams(5, 5, 3), (0.6, 1.7), r_max=150.0, rel_tol=1e-11)


def _asymmetric_ground_state_run():
    return shoot_ground_state(SystemParams(11, 3, 3), (0.8, 1.5), r_max=150.0, rel_tol=1e-10)


def _low_exponent_ground_state_run():
    return shoot_ground_state(SystemParams(7 / 3, 7 / 3, 5), (0.6, 1.7), r_max=150.0, rel_tol=1e-10)


def test_whole_trajectory_pin_integrate():
    sol = _slow_decay_run()
    assert sol.status is RadialStatus.COMPLETED
    assert len(sol.r) == 349
    assert _trajectory_sha256(sol) == (
        "1b9228b83e96eafbf483d68495329215e422e5a5376cf64eb7ed45b5ad86c350"
    )
    assert _higher_sha256(sol) == (
        "eb3220c1d65e33ef2c18e8eaa2c1321731027e30be7a80e774f3fc841bb8aacd"
    )


def test_whole_trajectory_pin_ground_state():
    v0, sol = _ground_state_run()
    assert v0.hex() == "0x1.ffffffffffbffp-1"
    assert sol.status is RadialStatus.COMPLETED
    assert len(sol.r) == 122
    assert _trajectory_sha256(sol) == (
        "266dd367e4e54e79df37ee34956227d931f8cae28faca94f417a565b5c1e6ea1"
    )
    assert _higher_sha256(sol) == (
        "87fd94f31bd8154411959aa95092fc489275930708210628e9e8e05af6a86859"
    )


def test_whole_trajectory_pin_asymmetric_ground_state():
    # p != q: the bisection converges where the sign of the side functional
    # at r_max changes, which moves with r_max, so ROADMAP item 15 will
    # re-record this pin on purpose when it changes the side rule
    v0, sol = _asymmetric_ground_state_run()
    assert v0.hex() == "0x1.14a0b1cf1d0ccp+0"
    assert sol.status is RadialStatus.COMPLETED
    assert len(sol.r) == 100
    assert _trajectory_sha256(sol) == (
        "c3bfe851d157840b7108340329ebc26a202e5ffee7c9b91f0a2374ac804c7b8b"
    )
    assert _higher_sha256(sol) == (
        "e78186c71533fe0a23ac29bb1e3fbc50401fa8e225d1f704c24693a1390acae6"
    )


def test_whole_trajectory_pin_low_exponent_ground_state():
    # p = q = 7/3 < 3: the fifth derivatives in the dense output bound grow
    # without bound near each event, so the shots take the most shortened
    # steps of the benchmark's ground states
    v0, sol = _low_exponent_ground_state_run()
    assert v0.hex() == "0x1.ffffffffffbffp-1"
    assert sol.status is RadialStatus.COMPLETED
    assert len(sol.r) == 129
    assert _trajectory_sha256(sol) == (
        "698dadb51372019bd4e92bc715d8022aeeaf4eb22bdc62471fe68939f0750fd8"
    )
    assert _higher_sha256(sol) == (
        "777373904ecc55fc5109cb59f84672eed2f35f4fae90ab1b26ecb97615fab199"
    )


if __name__ == "__main__":
    for case in PINS:
        triple, v0, r_max, rel_tol = case.values[:4]
        sol = integrate(SystemParams(*triple), v0, r_max, rel_tol)
        event = None if sol.event_radius is None else sol.event_radius.hex()
        last = tuple(float(w[-1]).hex() for w in (sol.u, sol.v, sol.du, sol.dv))
        print(f"{case.id}: {sol.status}, {event!r}, {len(sol.r)},\n    {last}")
    for name, run in (("integrate", _slow_decay_run), ("ground_state", _ground_state_run),
                      ("asymmetric_ground_state", _asymmetric_ground_state_run),
                      ("low_exponent_ground_state", _low_exponent_ground_state_run)):
        result = run()
        v0, sol = (None, result) if name == "integrate" else result
        print(f"whole_trajectory_pin_{name}: {sol.status}, v0 {None if v0 is None else v0.hex()}, "
              f"{len(sol.r)} rows, sha256 {_trajectory_sha256(sol)}, higher {_higher_sha256(sol)}")
