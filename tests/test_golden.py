"""Golden corpus of CLI invocations.

Each case runs ``lelab.cli.run`` in process and compares exit code, stdout
and stderr with the record under ``tests/golden/<name>.json``.  Outputs
must match byte for byte, with one exception: the numbers printed by
``verify pohozaev`` and ``verify energy`` come from quadrature on the dense
output, whose summation order may change the last digits.  Those numbers
must agree to GOLDEN_RTOL relative, or to GOLDEN_RESIDUAL_ATOL absolute for
the residual field (the Pohozaev residual is normalised by the term scale,
so its absolute value is what the pass flag is judged on).  Everything else
in those outputs, the pass flag and the exit code included, must still
match exactly.

Re-record after an intended output change with
``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from lelab.cli import _build_parser, run

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_RTOL = 1e-13
GOLDEN_RESIDUAL_ATOL = 2e-13

PQD_3313 = ["-p", "3", "-q", "3", "-d", "13"]
PQD_3213 = ["-p", "3", "-q", "2", "-d", "13"]
PQD_333 = ["-p", "3", "-q", "3", "-d", "3"]
PQD_553 = ["-p", "5", "-q", "5", "-d", "3"]
GS_FAST = ["--r-max", "20", "--rel-tol", "1e-6"]

CASES = {
    "classify_human": ["classify", *PQD_3213],
    "classify_json": ["classify", *PQD_3313, "--json"],
    "classify_csv": ["classify", "-p", "5", "-q", "1.5", "-d", "7", "--csv"],
    "classify_non_integer_d": ["classify", "-p", "3", "-q", "2", "-d", "12.5"],
    "classify_invalid_exit_2": ["classify", "-p", "1", "-q", "3", "-d", "13"],
    "unknown_flag_exit_2": ["classify", *PQD_3313, "--frobnicate"],
    "curve_jl_csv": ["curve", "--kind", "jl", "-d", "13", "--p-min", "2", "--p-max", "8", "-n", "4"],
    "curve_hyperbola_json": [
        "curve", "--kind", "hyperbola", "-d", "5", "--p-min", "1.5", "--p-max", "6", "-n", "4", "--json",
    ],
    "grid_csv": [
        "grid", "-d", "13", "--p-min", "1.5", "--p-max", "4", "--q-min", "1", "--q-max", "4", "-n", "4",
    ],
    "grid_json": [
        "grid", "-d", "11", "--p-min", "2", "--p-max", "3", "--q-min", "1", "--q-max", "2", "-n", "2", "--json",
    ],
    "shoot_csv_event": ["shoot", *PQD_333, "--v0", "1", "--r-max", "10"],
    "shoot_csv_completed": ["shoot", *PQD_3213, "--v0", "1", "--r-max", "3"],
    "shoot_json": ["shoot", *PQD_3313, "--v0", "1", "--r-max", "20", "--json"],
    "ground_state_human": [
        "ground-state", "-p", "3", "-q", "3", "-d", "4", "--bracket-lo", "0.8", "--bracket-hi", "1.3", *GS_FAST,
    ],
    "ground_state_json": [
        "ground-state", *PQD_553, "--bracket-lo", "0.6", "--bracket-hi", "1.7", *GS_FAST, "--json",
    ],
    "ground_state_csv": [
        "ground-state", *PQD_553, "--bracket-lo", "0.6", "--bracket-hi", "1.7", *GS_FAST, "--csv",
    ],
    "ground_state_bad_bracket_exit_2": [
        "ground-state", *PQD_553, "--bracket-lo", "1.2", "--bracket-hi", "1.7", *GS_FAST,
    ],
    "verify_singular": ["verify", "singular", *PQD_3313],
    "verify_singular_fail_json": ["verify", "singular", *PQD_3313, "--scale-a", "1.01", "--json"],
    "verify_comparison_json": ["verify", "comparison", *PQD_3213, "--v0", "1", "--json"],
    "verify_pohozaev_slow_decay": ["verify", "pohozaev", *PQD_3313, "--v0", "1", "--R", "50", "--a1", "4.5"],
    "verify_pohozaev_ground_state_json": [
        "verify", "pohozaev", *PQD_553, "--v0", "1", "--R", "5", "--a1", "0.5", "--json",
    ],
    "verify_pohozaev_asymmetric_json": [
        "verify", "pohozaev", *PQD_3213, "--v0", "1", "--R", "3", "--a1", "5", "--json",
    ],
    "verify_pohozaev_event_terminated": ["verify", "pohozaev", *PQD_333, "--v0", "1", "--R", "6.8", "--a1", "0.5"],
    "verify_pohozaev_outside_grid_exit_2": [
        "verify", "pohozaev", *PQD_333, "--v0", "1", "--R", "9", "--a1", "0.5",
    ],
    "verify_energy": ["verify", "energy", *PQD_3313, "--v0", "1", "--s", "2"],
    "verify_energy_fail_json": [
        "verify", "energy", *PQD_3313, "--v0", "1", "--s", "3", "--radii", "5,10,20,40", "--json",
    ],
    "verify_energy_saturated": ["verify", "energy", *PQD_3313, "--v0", "1", "--s", "14", "--radii", "5,10,20,40"],
    "verify_energy_saturated_json": [
        "verify", "energy", *PQD_3313, "--v0", "1", "--s", "14", "--radii", "5,10,20,40", "--json",
    ],
    "verify_rayleigh": ["verify", "rayleigh", *PQD_3313],
    "verify_spherical_json": ["verify", "spherical", *PQD_3313, "--json"],
}

# quadrature-derived outputs: numbers compared to tolerance, text exactly
_TOLERANT = {("verify", "pohozaev"), ("verify", "energy")}
_NUMBER = re.compile(r"(-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?)")
_RESIDUAL_KEY = re.compile(r'(?:residual=|"residual": )$')


def _invoke(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _numbers_agree(got: str, want: str, residual: bool) -> bool:
    a, b = float(got), float(want)
    if abs(a - b) <= GOLDEN_RTOL * max(abs(a), abs(b)):
        return True
    return residual and abs(a - b) <= GOLDEN_RESIDUAL_ATOL


def _assert_tolerant_match(got: str, want: str) -> None:
    got_parts, want_parts = _NUMBER.split(got), _NUMBER.split(want)
    assert len(got_parts) == len(want_parts), f"token structure differs:\n{got}\n---\n{want}"
    # re.split with one capture group alternates text, number, text, ...
    for k in range(0, len(want_parts), 2):
        assert got_parts[k] == want_parts[k], f"text differs: {got_parts[k]!r} != {want_parts[k]!r}"
    for k in range(1, len(want_parts), 2):
        residual = bool(_RESIDUAL_KEY.search(want_parts[k - 1]))
        assert _numbers_agree(got_parts[k], want_parts[k], residual), (
            f"number after {want_parts[k - 1][-24:]!r}: {got_parts[k]} != {want_parts[k]}"
        )


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_cli_output(name):
    want = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    assert want["argv"] == CASES[name]
    got = _invoke(CASES[name])
    assert got["exit"] == want["exit"]
    assert got["stderr"] == want["stderr"]
    if tuple(CASES[name][:2]) in _TOLERANT:
        _assert_tolerant_match(got["stdout"], want["stdout"])
    else:
        assert got["stdout"] == want["stdout"]


def test_one_parser_serves_every_run():
    """The parser is built once per process; usage errors, raised in the
    parser or in a subcommand's parser, leave nothing behind for the next run."""
    assert _build_parser() is _build_parser()
    usage_errors = [
        ["classify", *PQD_3313, "--frobnicate"],
        ["classify", *PQD_3313, "--json", "--csv"],
        ["verify", "energy", *PQD_3313],
        ["grid", "-d", "13", "-n", "x"],
        ["frobnicate"],
    ]
    valid = ["classify_json", "curve_jl_csv", "grid_csv", "shoot_json", "ground_state_json",
             "verify_singular", "verify_spherical_json"]
    assert {CASES[name][0] for name in valid} == {"classify", "curve", "grid", "shoot", "ground-state", "verify"}
    for k, name in enumerate(valid):
        bad = _invoke(usage_errors[k % len(usage_errors)])
        assert (bad["exit"], bad["stdout"]) == (2, "")
        assert bad["stderr"].startswith("lelab: error:") and bad["stderr"].count("\n") == 1
        want = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
        assert _invoke(CASES[name]) == want


def test_tolerant_match_rejects_drift_and_flag_change():
    base = "lhs=1.0000000000000000 rhs=2\nresidual=1e-12\npassed=true\n"
    _assert_tolerant_match("lhs=1.0000000000000002 rhs=2\nresidual=1.1e-12\npassed=true\n", base)
    with pytest.raises(AssertionError):
        _assert_tolerant_match("lhs=1.000000000001 rhs=2\nresidual=1e-12\npassed=true\n", base)
    with pytest.raises(AssertionError):
        _assert_tolerant_match("lhs=1 rhs=2\nresidual=1e-12\npassed=false\n", base)
    with pytest.raises(AssertionError):
        _assert_tolerant_match("lhs=1 rhs=2.1\nresidual=1e-12\npassed=true\n", base)


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for case, argv in CASES.items():
        record = _invoke(argv)
        (GOLDEN_DIR / f"{case}.json").write_text(json.dumps(record, indent=1) + "\n")
