import json
import random
import warnings

import numpy as np
import pytest

from lelab import SystemParams, classify, grid_classify, integrate
from lelab.cli import read_grid_csv, read_radial_csv, run


def test_classify_json(capsys):
    rc = run(["classify", "-p", "3", "-q", "3", "-d", "13", "--json"])
    out = capsys.readouterr().out
    assert rc == 0
    doc = json.loads(out)
    assert doc["thm_stable_radial_exists"] is True
    assert doc["constants"]["H"] == 30.25
    assert doc["jl_margin"] == 15.0625


def test_classify_invalid_params_exit_2(capsys):
    rc = run(["classify", "-p", "1", "-q", "3", "-d", "13"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("lelab: error:")
    assert err.count("\n") == 1


def test_unknown_flag_exit_2(capsys):
    rc = run(["classify", "-p", "3", "-q", "3", "-d", "13", "--frobnicate"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("lelab: error:")


def test_verify_pohozaev_ground_state(capsys):
    rc = run(
        ["verify", "pohozaev", "-p", "5", "-q", "5", "-d", "3",
         "--v0", "1", "--R", "5", "--a1", "0.5", "--json"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["params"] == {"p": 5.0, "q": 5.0, "d": 3.0}
    assert set(doc) == {
        "check", "params", "lhs", "rhs", "residual", "tolerance", "passed", "details",
    }


def test_verify_failure_exit_1(capsys):
    rc = run(
        ["verify", "singular", "-p", "3", "-q", "3", "-d", "13", "--scale-a", "1.01"]
    )
    out = capsys.readouterr().out
    assert rc == 1
    assert "passed=false" in out


def test_grid_csv_round_trip(tmp_path):
    path = tmp_path / "grid.csv"
    rc = run(
        ["grid", "-d", "13", "--p-min", "1.5", "--p-max", "4", "--q-min", "1",
         "--q-max", "4", "-n", "6", "-o", str(path)]
    )
    assert rc == 0
    rows = read_grid_csv(str(path))
    reports = grid_classify(13.0, (1.5, 4.0), (1.0, 4.0), 6)
    assert len(rows) == len(reports)
    for row, rep in zip(rows, reports):
        c = rep.constants
        assert row["p"] == rep.params.p and row["q"] == rep.params.q
        assert row["d"] == rep.params.d
        assert row["alpha"] == c.alpha and row["beta"] == c.beta
        assert row["gamma"] == c.gamma and row["H"] == c.H
        assert row["lambda"] == c.lam and row["mu"] == c.mu
        assert row["jl_margin"] == rep.jl_margin
        assert row["x0_plain"] == rep.x0_plain and row["x0_jl"] == rep.x0_jl
        assert row["criticality"] == rep.criticality.value
        assert row["on_or_above_jl"] == rep.on_or_above_jl
        assert row["thm_d_le_10"] == rep.thm_d_le_10_applies
        assert row["thm_quartic"] == rep.thm_quartic_applies
        assert row["stable_radial_exists"] == rep.thm_stable_radial_exists
        assert row["thm_below_jl"] == rep.thm_below_jl_applies


def test_grid_csv_header(tmp_path):
    path = tmp_path / "grid.csv"
    run(["grid", "-d", "13", "--p-min", "2", "--p-max", "3", "--q-min", "1.5",
         "--q-max", "3", "-n", "3", "-o", str(path)])
    lines = path.read_text().splitlines()
    assert lines[0] == "# lelab-v1"
    assert lines[1].startswith("p,q,d,alpha,beta,gamma,H,lambda,mu,jl_margin")


def test_radial_csv_round_trip(tmp_path):
    path = tmp_path / "traj.csv"
    rc = run(
        ["shoot", "-p", "3", "-q", "3", "-d", "13", "--v0", "1",
         "--r-max", "5", "--rel-tol", "1e-9", "-o", str(path)]
    )
    assert rc == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "# lelab-radial-v1"
    assert lines[1] == "r,u,v,du,dv"
    cols = read_radial_csv(str(path))
    sol = integrate(SystemParams(3, 3, 13), 1.0, 5.0, rel_tol=1e-9)
    assert np.array_equal(np.array(cols["r"]), sol.r)
    assert np.array_equal(np.array(cols["u"]), sol.u)
    assert np.array_equal(np.array(cols["du"]), sol.du)


def test_out_path_collision(tmp_path, capsys):
    path = tmp_path / "out.csv"
    argv = ["classify", "-p", "3", "-q", "3", "-d", "13", "--csv", "-o", str(path)]
    assert run(argv) == 0
    assert run(argv) == 2
    capsys.readouterr()
    assert run(argv + ["--force"]) == 0


def test_non_integer_dimension_flags_na(tmp_path):
    path = tmp_path / "grid.csv"
    run(["grid", "-d", "12.5", "--p-min", "2", "--p-max", "3", "--q-min", "1.5",
         "--q-max", "3", "-n", "3", "-o", str(path)])
    rows = read_grid_csv(str(path))
    assert rows and all(row["thm_below_jl"] is None for row in rows)


def test_ground_state_command(capsys):
    rc = run(
        ["ground-state", "-p", "5", "-q", "5", "-d", "3", "--bracket-lo", "0.6",
         "--bracket-hi", "1.7", "--r-max", "60", "--rel-tol", "1e-9", "--json"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    doc = json.loads(out)
    assert abs(doc["v0_star"] - 1.0) < 1e-7
    assert doc["decay_u"]["classification"] == "fast"


def test_curve_csv(tmp_path):
    path = tmp_path / "curve.csv"
    rc = run(["curve", "--kind", "hyperbola", "-d", "9", "--p-min", "1.5",
              "--p-max", "8", "-n", "10", "-o", str(path)])
    assert rc == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "# lelab-curve-v1"
    assert lines[1] == "p,q,status"
    assert len(lines) == 12


def test_verify_subcommands_all_pass(capsys):
    checks = [
        ["verify", "comparison", "-p", "3", "-q", "3", "-d", "13", "--v0", "1",
         "--r-max", "5"],
        ["verify", "energy", "-p", "3", "-q", "3", "-d", "13", "--v0", "1",
         "--s", "3", "--radii", "10,30,100,300", "--rel-tol", "1e-10"],
        ["verify", "rayleigh", "-p", "3", "-q", "3", "-d", "13"],
        ["verify", "spherical", "-p", "3", "-q", "3", "-d", "11"],
        ["verify", "singular", "-p", "3", "-q", "3", "-d", "13"],
    ]
    for argv in checks:
        rc = run(argv + ["--json"])
        out = capsys.readouterr().out
        assert rc == 0, out
        doc = json.loads(out)
        assert doc["passed"] is True


@pytest.mark.parametrize("argv", [
    ["shoot", "-p", "5", "-q", "5", "-d", "3", "--v0", "1e200"],
    ["shoot", "-p", "5", "-q", "5", "-d", "3", "--v0", "1", "--r-max", "inf"],
])
def test_numerical_failures_exit_2_on_one_line(argv, capsys):
    rc = run(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("lelab: error:")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("tail", [
    ["energy", "--s", "inf", "--radii", "10,20,40,80"],
    ["energy", "--s", "1e308", "--radii", "10,20,40,80"],
    ["pohozaev", "--R", "5", "--a1", "nan"],
    ["pohozaev", "--R", "5", "--a1", "inf"],
    ["pohozaev", "--R", "5", "--a1=-inf"],
])
def test_non_finite_verify_inputs_exit_2_without_a_warning(tail, capsys):
    argv = ["verify", tail[0], "-p", "3", "-q", "3", "-d", "13", "--v0", "1", *tail[1:]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would raise
        rc = run(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("lelab: error:")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("tail", [
    ["--scale-a", "nan"],
    ["--scale-a", "inf"],
    ["--scale-b=-inf"],
    ["--scale-b", "-1"],
    ["--radii", "1e300"],
    ["--radii", "1e-300"],
    ["--radii", "1,inf"],
])
def test_singular_checks_it_cannot_make_exit_2_without_a_warning(tail, capsys):
    # none of these compares anything: a non-finite or negative amplitude, an
    # infinite radius, or a radius where both sides overflow or vanish
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run(["verify", "singular", "-p", "3", "-q", "3", "-d", "13", *tail])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("lelab: error:")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["pohozaev", "--v0", "1", "--R", "2", "--a1", "0", "--r-max", "5"],
    ["energy", "--v0", "1", "--s", "1", "--radii", "1,2,3,4"],
])
def test_fourth_derivatives_past_the_float_range_exit_2_without_a_warning(argv, capsys):
    # p(p - 1) overflows at p = 1e300, and inf * 0 would fill the dense-output
    # tables with NaN: the check refuses the solution instead of printing nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run(["verify", argv[0], "-p", "1e300", "-q", "3", "-d", "13", *argv[1:]])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("lelab: error: p(p-1) overflows")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("flags, message", [
    ({"-d": "2"}, "need d >= 3, got d=2.0"),
    ({"-d": "nan"}, "p, q, d must be finite"),
    ({"-d": "inf"}, "p, q, d must be finite"),
    ({"--p-max": "inf"}, "p, q, d must be finite"),
    ({"--p-min": "-inf"}, "p, q, d must be finite"),  # no grid point passes the pair test
])
def test_invalid_grid_input_exits_2_as_classify_does(flags, message, capsys):
    argv = {"-d": "13", "--p-min": "1.1", "--p-max": "4", "--q-min": "1.1", "--q-max": "4", "-n": "5", **flags}
    rc = run(["grid", *(f"{flag}={value}" for flag, value in argv.items())])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == f"lelab: error: {message}\n"


def test_overflowing_trial_stages_end_the_shot_cleanly(capsys):
    # u(r_start) < 0 at this v0: the series start is refused before any
    # trial stage can overflow, with one line and no traceback
    rc = run(["shoot", "-p", "9", "-q", "2", "-d", "5", "--v0", "5e7", "--r-max", "1", "--json"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("lelab: error: the series start is not positive")
    assert captured.err.count("\n") == 1


def test_leftover_arithmetic_error_exits_2(monkeypatch, capsys):
    from lelab import cli

    def overflow(*args, **kwargs):
        raise OverflowError("(34, 'Numerical result out of range')")

    monkeypatch.setattr(cli, "integrate", overflow)
    rc = run(["shoot", "-p", "3", "-q", "3", "-d", "13", "--v0", "1"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == "lelab: error: OverflowError: (34, 'Numerical result out of range')\n"


@pytest.mark.parametrize("argv", [
    ["verify", "singular", "-p", "3", "-q", "3", "-d", "13", "--radii", "a,1"],
    ["verify", "energy", "-p", "3", "-q", "3", "-d", "13", "--v0", "1", "--s", "3", "--radii", "1,,"],
])
def test_malformed_radii_exit_2_on_one_line(argv, capsys):
    rc = run(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("lelab: error: argument --radii: need comma-separated numbers")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("where", ["directory", "missing directory"])
def test_unwritable_out_path_exits_2_on_one_line(where, tmp_path, capsys):
    path = tmp_path if where == "directory" else tmp_path / "missing" / "out.csv"
    rc = run(["classify", "-p", "3", "-q", "3", "-d", "13", "--csv", "-o", str(path), "--force"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith(f"lelab: error: cannot write {path}: ")
    assert captured.err.count("\n") == 1


# every subcommand with valid numeric flags, on short ranges
_FUZZ_BASES = [
    (["classify"], {"-p": "3", "-q": "3", "-d": "13"}),
    (["curve", "--kind", "jl"], {"-d": "13", "--p-min": "1.5", "--p-max": "4", "-n": "4"}),
    (["grid"], {"-d": "13", "--p-min": "1.5", "--p-max": "4", "--q-min": "1", "--q-max": "4", "-n": "3"}),
    (["shoot"], {"-p": "3", "-q": "3", "-d": "13", "--v0": "1", "--r-max": "5", "--rel-tol": "1e-8"}),
    (["ground-state"], {"-p": "5", "-q": "5", "-d": "3", "--bracket-lo": "0.5", "--bracket-hi": "2",
                        "--r-max": "5", "--rel-tol": "1e-6"}),
    (["verify", "singular"], {"-p": "3", "-q": "3", "-d": "13", "--radii": "0.5,1,2",
                              "--scale-a": "1", "--scale-b": "1"}),
    (["verify", "comparison"], {"-p": "3", "-q": "3", "-d": "13", "--v0": "1", "--r-max": "5",
                                "--rel-tol": "1e-8"}),
    (["verify", "pohozaev"], {"-p": "3", "-q": "3", "-d": "13", "--v0": "1", "--R": "2", "--a1": "0",
                              "--r-max": "5", "--rel-tol": "1e-8"}),
    (["verify", "energy"], {"-p": "3", "-q": "3", "-d": "13", "--v0": "1", "--s": "3",
                            "--radii": "1,2,3,4", "--rel-tol": "1e-8"}),
    (["verify", "rayleigh"], {"-p": "3", "-q": "3", "-d": "13", "--cutoffs": "5"}),
    (["verify", "spherical"], {"-p": "3", "-q": "3", "-d": "13", "--l-max": "4"}),
]
_FUZZ_VALUES = ["nan", "inf", "-inf", "0", "-1", "1e300", "x1"]


def test_argv_fuzz_exits_0_1_or_2_without_a_traceback(capsys):
    # one or two numeric flags take a drawn value, the others keep theirs;
    # "=" keeps a drawn "-1" a value
    rng = random.Random(24)
    codes = set()
    for _ in range(2000):
        head, flags = rng.choice(_FUZZ_BASES)
        drawn = dict(flags)
        for flag in rng.sample(sorted(flags), rng.randint(1, 2)):
            drawn[flag] = rng.choice(_FUZZ_VALUES)
        argv = head + [f"{flag}={value}" for flag, value in drawn.items()]
        rc = run(argv)
        err = capsys.readouterr().err
        assert rc in (0, 1, 2), argv
        assert "Traceback" not in err, argv
        if rc == 2:
            assert err.startswith("lelab: error:") and err.count("\n") == 1, (argv, err)
        codes.add(rc)
    assert codes >= {0, 2}
