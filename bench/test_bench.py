"""Tests of the benchmark itself: deterministic inputs and counts.

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_inputs_are_a_function_of_the_seed(workload):
    for seed, round_no in ((0, 0), (7, 3)):
        first = json.dumps(workloads.round_inputs(workload, seed, round_no))
        again = json.dumps(workloads.round_inputs(workload, seed, round_no))
        assert first == again
    assert json.dumps(workloads.round_inputs(workload, 1, 0)) != json.dumps(
        workloads.round_inputs(workload, 2, 0))


def _traced_counts(inputs):
    tr = tracing.Tracer()
    scale, out_bytes = {}, 0
    tr.install()
    try:
        for op_id, (workload, inp) in enumerate(inputs):
            out = tr.run_op(op_id, workloads.OPS[workload], inp)
            out_bytes += workloads.cli_bytes(workload, out)
            scale[op_id] = 1.0
    finally:
        tr.uninstall()
    metrics = tracing.layer_metrics(tr, scale, out_bytes)
    return {k: v for k, v in metrics.items() if run.unit_of(k) in ("count", "bytes")}


def test_short_traced_run_repeats_its_counts():
    inputs = [(w, workloads.WARMUP[w]) for w in run.WORKLOADS]
    first = _traced_counts(inputs)
    assert first["radial.integrate.calls_per_op"] > 0
    assert first["exponents.largest_root.calls_per_op"] > 0
    assert first["cli.bytes_per_op"] > 0
    assert _traced_counts(inputs) == first


def test_integrations_per_ground_state_is_three_plus_halvings():
    lo, hi = 0.6, 1.7
    halvings = 0
    while hi - lo > 1e-12 * hi:  # the bisection of radial._bisect_v0, v0* = 1
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if mid < 1.0 else (lo, mid)
        halvings += 1
    inp = {"argv": ["ground-state", "-p", "5", "-q", "5", "-d", "3", "--bracket-lo", "0.6",
                    "--bracket-hi", "1.7", "--r-max", "20", "--rel-tol", "1e-8", "--json"],
           "exact": 1.0, "bracket": [lo, hi]}
    counts = _traced_counts([("shoot", inp)])
    assert counts["radial.shoot.integrations_per_gs"] == 3 + halvings == 44


def test_tail_percentile_leaves_ten_samples_beyond_at_run_length():
    # rounds in a 30-second run at half speed
    for workload, n in (("shoot", 2), ("verify", 3), ("regime_map", 7)):
        times = [float(t) for t in range(n * len(workloads.round_inputs(workload, 0, 0)))]
        _, _, beyond = run.latency(times, run.TAIL_PCT[workload])
        assert beyond >= 10


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    per_layer = set(tracing.layer_metrics(tracing.Tracer(), {}, 0)) | {"trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == per_layer
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "op_p50_s", "op_tail_s", "ops_per_s", "peak_rss_mb"}
    for m in spec["per_layer"] + spec["end_to_end"]:
        assert m["unit"] == run.unit_of(m["name"])
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


def test_refuses_to_run_without_lelab_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "shoot", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
