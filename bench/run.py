"""lelab benchmark: closed-loop workloads against lelab's public API.

Run from the repository root:

    python3 bench/run.py --workload shoot --seed 1 --seconds 30 --trace 0

One client in one single-threaded process: each op starts when the
previous one returns.  Inputs are drawn from ``--seed`` (see
workloads.py); lelab is imported from ``src/`` of the same checkout.
Every op's output passes a correctness gate, outside the timed region.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it reports per-layer metrics from spans recorded at lelab's
module boundaries (tracer.py) and writes the spans to ``.bench_out/``.
The last line of stdout is the result object; the lines before it carry
machine info and details (raw times, sample counts, failures).

Times are calibrated.  The CPU speed seen by this process drifts by up
to 2x over seconds when other tenants load the machine, which no amount
of repetition removes from raw wall times.  While an op runs, a timer
samples a fixed kernel every 25 ms (``SpeedProbe``); the op's wall time,
less the sampling, is scaled by KERNEL_NOMINAL_S over the median sample:
the result is the op's time at the speed where the kernel takes
KERNEL_NOMINAL_S.  Raw medians are printed in the details.
"""

import os

# one BLAS/OpenMP thread, fixed before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("shoot", "verify", "regime_map")
SETUP_RUNS = 5
# A shoot round (six ground states) takes 12-25 s; two rounds give its
# median two samples of every triple.
MIN_ROUNDS = 2
# speed_kernel's time on an idle core of the machine the benchmark was
# written on (a 2-vCPU Intel Xeon VM), and how often it is sampled
KERNEL_NOMINAL_S = 420e-6
PROBE_INTERVAL_S = 0.025
# Tail percentile of each workload: the highest one that leaves at least 10
# samples above it in a 30-second run on the machine the benchmark was
# written on while it runs at half speed (shoot: 2 rounds of 6 ops; verify:
# 3 rounds of 12; regime_map: 7 rounds of 7).  It is fixed rather than
# derived from each run's sample count so that runs of different speed
# compare; the details line reports how many samples lay above it.
TAIL_PCT = {"shoot": 10, "verify": 70, "regime_map": 75}


def speed_kernel() -> None:
    """A fixed piece of work shaped like lelab's hot loops.

    Explicit Runge-Kutta-style updates of a 4-tuple of floats, the style of
    the integrator's inner loop.  It is plain Python, so sampling it never
    imports numpy, and it never calls lelab.
    """
    y = (1.0, 0.5, -0.25, 0.125)
    acc = 0.0
    for i in range(160):
        h = 1e-3 * (1 + (i & 7))
        k = tuple(-0.5 * w - abs(w) ** 1.5 * (1.0 if w > 0 else -1.0) for w in y)
        y = tuple(w + h * kw for w, kw in zip(y, k))
        acc += max(abs(w) for w in y)
    if not acc > 0.0:
        raise RuntimeError("speed kernel diverged")


class SpeedProbe:
    """Samples the machine's speed while a timed region runs.

    A SIGALRM interval timer runs ``speed_kernel`` every PROBE_INTERVAL_S
    and keeps its duration; ``start`` and ``stop`` take one sample each as
    well.  ``spent`` is the time the samples took inside the region, which
    the caller subtracts from the region's time.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, *_):
        t0 = time.perf_counter()
        speed_kernel()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt

    def start(self) -> None:
        self._sample()
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> float:
        """Ends the region; returns the calibration factor for it."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        spent = self.spent
        self._sample()
        self.spent = spent
        factor = KERNEL_NOMINAL_S / statistics.median(self.samples)
        self.samples = []
        return factor


def require_sources() -> None:
    if not (SRC / "lelab" / "__init__.py").is_file():
        raise SystemExit(f"bench: no lelab sources under {SRC}")


def set_up(workload: str, seed: int):
    """Import lelab from this checkout, draw round 0 and run the warm-up op."""
    require_sources()
    sys.path.insert(0, str(SRC))
    import lelab
    import workloads

    if Path(lelab.__file__).resolve().parent != SRC / "lelab":
        raise SystemExit(f"bench: lelab imported from {lelab.__file__}, not from {SRC}")
    inputs = workloads.round_inputs(workload, seed, 0)
    workloads.OPS[workload](workloads.WARMUP[workload])
    return workloads, inputs


def setup_probe(args) -> None:
    """Child mode: time one set-up in a fresh interpreter."""
    probe = SpeedProbe()
    probe.start()
    t0 = time.perf_counter()
    set_up(args.workload, args.seed)
    elapsed = time.perf_counter() - t0
    factor = probe.stop()
    raw = elapsed - probe.spent
    print(json.dumps({"setup_raw_s": raw, "setup_s": raw * factor}))


def setup_samples(args) -> list[tuple[float, float]]:
    """(raw, calibrated) set-up times of SETUP_RUNS fresh interpreters."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--setup-probe"]
    samples = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150, cwd=ROOT)
        if proc.returncode != 0:
            raise SystemExit(f"bench: set-up failed: {proc.stderr.strip()[-500:]}")
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append((doc["setup_raw_s"], doc["setup_s"]))
    return samples


class Loop:
    """Runs ops one after another and keeps one record per op."""

    def __init__(self, wl, workload: str):
        self.wl = wl
        self.workload = workload
        self.records: list[dict] = []
        self.probe = SpeedProbe()

    def run(self, inp: dict, tracer=None, op_id: int = -1) -> dict:
        op = self.wl.OPS[self.workload]
        error = None
        self.probe.start()
        t0 = time.perf_counter()
        try:
            out = op(inp) if tracer is None else tracer.run_op(op_id, op, inp)
        except Exception as exc:  # a failed op is counted, not fatal
            out, error = None, f"{type(exc).__name__}: {exc}"
        raw = time.perf_counter() - t0
        factor = self.probe.stop()
        raw -= self.probe.spent
        if error is None:
            try:
                error = self.wl.gate(self.workload, inp, out)
            except Exception as exc:
                error = f"gate {type(exc).__name__}: {exc}"
        rec = {
            "raw": raw,
            "cal": raw * factor,
            "error": error,
            "bytes": self.wl.cli_bytes(self.workload, out) if error is None else 0,
            "traced": tracer is not None,
        }
        self.records.append(rec)
        return rec


def another_round(start: float, rounds: int, seconds: float) -> bool:
    """Start another round if it should end within half a round of the limit."""
    elapsed = time.perf_counter() - start
    return elapsed + 0.5 * elapsed / rounds < seconds


def measure(wl, args) -> Loop:
    """Whole rounds of ops for about --seconds, and at least MIN_ROUNDS.

    Every run then holds each input class equally often, so the median of
    a run does not depend on where the clock happened to stop.
    """
    loop = Loop(wl, args.workload)
    start = time.perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or another_round(start, rounds, args.seconds):
        for inp in wl.round_inputs(args.workload, args.seed, rounds):
            loop.run(inp)
        rounds += 1
    return loop


def measure_traced(wl, inputs: list[dict], args):
    """Alternate untraced and traced passes over round 0.

    Every pass runs the same inputs, so count ratios are the same whether
    one pair of passes fits in --seconds or several do.
    """
    import tracer as tracing

    loop = Loop(wl, args.workload)
    tr = tracing.Tracer()
    scale: dict[int, float] = {}
    traced_bytes = 0
    start = time.perf_counter()
    pairs = 0
    while pairs == 0 or another_round(start, pairs, args.seconds):
        for inp in inputs:
            loop.run(inp)
        tr.install()
        try:
            for inp in inputs:
                op_id = len(scale)
                rec = loop.run(inp, tr, op_id)
                scale[op_id] = rec["cal"] / rec["raw"]
                traced_bytes += rec["bytes"]
        finally:
            tr.uninstall()
        pairs += 1
    metrics = tracing.layer_metrics(tr, scale, traced_bytes)
    p50 = {flag: [r["cal"] for r in loop.records if r["traced"] is flag and r["error"] is None]
           for flag in (False, True)}
    metrics["trace.overhead_s"] = (statistics.median(p50[True]) - statistics.median(p50[False])
                                   if p50[True] and p50[False] else 0.0)
    OUT.mkdir(exist_ok=True)
    tr.write(OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz")
    return loop, metrics


def latency(times: list[float], pct: int) -> tuple[float, float, int]:
    """Median, the pct-th percentile and the number of samples above it."""
    if len(times) == 1:
        return times[0], times[0], 0
    tail = statistics.quantiles(times, n=100, method="inclusive")[pct - 1]
    return statistics.median(times), tail, sum(t > tail for t in times)


def unit_of(name: str) -> str:
    if name == "ops_per_s":
        return "1/s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_s"):
        return "s"
    if "us_per_" in name:
        return "us"
    if name.endswith("share"):
        return "fraction"
    if "bytes" in name:
        return "bytes"
    return "count"


def machine_info() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads_env": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="lelab benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if args.setup_probe:
        setup_probe(args)
        return 0

    require_sources()
    setups = setup_samples(args)
    wl, inputs = set_up(args.workload, args.seed)
    if args.trace:
        loop, metrics = measure_traced(wl, inputs, args)
    else:
        loop = measure(wl, args)
    records = loop.records
    failures = [r["error"] for r in records if r["error"] is not None]
    ok = [r for r in records if r["error"] is None]
    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "ops": len(records), "fail_frac": len(failures) / len(records),
        "failures": failures[:5],
        "setup_raw_s": [s[0] for s in setups], "setup_cal_s": [s[1] for s in setups],
    }
    if ok:
        pct = TAIL_PCT[args.workload]
        cal_p50, cal_tail, beyond = latency([r["cal"] for r in ok], pct)
        raw_p50, raw_tail, _ = latency([r["raw"] for r in ok], pct)
        details.update(op_samples=len(ok), op_tail_pct=pct, op_tail_samples_beyond=beyond,
                       op_p50_raw_s=raw_p50, op_tail_raw_s=raw_tail, op_p50_s=cal_p50)
    if not args.trace:
        if not ok:
            print(json.dumps({"details": details}), flush=True)
            sys.stderr.write("bench: every op failed\n")
            return 1
        metrics = {
            "setup_s": statistics.median(s[1] for s in setups),
            "op_p50_s": cal_p50,
            "op_tail_s": cal_tail,
            "ops_per_s": len(ok) / sum(r["cal"] for r in records),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    print(json.dumps({"machine": machine_info()}))
    print(json.dumps({"details": details}))
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
