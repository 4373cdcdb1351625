"""Seeded inputs, ops and correctness gates of the three lelab workloads.

Inputs come in rounds.  A round holds each input class of a workload once,
in a seeded order and with seeded continuous parameters, so that runs with
different seeds do the same mix of work and their medians compare.  The
generators use only the standard library and closed forms written out
here; lelab sees nothing but the generated inputs.  Ops reach lelab only
through module attributes (``cli.run``, ``radial.integrate``, ...), which
is where the tracer attaches its spans.

``gate(workload, inp, out)`` returns None when an op's output is correct
and a one-line reason otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random

import numpy as np

from lelab import classifier, cli, radial, verify
from lelab.exponents import SystemParams
from lelab.verify import PohozaevWeights

def _rng(workload: str, seed: int, round_no: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{round_no}")


def _r(x: float) -> str:
    return repr(float(x))


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process CLI invocation; returns the exit code and the output
    (stdout, then stderr) captured in memory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.run(argv)
    return rc, out.getvalue() + err.getvalue()


# --- shoot -------------------------------------------------------------------

# Critical-hyperbola triples.  rel_tol is tied to the triple rather than drawn
# per op: a 1e-11 op costs up to 1.7x a 1e-10 op, and a seeded 50/50 mix makes
# the median of a run jump between the two costs.  (5, 5, 3) at 1e-11 is the
# ROADMAP's baseline ground state.
# (p, q, d, rel_tol, exact v0* or None)
SHOOT_TRIPLES = (
    (5.0, 5.0, 3.0, 1e-11, 1.0),
    (3.0, 3.0, 4.0, 1e-10, 1.0),
    (7.0 / 3.0, 7.0 / 3.0, 5.0, 1e-10, 1.0),
    (2.0, 2.0, 6.0, 1e-10, 1.0),
    (11.0, 3.0, 3.0, 1e-10, None),
    (7.0, 3.8, 3.0, 1e-10, None),
)


def _shoot_round(rng: random.Random) -> list[dict]:
    items = []
    for p, q, d, tol, exact in SHOOT_TRIPLES:
        if exact is None:  # separatrix near 1.05-1.08
            lo, hi = rng.uniform(0.7, 1.0), rng.uniform(1.3, 2.0)
        else:
            lo, hi = rng.uniform(0.6, 0.95), rng.uniform(1.2, 1.8)
        argv = ["ground-state", "-p", _r(p), "-q", _r(q), "-d", _r(d),
                "--bracket-lo", _r(lo), "--bracket-hi", _r(hi),
                "--r-max", _r(rng.uniform(100.0, 200.0)), "--rel-tol", _r(tol), "--json"]
        items.append({"argv": argv, "exact": exact, "bracket": [lo, hi]})
    rng.shuffle(items)
    return items


def _shoot_op(inp: dict):
    return run_cli(inp["argv"])


def _shoot_gate(inp: dict, out) -> str | None:
    rc, text = out
    if rc != 0:
        return f"exit code {rc}: {text.strip()[:200]}"
    doc = json.loads(text)
    v0 = doc["v0_star"]
    if inp["exact"] is not None:
        if not abs(v0 - inp["exact"]) <= 1e-10:
            return f"v0*={v0!r}, exact {inp['exact']}"
    else:
        lo, hi = inp["bracket"]
        if doc["status"] != "completed" or not lo < v0 < hi:
            return f"status {doc['status']}, v0*={v0!r} for bracket ({lo}, {hi})"
    return None


# --- verify ------------------------------------------------------------------

def _p_sobolev(d: float) -> float:
    return (d + 2.0) / (d - 2.0)


def _p_jl(d: float) -> float:
    """Joseph-Lundgren exponent of the symmetric system p = q, d > 10."""
    return (d * d - 8.0 * d + 4.0 + 8.0 * math.sqrt(d - 1.0)) / ((d - 2.0) * (d - 10.0))


# (d, above the Joseph-Lundgren curve): every round integrates the same
# dimensions, so rounds of different seeds cost about the same
VERIFY_CLASSES = tuple((float(d), True) for d in range(11, 17)) + tuple(
    (float(d), False) for d in range(5, 17, 2))


def _verify_round(rng: random.Random) -> list[dict]:
    # r_max is stratified over [300, 1000]: one slot of width 700/12 per op
    slots = list(range(len(VERIFY_CLASSES)))
    rng.shuffle(slots)
    items = []
    for (d, above), slot in zip(VERIFY_CLASSES, slots):
        if above:
            p = _p_jl(d) * rng.uniform(1.05, 1.6)
        else:
            hi = 2.5 * _p_sobolev(d)
            if d > 10.0:
                hi = min(hi, 0.95 * _p_jl(d))
            p = rng.uniform(1.1 * _p_sobolev(d), hi)
        r_max = 300.0 + 700.0 * (slot + rng.random()) / len(slots)
        items.append({"p": p, "d": d, "r_max": r_max, "above_jl": above})
    rng.shuffle(items)
    return items


def _pohozaev_cases(d: float, r_max: float):
    """(R, a1, halved): two splits at a small and at a large radius, one halved."""
    mid = 0.5 * (d - 2.0)
    big = 0.9 * r_max
    return ((2.0, 0.0, False), (2.0, mid, False),
            (big, 0.0, False), (big, d - 2.0, False), (big, mid, True))


def _verify_op(inp: dict):
    p, d, r_max = inp["p"], inp["d"], inp["r_max"]
    params = SystemParams(p, p, d)
    sol = radial.integrate(params, 1.0, r_max)
    reports = [
        verify.check_pohozaev(sol, R, PohozaevWeights.from_a1(params, a1), halved=halved)
        for R, a1, halved in _pohozaev_cases(d, r_max)
    ]
    reports.append(verify.check_energy_growth(sol, 1.0, np.geomspace(r_max / 10.0, r_max / 1.05, 5)))
    reports.append(verify.check_comparison(sol))
    fits = radial.fit_decay(sol, r_max / 20.0, r_max / 2.0)
    scaled = radial.blow_down(sol, r_max / 10.0, 1.0, 5.0)
    nodes = np.linspace(1, len(sol.r) - 2, 10).astype(int)
    radii = np.concatenate([np.geomspace(1e-3, r_max, 1990), sol.r[nodes]])
    dense = sol.evaluate(radii)
    return sol, reports, fits, scaled, nodes, dense


def _verify_gate(inp: dict, out) -> str | None:
    sol, reports, fits, scaled, nodes, dense = out
    for rep in reports:
        if not rep.passed:
            return f"{rep.check} residual {rep.residual!r} > {rep.tolerance!r}"
    for fit in fits:
        if not (math.isfinite(fit.exponent) and fit.exponent > 0.0):
            return f"decay fit exponent {fit.exponent!r}"
    if not (scaled.r[0] <= 1.0 and scaled.r[-1] >= 5.0 and np.all(np.isfinite(scaled.u))):
        return "blow-down does not cover [1, 5]"
    if not all(np.all(np.isfinite(a)) for a in dense):
        return "dense output not finite"
    # the Hermite reconstruction interpolates the stored rows
    for got, want in ((dense[0][-10:], sol.u[nodes]), (dense[1][-10:], sol.v[nodes])):
        if not np.all(np.abs(got - want) <= 1e-10 * np.abs(want)):
            return "dense output misses a stored row"
    return None


# --- regime_map --------------------------------------------------------------

def _linspace(lo: float, hi: float, n: int) -> list[float]:
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def _grid_points(p_lo, p_hi, q_lo, q_hi, n):
    """Valid (p, q) grid points, in the order ``lelab grid`` writes them."""
    return [(p, q) for p in _linspace(p_lo, p_hi, n) for q in _linspace(q_lo, q_hi, n)
            if p >= q >= 1.0 and p * q > 1.0]


def _singular_margin(p: float, q: float, d: float):
    """(lambda, mu, H - sqrt(pq lambda mu)) from the closed forms."""
    alpha = 2.0 * (p + 1.0) / (p * q - 1.0)
    beta = 2.0 * (q + 1.0) / (p * q - 1.0)
    lam, mu = alpha * (d - 2.0 - alpha), beta * (d - 2.0 - beta)
    H = ((d - 2.0) ** 2 - (alpha - beta) ** 2) / 4.0
    if lam <= 0.0 or mu <= 0.0:
        return lam, mu, 0.0
    return lam, mu, H - math.sqrt(p * q * lam * mu)


def _stable_pair(rng: random.Random, d: float) -> tuple[float, float]:
    # the Hardy-quotient check resolves the sign of the margin only away from
    # the Joseph-Lundgren curve, so the pair keeps |margin| >= 0.3 (as the
    # acceptance suite does)
    while True:
        q = rng.uniform(1.2, 6.0)
        p = q + rng.uniform(0.0, 5.0)
        lam, mu, margin = _singular_margin(p, q, d)
        if lam > 0.0 and mu > 0.0 and abs(margin) >= 0.3:
            return p, q


def _regime_item(rng: random.Random, d: float, n: int) -> dict:
    p_lo, p_hi = rng.uniform(1.05, 1.3), rng.uniform(5.5, 7.0)
    q_lo, q_hi = rng.uniform(1.05, 1.3), rng.uniform(5.0, 7.0)
    points = _grid_points(p_lo, p_hi, q_lo, q_hi, n)
    probes = [points[k] for k in sorted(rng.sample(range(len(points)), 2))]
    cq = rng.uniform(1.05, 6.0)
    cp = cq + rng.uniform(0.0, 5.0)
    sp, sq = _stable_pair(rng, d)
    n_curve = rng.randint(20, 30)
    jl_lo, jl_hi = rng.uniform(1.5, 2.5), rng.uniform(5.0, 8.0)
    argvs = [
        ["grid", "-d", _r(d), "--p-min", _r(p_lo), "--p-max", _r(p_hi),
         "--q-min", _r(q_lo), "--q-max", _r(q_hi), "-n", str(n)],
        ["curve", "--kind", "jl", "-d", _r(d), "--p-min", _r(jl_lo), "--p-max", _r(jl_hi),
         "-n", str(n_curve)],
        ["curve", "--kind", "hyperbola", "-d", _r(d), "--p-min", "1.05", "--p-max", "3.0",
         "-n", str(n_curve)],
        ["classify", "-p", _r(cp), "-q", _r(cq), "-d", _r(d), "--json"],
    ]
    for check in ("rayleigh", "spherical", "singular"):
        # 100 plateau widths keep the Hardy quotient within 1% of H down to d = 5
        argvs.append(["verify", check, "-p", _r(sp), "-q", _r(sq), "-d", _r(d)]
                     + (["--cutoffs", "100"] if check == "rayleigh" else []))
    return {"argvs": argvs, "d": d, "n_points": len(points), "n_curve": n_curve,
            "probes": probes}


def _regime_round(rng: random.Random) -> list[dict]:
    # seven dimensions, two of them non-integer; the Joseph-Lundgren curve is
    # empty for d <= 10.  The grid resolution, which sets most of an op's
    # cost, takes each value in 44..50 once, in seeded order; an odd number
    # of values puts the median op in the middle one rather than between two.
    dims = [6.0, 7.0 + rng.uniform(0.2, 0.8), 9.0, 11.0, 12.0 + rng.uniform(0.2, 0.8), 14.0, 16.0]
    resolutions = list(range(44, 44 + len(dims)))
    rng.shuffle(resolutions)
    items = [_regime_item(rng, d, n) for d, n in zip(dims, resolutions)]
    rng.shuffle(items)
    return items


def _regime_op(inp: dict):
    outputs = [run_cli(argv) for argv in inp["argvs"]]
    dstar = [classifier.jl_threshold_dimension(p, q) for p, q in inp["probes"]]
    return outputs, dstar


def _regime_gate(inp: dict, out) -> str | None:
    outputs, dstar = out
    for argv, (rc, text) in zip(inp["argvs"], outputs):
        if rc != 0:
            return f"{' '.join(argv[:2])} exit code {rc}: {text.strip()[:200]}"
    lines = outputs[0][1].splitlines()
    cols = lines[1].split(",")
    rows = [dict(zip(cols, line.split(","))) for line in lines[2:]]
    if len(rows) != inp["n_points"]:
        return f"grid wrote {len(rows)} rows for {inp['n_points']} valid points"
    by_pq = {}
    for row in rows:
        if (row["on_or_above_jl"] == "true") != (float(row["jl_margin"]) >= 0.0):
            return f"on_or_above_jl disagrees with jl_margin at p={row['p']} q={row['q']}"
        by_pq[(float(row["p"]), float(row["q"]))] = row
    for (p, q), ds in zip(inp["probes"], dstar):
        via_root = 2.0 + 2.0 * float(by_pq[(p, q)]["x0_jl"])
        if not abs(via_root - ds) <= 1e-9 * ds:
            return f"2 + 2*x0_jl = {via_root!r} but d* = {ds!r} at p={p!r} q={q!r}"
    curves = [[line.split(",") for line in text.splitlines()[2:]] for _, text in outputs[1:3]]
    if any(len(points) != inp["n_curve"] for points in curves):
        return f"a curve has not n={inp['n_curve']} points"
    d = inp["d"]
    for p, q, status in curves[1]:
        gap = 1.0 / (float(p) + 1.0) + 1.0 / (float(q) + 1.0) - (1.0 - 2.0 / d)
        if status == "ok" and not abs(gap) <= 1e-12:
            return f"hyperbola point p={p} q={q} off the curve by {gap!r}"
    doc = json.loads(outputs[3][1])
    if doc["on_or_above_jl"] != (doc["jl_margin"] >= 0.0):
        return "classify: on_or_above_jl disagrees with jl_margin"
    return None


# --- dispatch ----------------------------------------------------------------

_ROUND = {"shoot": _shoot_round, "verify": _verify_round, "regime_map": _regime_round}
OPS = {"shoot": _shoot_op, "verify": _verify_op, "regime_map": _regime_op}
_GATES = {"shoot": _shoot_gate, "verify": _verify_gate, "regime_map": _regime_gate}

# A cheap op on each workload's code path, run during set-up.
WARMUP = {
    "shoot": {"argv": ["ground-state", "-p", "5", "-q", "5", "-d", "3", "--bracket-lo", "0.6",
                       "--bracket-hi", "1.7", "--r-max", "5", "--rel-tol", "1e-6", "--json"],
              "exact": None, "bracket": [0.6, 1.7]},
    "verify": {"p": 3.0, "d": 13.0, "r_max": 5.0, "above_jl": True},
    "regime_map": _regime_item(random.Random("warm-up"), 13.0, 6),
}


def round_inputs(workload: str, seed: int, round_no: int) -> list[dict]:
    """Round ``round_no`` of the input schedule for ``seed``."""
    return _ROUND[workload](_rng(workload, seed, round_no))


def gate(workload: str, inp: dict, out) -> str | None:
    return _GATES[workload](inp, out)


def cli_bytes(workload: str, out) -> int:
    """Bytes the CLI wrote during one op (the verify workload has no CLI)."""
    if workload == "shoot":
        return len(out[1].encode())
    if workload == "regime_map":
        return sum(len(text.encode()) for _, text in out[0])
    return 0
