"""Spans at lelab's module boundaries, recorded from outside ``src/``.

``Tracer.install`` swaps the names listed in ``BOUNDARIES`` for wrappers
that record one span per call: name, start, end, parent span and op id,
plus a work count (rows, radii, points, grid steps) where a ratio metric
needs one.  ``Tracer.uninstall`` puts the originals back.  Spans are kept
in flat arrays while the run lasts and written out once, at its end.

Module-level names are patched in the namespace that looks them up, so a
call from ``radial._bisect_v0`` to ``integrate`` gets a span exactly like
a call from the CLI.  Calls made outside an op (set-up, correctness gates)
record nothing.
"""

from __future__ import annotations

import gzip
from array import array
from time import perf_counter

import numpy as np

from lelab import classifier, cli, radial, verify
from lelab.errors import LelabError
from lelab.radial import RadialSolution

LAYERS = ("exponents", "classifier", "radial", "verify", "cli")


def _rows(args, kwargs, result):
    return len(result.r)


def _radii(args, kwargs, result):
    return int(np.size(args[1]))


def _points(args, kwargs, result):
    return len(result.points)


def _grid_steps(args, kwargs, result):
    # check_pohozaev(sol, R, ...) integrates over the grid intervals below R
    sol, R = args[0], args[1]
    return min(int(np.searchsorted(sol.r, R, side="left")), len(sol.r) - 1)


# (namespace, attribute, span name, work count)
BOUNDARIES = (
    # entry points the benchmark calls
    (cli, "run", "cli.run", None),
    (radial, "integrate", "radial.integrate", _rows),
    (radial, "fit_decay", "radial.fit_decay", None),
    (radial, "blow_down", "radial.blow_down", None),
    (verify, "check_pohozaev", "verify.check_pohozaev", _grid_steps),
    (verify, "check_energy_growth", "verify.check_energy_growth", None),
    (verify, "check_comparison", "verify.check_comparison", None),
    (classifier, "jl_threshold_dimension", "classifier.jl_threshold_dimension", None),
    # names the CLI imported from the library modules
    (cli, "classify", "classifier.classify", None),
    (cli, "grid_classify", "classifier.grid_classify", None),
    (cli, "trace_hyperbola", "classifier.trace_hyperbola", _points),
    (cli, "trace_jl_curve", "classifier.trace_jl_curve", _points),
    (cli, "integrate", "radial.integrate", _rows),
    (cli, "shoot_ground_state", "radial.shoot_ground_state", None),
    (cli, "fit_decay", "radial.fit_decay", None),
    (cli, "check_comparison", "verify.check_comparison", None),
    (cli, "check_energy_growth", "verify.check_energy_growth", None),
    (cli, "check_pohozaev", "verify.check_pohozaev", _grid_steps),
    (cli, "check_singular_residual", "verify.check_singular_residual", None),
    (cli, "rayleigh_stability_margin", "verify.rayleigh_stability_margin", None),
    (cli, "spherical_mode_margins", "verify.spherical_mode_margins", None),
    # names the classifier imported from exponents
    (classifier, "classify", "classifier.classify", None),
    (classifier, "derive_constants", "exponents.derive_constants", None),
    (classifier, "jl_margin", "exponents.jl_margin", None),
    (classifier, "largest_root", "exponents.largest_root", None),
    # names radial and verify imported from the other modules
    (radial, "derive_constants", "exponents.derive_constants", None),
    (radial, "hyperbola_gap", "classifier.hyperbola_gap", None),
    (verify, "derive_constants", "exponents.derive_constants", None),
    (verify, "jl_margin", "exponents.jl_margin", None),
    # dense output on the solution object
    (RadialSolution, "evaluate", "radial.evaluate", _radii),
    (RadialSolution, "hermite_coefficients", "radial.hermite_coefficients", None),
    (RadialSolution, "derivative_coefficients", "radial.derivative_coefficients", None),
)

OP = "op"


class Tracer:
    """Records spans into flat arrays; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.work = array("q")
        self.err = array("b")
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int, op_id: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(op_id)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.work.append(0)
        self.err.append(0)
        self._stack.append(i)
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str, work):
        nid = self._name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer._stack:  # outside an op
                return fn(*args, **kwargs)
            i = tracer._open(nid, tracer.op[tracer._stack[0]])
            try:
                result = fn(*args, **kwargs)
            except LelabError:
                tracer.err[i] = 1
                raise
            finally:
                tracer._close(i)
            if work is not None:
                tracer.work[i] = work(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for target, attr, name, work in BOUNDARIES:
            original = getattr(target, attr)
            self._saved.append((target, attr, original))
            setattr(target, attr, self._wrap(original, name, work))

    def uninstall(self) -> None:
        while self._saved:
            target, attr, original = self._saved.pop()
            setattr(target, attr, original)

    def run_op(self, op_id: int, fn, *args):
        """Run one op under a root span; returns fn's result."""
        i = self._open(self._name_id(OP), op_id)
        try:
            return fn(*args)
        finally:
            self._close(i)

    def write(self, path) -> None:
        """Write every span as a tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt") as fh:
            fh.write("id\tname\tstart\tend\tparent\top\twork\terror\n")
            t0 = self.start[0] if len(self.start) else 0.0
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.names[self.name[i]]}\t{self.start[i] - t0:.9f}\t"
                    f"{self.end[i] - t0:.9f}\t{self.parent[i]}\t{self.op[i]}\t"
                    f"{self.work[i]}\t{self.err[i]}\n"
                )


def layer_metrics(tr: Tracer, scale: dict[int, float], cli_bytes: int) -> dict[str, float]:
    """Per-layer metrics from the recorded spans.

    ``scale`` maps an op id to the calibration factor applied to every span
    of that op (see run.py); ``cli_bytes`` is the CLI output of all traced
    ops.  Metrics of a layer the workload never enters read 0.
    """
    n = len(tr.start)
    names = [tr.names[k] for k in tr.name]
    parent = list(tr.parent)
    dur = [(tr.end[i] - tr.start[i]) * scale[tr.op[i]] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        if parent[i] >= 0:
            child[parent[i]] += dur[i]
    self_t = [dur[i] - child[i] for i in range(n)]

    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    work: dict[str, int] = {}
    for i, nm in enumerate(names):
        calls[nm] = calls.get(nm, 0) + 1
        total[nm] = total.get(nm, 0.0) + dur[i]
        work[nm] = work.get(nm, 0) + tr.work[i]

    def layer(i):
        return names[i].split(".")[0]

    def ancestor_named(i, wanted):
        j = parent[i]
        while j >= 0:
            if names[j] in wanted:
                return True
            j = parent[j]
        return False

    n_ops = calls.get(OP, 0)
    op_time = total.get(OP, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    def per_call_us(nm):
        return ratio(1e6 * total.get(nm, 0.0), calls.get(nm, 0))

    def self_time(lay):
        return sum(self_t[i] for i in range(n) if layer(i) == lay)

    gs = "radial.shoot_ground_state"
    shots = [i for i in range(n) if names[i] == "radial.integrate" and parent[i] >= 0
             and names[parent[i]] == gs]
    checks = ("verify.check_pohozaev", "verify.check_energy_growth", "verify.check_comparison")
    n_checks = sum(calls.get(c, 0) for c in checks)
    hermite_in_checks = sum(
        1 for i in range(n)
        if names[i] == "radial.hermite_coefficients" and ancestor_named(i, checks)
    )
    curve = "classifier.trace_jl_curve"
    margin_in_curve = sum(
        1 for i in range(n)
        if names[i] == "exponents.jl_margin" and ancestor_named(i, (curve,))
    )
    errors = {lay: 0 for lay in LAYERS}
    for i in range(n):
        # count an error once, where it leaves its layer
        if tr.err[i] and (parent[i] < 0 or layer(parent[i]) != layer(i)):
            errors[layer(i)] += 1

    m = {
        "radial.shoot.integrations_per_gs": ratio(len(shots), calls.get(gs, 0)),
        "radial.shoot.rows_per_gs": ratio(sum(tr.work[i] for i in shots), calls.get(gs, 0)),
        "radial.integrate.us_per_row": ratio(1e6 * total.get("radial.integrate", 0.0),
                                             work.get("radial.integrate", 0)),
        "radial.integrate.rows_per_call": ratio(work.get("radial.integrate", 0),
                                                calls.get("radial.integrate", 0)),
        "radial.integrate.calls_per_op": ratio(calls.get("radial.integrate", 0), n_ops),
        "radial.integrate.share": ratio(total.get("radial.integrate", 0.0), op_time),
        "radial.hermite_coefficients.calls_per_op": ratio(
            calls.get("radial.hermite_coefficients", 0), n_ops),
        "radial.hermite_coefficients.us_per_call": per_call_us("radial.hermite_coefficients"),
        "radial.evaluate.us_per_radius": ratio(1e6 * total.get("radial.evaluate", 0.0),
                                               work.get("radial.evaluate", 0)),
        "radial.fit_decay.us_per_call": per_call_us("radial.fit_decay"),
        "radial.blow_down.us_per_call": per_call_us("radial.blow_down"),
        "verify.check_pohozaev.us_per_call": per_call_us("verify.check_pohozaev"),
        "verify.check_pohozaev.us_per_step": ratio(1e6 * total.get("verify.check_pohozaev", 0.0),
                                                   work.get("verify.check_pohozaev", 0)),
        "verify.check_energy_growth.us_per_call": per_call_us("verify.check_energy_growth"),
        "verify.check_comparison.us_per_call": per_call_us("verify.check_comparison"),
        "verify.hermite_calls_per_check": ratio(hermite_in_checks, n_checks),
        "verify.self_share": ratio(self_time("verify"), op_time),
        "exponents.largest_root.calls_per_op": ratio(calls.get("exponents.largest_root", 0), n_ops),
        "exponents.largest_root.us_per_call": per_call_us("exponents.largest_root"),
        "exponents.derive_constants.us_per_call": per_call_us("exponents.derive_constants"),
        "exponents.jl_margin.calls_per_op": ratio(calls.get("exponents.jl_margin", 0), n_ops),
        "exponents.jl_margin.us_per_call": per_call_us("exponents.jl_margin"),
        "classifier.classify.us_per_triple": per_call_us("classifier.classify"),
        "classifier.trace_jl_curve.us_per_point": ratio(1e6 * total.get(curve, 0.0),
                                                        work.get(curve, 0)),
        "classifier.jl_margin_evals_per_point": ratio(margin_in_curve, work.get(curve, 0)),
        "classifier.jl_threshold_dimension.us_per_call": per_call_us(
            "classifier.jl_threshold_dimension"),
        "classifier.self_share": ratio(self_time("classifier"), op_time),
        "cli.run.self_us_per_op": ratio(1e6 * self_time("cli"), n_ops),
        "cli.bytes_per_op": ratio(cli_bytes, n_ops),
        "cli.self_share": ratio(self_time("cli"), op_time),
    }
    for lay in LAYERS:  # per op, so that the count does not depend on the passes run
        m[f"{lay}.errors"] = ratio(errors[lay], n_ops)
    return m
