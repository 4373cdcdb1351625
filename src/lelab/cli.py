"""Command-line front end and serialization layer.

Subcommands: classify, curve, grid, shoot, ground-state, verify.  All
numeric output uses 17 significant digits with locale-independent
formatting, so identical argument vectors produce byte-identical output.

Exit codes: 0 success (all requested verifications passed), 1 when a
requested verification reports passed=false, 2 on invalid input or a
numerical failure (one line on stderr, no traceback).

CSV schemas (stable, versioned by a leading comment line):

- grid / classify CSV, header ``# lelab-v1``, columns
  p,q,d,alpha,beta,gamma,H,lambda,mu,jl_margin,x0_plain,x0_jl,criticality,
  on_or_above_jl,thm_d_le_10,thm_below_jl,thm_quartic,stable_radial_exists
  (booleans are true/false, or na for non-integer dimensions).
- radial trajectory CSV, header ``# lelab-radial-v1``, columns r,u,v,du,dv,
  one row per accepted integrator step.
- curve CSV, header ``# lelab-curve-v1``, columns p,q,status.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .classifier import (
    CurveKind,
    RegimeReport,
    classify,
    grid_classify,
    trace_hyperbola,
    trace_jl_curve,
)
from .errors import LelabError
from .exponents import SystemParams, derive_constants
from .radial import RadialSolution, fit_decay, integrate, shoot_ground_state
from .verify import (
    PohozaevWeights,
    VerificationReport,
    check_comparison,
    check_energy_growth,
    check_pohozaev,
    check_singular_residual,
    rayleigh_stability_margin,
    spherical_mode_margins,
)

__all__ = ["run", "main", "CommandConfig", "OutputKind", "read_grid_csv", "read_radial_csv"]

GRID_COLUMNS = (
    "p,q,d,alpha,beta,gamma,H,lambda,mu,jl_margin,x0_plain,x0_jl,criticality,"
    "on_or_above_jl,thm_d_le_10,thm_below_jl,thm_quartic,stable_radial_exists"
)


class OutputKind(Enum):
    HUMAN = "human"
    JSON = "json"
    CSV = "csv"


@dataclass(frozen=True)
class CommandConfig:
    """Validated invocation: output form and destination."""

    output: OutputKind
    out_path: Optional[str]
    force: bool


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2) with a usage dump
        raise _UsageError(message)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _flag(value: Optional[bool]) -> str:
    if value is None:
        return "na"
    return "true" if value else "false"


def _emit(text: str, config: CommandConfig) -> None:
    if config.out_path is None:
        sys.stdout.write(text)
        return
    if os.path.exists(config.out_path) and not config.force:
        raise _UsageError(f"refusing to overwrite existing file {config.out_path} (use --force)")
    try:
        with open(config.out_path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise _UsageError(f"cannot write {config.out_path}: {exc.strerror or exc}") from None


def _radii(text: str) -> list[float]:
    """The value of --radii: comma-separated numbers."""
    try:
        return [float(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"need comma-separated numbers, got {text!r}") from None


#: the largest -n of grid (points per axis) and of curve: a 300 x 300 grid
#: takes about 1.6 s and 113 MB, 10000 points of the JL curve about 0.5 s
#: (CPython 3.11, a 2-vCPU Xeon VM)
GRID_MAX_N = 300
CURVE_MAX_N = 10_000


def _count(most: int):
    """The argparse type of an -n: an integer from 2 to most."""
    def count(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            n = 0
        if not 2 <= n <= most:
            raise argparse.ArgumentTypeError(f"need an integer from 2 to {most}, got {text!r}")
        return n
    return count


#: one grid/classify CSV row: twelve numbers as _fmt writes them, then six words
_ROW = ",".join(["%.17g"] * 12 + ["%s"] * 6)


def _report_row(rep: RegimeReport) -> str:
    c = rep.constants
    return _ROW % (
        rep.params.p, rep.params.q, rep.params.d, c.alpha, c.beta, c.gamma, c.H, c.lam, c.mu,
        rep.jl_margin, rep.x0_plain, rep.x0_jl, rep.criticality.value, _flag(rep.on_or_above_jl),
        _flag(rep.thm_d_le_10_applies), _flag(rep.thm_below_jl_applies),
        _flag(rep.thm_quartic_applies), _flag(rep.thm_stable_radial_exists),
    )


def _report_json(rep: RegimeReport) -> dict:
    c = rep.constants
    return {
        "params": {"p": rep.params.p, "q": rep.params.q, "d": rep.params.d},
        "constants": {
            "alpha": c.alpha, "beta": c.beta, "gamma": c.gamma, "H": c.H,
            "lambda": c.lam, "mu": c.mu, "a_coef": c.a_coef, "b_coef": c.b_coef,
        },
        "criticality": rep.criticality.value,
        "jl_margin": rep.jl_margin,
        "x0_plain": rep.x0_plain,
        "x0_jl": rep.x0_jl,
        "on_or_above_jl": rep.on_or_above_jl,
        "thm_d_le_10_applies": rep.thm_d_le_10_applies,
        "thm_below_jl_applies": rep.thm_below_jl_applies,
        "thm_quartic_applies": rep.thm_quartic_applies,
        "thm_stable_radial_exists": rep.thm_stable_radial_exists,
        "notes": list(rep.notes),
    }


def _json_dumps(obj) -> str:
    # fixed key order and float repr keep output byte-identical across runs
    return json.dumps(obj, indent=2, allow_nan=True) + "\n"


def _grid_csv(reports) -> str:
    lines = ["# lelab-v1", GRID_COLUMNS]
    lines.extend(_report_row(rep) for rep in reports)
    return "\n".join(lines) + "\n"


def _radial_csv(sol: RadialSolution) -> str:
    lines = ["# lelab-radial-v1", "r,u,v,du,dv"]
    for i in range(len(sol.r)):
        lines.append(
            ",".join(_fmt(a[i]) for a in (sol.r, sol.u, sol.v, sol.du, sol.dv))
        )
    return "\n".join(lines) + "\n"


def _curve_csv(trace) -> str:
    lines = ["# lelab-curve-v1", "p,q,status"]
    for pt in trace.points:
        lines.append(f"{_fmt(pt.p)},{_fmt(pt.q)},{pt.status.value}")
    return "\n".join(lines) + "\n"


def read_grid_csv(path: str) -> list[dict]:
    """Parse a lelab-v1 CSV back into typed row dictionaries."""
    rows = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "# lelab-v1":
            raise LelabError(f"not a lelab-v1 file: {path}")
        columns = fh.readline().strip().split(",")
        for line in fh:
            values = line.strip().split(",")
            row: dict = {}
            for key, val in zip(columns, values):
                if key == "criticality":
                    row[key] = val
                elif val in ("true", "false", "na"):
                    row[key] = None if val == "na" else (val == "true")
                else:
                    row[key] = float(val)
            rows.append(row)
    return rows


def read_radial_csv(path: str) -> dict:
    """Parse a lelab-radial-v1 CSV into column arrays (plain lists)."""
    cols: dict = {}
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "# lelab-radial-v1":
            raise LelabError(f"not a lelab-radial-v1 file: {path}")
        names = fh.readline().strip().split(",")
        cols = {name: [] for name in names}
        for line in fh:
            for name, val in zip(names, line.strip().split(",")):
                cols[name].append(float(val))
    return cols


def _human_report(rep: RegimeReport) -> str:
    c = rep.constants
    lines = [
        f"p={_fmt(rep.params.p)} q={_fmt(rep.params.q)} d={_fmt(rep.params.d)}",
        f"alpha={_fmt(c.alpha)} beta={_fmt(c.beta)} gamma={_fmt(c.gamma)}",
        f"H={_fmt(c.H)} lambda={_fmt(c.lam)} mu={_fmt(c.mu)}",
        f"a_coef={_fmt(c.a_coef)} b_coef={_fmt(c.b_coef)}",
        f"criticality={rep.criticality.value}",
        f"jl_margin={_fmt(rep.jl_margin)} on_or_above_jl={_flag(rep.on_or_above_jl)}",
        f"x0_plain={_fmt(rep.x0_plain)} x0_jl={_fmt(rep.x0_jl)}",
        f"thm_d_le_10={_flag(rep.thm_d_le_10_applies)} "
        f"thm_below_jl={_flag(rep.thm_below_jl_applies)} "
        f"thm_quartic={_flag(rep.thm_quartic_applies)} "
        f"stable_radial_exists={_flag(rep.thm_stable_radial_exists)}",
    ]
    for note in rep.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"


@functools.cache  # parse_args keeps no state between calls, and error() raises
def _build_parser() -> _Parser:
    parser = _Parser(prog="lelab", allow_abbrev=False)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_params(sp):
        sp.add_argument("-p", type=float, required=True)
        sp.add_argument("-q", type=float, required=True)
        sp.add_argument("-d", type=float, required=True)

    def add_output(sp, csv=True):
        group = sp.add_mutually_exclusive_group()
        group.add_argument("--json", action="store_true")
        if csv:
            group.add_argument("--csv", action="store_true")
        sp.add_argument("-o", "--out", default=None)
        sp.add_argument("--force", action="store_true")

    sp = sub.add_parser("classify", allow_abbrev=False)
    add_params(sp)
    add_output(sp)

    sp = sub.add_parser("curve", allow_abbrev=False)
    sp.add_argument("--kind", choices=[k.value for k in CurveKind], required=True)
    sp.add_argument("-d", type=float, required=True)
    sp.add_argument("--p-min", type=float, required=True)
    sp.add_argument("--p-max", type=float, required=True)
    sp.add_argument("-n", type=_count(CURVE_MAX_N), required=True,
                    help=f"points on the curve, 2 to {CURVE_MAX_N}")
    add_output(sp)

    sp = sub.add_parser("grid", allow_abbrev=False)
    sp.add_argument("-d", type=float, required=True)
    sp.add_argument("--p-min", type=float, required=True)
    sp.add_argument("--p-max", type=float, required=True)
    sp.add_argument("--q-min", type=float, required=True)
    sp.add_argument("--q-max", type=float, required=True)
    sp.add_argument("-n", "--resolution", type=_count(GRID_MAX_N), required=True,
                    help=f"points per axis, 2 to {GRID_MAX_N}")
    add_output(sp)

    sp = sub.add_parser("shoot", allow_abbrev=False)
    add_params(sp)
    sp.add_argument("--v0", type=float, required=True)
    sp.add_argument("--r-max", type=float, default=100.0)
    sp.add_argument("--rel-tol", type=float, default=1e-10)
    add_output(sp)

    sp = sub.add_parser("ground-state", allow_abbrev=False)
    add_params(sp)
    sp.add_argument("--bracket-lo", type=float, required=True)
    sp.add_argument("--bracket-hi", type=float, required=True)
    sp.add_argument("--r-max", type=float, default=200.0)
    sp.add_argument("--rel-tol", type=float, default=1e-10)
    add_output(sp)

    sp = sub.add_parser("verify", allow_abbrev=False)
    vsub = sp.add_subparsers(dest="check", required=True)

    v = vsub.add_parser("singular", allow_abbrev=False)
    add_params(v)
    v.add_argument("--radii", type=_radii, default="0.5,1,2")
    v.add_argument("--scale-a", type=float, default=1.0)
    v.add_argument("--scale-b", type=float, default=1.0)
    add_output(v, csv=False)

    v = vsub.add_parser("comparison", allow_abbrev=False)
    add_params(v)
    v.add_argument("--v0", type=float, required=True)
    v.add_argument("--r-max", type=float, default=10.0)
    v.add_argument("--rel-tol", type=float, default=1e-10)
    add_output(v, csv=False)

    v = vsub.add_parser("pohozaev", allow_abbrev=False)
    add_params(v)
    v.add_argument("--v0", type=float, required=True)
    v.add_argument("--R", type=float, required=True)
    v.add_argument("--a1", type=float, required=True)
    v.add_argument("--r-max", type=float, default=None)
    v.add_argument("--rel-tol", type=float, default=1e-10)
    add_output(v, csv=False)

    v = vsub.add_parser("energy", allow_abbrev=False)
    add_params(v)
    v.add_argument("--v0", type=float, required=True)
    v.add_argument("--s", type=float, required=True)
    v.add_argument("--radii", type=_radii, default="10,31.62,100,316.2,1000")
    v.add_argument("--rel-tol", type=float, default=1e-9)
    add_output(v, csv=False)

    v = vsub.add_parser("rayleigh", allow_abbrev=False)
    add_params(v)
    v.add_argument("--cutoffs", type=int, default=20)
    add_output(v, csv=False)

    v = vsub.add_parser("spherical", allow_abbrev=False)
    add_params(v)
    v.add_argument("--l-max", type=int, default=8)
    add_output(v, csv=False)

    return parser


def _output_kind(args) -> OutputKind:
    if getattr(args, "json", False):
        return OutputKind.JSON
    if getattr(args, "csv", False):
        return OutputKind.CSV
    return OutputKind.HUMAN


def _emit_verification(rep: VerificationReport, config: CommandConfig) -> int:
    if config.output is OutputKind.JSON:
        _emit(_json_dumps(rep.to_dict()), config)
    else:
        lines = [
            f"check={rep.check}",
            f"p={_fmt(rep.params.p)} q={_fmt(rep.params.q)} d={_fmt(rep.params.d)}",
            f"lhs={_fmt(rep.lhs)} rhs={_fmt(rep.rhs)}",
            f"residual={_fmt(rep.residual)} tolerance={_fmt(rep.tolerance)}",
            f"passed={'true' if rep.passed else 'false'}",
            f"details: {rep.details}",
        ]
        _emit("\n".join(lines) + "\n", config)
    return 0 if rep.passed else 1


def _cmd_classify(args, config: CommandConfig) -> int:
    rep = classify(SystemParams(args.p, args.q, args.d))
    if config.output is OutputKind.JSON:
        _emit(_json_dumps(_report_json(rep)), config)
    elif config.output is OutputKind.CSV:
        _emit(_grid_csv([rep]), config)
    else:
        _emit(_human_report(rep), config)
    return 0


def _cmd_curve(args, config: CommandConfig) -> int:
    if args.kind == CurveKind.JL.value:
        trace = trace_jl_curve(args.d, args.p_min, args.p_max, args.n)
    else:
        trace = trace_hyperbola(args.d, args.p_min, args.p_max, args.n)
    if config.output is OutputKind.JSON:
        doc = {
            "d": trace.d,
            "curve": trace.curve.value,
            "points": [{"p": pt.p, "q": pt.q, "status": pt.status.value} for pt in trace.points],
        }
        _emit(_json_dumps(doc), config)
    else:
        _emit(_curve_csv(trace), config)
    return 0


def _cmd_grid(args, config: CommandConfig) -> int:
    reports = grid_classify(args.d, (args.p_min, args.p_max), (args.q_min, args.q_max), args.resolution)
    if config.output is OutputKind.JSON:
        _emit(_json_dumps([_report_json(rep) for rep in reports]), config)
    else:
        _emit(_grid_csv(reports), config)
    return 0


def _cmd_shoot(args, config: CommandConfig) -> int:
    sol = integrate(SystemParams(args.p, args.q, args.d), args.v0, args.r_max, args.rel_tol)
    if config.output is OutputKind.JSON:
        doc = {
            "params": {"p": args.p, "q": args.q, "d": args.d},
            "v0": args.v0,
            "status": sol.status.value,
            "event_radius": sol.event_radius,
            "r_end": float(sol.r[-1]),
            "steps": len(sol.r),
        }
        _emit(_json_dumps(doc), config)
    else:
        _emit(_radial_csv(sol), config)
    return 0


def _cmd_ground_state(args, config: CommandConfig) -> int:
    params = SystemParams(args.p, args.q, args.d)
    v0_star, sol = shoot_ground_state(params, (args.bracket_lo, args.bracket_hi), args.r_max, args.rel_tol)
    fit_u, fit_v = fit_decay(sol, args.r_max / 20.0, args.r_max / 2.0)
    if config.output is OutputKind.CSV:
        _emit(_radial_csv(sol), config)
        return 0
    doc = {
        "params": {"p": args.p, "q": args.q, "d": args.d},
        "v0_star": v0_star,
        "status": sol.status.value,
        "r_end": float(sol.r[-1]),
        "decay_u": {"exponent": fit_u.exponent, "classification": fit_u.classification.value},
        "decay_v": {"exponent": fit_v.exponent, "classification": fit_v.classification.value},
    }
    if config.output is OutputKind.JSON:
        _emit(_json_dumps(doc), config)
    else:
        _emit(
            f"v0_star={_fmt(v0_star)}\nstatus={sol.status.value}\n"
            f"decay_u={fit_u.classification.value} exponent={_fmt(fit_u.exponent)}\n"
            f"decay_v={fit_v.classification.value} exponent={_fmt(fit_v.exponent)}\n",
            config,
        )
    return 0


def _cmd_verify(args, config: CommandConfig) -> int:
    params = SystemParams(args.p, args.q, args.d)
    if args.check == "singular":
        c = derive_constants(params)
        rep = check_singular_residual(
            params,
            args.radii,
            a_coef=c.a_coef * args.scale_a,
            b_coef=c.b_coef * args.scale_b,
        )
    elif args.check == "comparison":
        sol = integrate(params, args.v0, args.r_max, args.rel_tol)
        rep = check_comparison(sol)
    elif args.check == "pohozaev":
        r_max = args.r_max if args.r_max is not None else max(2.0 * args.R, 10.0)
        sol = integrate(params, args.v0, r_max, args.rel_tol)
        rep = check_pohozaev(sol, args.R, PohozaevWeights.from_a1(params, args.a1))
    elif args.check == "energy":
        sol = integrate(params, args.v0, 1.05 * max(args.radii), args.rel_tol)
        rep = check_energy_growth(sol, args.s, args.radii)
    elif args.check == "rayleigh":
        rep = rayleigh_stability_margin(params, args.cutoffs)
    else:
        rep = spherical_mode_margins(params, args.l_max)
    return _emit_verification(rep, config)


_DISPATCH = {
    "classify": _cmd_classify,
    "curve": _cmd_curve,
    "grid": _cmd_grid,
    "shoot": _cmd_shoot,
    "ground-state": _cmd_ground_state,
    "verify": _cmd_verify,
}


def run(argv) -> int:
    """Execute one invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
        config = CommandConfig(
            output=_output_kind(args),
            out_path=getattr(args, "out", None),
            force=getattr(args, "force", False),
        )
        return _DISPATCH[args.subcommand](args, config)
    except (_UsageError, LelabError) as exc:
        sys.stderr.write(f"lelab: error: {exc}\n")
        return 2
    except ArithmeticError as exc:  # a numerical failure no typed check caught
        sys.stderr.write(f"lelab: error: {type(exc).__name__}: {exc}\n")
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))
