"""Command line front end: frame sweeps, lift reports, field tables, verify.

Each subcommand takes only the flags it reads:

    frenet  --curve --samples --tol --format --out
    lift    --curve --kind --anchor --w0 --connection --samples --tol --format --out
    fields  --field --scalar --point --connection --format --out
    verify  --samples --tol --format --out

Any other flag, a lift flag that does not fit ``--kind`` (``--anchor`` is for
v, ``--w0`` and ``--connection`` for h), a third ``--field`` or ``--scalar``
file, or a tolerance name the command does not read exits 2.

Exit codes: 0 success, 1 verification failure, 2 input error, 3 degenerate
geometry.  CSV output uses 17 significant digits, '.' decimals and LF line
ends, and is byte-identical across runs on identical input.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys

from .expr import parse_curve_file, parse_field_file
from .frenet import (
    DegenerateCurvature,
    ToleranceConfig,
    ZeroSpeed,
    frenet_apparatus,
    uniform_grid,
)
from .jets import RankDeficient, ZeroNorm
from .lifts import Connection, LiftKind, TangentPoint, lift_field, parse_connection_file, prop21_check
from .lifted_frenet import LiftedCurve
from .verify import run_checks

__all__ = ["main", "EXIT_OK", "EXIT_VERIFY_FAILED", "EXIT_INPUT", "EXIT_DEGENERATE"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT = 2
EXIT_DEGENERATE = 3

_DEGENERATE = (DegenerateCurvature, ZeroSpeed, RankDeficient, ZeroNorm)


class InputError(ValueError):
    """Configuration problem that maps to exit code 2."""


def _fmt17(x: float) -> str:
    return "%.17g" % x


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as err:
        raise InputError(f"cannot read {path}: {err}") from err


def _floats(n: int):
    """Type for a flag taking n comma-separated numbers."""

    def parse(text: str) -> tuple[float, ...]:
        try:
            values = tuple(float(p) for p in text.split(","))
        except ValueError:
            values = ()
        if len(values) != n:
            raise argparse.ArgumentTypeError(f"needs {n} comma-separated numbers, got {text!r}")
        return values

    return parse


def _samples(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 2:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 2, got {text!r}")
    return n


def _tolerance(names: tuple[str, ...]):
    """Type for one ``--tol NAME=VALUE`` pair over the names a command reads."""

    def parse(pair: str) -> tuple[str, float]:
        name, sep, value = pair.partition("=")
        name = name.strip()
        if not sep or name not in names:
            raise argparse.ArgumentTypeError(
                f"expects NAME=VALUE, NAME one of {', '.join(names)}; got {pair!r}")
        try:
            ToleranceConfig(**{name: float(value)})
        except ValueError as err:
            raise argparse.ArgumentTypeError(f"{pair!r}: {err}") from None
        return name, float(value)

    return parse


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _emit_rows(args: argparse.Namespace, header: list[str], rows: list[list[float]],
               summary: dict[str, float] | None = None) -> None:
    """Write rows as CSV (summary as a '#' trailer) or JSON (summary as a key)."""
    if args.format == "csv":
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(_fmt17(v) for v in row))
        if summary is not None:
            lines.append("# " + " ".join(f"{k}={_fmt17(v)}" for k, v in summary.items()))
        text = "\n".join(lines) + "\n"
    else:
        payload = {"rows": [dict(zip(header, r)) for r in rows]}
        if summary is not None:
            payload["summary"] = summary
        text = json.dumps(payload, indent=2) + "\n"
    _emit(text, args.out)


def _load_connection(path: str | None) -> Connection:
    if path is None:
        return Connection.flat()
    return parse_connection_file(_read(path))


# --- subcommands ----------------------------------------------------------------

FRENET_HEADER = (
    ["t", "x1", "x2", "x3"]
    + [f"T{i}" for i in (1, 2, 3)]
    + [f"N{i}" for i in (1, 2, 3)]
    + [f"B{i}" for i in (1, 2, 3)]
    + ["kappa", "tau", "res_T", "res_N", "res_B"]
)


def cmd_frenet(args: argparse.Namespace) -> int:
    curve = parse_curve_file(_read(args.curve))
    tolerances = ToleranceConfig(**dict(args.tol))
    rows = []
    for t in uniform_grid(curve.t_min, curve.t_max, args.samples):
        app = frenet_apparatus(curve, t, tolerances)
        rows.append(
            [t, *app.point, *app.T, *app.N, *app.B, app.kappa, app.tau, *app.residuals]
        )
    _emit_rows(args, FRENET_HEADER, rows)
    return EXIT_OK


LIFT_HEADER = (
    ["t"]
    + [f"p{i}" for i in range(1, 7)]
    + [f"Tl{i}" for i in range(1, 7)]
    + [f"Nl{i}" for i in range(1, 7)]
    + [f"Bl{i}" for i in range(1, 7)]
    + ["kappa_lift", "tau_lift", "res1", "res2", "res3", "oracle_kappa", "oracle_tau"]
)


def cmd_lift(args: argparse.Namespace) -> int:
    for flag, kind in (("anchor", "v"), ("w0", "h"), ("connection", "h")):
        if getattr(args, flag) is not None and args.kind != kind:
            raise InputError(f"--{flag} applies only to --kind {kind}, not {args.kind}")
    curve = parse_curve_file(_read(args.curve))
    connection = _load_connection(args.connection)
    if args.kind == "v":
        kind = LiftKind.vertical(args.anchor)
    elif args.kind == "c":
        kind = LiftKind.complete()
    elif args.w0 is None and not connection.is_flat:
        raise InputError("w0 required: horizontal lift with a non-flat connection")
    else:
        kind = LiftKind.horizontal(args.w0 or (0.0, 0.0, 0.0))
    report = LiftedCurve(curve, kind, connection, ToleranceConfig(**dict(args.tol))).sweep(
        uniform_grid(curve.t_min, curve.t_max, args.samples)
    )
    rows = [
        [t, *report.points[i], *Tl, *Nl, *Bl, report.kappa_lift[i], report.tau_lift[i],
         *report.theorem_residuals[i], report.oracle_kappa[i], report.oracle_tau[i]]
        for i, (t, (Tl, Nl, Bl)) in enumerate(zip(report.grid, report.frames))
    ]
    summary = {name: getattr(report, name) for name in
               ("max_residual", "max_discrepancy", "frame_ortho_max", "kappa_spread")}
    _emit_rows(args, LIFT_HEADER, rows, summary)
    return EXIT_OK


def _field_pair(paths: list[str], flag: str, kind: str, what: str):
    """The first and last of at most two field files of one kind."""
    if len(paths) > 2:
        raise InputError(f"{flag} takes at most 2 files, got {len(paths)}")
    specs = [parse_field_file(_read(path)) for path in paths]
    if any(spec.kind != kind for spec in specs):
        raise InputError(f"{flag} file must define a {what}")
    return specs[0], specs[-1]


def cmd_fields(args: argparse.Namespace) -> int:
    X, Y = _field_pair(args.field, "--field", "vector", "vector field (X1, X2, X3)")
    f, g = _field_pair(args.scalar, "--scalar", "scalar", "scalar function (f)")
    connection = _load_connection(args.connection)

    header: list[str] | None = None
    rows = []
    for coords in args.point:
        p = TangentPoint(coords[:3], coords[3:])
        lifted = [
            x
            for kind in ("vertical", "complete", "horizontal")
            for x in lift_field(X, kind, connection).at(p).as_tuple()
        ]
        residuals = prop21_check(X, Y, f, g, connection, p).residuals
        if header is None:
            header = (
                [f"x{i}" for i in (1, 2, 3)]
                + [f"y{i}" for i in (1, 2, 3)]
                + [f"{tag}{i}" for tag in ("v", "c", "h") for i in range(1, 7)]
                + [f"res_{name}" for name in residuals]
            )
        rows.append([*coords, *lifted, *residuals.values()])
    _emit_rows(args, header, rows)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    results = run_checks(ToleranceConfig(**dict(args.tol)), samples=args.samples)
    if args.format == "csv":
        text = "\n".join(r.line() for r in results) + "\n"
    else:
        payload = [
            {"name": r.name, "value": r.value, "bound": r.bound, "pass": r.passed}
            for r in results
        ]
        text = json.dumps(payload, indent=2) + "\n"
    _emit(text, args.out)
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY_FAILED


# --- argument plumbing ---------------------------------------------------------

_FLAGS = {
    "curve": dict(metavar="PATH", required=True, help="curve definition file"),
    "kind": dict(choices=("v", "c", "h"), required=True, help="lift kind"),
    "anchor": dict(metavar="A,B,C", type=_floats(3), help="vertical lift anchor point (v only)"),
    "w0": dict(metavar="A,B,C", type=_floats(3), help="horizontal lift initial fiber (h only)"),
    "connection": dict(metavar="PATH", help="connection symbols file"),
    "field": dict(metavar="PATH", action="append", required=True,
                  help="vector field file X, then optionally Y"),
    "scalar": dict(metavar="PATH", action="append", required=True,
                   help="scalar function file f, then optionally g"),
    "point": dict(metavar="X1,X2,X3,Y1,Y2,Y3", type=_floats(6), action="append", required=True,
                  help="tangent point (repeatable)"),
    "samples": dict(metavar="N", type=_samples, default=1000,
                    help="grid size over the curve domain (at least 2)"),
    "format": dict(choices=("csv", "json"), default="csv"),
    "out": dict(metavar="PATH", help="output path (default: stdout)"),
}

# name: (run, help, flags, tolerance names read through --tol)
_COMMANDS = {
    "frenet": (cmd_frenet, "frame, curvature, torsion and residual sweep of a curve",
               ("curve", "samples", "tol", "format", "out"), ("kappa_floor",)),
    "lift": (cmd_lift, "lifted frame sweep with residuals and oracle columns",
             ("curve", "kind", "anchor", "w0", "connection", "samples", "tol", "format", "out"),
             ("kappa_floor",)),
    "fields": (cmd_fields, "lifted field components and identity residuals at points",
               ("field", "scalar", "point", "connection", "format", "out"), ()),
    "verify": (cmd_verify, "run the built-in invariant suite", ("samples", "tol", "format", "out"),
               tuple(f.name for f in dataclasses.fields(ToleranceConfig))),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frenetlift",
        description="Frenet frames of space curves and their tangent-space lifts",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (run, help_text, flags, tolerances) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        for flag in flags:
            if flag == "tol":
                p.add_argument("--tol", metavar="NAME=VALUE", action="append", default=[],
                               type=_tolerance(tolerances),
                               help="tolerance override (repeatable): " + ", ".join(tolerances))
            else:
                p.add_argument("--" + flag, **_FLAGS[flag])
    return parser


def _join_vector_flags(argv: list[str]) -> list[str]:
    """Rewrite '--w0 -1,0,0' as '--w0=-1,0,0', and so for --anchor and --point.

    argparse takes a value such as '-1,0,0' that starts with '-' but is not a
    plain number for an option, and reports the flag before it as empty.
    """
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in ("--anchor", "--w0", "--point") and re.match(r"-[\d.]", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _where(err: Exception) -> str:
    """'x2 at t=0.0, chars 0-6: ' for an error evaluating a curve component."""
    if getattr(err, "component", None) is None:
        return ""
    span = getattr(err, "span", None)
    chars = f", chars {span[0]}-{span[1]}" if span is not None else ""
    return f"x{err.component + 1} at t={err.t!r}{chars}: "


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_join_vector_flags(argv))
    except SystemExit as exc:
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        return args.run(args)
    except ValueError as err:
        print(f"error: {_where(err)}{err}", file=sys.stderr)
        return EXIT_DEGENERATE if isinstance(err, _DEGENERATE) else EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
