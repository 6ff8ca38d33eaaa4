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
import math
import re
import sys

from .expr import FieldSpec, FormatError, parse_curve_file, parse_field_file
from .frenet import (
    DegenerateCurvature,
    ToleranceConfig,
    ZeroSpeed,
    frenet_apparatus,
    uniform_grid,
)
from .jets import JetError, RankDeficient, ZeroNorm
from .lifts import (
    Connection,
    LiftKind,
    TangentPoint,
    _field_pass,
    lift_field,
    parse_connection_file,
    prop21_check,
)
from .lifted_frenet import LiftedCurve
from .verify import run_checks

__all__ = ["main", "EXIT_OK", "EXIT_VERIFY_FAILED", "EXIT_INPUT", "EXIT_DEGENERATE"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT = 2
EXIT_DEGENERATE = 3

# Work cap on --samples: every command holds all its rows in memory.
MAX_SAMPLES = 1_000_000

_DEGENERATE = (DegenerateCurvature, ZeroSpeed, RankDeficient, ZeroNorm)


class InputError(ValueError):
    """Configuration problem that maps to exit code 2."""


def _fmt17(x: float) -> str:
    return "%.17g" % x


def _load(path: str, parse):
    """parse(text of the file at path); a format error names the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise InputError(f"cannot read {path}: {err}") from err
    try:
        return parse(text)
    except FormatError as err:
        raise InputError(f"{path}: {err}") from err


def _floats(n: int):
    """Type for a flag taking n comma-separated numbers."""

    def parse(text: str) -> tuple[float, ...]:
        try:
            values = tuple(float(p) for p in text.split(","))
        except ValueError:
            values = ()
        if len(values) != n:
            raise argparse.ArgumentTypeError(f"needs {n} comma-separated numbers, got {text!r}")
        if not all(math.isfinite(v) for v in values):
            raise argparse.ArgumentTypeError(f"needs finite numbers, got {text!r}")
        return values

    return parse


def _samples(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = 0
    if not 2 <= n <= MAX_SAMPLES:
        raise argparse.ArgumentTypeError(
            f"must be an integer from 2 to {MAX_SAMPLES} (MAX_SAMPLES), got {text!r}")
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


def _json(payload) -> str:
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _json_number(v: float) -> float | None:
    """v, or None (JSON null) where v is not finite: JSON has no NaN or inf."""
    return v if math.isfinite(v) else None


def _emit_rows(args: argparse.Namespace, header: list[str], rows: list[list[float]],
               summary: dict[str, float] | None = None) -> None:
    """Write rows as CSV (summary as a '#' trailer) or JSON (summary as a key)."""
    if args.format == "csv":
        row_format = ",".join(["%.17g"] * len(header))
        lines = [",".join(header), *[row_format % tuple(row) for row in rows]]
        if summary is not None:
            lines.append("# " + " ".join(f"{k}={_fmt17(v)}" for k, v in summary.items()))
        text = "\n".join(lines) + "\n"
    else:
        payload = {"rows": [dict(zip(header, map(_json_number, r))) for r in rows]}
        if summary is not None:
            payload["summary"] = {k: _json_number(v) for k, v in summary.items()}
        text = _json(payload)
    _emit(text, args.out)


def _load_connection(path: str | None) -> Connection:
    if path is None:
        return Connection.flat()
    return _load(path, parse_connection_file)


# --- subcommands ----------------------------------------------------------------

FRENET_HEADER = (
    ["t", "x1", "x2", "x3"]
    + [f"T{i}" for i in (1, 2, 3)]
    + [f"N{i}" for i in (1, 2, 3)]
    + [f"B{i}" for i in (1, 2, 3)]
    + ["kappa", "tau", "res_T", "res_N", "res_B"]
)


def cmd_frenet(args: argparse.Namespace) -> int:
    curve = _load(args.curve, parse_curve_file)
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
    curve = _load(args.curve, parse_curve_file)
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


def _field_files(paths: list[str], flag: str, kind: str, what: str):
    """(path, spec) of at most two field files of one kind."""
    if len(paths) > 2:
        raise InputError(f"{flag} takes at most 2 files, got {len(paths)}")
    files = [(path, _load(path, parse_field_file)) for path in paths]
    if any(spec.kind != kind for _, spec in files):
        raise InputError(f"{flag} file must define a {what}")
    return files


def _first_failing_key(files, x, err: JetError) -> str:
    """'PATH KEY ' of the first file component whose own forward pass at
    base point x raises the same error as ``err`` (type, message and span),
    or ''."""
    for path, spec in files:
        keys = ("f",) if spec.kind == "scalar" else ("X1", "X2", "X3")
        for key, ast in zip(keys, spec.components):
            try:
                _field_pass(FieldSpec("scalar", (ast,)), x)
            except JetError as own:
                if (type(own), own.args, getattr(own, "span", None)) == (
                        type(err), err.args, getattr(err, "span", None)):
                    return f"{path} {key} "
    return ""


def cmd_fields(args: argparse.Namespace) -> int:
    vectors = _field_files(args.field, "--field", "vector", "vector field (X1, X2, X3)")
    scalars = _field_files(args.scalar, "--scalar", "scalar", "scalar function (f)")
    X, Y = vectors[0][1], vectors[-1][1]
    f, g = scalars[0][1], scalars[-1][1]
    connection = _load_connection(args.connection)

    header: list[str] | None = None
    rows = []
    for coords in args.point:
        p = TangentPoint(coords[:3], coords[3:])
        try:
            lifted = [
                x
                for kind in ("vertical", "complete", "horizontal")
                for x in lift_field(X, kind, connection).at(p).as_tuple()
            ]
            residuals = prop21_check(X, Y, f, g, connection, p).residuals
        except JetError as err:
            # Only on the error path: name the point and the failing file.
            key = _first_failing_key(vectors + scalars, p.x, err)
            err.origin = f" ({key}at point={coords!r})"
            raise
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
            {"name": r.name, "value": _json_number(r.value), "bound": _json_number(r.bound),
             "pass": r.passed}
            for r in results
        ]
        text = _json(payload)
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
                    help=f"grid size over the curve domain (2 to {MAX_SAMPLES})"),
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
    """'x2 at t=0.0, chars 0-6: ' for an error evaluating a curve component,
    'at t=0.0: ' for an overflow in the frame arithmetic at t, 'chars 0-6: '
    for an error evaluating any other expression."""
    parts = []
    if getattr(err, "component", None) is not None:
        parts.append(f"x{err.component + 1} at t={err.t!r}")
    elif isinstance(err, JetError) and hasattr(err, "t"):
        parts.append(f"at t={err.t!r}")
    span = getattr(err, "span", None)
    if span is not None:
        parts.append(f"chars {span[0]}-{span[1]}")
    return ", ".join(parts) + ": " if parts else ""


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
        print(f"error: {_where(err)}{err}{getattr(err, 'origin', '')}", file=sys.stderr)
        return EXIT_DEGENERATE if isinstance(err, _DEGENERATE) else EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
