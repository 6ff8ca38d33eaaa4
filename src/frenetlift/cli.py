"""Command line front end: frame sweeps, lift reports, field tables, verify.

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
from dataclasses import dataclass, field

from .expr import (
    CurveSpec,
    FormatError,
    ParseError,
    parse_curve_file,
    parse_field_file,
)
from .frenet import (
    DegenerateCurvature,
    GeometryError,
    ToleranceConfig,
    ZeroSpeed,
    frenet_apparatus,
    uniform_grid,
)
from .jets import RankDeficient, ZeroNorm
from .lifts import Connection, LiftKind, TangentPoint, lift_field, parse_connection_file, prop21_check
from .lifted_frenet import LiftedCurve
from .verify import run_checks

__all__ = ["main", "RunConfig", "EXIT_OK", "EXIT_VERIFY_FAILED", "EXIT_INPUT", "EXIT_DEGENERATE"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT = 2
EXIT_DEGENERATE = 3


class InputError(ValueError):
    """Configuration problem that maps to exit code 2."""


@dataclass
class RunConfig:
    """Resolved invocation: inputs, lift parameters, grid and output options."""

    curve_path: str | None = None
    field_paths: list[str] = field(default_factory=list)
    scalar_paths: list[str] = field(default_factory=list)
    connection_path: str | None = None
    kind: str | None = None
    anchor: tuple[float, float, float] | None = None
    w0: tuple[float, float, float] | None = None
    samples: int = 1000
    tolerances: ToleranceConfig = field(default_factory=ToleranceConfig)
    fmt: str = "csv"
    out_path: str | None = None
    points: list[tuple[float, ...]] = field(default_factory=list)

    def __post_init__(self):
        if self.samples < 2:
            raise InputError("--samples must be at least 2")


def _fmt17(x: float) -> str:
    return "%.17g" % x


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as err:
        raise InputError(f"cannot read {path}: {err}") from err


def _parse_floats(text: str, flag: str, n: int) -> tuple[float, ...]:
    parts = text.split(",")
    if len(parts) != n:
        raise InputError(f"{flag} needs {n} comma-separated numbers, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise InputError(f"{flag} components must be numbers, got {text!r}") from None


def _parse_tolerances(pairs: list[str]) -> ToleranceConfig:
    cfg = ToleranceConfig()
    known = {f.name for f in dataclasses.fields(ToleranceConfig)}
    for pair in pairs:
        if "=" not in pair:
            raise InputError(f"--tol expects NAME=VALUE, got {pair!r}")
        name, value = pair.split("=", 1)
        name = name.strip()
        if name not in known:
            raise InputError(f"unknown tolerance {name!r}; known: {sorted(known)}")
        try:
            cfg = cfg.replace(**{name: float(value)})
        except ValueError as err:
            raise InputError(f"--tol {pair!r}: {err}") from err
    return cfg


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _emit_rows(cfg: RunConfig, header: list[str], rows: list[list[float]],
               summary: dict[str, float] | None = None) -> None:
    """Write rows as CSV (summary as a '#' trailer) or JSON (summary as a key)."""
    if cfg.fmt == "csv":
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
    _emit(text, cfg.out_path)


def _load_curve(cfg: RunConfig) -> CurveSpec:
    if cfg.curve_path is None:
        raise InputError("--curve is required")
    return parse_curve_file(_read(cfg.curve_path))


def _load_connection(cfg: RunConfig) -> Connection:
    if cfg.connection_path is None:
        return Connection.flat()
    return parse_connection_file(_read(cfg.connection_path))


def _resolve_kind(cfg: RunConfig, connection: Connection) -> LiftKind:
    if cfg.kind is None:
        raise InputError("--kind is required (v, c or h)")
    if cfg.kind == "v":
        return LiftKind.vertical(cfg.anchor)
    if cfg.kind == "c":
        return LiftKind.complete()
    if cfg.kind == "h":
        if cfg.w0 is None:
            if not connection.is_flat:
                raise InputError("w0 required: horizontal lift with a non-flat connection")
            return LiftKind.horizontal((0.0, 0.0, 0.0))
        return LiftKind.horizontal(cfg.w0)
    raise InputError(f"unknown lift kind {cfg.kind!r}")


# --- subcommands ----------------------------------------------------------------

FRENET_HEADER = (
    ["t", "x1", "x2", "x3"]
    + [f"T{i}" for i in (1, 2, 3)]
    + [f"N{i}" for i in (1, 2, 3)]
    + [f"B{i}" for i in (1, 2, 3)]
    + ["kappa", "tau", "res_T", "res_N", "res_B"]
)


def cmd_frenet(cfg: RunConfig) -> int:
    curve = _load_curve(cfg)
    rows = []
    for t in uniform_grid(curve.t_min, curve.t_max, cfg.samples):
        app = frenet_apparatus(curve, t, cfg.tolerances)
        rows.append(
            [t, *app.point, *app.T, *app.N, *app.B, app.kappa, app.tau, *app.residuals]
        )
    _emit_rows(cfg, FRENET_HEADER, rows)
    return EXIT_OK


LIFT_HEADER = (
    ["t"]
    + [f"p{i}" for i in range(1, 7)]
    + [f"Tl{i}" for i in range(1, 7)]
    + [f"Nl{i}" for i in range(1, 7)]
    + [f"Bl{i}" for i in range(1, 7)]
    + ["kappa_lift", "tau_lift", "res1", "res2", "res3", "oracle_kappa", "oracle_tau"]
)


def cmd_lift(cfg: RunConfig) -> int:
    curve = _load_curve(cfg)
    connection = _load_connection(cfg)
    kind = _resolve_kind(cfg, connection)
    report = LiftedCurve(curve, kind, connection, cfg.tolerances).sweep(
        uniform_grid(curve.t_min, curve.t_max, cfg.samples)
    )
    rows = []
    for i, t in enumerate(report.grid):
        Tl, Nl, Bl = report.frames[i]
        rows.append(
            [
                t,
                *report.points[i],
                *Tl,
                *Nl,
                *Bl,
                report.kappa_lift[i],
                report.tau_lift[i],
                *report.theorem_residuals[i],
                report.oracle_kappa[i],
                report.oracle_tau[i],
            ]
        )
    summary = {
        "max_residual": report.max_residual,
        "max_discrepancy": report.max_discrepancy,
        "frame_ortho_max": report.frame_ortho_max,
        "kappa_spread": report.kappa_spread,
    }
    _emit_rows(cfg, LIFT_HEADER, rows, summary)
    return EXIT_OK


def cmd_fields(cfg: RunConfig) -> int:
    if not cfg.field_paths:
        raise InputError("--field is required (vector field file)")
    if not cfg.scalar_paths:
        raise InputError("--scalar is required (scalar function file)")
    if not cfg.points:
        raise InputError("at least one --point x1,x2,x3,y1,y2,y3 is required")
    X = parse_field_file(_read(cfg.field_paths[0]))
    Y = parse_field_file(_read(cfg.field_paths[1])) if len(cfg.field_paths) > 1 else X
    f = parse_field_file(_read(cfg.scalar_paths[0]))
    g = parse_field_file(_read(cfg.scalar_paths[1])) if len(cfg.scalar_paths) > 1 else f
    if X.kind != "vector" or Y.kind != "vector":
        raise InputError("--field file must define a vector field (X1, X2, X3)")
    if f.kind != "scalar" or g.kind != "scalar":
        raise InputError("--scalar file must define a scalar function (f)")
    connection = _load_connection(cfg)

    header: list[str] | None = None
    rows = []
    for coords in cfg.points:
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
    _emit_rows(cfg, header, rows)
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    results = run_checks(cfg.tolerances, samples=cfg.samples)
    if cfg.fmt == "csv":
        text = "\n".join(r.line() for r in results) + "\n"
    else:
        payload = [
            {"name": r.name, "value": r.value, "bound": r.bound, "pass": r.passed}
            for r in results
        ]
        text = json.dumps(payload, indent=2) + "\n"
    _emit(text, cfg.out_path)
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY_FAILED


# --- argument plumbing ---------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frenetlift",
        description="Frenet frames of space curves and their tangent-space lifts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser):
        p.add_argument("--curve", metavar="PATH", help="curve definition file")
        p.add_argument("--field", metavar="PATH", action="append", default=[],
                       help="vector field file (repeatable)")
        p.add_argument("--scalar", metavar="PATH", action="append", default=[],
                       help="scalar function file (repeatable)")
        p.add_argument("--connection", metavar="PATH", help="connection symbols file")
        p.add_argument("--kind", choices=("v", "c", "h"), help="lift kind")
        p.add_argument("--anchor", metavar="A,B,C", help="vertical lift anchor point")
        p.add_argument("--w0", metavar="A,B,C", help="horizontal lift initial fiber")
        p.add_argument("--samples", type=int, default=1000, metavar="N",
                       help="grid size over the curve domain")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", metavar="PATH", help="output path (default: stdout)")
        p.add_argument("--tol", metavar="NAME=VALUE", action="append", default=[],
                       help="tolerance override (repeatable)")

    for name, help_text in (
        ("frenet", "frame, curvature, torsion and residual sweep of a curve"),
        ("lift", "lifted frame sweep with residuals and oracle columns"),
        ("fields", "lifted field components and identity residuals at points"),
        ("verify", "run the built-in invariant suite"),
    ):
        p = sub.add_parser(name, help=help_text)
        common(p)
        if name == "fields":
            p.add_argument("--point", metavar="X1,X2,X3,Y1,Y2,Y3", action="append",
                           default=[], help="tangent point (repeatable)")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    anchor = _parse_floats(args.anchor, "--anchor", 3) if args.anchor else None
    w0 = _parse_floats(args.w0, "--w0", 3) if args.w0 else None
    points = [_parse_floats(text, "--point", 6) for text in getattr(args, "point", [])]
    return RunConfig(
        curve_path=args.curve,
        field_paths=list(args.field),
        scalar_paths=list(args.scalar),
        connection_path=args.connection,
        kind=args.kind,
        anchor=anchor,
        w0=w0,
        samples=args.samples,
        tolerances=_parse_tolerances(args.tol),
        fmt=args.format,
        out_path=args.out,
        points=points,
    )


_COMMANDS = {
    "frenet": cmd_frenet,
    "lift": cmd_lift,
    "fields": cmd_fields,
    "verify": cmd_verify,
}


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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_join_vector_flags(argv))
    except SystemExit as exc:
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        cfg = _config_from_args(args)
        return _COMMANDS[args.command](cfg)
    except (DegenerateCurvature, ZeroSpeed, RankDeficient, ZeroNorm) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (InputError, FormatError, ParseError, GeometryError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
