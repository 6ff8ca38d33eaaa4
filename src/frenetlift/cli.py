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
ends, and is byte-identical across runs on identical input.  A CSV row is
written as soon as its point is computed; ``--out`` is replaced on success.
An output that cannot be written, ``--out`` or stdout, is an input error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import errno
import functools
import importlib.util
import json
import math
import os
import re
import stat
import sys
import tempfile
from itertools import chain

from .expr import FieldSpec, FormatError, parse_curve_file, parse_field_file, parse_number
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

__all__ = ["main", "EXIT_OK", "EXIT_VERIFY_FAILED", "EXIT_INPUT", "EXIT_DEGENERATE"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT = 2
EXIT_DEGENERATE = 3

# Work cap on --samples.  CSV rows are written as they are computed; JSON
# output is the one format that holds all its rows in memory.
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
    except (OSError, UnicodeDecodeError) as err:
        raise InputError(f"cannot read {path}: {err}") from err
    try:
        return parse(text)
    except FormatError as err:
        raise InputError(f"{path}: {err}") from err


def _floats(n: int):
    """Type for a flag taking n comma-separated numbers."""

    def parse(text: str) -> tuple[float, ...]:
        try:
            values = tuple(parse_number(p) for p in text.split(","))
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
        n = parse_number(text)
    except ValueError:
        n = 0.0
    if not (2 <= n <= MAX_SAMPLES and n.is_integer()):
        raise argparse.ArgumentTypeError(
            f"must be an integer from 2 to {MAX_SAMPLES} (MAX_SAMPLES), got {text!r}")
    return int(n)


def _tolerance(names: tuple[str, ...]):
    """Type for one ``--tol NAME=VALUE`` pair over the names a command reads."""

    def parse(pair: str) -> tuple[str, float]:
        name, sep, value = pair.partition("=")
        name = name.strip()
        if not sep or name not in names:
            raise argparse.ArgumentTypeError(
                f"expects NAME=VALUE, NAME one of {', '.join(names)}; got {pair!r}")
        try:
            tolerances = ToleranceConfig(**{name: parse_number(value)})
        except ValueError as err:
            raise argparse.ArgumentTypeError(f"{pair!r}: {err}") from None
        return name, getattr(tolerances, name)

    return parse


@contextlib.contextmanager
def _output(path: str | None):
    """Stdout, or a temporary file beside the file at ``path`` that replaces
    it once the command has succeeded, with its permission bits (0o666 less
    the umask for a new file): a failed run leaves an existing file as it
    was and creates none.  A file the user may not write is refused, and a
    path that is not a regular file (a device, a pipe) is written in place.
    OSError is InputError, for stdout too (a full disk, a closed pipe)."""
    if path is None:
        try:
            yield sys.stdout
            sys.stdout.flush()
        except OSError as err:
            # Point stdout's descriptor at os.devnull, so the interpreter's
            # flush at exit writes what is left in the buffer there instead
            # of failing again with "Exception ignored".  A stdout without a
            # descriptor raises io.UnsupportedOperation, an OSError.
            with contextlib.suppress(OSError):
                fd = sys.stdout.fileno()
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, fd)
                os.close(devnull)
            raise InputError(f"cannot write stdout: {err.strerror or err}") from err
        return
    target = os.path.realpath(path)
    tmp = None
    try:
        if os.path.exists(target) and not os.path.isfile(target):
            fh = open(target, "w", encoding="utf-8", newline="")
        else:
            if os.path.exists(target) and not os.access(target, os.W_OK):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
            umask = os.umask(0o022)
            os.umask(umask)
            mode = stat.S_IMODE(os.stat(target).st_mode) if os.path.exists(target) else 0o666 & ~umask
            fd, tmp = tempfile.mkstemp(".tmp", os.path.basename(target) + ".", os.path.dirname(target))
            fh = os.fdopen(fd, "w", encoding="utf-8", newline="")
        with fh:
            yield fh
        if tmp is not None:
            os.chmod(tmp, mode)
            os.replace(tmp, target)
            tmp = None
    except OSError as err:
        raise InputError(f"cannot write {path}: {err.strerror or err}") from err
    finally:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.remove(tmp)


def _json(payload) -> str:
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _json_number(v: float) -> float | None:
    """v, or None (JSON null) where v is not finite: JSON has no NaN or inf."""
    return v if math.isfinite(v) else None


def _emit_rows(args: argparse.Namespace, rows, summary: dict[str, float] | None = None) -> None:
    """Write the header and the number tuples that the iterator ``rows``
    yields: CSV lines as they come, or one JSON document built in memory.
    The output opens before the first row; ``summary``, which the rows fill
    in, becomes the '#' trailer or the "summary" key."""
    with _output(args.out) as fh:
        header = next(rows)
        if args.format == "csv":
            fh.write(",".join(header) + "\n")
            row_format = ",".join(["%.17g"] * len(header)) + "\n"
            for row in rows:
                fh.write(row_format % row)
            if summary is not None:
                fh.write("# " + " ".join(f"{k}={_fmt17(v)}" for k, v in summary.items()) + "\n")
        else:
            payload = {"rows": [dict(zip(header, map(_json_number, r))) for r in rows]}
            if summary is not None:
                payload["summary"] = {k: _json_number(v) for k, v in summary.items()}
            fh.write(_json(payload))


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

    def rows():
        yield FRENET_HEADER
        for t in uniform_grid(curve.t_min, curve.t_max, args.samples):
            app = frenet_apparatus(curve, t, tolerances)
            yield (t, *app.point, *app.T, *app.N, *app.B, app.kappa, app.tau, *app.residuals)

    _emit_rows(args, rows())
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
    records = LiftedCurve(curve, kind, connection, ToleranceConfig(**dict(args.tol))).sweep(
        uniform_grid(curve.t_min, curve.t_max, args.samples)
    )
    summary: dict[str, float] = {}
    _emit_rows(args, _lift_rows(records, summary), summary)
    return EXIT_OK


def _lift_rows(records, summary: dict[str, float]):
    """LIFT_HEADER, then one row per record; then ``summary`` gets the
    trailer.  Each statistic, seeded by the first record, takes a value only
    where builtin max or min over the column would (a NaN it holds stays)."""
    yield LIFT_HEADER
    first = next(records)
    res, hi, lo, disc, ortho = max(first.residuals), first.kappa_lift, first.kappa_lift, None, 0.0
    for r in chain((first,), records):
        top, k, o = max(r.residuals), r.kappa_lift, r.oracle_kappa
        res = top if top > res else res
        ortho = r.ortho_max if r.ortho_max > ortho else ortho
        if o == o and (disc is None or abs(k - o) > disc):  # o is not NaN
            disc = abs(k - o)
        hi, lo = (k if k > hi else hi), (k if k < lo else lo)
        yield (r.t, *r.point, *r.frame[0], *r.frame[1], *r.frame[2], k, r.tau_lift,
               *r.residuals, o, r.oracle_tau)
    summary.update(max_residual=res, max_discrepancy=math.nan if disc is None else disc,
                   frame_ortho_max=ortho, kappa_spread=hi - lo)


def _field_files(paths: list[str], flag: str, kind: str, what: str):
    """(path, spec) of at most two field files of one kind."""
    if len(paths) > 2:
        raise InputError(f"{flag} takes at most 2 files, got {len(paths)}")
    files = [(path, _load(path, parse_field_file)) for path in paths]
    if any(spec.kind != kind for _, spec in files):
        raise InputError(f"{flag} file must define a {what}")
    return files


def _first_failing_key(files, p: TangentPoint, err: JetError) -> str:
    """'PATH KEY ' of the first file component whose own forward pass at
    the base point of p raises the same error as ``err`` (type, message and
    span), or ''."""
    for path, spec in files:
        keys = ("f",) if spec.kind == "scalar" else ("X1", "X2", "X3")
        for key, ast in zip(keys, spec.components):
            try:
                _field_pass(FieldSpec("scalar", (ast,)), p)
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

    def rows():
        for n, coords in enumerate(args.point):
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
                key = _first_failing_key(vectors + scalars, p, err)
                err.origin = f" ({key}at point={coords!r})"
                raise
            if n == 0:
                # The residual names come with the first point's residuals.
                yield (
                    [f"x{i}" for i in (1, 2, 3)]
                    + [f"y{i}" for i in (1, 2, 3)]
                    + [f"{tag}{i}" for tag in ("v", "c", "h") for i in range(1, 7)]
                    + [f"res_{name}" for name in residuals]
                )
            yield (*coords, *lifted, *residuals.values())

    _emit_rows(args, rows())
    return EXIT_OK


def _lazy_module(name: str):
    """The module ``name``, as ``sys.modules`` holds it if it is loaded, and
    otherwise put there and on its package as a lazy module, whose code runs
    on the first read of one of its attributes (``importlib.util.LazyLoader``).
    So a process that never reads it never compiles its source, yet every
    module of the package is in ``sys.modules`` once ``cli`` is imported,
    as perfbench's tracer expects."""
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.find_spec(name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        package, _, child = name.rpartition(".")
        setattr(sys.modules[package], child, module)
    return module


_verify = _lazy_module(f"{__package__}.verify")


def run_checks(*args, **kwargs):
    """``verify.run_checks``; the ``verify`` module loads on the first call."""
    return _verify.run_checks(*args, **kwargs)


def cmd_verify(args: argparse.Namespace) -> int:
    with _output(args.out) as fh:
        results = run_checks(ToleranceConfig(**dict(args.tol)), samples=args.samples)
        if args.format == "csv":
            fh.write("\n".join(r.line() for r in results) + "\n")
        else:
            fh.write(_json([
                {"name": r.name, "value": _json_number(r.value), "bound": _json_number(r.bound),
                 "pass": r.passed}
                for r in results
            ]))
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
        if out and out[-1] in ("--anchor", "--w0", "--point") and re.match(r"-[0-9.]", arg):
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on first use and shared for the rest
    of the process.  Parsing leaves it unchanged: each call gets a fresh
    namespace, and the ``append`` action copies its default list before
    appending to it, so no flag carries over from one call to the next."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parser().parse_args(_join_vector_flags(argv))
    except SystemExit as exc:
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        return args.run(args)
    except ValueError as err:
        # A stderr that cannot be written loses the message, not the code.
        with contextlib.suppress(OSError):
            print(f"error: {_where(err)}{err}{getattr(err, 'origin', '')}", file=sys.stderr)
        return EXIT_DEGENERATE if isinstance(err, _DEGENERATE) else EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
