"""Seeded outcomes of the lift identity suite, pinned by one digest.

Each case draws two vector fields X, Y and two scalars f, g (the polynomial
quadruples that ``verify`` draws, or fields of hostile trees over extreme
numbers, ``sqrt``, ``log``, ``exp`` and ``/``), a connection and a tangent
point whose coordinates may be +-0.0, +-1e200, 1e154 or -1e103 (near
overflow in products), and gives one line per
outcome:

* at the point, ``prop21_check`` with the flat connection, then with the
  drawn one, then with the flat one again;
* at an equal fresh point, each of the 12 lifts of X, Y, X+Y and fX (kinds
  v, c and h) through ``LiftedField.at``, then each of the 10 pairings
  X^v(s^v), X^c(s^v), X^v(s^c), X^c(s^c) and X^H(s^v) for s = f, g
  through ``apply_field``.

A number prints by ``float.hex`` (a NaN as ``nan``: its sign bit is not an
outcome), an error as its type, message and span.  The sha256 of the lines
is pinned below.  It needs no pytest:

    PYTHONPATH=src python tests/suite_outcomes.py

prints the digest and exits 1 if it does not match the pinned one, and

    PYTHONPATH=src python tests/suite_outcomes.py --dump

prints every line instead, to compare two builds line by line.
"""

import hashlib
import math
import platform
import random
import sys

from frenetlift.expr import FieldSpec, parse_expr
from frenetlift.lifts import (
    Connection, LiftedField, TangentPoint, apply_field, field_scale, field_sum, prop21_check,
)
from frenetlift.verify import random_connection, random_quadruple

CASES = 600
SEED = 20261021
DIGEST = "0826a17124dc80129651e215d312d4a8c2327081dd5c3297d89263c737932dcc"

NAMES = ("x1", "x2", "x3")
FUNCTIONS = ("sqrt", "log", "exp", "sin")
LITERALS = ("0", "(-0)", "1", "2", "0.5", "1e-300", "1e154", "1e200", "1e307", "1e308")
COORDINATES = (0.0, -0.0, 1e200, -1e200, 1e154, -1e103)
KINDS = ("vertical", "complete", "horizontal")
PAIRINGS = (("vertical", "v"), ("complete", "v"), ("vertical", "c"), ("complete", "c"),
            ("horizontal", "v"))


def _text(rng: random.Random, depth: int) -> str:
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(NAMES) if rng.random() < 0.6 else rng.choice(LITERALS)
    roll = rng.random()
    if roll < 0.55:
        return f"({_text(rng, depth - 1)}){rng.choice('+-*/')}({_text(rng, depth - 1)})"
    if roll < 0.65:
        return f"-({_text(rng, depth - 1)})"
    return f"{rng.choice(FUNCTIONS)}({_text(rng, depth - 1)})"


def _hostile(rng: random.Random, kind: str, n: int) -> FieldSpec:
    return FieldSpec(kind, tuple(parse_expr(_text(rng, rng.randint(1, 3)), NAMES)
                                 for _ in range(n)))


def _fields(rng: random.Random, case: int):
    """X, Y, f, g: verify's quadruple on even cases, hostile trees on odd."""
    if case % 2 == 0:
        return random_quadruple(rng)
    return (_hostile(rng, "vector", 3), _hostile(rng, "vector", 3),
            _hostile(rng, "scalar", 1), _hostile(rng, "scalar", 1))


def _connection(rng: random.Random) -> Connection:
    """verify's dense random connection, or one or two symbols, which keep
    the signs of zero fiber products."""
    if rng.random() < 0.5:
        return random_connection(rng)
    entries = {tuple(rng.randint(1, 3) for _ in range(3)): rng.choice((0.3, -0.2, 1e200))
               for _ in range(rng.randint(1, 2))}
    return Connection.from_entries(entries)


def _coordinates(rng: random.Random) -> tuple:
    return tuple(rng.choice(COORDINATES) if rng.random() < 0.2 else rng.uniform(-3.0, 3.0)
                 for _ in range(3))


def _hex(value: float) -> str:
    return "nan" if math.isnan(value) else value.hex()


def _outcome(run) -> str:
    try:
        result = run()
    except Exception as err:  # every error is an outcome to record
        return f"{type(err).__name__} {str(err)!r} span={getattr(err, 'span', None)}"
    if isinstance(result, dict):
        return " ".join(f"{name}={_hex(v)}" for name, v in result.items())
    if isinstance(result, float):
        return _hex(result)
    return ",".join(map(_hex, result))


def _case_lines(rng: random.Random, case: int) -> list[str]:
    X, Y, f, g = _fields(rng, case)
    G = _connection(rng)
    x, y = _coordinates(rng), _coordinates(rng)
    p = TangentPoint(x, y)
    flat = Connection.flat()
    lines = [f"suite {tag}: " + _outcome(lambda C=C: prop21_check(X, Y, f, g, C, p).residuals)
             for tag, C in (("flat", flat), ("G", G), ("flat again", flat))]
    q = TangentPoint(x, y)
    XY, fX = field_sum(X, Y), field_scale(f, X)
    for name, F in (("X", X), ("Y", Y), ("X+Y", XY), ("fX", fX)):
        for kind in KINDS:
            lines.append(f"{name}^{kind[0]}: "
                         + _outcome(lambda: LiftedField(F, kind, G).at(q).as_tuple()))
    for tag, s in (("f", f), ("g", g)):
        for kind, lift in PAIRINGS:
            lines.append(f"X^{kind[0]}({tag}^{lift}): "
                         + _outcome(lambda: apply_field(LiftedField(X, kind, G), (lift, s), q)))
    return lines


def outcome_lines() -> list[str]:
    """One line per outcome, case by case."""
    rng = random.Random(SEED)
    lines = []
    for case in range(CASES):
        lines.extend(f"{case} {line}" for line in _case_lines(rng, case))
    return lines


def main() -> int:
    lines = outcome_lines()
    if sys.argv[1:] == ["--dump"]:
        print("\n".join(lines))
        return 0
    got = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    ok = got == DIGEST
    verdict = "matches the pinned digest" if ok else f"does NOT match the pinned {DIGEST}"
    print(f"Python {platform.python_version()}: {len(lines)} outcomes of {CASES} cases, "
          f"sha256 {got} {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
