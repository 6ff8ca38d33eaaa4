"""Seeded outcomes of the expression evaluators, pinned by one digest.

Each case draws expressions over shared subexpressions, extreme numbers and
points from a fixed seed, runs one evaluator and gives one line: every
coefficient by ``float.hex`` (a NaN prints as ``nan``), or the error's
type, message, span, component and t.  The evaluators are ``eval_jet`` at
orders 0 to 7, ``curve_point_jets`` on curves whose components share
subtrees, ``eval_forward`` and ``eval_second``.  The sha256 of the lines is
pinned below.  It needs no pytest:

    PYTHONPATH=src python tests/evaluator_outcomes.py

prints the digest and exits 1 if it does not match the pinned one, and

    PYTHONPATH=src python tests/evaluator_outcomes.py --dump

prints every line instead, to compare two builds line by line.
"""

import hashlib
import platform
import random
import sys

from frenetlift.expr import CurveSpec, eval_forward, eval_jet, eval_second, parse_expr
from frenetlift.frenet import curve_point_jets
from frenetlift.jets import Jet

CASES = 4000
SEED = 20261020
DIGEST = "5b020e1259f39595af8257295e4fe0dcdd58582e965cf0393dea95eb652c40a8"

NAMES = ("x1", "x2", "x3")
FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt", "sinh", "cosh")
LITERALS = ("0", "1", "2", "3", "0.5", "2.5", "0.1", "1e-320", "1e-150", "1e200", "1e308", "1e999")
EXPONENTS = ("2", "3", "4", "-1", "-2", "-3", "0", "(-0)", "0.5", "-0.5", "2.5", "1e999")
POINTS = (0.0, -0.0, 1e-300, 1e-160, 1e160, -1e300, 1e300, 3.0)


def _text(rng: random.Random, depth: int, names, pool: list) -> str:
    """A random expression; one in four subexpressions repeats the text of
    an earlier one, so trees hold equal subtrees at other spans."""
    if pool and rng.random() < 0.25:
        return rng.choice(pool)
    if depth == 0 or rng.random() < 0.2:
        return rng.choice(names) if rng.random() < 0.6 else rng.choice(LITERALS)
    roll = rng.random()
    if roll < 0.4:
        op = rng.choice("+-*/")
        text = f"({_text(rng, depth - 1, names, pool)}){op}({_text(rng, depth - 1, names, pool)})"
    elif roll < 0.5:
        text = f"-({_text(rng, depth - 1, names, pool)})"
    elif roll < 0.85:
        text = f"{rng.choice(FUNCTIONS)}({_text(rng, depth - 1, names, pool)})"
    else:
        text = f"({_text(rng, depth - 1, names, pool)})^{rng.choice(EXPONENTS)}"
    pool.append(text)
    return text


def _trees(rng: random.Random, count: int, names) -> list:
    pool: list = []
    return [parse_expr(_text(rng, rng.randint(1, 5), names, pool), names) for _ in range(count)]


def _number(rng: random.Random) -> float:
    return rng.choice(POINTS) if rng.random() < 0.1 else rng.uniform(-2.0, 2.0)


def _outcome(run) -> str:
    try:
        result = run()
    except Exception as err:  # every error is an outcome to record
        return (f"{type(err).__name__} {str(err)!r} span={getattr(err, 'span', None)} "
                f"component={getattr(err, 'component', None)} t={getattr(err, 't', None)!r}")
    return " ".join(",".join(x.hex() for x in coeffs) for coeffs in result)


def _jet_lines(rng: random.Random) -> list[str]:
    (ast,) = _trees(rng, 1, NAMES)
    lines = []
    for order in (rng.randrange(8), rng.randrange(8)):
        bindings = {name: Jet([_number(rng) for _ in range(order + 1)]) for name in NAMES}
        lines.append(f"eval_jet order {order}: "
                     + _outcome(lambda: [eval_jet(ast, bindings).coeffs]))
    return lines


def _curve_lines(rng: random.Random) -> list[str]:
    curve = CurveSpec(tuple(_trees(rng, 3, ("t",))), -2.0, 2.0)
    lines = []
    for order in (rng.randrange(8), rng.randrange(8)):
        t = rng.uniform(-2.0, 2.0)
        lines.append(f"curve_point_jets order {order}: "
                     + _outcome(lambda: curve_point_jets(curve, t, order)))
    return lines


def _directional_lines(rng: random.Random, route, width: int) -> list[str]:
    asts = _trees(rng, rng.randint(1, 3), NAMES)
    x = [_number(rng) for _ in NAMES]
    points = [{name: (v, _number(rng)) + (0.0,) * (width - 2) for name, v in zip(NAMES, x)}
              for _ in range(rng.randint(1, 3))]
    return [f"{route.__name__}: "
            + _outcome(lambda: [out for outs in route(asts, points) for out in outs])]


def outcome_lines() -> list[str]:
    """One line per evaluation, case by case, the evaluators in turn."""
    rng = random.Random(SEED)
    lines = []
    draws = (_jet_lines, _curve_lines, lambda rng: _directional_lines(rng, eval_forward, 2),
             lambda rng: _directional_lines(rng, eval_second, 3))
    for case in range(CASES):
        lines.extend(f"{case} {line}" for line in draws[case % 4](rng))
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
