"""Seeded outcomes of the frame routes, pinned by one digest.

Each case draws point jets from a fixed seed and runs ``frame_jets`` (in
R^3) or ``generalized_frenet`` (in R^2 to R^6, every frame size m from 2 to
the dimension) on them, and gives one line: every float of the result by
``float.hex`` (a NaN prints as ``nan``), or the error's type, message,
``index`` and ``t``.  The jets mix ordinary coefficients with entries near
1e154 (whose squares overflow) and 1e-160 (whose squares underflow), signed
zeros, infinities and NaNs.  Some cases make one derivative a multiple of
earlier ones, zero the velocity, cut the order, or put each coefficient
column at its own magnitude, so rank deficiency, zero speed, zero norms,
degenerate curvature and the finiteness tests of products, sums, norms and
reciprocals are reached.
The sha256 of the lines is pinned below.  It needs no pytest:

    PYTHONPATH=src python tests/frame_outcomes.py

prints the digest and exits 1 if it does not match the pinned one, and

    PYTHONPATH=src python tests/frame_outcomes.py --dump

prints every line instead, to compare two builds line by line.
"""

import hashlib
import math
import platform
import random
import sys

from frenetlift.frenet import ToleranceConfig, frame_jets, generalized_frenet

CASES = 9000
SEED = 20261022
DIGEST = "188215645347448593a44b844930349ddedf7722d9e42cd4094ac5aceaf21793"

EXTREMES = (0.0, -0.0, 1e154, -1e154, 3e153, 1e-160, -1e-160, 1e200, 1e300, -1e308, 1.7e308,
            math.inf, -math.inf, math.nan)
RANK_TOLS = (1e-9, 1e-9, 1e-9, 0.0, 1e-3)
KAPPA_FLOORS = (1e-9, 1e-9, 1e-3, 10.0)
COLUMN_SCALES = (3e-12, 1e-11, 2e-9, 1e-6, 1.0, 1e150, 1e290, 1e300, 1e305, 1e307)


def _coefficient(rng: random.Random, rare: float) -> float:
    if rng.random() < rare:
        return rng.choice(EXTREMES)
    return rng.uniform(-2.0, 2.0)


def _point_jets(rng: random.Random, dim: int, order: int) -> list[list[float]]:
    """dim components of order ``order``; sometimes with one coefficient
    column a combination of earlier ones (a dependent derivative, or a zero
    velocity), and sometimes scaled to an extreme magnitude."""
    rare = rng.choice((0.0, 0.0, 0.02, 0.1))
    pj = [[_coefficient(rng, rare) for _ in range(order + 1)] for _ in range(dim)]
    roll = rng.random()
    if roll < 0.15 and order >= 2:
        k = rng.randint(2, order)
        j = rng.randint(1, k - 1)
        c = rng.choice((0.0, 1.0, -0.5, 3.0, 1e-12))
        for cs in pj:
            cs[k] = c * cs[j] * rng.choice((1.0, 1.0, 1.0 + 1e-15))
    elif roll < 0.2:
        for cs in pj:
            cs[1] = rng.choice((0.0, -0.0, 1e-13))
    elif roll < 0.3:
        scale = rng.choice((1e150, 1e-150, 1e100, 1e-100, 1e154))
        pj = [[x * scale for x in cs] for cs in pj]
    elif roll < 0.4:
        # Coefficient k times f, k times over: small values with large
        # slopes, or the reverse.
        f = rng.choice((1e60, 1e-60, 1e100, 1e-100, 1e150))
        for cs in pj:
            scale = 1.0
            for k in range(len(cs)):
                cs[k] *= scale
                scale *= f
    elif roll < 0.6:
        # Each coefficient column at its own magnitude, from 1e-300 to 1e300,
        # or near the norm and rank floors and the overflow threshold.
        for k in range(order + 1):
            scale = (10.0 ** rng.uniform(-300.0, 300.0) if rng.random() < 0.5
                     else rng.choice(COLUMN_SCALES))
            for cs in pj:
                cs[k] *= scale
    return pj


def _hex(values) -> str:
    return ",".join(x.hex() for x in values)


def _error(err: Exception) -> str:
    return (f"{type(err).__name__} {str(err)!r} index={getattr(err, 'index', None)} "
            f"t={getattr(err, 't', None)!r}")


def _generalized_line(rng: random.Random) -> str:
    dim = rng.randint(2, 6)
    m = rng.randint(2, dim)
    order = m + rng.choice((0, 1, 1, 1, 2, 2, 2, 3, 3, 3))  # order m is too low
    pj = _point_jets(rng, dim, order)
    rank_tol = rng.choice(RANK_TOLS)
    head = f"generalized_frenet dim={dim} m={m} order={order} rank_tol={rank_tol!r}: "
    try:
        gen = generalized_frenet(pj, m, rank_tol)
        # The matrix is read after the frame, as a caller reads it.
        parts = ([_hex(v) for v in gen.frame] + [_hex(d) for d in gen.slopes]
                 + [_hex(gen.chis), gen.speed.hex()] + [_hex(row) for row in gen.matrix])
    except Exception as err:  # every error is an outcome to record
        return head + _error(err)
    return head + " ".join(parts)


def _frame_line(rng: random.Random) -> str:
    order = rng.choice((3, 4, 4, 5, 5, 6))
    pj = _point_jets(rng, 3, order)
    cfg = ToleranceConfig(kappa_floor=rng.choice(KAPPA_FLOORS))
    t = rng.uniform(-2.0, 2.0)
    head = f"frame_jets order={order} kappa_floor={cfg.kappa_floor!r}: "
    try:
        fj = frame_jets(pj, cfg, t)
        parts = ([_hex(c) for V in (fj.T, fj.N, fj.B) for c in V]
                 + [_hex(fj.speed), fj.kappa.hex(), fj.tau.hex()])
    except Exception as err:  # every error is an outcome to record
        return head + _error(err)
    return head + " ".join(parts)


def outcome_lines() -> list[str]:
    """One line per case: two generalized_frenet cases, then one frame_jets
    case, in turn."""
    rng = random.Random(SEED)
    draws = (_generalized_line, _generalized_line, _frame_line)
    return [f"{case} {draws[case % 3](rng)}" for case in range(CASES)]


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
