"""Built-in invariant suite with machine-readable results.

Every check compares a measured quantity against a bound, either fixed by
the contract it validates or taken from the active tolerance configuration.
The same functions back the ``verify`` subcommand and the acceptance tests,
so tightening a tolerance flips both.

Random inputs are drawn from seeded generators: the suite is deterministic
run to run.  The expression generator used for the autodiff cross-check
rejects candidates whose Taylor coefficients grow past a small cap, keeping
the finite-difference comparison inside its round-off and truncation budget;
rejection never masks a disagreement, because every accepted sample is still
checked against the independent stencil.
"""

from __future__ import annotations

import contextlib
import math
import os
import random
import signal
import threading
from copy import copy
from dataclasses import dataclass
from functools import partial

from .expr import (
    BinOp,
    Call,
    CurveSpec,
    ExprAst,
    FieldSpec,
    Neg,
    Num,
    Var,
    eval_float,
    eval_forward,
    eval_jet,
    eval_second,
    parse_expr,
    pretty_print,
)
from .frenet import (
    ToleranceConfig,
    curve_point_jets,
    frame_jets,
    frenet_apparatus,
    generalized_frenet,
    uniform_grid,
)
from .jets import Jet, _fdot, fd_oracle, gram_defect, jet_sqrt
from .lifts import (
    Connection,
    LiftKind,
    TangentPoint,
    _nan_max,
    lift_field,
    parallel_transport,
    prop21_check,
)
from .lifted_frenet import LiftedCurve

__all__ = [
    "CheckResult",
    "builtin_curves",
    "run_checks",
    "random_expression_sample",
    "random_ast",
    "random_quadruple",
    "random_connection",
    "random_tangent_point",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    bound: float
    op: str  # "<=" or ">="
    passed: bool

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: value={self.value:.6e} bound {self.op} {self.bound:.6e}"


def _leq(name: str, value: float, bound: float) -> CheckResult:
    ok = value <= bound and not math.isnan(value)
    return CheckResult(name, value, bound, "<=", ok)


def _geq(name: str, value: float, bound: float) -> CheckResult:
    ok = value >= bound and not math.isnan(value)
    return CheckResult(name, value, bound, ">=", ok)


TWO_PI = 2.0 * math.pi


def builtin_curves() -> dict[str, CurveSpec]:
    """The standing test curves: two helices, a circle, a straight line."""
    return {
        "helix345": CurveSpec.from_strings(
            "3*cos(t)", "3*sin(t)", "4*t", 0.0, TWO_PI, "helix345"
        ),
        "unit_helix": CurveSpec.from_strings(
            "3*cos(t/5)", "3*sin(t/5)", "4*t/5", 0.0, 5.0 * TWO_PI, "unit_helix"
        ),
        "circle2": CurveSpec.from_strings(
            "2*cos(t)", "2*sin(t)", "0", 0.0, TWO_PI, "circle2"
        ),
        "line": CurveSpec.from_strings("t", "2*t", "2*t", 0.0, 1.0, "line"),
    }


# Closed-form apparatus of the circular helix (R cos wt, R sin wt, c t),
# with R = 3, w = 1, c = 4 for helix345 (speed 5) and the unit-speed scaling.
HELIX_KAPPA = 0.12
HELIX_TAU = 0.16

# The natural lift of the unit-speed helix is itself a circular helix in R^6
# with radius sqrt(234)/5, rate 1/5 and axial speed 4/5.
LIFTED_HELIX_KAPPA = 5.0 * math.sqrt(234.0) / 634.0
LIFTED_HELIX_TAU = 100.0 / 634.0


def grid(curve: CurveSpec, n: int) -> list[float]:
    return uniform_grid(curve.t_min, curve.t_max, n)


# --- random generators ---------------------------------------------------------


def random_ast(rng: random.Random, depth: int, variables=("t",)) -> ExprAst:
    """A parser-reachable AST: powers carry folded constant exponents and
    number literals are nonnegative outside exponent position."""
    if depth <= 0 or rng.random() < 0.15:
        if rng.random() < 0.55:
            return Var(rng.choice(variables))
        return Num(_random_literal(rng))
    roll = rng.random()
    if roll < 0.35:
        op = rng.choice("+-*/")
        return BinOp(op, random_ast(rng, depth - 1, variables), random_ast(rng, depth - 1, variables))
    if roll < 0.5:
        return Neg(random_ast(rng, depth - 1, variables))
    if roll < 0.75:
        func = rng.choice(("sin", "cos", "tan", "exp", "log", "sqrt", "sinh", "cosh"))
        return Call(func, random_ast(rng, depth - 1, variables))
    exponent = rng.choice((-3.0, -2.0, -1.0, 0.5, 2.0, 3.0, 4.0, 2.5))
    return BinOp("^", random_ast(rng, depth - 1, variables), Num(exponent))


def _random_literal(rng: random.Random) -> float:
    roll = rng.random()
    if roll < 0.4:
        return float(rng.randrange(0, 12))
    if roll < 0.8:
        return round(rng.uniform(0.0, 10.0), 4)
    return float(repr(rng.uniform(1e-4, 1e4)))


def random_smooth_expression(rng: random.Random, depth: int) -> ExprAst:
    """Expression whose jet and float evaluations share every primitive.

    Excludes '^' and tan: their two order-0 code paths (multiplication
    chains against libm pow, sin/cos against libm tan) round differently at
    the ulp level, which downstream nodes can amplify past any fixed bound.
    Those primitives get dedicated well-conditioned checks instead.
    """
    if depth <= 0 or rng.random() < 0.2:
        if rng.random() < 0.6:
            return Var("t")
        return Num(round(rng.uniform(-3.0, 3.0), 4))
    roll = rng.random()
    child = random_smooth_expression(rng, depth - 1)
    if roll < 0.35:
        op = rng.choice("+-*/")
        return BinOp(op, child, random_smooth_expression(rng, depth - 1))
    if roll < 0.65:
        return Call(rng.choice(("sin", "cos")), child)
    if roll < 0.8:
        return Call(rng.choice(("exp", "sinh", "cosh")), BinOp("*", Num(0.5), child))
    # Guarded sqrt/log: 2 + sin(u) stays inside both domains.
    guard = BinOp("+", Num(2.0), Call("sin", child))
    return Call(rng.choice(("sqrt", "log")), guard)


def _random_tame_expression(rng: random.Random, depth: int) -> ExprAst:
    """Polynomial/trig composite over t, built from total functions only."""
    if depth <= 0 or rng.random() < 0.2:
        if rng.random() < 0.6:
            return Var("t")
        return Num(round(rng.uniform(-2.0, 2.0), 3))
    roll = rng.random()
    if roll < 0.3:
        op = rng.choice("+-")
        return BinOp(op, _random_tame_expression(rng, depth - 1), _random_tame_expression(rng, depth - 1))
    if roll < 0.5:
        return BinOp("*", _random_tame_expression(rng, depth - 1), _random_tame_expression(rng, depth - 1))
    if roll < 0.8:
        return Call(rng.choice(("sin", "cos")), _random_tame_expression(rng, depth - 1))
    if roll < 0.9:
        damped = BinOp("*", Num(0.5), _random_tame_expression(rng, depth - 1))
        return Call(rng.choice(("exp", "sinh", "cosh")), damped)
    return BinOp("^", _random_tame_expression(rng, depth - 1), Num(float(rng.choice((2, 3)))))


# Coefficient cap for accepted autodiff test expressions.  Keeping every
# normalized Taylor coefficient small bounds both the function magnitude on
# the stencil and the high derivatives entering the truncation error, which
# keeps the finite-difference comparison well inside 1e-6.
_TAME_COEFF_CAP = 2.0


def _node_count(ast: ExprAst) -> int:
    if isinstance(ast, BinOp):
        return 1 + _node_count(ast.left) + _node_count(ast.right)
    if isinstance(ast, Neg):
        return 1 + _node_count(ast.child)
    if isinstance(ast, Call):
        return 1 + _node_count(ast.arg)
    return 0


def _tame_candidate(rng: random.Random) -> tuple:
    """One candidate of the tameness filter: an expression and the point
    drawn for it, or None for a leaf-only expression, which draws none."""
    ast = _random_tame_expression(rng, 4)
    return ast, (rng.uniform(-1.0, 1.0) if _node_count(ast) >= 2 else None)


def _tame_attempts(rng: random.Random, count: int):
    """Yield (attempt, ast, t0, jet) for the first ``count`` candidates the
    tameness filter accepts, with the order-7 jet at t0 and ``attempt`` the
    0-based index of the candidate among all those drawn."""
    produced = attempts = 0
    while produced < count:
        attempts += 1
        if attempts > 60 * count:
            raise RuntimeError("expression generator rejection rate too high")
        ast, t0 = _tame_candidate(rng)
        if t0 is None:
            continue
        try:
            jet = eval_jet(ast, {"t": Jet.variable(t0, 7)})
        except Exception:
            continue
        if jet.is_finite() and all(abs(c) <= _TAME_COEFF_CAP for c in jet.coeffs):
            produced += 1
            yield attempts - 1, ast, t0, jet


def random_expression_sample(rng: random.Random, count: int):
    """Yield (ast, t0, jet) triples accepted by the tameness filter.

    Leaf-only candidates are rejected too: every accepted expression
    composes at least two operations.
    """
    for _, ast, t0, jet in _tame_attempts(rng, count):
        yield ast, t0, jet


# Step sizes for the autodiff cross-check.  The Richardson-extrapolated
# stencils are round-off limited near the plain-stencil optimum, so the
# higher orders use larger steps than the oracle defaults.
_FD_CHECK_STEP = {1: 1e-5, 2: 1e-3, 3: 1e-2}


def _fd_agreement(saved: random.Random, accepted: list) -> tuple:
    """The worst relative gap of the Richardson finite differences to jet
    derivatives 1 to 3, over the accepted candidates of the tameness
    filter, drawn again from ``saved``: ``accepted`` lists their attempt
    indices, so only they are evaluated again."""
    worst = 0.0
    wanted = set(accepted)
    rng = copy(saved)
    for attempt in range(accepted[-1] + 1 if accepted else 0):
        ast, t0 = _tame_candidate(rng)
        if attempt not in wanted:
            continue
        jet = eval_jet(ast, {"t": Jet.variable(t0, 7)})

        def f(u, _ast=ast):
            return eval_float(_ast, {"t": u})

        for k in (1, 2, 3):
            djet = jet.derivative(k)
            dfd = fd_oracle(f, t0, k, _FD_CHECK_STEP[k])
            worst = max(worst, abs(djet - dfd) / max(1.0, abs(djet)))
    return (worst,)


def random_quadruple(rng: random.Random):
    """Two polynomial vector fields and two polynomial scalars, small scale."""

    def polynomial() -> ExprAst:
        terms = []
        for _ in range(rng.randrange(1, 3)):
            coeff = Num(round(rng.uniform(-0.5, 0.5), 4))
            term: ExprAst = coeff
            for _ in range(rng.randrange(0, 3)):
                term = BinOp("*", term, Var(rng.choice(("x1", "x2", "x3"))))
            terms.append(term)
        out = terms[0]
        for t in terms[1:]:
            out = BinOp("+", out, t)
        return out

    X = FieldSpec("vector", tuple(polynomial() for _ in range(3)))
    Y = FieldSpec("vector", tuple(polynomial() for _ in range(3)))
    f = FieldSpec("scalar", (polynomial(),))
    g = FieldSpec("scalar", (polynomial(),))
    return X, Y, f, g


def random_connection(rng: random.Random) -> Connection:
    entries = {}
    for a in range(1, 4):
        for b in range(1, 4):
            for c in range(1, 4):
                entries[(a, b, c)] = round(rng.uniform(-0.5, 0.5), 4)
    return Connection.from_entries(entries)


def _tangent_coords(rng: random.Random) -> tuple:
    """The base and fiber coordinates of :func:`random_tangent_point`."""
    return (tuple(rng.uniform(-10.0, 10.0) for _ in range(3)),
            tuple(rng.uniform(-10.0, 10.0) for _ in range(3)))


def random_tangent_point(rng: random.Random) -> TangentPoint:
    return TangentPoint(*_tangent_coords(rng))


# --- the check suite -------------------------------------------------------------

# Seed of the suite's random inputs.
SEED = 987123


def _maxes(rows, *seeds) -> list:
    """Per column of ``rows``, read in one pass, what max() gives over the
    column: its seed, or if that is None its first value, starts it, and a
    later value replaces it only when greater, so a leading NaN stays and a
    later one is dropped."""
    tops = list(seeds)
    for row in rows:
        for i, v in enumerate(row):
            if tops[i] is None or v > tops[i]:
                tops[i] = v
    return tops


def _lifted_maxes(records, pairs, ortho: float) -> tuple:
    """One pass over a lifted sweep: its gap to the base (kappa, tau)
    ``pairs``, its gap to its own oracle, its largest residual, and
    max(ortho, *its frame orthonormality defects)."""
    kb, tb, ko, to, res, ortho = _maxes(
        ((abs(r.kappa_lift - k), abs(r.tau_lift - t), abs(r.kappa_lift - r.oracle_kappa),
          abs(r.tau_lift - r.oracle_tau), max(r.residuals), r.ortho_max)
         for r, (k, t) in zip(records, pairs)),
        None, None, None, None, None, ortho)
    return max(kb, tb), max(ko, to), res, ortho


# Draws.  A check whose draws need no result to be accepted makes them again
# from a copy of the stream saved where they start.


def _replay(rng: random.Random, draws, *args) -> random.Random:
    """A copy of ``rng``, taken before ``draws(rng, *args)`` runs here to its
    end: ``draws`` yields again from a copy of it what it yields now."""
    saved = copy(rng)
    for _ in draws(rng, *args):
        pass
    return saved


def _jet_draws(rng: random.Random):
    """400 times the coefficients of jets a, b, c and of jets x, y, z with a
    value in [0.5, 2]."""
    for _ in range(400):
        abc = [[rng.uniform(-2, 2) for _ in range(6)] for _ in range(3)]
        yield abc, [[rng.uniform(0.5, 2.0)] + [rng.uniform(-2, 2) for _ in range(5)]
                    for _ in range(3)]


def _parser_draws(rng: random.Random):
    for _ in range(500):
        yield random_ast(rng, 6)


def _primitive_draws(rng: random.Random):
    """200 times x and r of x^r, then the argument of tan."""
    for _ in range(200):
        x = rng.uniform(0.5, 4.0)
        r = rng.choice((-3.0, -1.5, 0.5, 2.5, 3.0))
        yield x, r, rng.uniform(-1.2, 1.2)


def _point_draws(rng: random.Random):
    for _ in range(100):
        yield _tangent_coords(rng)


def _const_draws(rng: random.Random):
    """20 times a quadruple's X, a point and a constant vector field."""
    for _ in range(20):
        X = random_quadruple(rng)[0]
        coords = _tangent_coords(rng)
        yield X, coords, FieldSpec(
            "vector", tuple(Num(round(rng.uniform(-2, 2), 3)) for _ in range(3)))


def _order0_gap(rng: random.Random) -> float:
    """The worst relative gap of the order-0 jet to the float value of 300
    smooth expressions, each drawn with a point and kept only where both
    values are finite."""
    worst = 0.0
    checked = 0
    while checked < 300:
        ast = random_smooth_expression(rng, 5)
        t0 = rng.uniform(-3.0, 3.0)
        try:
            fval = eval_float(ast, {"t": t0})
            jval = eval_jet(ast, {"t": Jet.variable(t0, 0)}).value
        except Exception:
            continue
        if not (math.isfinite(fval) and math.isfinite(jval)):
            continue
        checked += 1
        worst = max(worst, abs(fval - jval) / max(1.0, abs(fval)))
    return worst


# Checks, each a tuple of floats.  A max() fold split over checks starts each
# part from 0.0, so a NaN in any part is dropped as in the whole; one that
# keeps a NaN stays in one check.


def _jet_algebra(saved: random.Random) -> tuple:
    worst_comm = worst_assoc = worst_normsq = 0.0
    for abc, xyz in _jet_draws(copy(saved)):
        a, b, c = map(Jet, abc)
        ab, ba = a * b, b * a
        for x, y in zip(ab.coeffs, ba.coeffs):
            worst_comm = max(worst_comm, abs(x - y) / max(1.0, abs(x)))
        lhs, rhs = (a * b) * c, a * (b * c)
        for x, y in zip(lhs.coeffs, rhs.coeffs):
            worst_assoc = max(worst_assoc, abs(x - y) / max(1.0, abs(x)))
        x, y, z = map(Jet, xyz)
        dvv = x * x + y * y + z * z
        norm = jet_sqrt(dvv)
        nsq = norm * norm
        for x, y in zip(nsq.coeffs, dvv.coeffs):
            worst_normsq = max(worst_normsq, abs(x - y) / max(1.0, abs(y)))
    return worst_comm, worst_assoc, worst_normsq


def _parser_failures(saved: random.Random) -> tuple:
    return (float(sum(parse_expr(pretty_print(ast), {"t"}) != ast
                      for ast in _parser_draws(copy(saved)))),)


def _primitives(saved: random.Random, worst: float) -> tuple:
    """Divergent primitives, checked where they are well conditioned."""
    for x, r, a in _primitive_draws(copy(saved)):
        jv = eval_jet(
            parse_expr(f"t^{r}", {"t"}), {"t": Jet.variable(x, 0)}
        ).value
        worst = max(worst, abs(jv - x**r) / max(1.0, abs(x**r)))
        jt = eval_jet(parse_expr("tan(t)", {"t"}), {"t": Jet.variable(a, 0)}).value
        worst = max(worst, abs(jt - math.tan(a)) / max(1.0, abs(math.tan(a))))
    return (worst,)


def _apparatus_grid(curve: CurveSpec, samples: int, cfg: ToleranceConfig) -> tuple:
    """The largest residual, frame orthonormality defect and gap to the
    helix345 closed forms, and max() of |speed - 1|, over the grid."""
    worst_res = worst_ortho = worst_cf = 0.0
    speeds = []
    for t in grid(curve, samples):
        app = frenet_apparatus(curve, t, cfg)
        worst_res = max(worst_res, *app.residuals)
        worst_ortho = max(worst_ortho, gram_defect((app.T, app.N, app.B)))
        worst_cf = max(worst_cf, abs(app.kappa - HELIX_KAPPA), abs(app.tau - HELIX_TAU))
        speeds.append(app.speed)
    return worst_res, worst_ortho, worst_cf, max(abs(speed - 1.0) for speed in speeds)


def _generalized(curves, samples: int, cfg: ToleranceConfig) -> tuple:
    """The apparatus against the Gram-Schmidt route over each grid."""
    worst_pair = worst_skew = worst_a13 = worst_ortho = 0.0
    for curve in curves:
        for t in grid(curve, samples):
            pj = curve_point_jets(curve, t)
            fj = frame_jets(pj, cfg, t)
            gen = generalized_frenet(pj, 3)
            worst_pair = max(
                worst_pair,
                abs(fj.kappa - gen.chis[0]),
                abs(fj.tau - gen.chis[1]),
            )
            worst_ortho = max(worst_ortho, gram_defect(gen.frame))
            A = gen.matrix
            for i in range(3):
                for j in range(3):
                    worst_skew = max(worst_skew, abs(A[i][j] + A[j][i]))
            worst_a13 = max(worst_a13, abs(A[0][2]))
    return worst_pair, worst_skew, worst_a13, worst_ortho


def _quad_residual(quad, G: Connection, saved: random.Random) -> tuple:
    """:func:`lifts._nan_max` of 0.0 and the prop21_check residuals of
    ``quad`` (X, Y, f, g) at 100 points under the flat connection and G,
    each point made and dropped in turn."""
    conns = (Connection.flat(), G)
    residuals = [0.0]
    for x, y in _point_draws(copy(saved)):
        p = TangentPoint(x, y)
        for conn in conns:
            residuals.append(prop21_check(*quad, conn, p).max_residual)
    return (_nan_max(residuals),)


def _const_lifts(saved: random.Random) -> tuple:
    worst_vbase = 0.0
    worst_hc = 0.0
    for X, coords, const in _const_draws(copy(saved)):
        p = TangentPoint(*coords)
        vlift = lift_field(X, "vertical", Connection.flat()).at(p)
        worst_vbase = max(worst_vbase, max(abs(v) for v in vlift.base))
        h = lift_field(const, "horizontal", Connection.flat()).at(p).as_tuple()
        comp = lift_field(const, "complete", Connection.flat()).at(p).as_tuple()
        worst_hc = max(worst_hc, max(abs(a - b) for a, b in zip(h, comp)))
    return worst_vbase, worst_hc


def _transport(helix: CurveSpec, Grand: Connection) -> tuple:
    line01 = CurveSpec.from_strings("t", "0", "0", 0.0, 1.0, "x_axis")
    flat_dev = 0.0
    for t in (0.25, 0.7, 1.0):
        w = parallel_transport(Connection.flat(), line01, (1.0, 2.0, 3.0), t, 50)
        flat_dev = max(flat_dev, max(abs(a - b) for a, b in zip(w, (1.0, 2.0, 3.0))))

    Gexp = Connection.from_entries({(1, 1, 1): 1.0})
    w100 = parallel_transport(Gexp, line01, (1.0, 0.0, 0.0), 1.0, 100)
    err100 = abs(w100[0] - math.exp(-1.0))
    w200 = parallel_transport(Gexp, line01, (1.0, 0.0, 0.0), 1.0, 200)
    err200 = abs(w200[0] - math.exp(-1.0))
    ratio = err100 / err200 if err200 > 0 else math.inf

    u = (0.7, -0.3, 1.1)
    v = (-0.2, 0.9, 0.4)
    alpha, beta = 1.7, -0.6
    combo = tuple(alpha * a + beta * b for a, b in zip(u, v))
    wu = parallel_transport(Grand, helix, u, 2.0, 400)
    wv = parallel_transport(Grand, helix, v, 2.0, 400)
    wc = parallel_transport(Grand, helix, combo, 2.0, 400)
    lin_dev = max(
        abs(c - (alpha * a + beta * b)) for c, a, b in zip(wc, wu, wv)
    )
    return flat_dev, err100, ratio, lin_dev


def _lifted_sweeps(curve: CurveSpec, samples: int, cfg: ToleranceConfig, *kinds) -> tuple:
    """:func:`_lifted_maxes`, from 0.0, of each lift ``kinds`` of ``curve``
    in turn over the grid; the base (kappa, tau) are computed again here."""
    ts = grid(curve, samples)
    pairs = [(app.kappa, app.tau) for app in (frenet_apparatus(curve, t, cfg) for t in ts)]
    out = ()
    for kind in kinds:
        out += _lifted_maxes(LiftedCurve(curve, kind, cfg=cfg).sweep(ts), pairs, 0.0)
    return out


def _anchor_gap(ush: CurveSpec, samples: int, cfg: ToleranceConfig) -> tuple:
    sub = grid(ush, samples)
    moved = LiftedCurve(ush, LiftKind.vertical((5.0, -2.0, 7.0)), cfg=cfg).sweep(sub)
    return (_lifted_maxes(LiftedCurve(ush, LiftKind.vertical(), cfg=cfg).sweep(sub),
                          [(r.kappa_lift, r.tau_lift) for r in moved], 0.0)[0],)


def _complete_lift(ush: CurveSpec, samples: int, cfg: ToleranceConfig) -> tuple:
    """The complete lift's oracle against the lifted helix's closed forms,
    then |T^c|^2 against 1 + kappa^2 on 50 points."""
    comp = LiftedCurve(ush, LiftKind.complete(), cfg=cfg).sweep(grid(ush, samples))
    worst_c_oracle = max(*_maxes(
        ((abs(r.oracle_kappa - LIFTED_HELIX_KAPPA), abs(r.oracle_tau - LIFTED_HELIX_TAU))
         for r in comp), None, None))
    lc = LiftedCurve(ush, LiftKind.complete(), cfg=cfg)
    worst_tc = 0.0
    for t in grid(ush, 50):
        Tc = [p[0] for p in lc.frame(t)[0]]
        kappa = frenet_apparatus(ush, t, cfg).kappa
        worst_tc = max(worst_tc, abs(_fdot(Tc, Tc) - (1.0 + kappa * kappa)))
    return worst_c_oracle, worst_tc


# Evaluation.


def _can_fork() -> bool:
    """A second process helps: fork exists, a second CPU is free to this
    process, and no other thread runs (a fork copies only the caller's)."""
    if not hasattr(os, "fork") or threading.active_count() != 1:
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) > 1
    return (os.cpu_count() or 1) > 1


def _share(tasks, values: dict) -> None:
    """Evaluate ``tasks``, (cost, check) pairs, here and in one forked
    child into ``values``, index to value tuple.

    This process takes the costliest; then each process claims the next
    unclaimed task, costliest first, one index byte at a time from a shared
    pipe.  The child sends ``float.hex`` of its values through a second pipe
    once all succeed, and always leaves with ``os._exit``: it never returns
    into the caller, runs no exit handlers and flushes no inherited buffer.
    This process reads that pipe to EOF and reaps the child, and on any
    exception kills and reaps it first.
    """
    first, *rest = sorted(range(len(tasks)), key=lambda i: -tasks[i][0])
    fds = []
    try:
        fds += os.pipe()
        os.write(fds[1], bytes(rest))
        os.close(fds.pop())
        fds += os.pipe()
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        raise
    claims, results, report = fds
    if pid == 0:
        status = 1
        try:
            os.close(results)
            lines = []
            while claim := os.read(claims, 1):
                lines.append(" ".join([str(claim[0]), *map(float.hex, tasks[claim[0]][1]())]))
            data = "\n".join(lines).encode()
            while data:
                data = data[os.write(report, data):]
            status = 0
        finally:
            os._exit(status)
    try:
        os.close(report)
        values[first] = tasks[first][1]()
        while claim := os.read(claims, 1):
            values[claim[0]] = tasks[claim[0]][1]()
        data = b""
        while chunk := os.read(results, 1 << 16):
            data += chunk
        _, status = os.waitpid(pid, 0)
        pid = 0
    finally:
        os.close(claims)
        os.close(results)
        if pid:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if status == 0:
        for line in data.decode().splitlines():
            i, *hexes = line.split()
            values[int(i)] = tuple(map(float.fromhex, hexes))


def _evaluate(tasks) -> list:
    """The value tuple of each of ``tasks``, (cost, check) pairs, as calling
    the checks in order gives them, the first exception in that order
    included.  Where :func:`_can_fork` they are shared with a child first
    (:func:`_share`); then this process evaluates in order what that left,
    so also after a failed fork or child, or an exception in its own
    share.  No child outlives the call."""
    values = {}
    if _can_fork():
        # A failed fork, child or check leaves its tasks to the loop below,
        # which raises the first error in check order.
        with contextlib.suppress(Exception):
            _share(tasks, values)
    for i, (_, check) in enumerate(tasks):
        if i not in values:
            values[i] = check()
    return [values[i] for i in range(len(tasks))]


def run_checks(cfg: ToleranceConfig | None = None, samples: int = 1000) -> list[CheckResult]:
    """Run the full invariant suite; deterministic for fixed arguments.

    Every draw from ``random.Random(SEED)`` is made first, in the order the
    checks read them, evaluating only where a draw's acceptance depends on
    a result.  The checks then run as independent tasks, on two CPUs where
    :func:`_can_fork` (see :func:`_evaluate`), and merge in check order.
    Every value, and the first exception in check order, are those of one
    process running the checks in order.
    """
    cfg = cfg or ToleranceConfig()
    rng = random.Random(SEED)
    curves = builtin_curves()
    helix, ush, circle = curves["helix345"], curves["unit_helix"], curves["circle2"]
    fifth = max(2, samples // 5)

    fd_draws = copy(rng)
    fd_accepted = [attempt for attempt, *_ in _tame_attempts(rng, samples)]
    jet_draws = _replay(rng, _jet_draws)
    # Later checks take their inputs from this stream position, 1650 draws
    # in, so their reported values stay comparable across suite versions.
    for _ in range(1650):
        rng.random()
    parser_draws = _replay(rng, _parser_draws)
    smooth_gap = _order0_gap(rng)
    primitive_draws = _replay(rng, _primitive_draws)
    suite = []
    for _ in range(20):
        quad, G = random_quadruple(rng), random_connection(rng)
        suite.append((quad, G, _replay(rng, _point_draws)))
        # Built here, the code prop21_check runs is inherited by a child.
        X, Y, f, g = quad
        eval_forward(X.components + Y.components + f.components + g.components, ())
        eval_second(f.components + g.components, ())
    const_draws = _replay(rng, _const_draws)
    Grand = random_connection(rng)

    # (rough cost in ms, check) in check order; the costs order the claims.
    tasks = [
        (0.16 * samples, partial(_fd_agreement, fd_draws, fd_accepted)),
        (20, partial(_jet_algebra, jet_draws)),
        (30, partial(_parser_failures, parser_draws)),
        (13, partial(_primitives, primitive_draws, smooth_gap)),
        *((0.045 * samples, partial(_apparatus_grid, curve, samples, cfg))
          for curve in (helix, ush, circle)),
        (0.23 * fifth, partial(_generalized, (helix, ush, circle), fifth, cfg)),
        (0.0045 * samples, partial(_apparatus_grid, helix, max(2, samples // 10), cfg)),
        *((22, partial(_quad_residual, *drawn)) for drawn in suite),
        (3, partial(_const_lifts, const_draws)),
        (21, partial(_transport, helix, Grand)),
        (0.16 * samples, partial(_lifted_sweeps, ush, samples, cfg, LiftKind.vertical())),
        (0.23 * fifth, partial(_anchor_gap, ush, fifth, cfg)),
        (0.28 * samples, partial(_lifted_sweeps, helix, samples, cfg,
                                 LiftKind.horizontal((1.0, 0.0, 0.0)),
                                 LiftKind.horizontal((0.3, -1.0, 2.0)))),
        (5 + 0.06 * samples, partial(_complete_lift, ush, max(2, samples // 2), cfg)),
    ]
    ((fd,), jet, (failures,), (order0,), grid_h, grid_u, grid_c, gen, helix10,
     *rest) = _evaluate(tasks)
    quads, (const, transport, vertical, (anchor_dev,), horizontal, complete) = (
        [q for (q,) in rest[:20]], rest[20:])

    vmatch, oracle, lift_res, lift_ortho = vertical
    hmatch = 0.0
    for h, o, r, defect in (horizontal[:4], horizontal[4:]):
        hmatch, oracle, lift_res = max(hmatch, h), max(oracle, o), max(lift_res, r)
        lift_ortho = max(lift_ortho, defect)
    return [
        _leq("jet_fd_agreement", fd, 1e-6),
        _leq("jet_mul_commutative", jet[0], 1e-13),
        _leq("jet_mul_associative", jet[1], 1e-13),
        _leq("jet_norm_sq_matches_dot", jet[2], 1e-13),
        _leq("parser_roundtrip_failures", failures, 0.0),
        _leq("eval_order0_matches_float", order0, 1e-15),
        _leq("helix_apparatus_closed_form", grid_h[2], 1e-10),
        _leq("frenet_residuals_max", max(grid_h[0], grid_u[0], grid_c[0]), cfg.residual_tol),
        _leq("apparatus_vs_generalized", gen[0], 1e-9),
        _leq("frame_skew_symmetry", gen[1], 1e-9),
        _leq("frame_tridiagonal", gen[2], 1e-9),
        _leq("unit_speed_helix_deviation", grid_u[3], cfg.unit_speed_tol),
        _leq("helix345_speed_deviation_is_4", abs(helix10[3] - 4.0), 1e-12),
        # A NaN residual is the worst one.
        _leq("prop21_max_residual", _nan_max(quads), 1e-10),
        _leq("vertical_lift_zero_base", const[0], 0.0),
        _leq("flat_horizontal_equals_complete_const", const[1], 1e-13),
        _leq("transport_flat_identity", transport[0], 0.0),
        _leq("transport_exp_decay", transport[1], 1e-9),
        _geq("transport_step_convergence", transport[2], 12.0),
        _leq("transport_linearity", transport[3], 1e-10),
        _leq("vertical_lift_matches_base", vmatch, 1e-10),
        _leq("vertical_anchor_independence", anchor_dev, 1e-12),
        _leq("horizontal_flat_matches_base", hmatch, 1e-10),
        _leq("lifted_residuals_max", lift_res, cfg.residual_tol),
        _leq("lifted_oracle_consistency", oracle, 1e-9),
        _leq("frame_orthonormality",
             max(max(grid_h[1], grid_u[1], grid_c[1], gen[3]), lift_ortho), cfg.ortho_tol),
        _leq("complete_oracle_closed_form", complete[0], 1e-9),
        _leq("complete_tangent_norm_identity", complete[1], 1e-12),
    ]
