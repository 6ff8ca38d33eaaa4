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

import math
import random
from dataclasses import dataclass
from itertools import chain

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
    eval_jet,
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


def random_expression_sample(rng: random.Random, count: int):
    """Yield (ast, t0, jet) triples accepted by the tameness filter.

    Leaf-only candidates are rejected too: every accepted expression
    composes at least two operations.
    """
    produced = 0
    attempts = 0
    while produced < count:
        attempts += 1
        if attempts > 60 * count:
            raise RuntimeError("expression generator rejection rate too high")
        ast = _random_tame_expression(rng, 4)
        if _node_count(ast) < 2:
            continue
        t0 = rng.uniform(-1.0, 1.0)
        try:
            jet = eval_jet(ast, {"t": Jet.variable(t0, 7)})
        except Exception:
            continue
        if not jet.is_finite():
            continue
        if any(abs(c) > _TAME_COEFF_CAP for c in jet.coeffs):
            continue
        produced += 1
        yield ast, t0, jet


# Step sizes for the autodiff cross-check.  The Richardson-extrapolated
# stencils are round-off limited near the plain-stencil optimum, so the
# higher orders use larger steps than the oracle defaults.
_FD_CHECK_STEP = {1: 1e-5, 2: 1e-3, 3: 1e-2}


def _fd_agreement(rng: random.Random, count: int) -> float:
    worst = 0.0
    for ast, t0, jet in random_expression_sample(rng, count):
        def f(u, _ast=ast):
            return eval_float(_ast, {"t": u})

        for k in (1, 2, 3):
            djet = jet.derivative(k)
            dfd = fd_oracle(f, t0, k, _FD_CHECK_STEP[k])
            worst = max(worst, abs(djet - dfd) / max(1.0, abs(djet)))
    return worst


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


def random_tangent_point(rng: random.Random) -> TangentPoint:
    return TangentPoint(
        tuple(rng.uniform(-10.0, 10.0) for _ in range(3)),
        tuple(rng.uniform(-10.0, 10.0) for _ in range(3)),
    )


# --- the check suite -------------------------------------------------------------

# Seed of the suite's random inputs.
SEED = 987123


def run_checks(cfg: ToleranceConfig | None = None, samples: int = 1000) -> list[CheckResult]:
    """Run the full invariant suite; deterministic for fixed arguments."""
    cfg = cfg or ToleranceConfig()
    rng = random.Random(SEED)
    curves = builtin_curves()
    helix = curves["helix345"]
    ush = curves["unit_helix"]
    circle = curves["circle2"]
    results: list[CheckResult] = []

    # Jet algebra.
    results.append(_leq("jet_fd_agreement", _fd_agreement(rng, samples), 1e-6))

    worst_comm = worst_assoc = worst_normsq = 0.0
    for _ in range(400):
        a = Jet([rng.uniform(-2, 2) for _ in range(6)])
        b = Jet([rng.uniform(-2, 2) for _ in range(6)])
        c = Jet([rng.uniform(-2, 2) for _ in range(6)])
        ab, ba = a * b, b * a
        for x, y in zip(ab.coeffs, ba.coeffs):
            worst_comm = max(worst_comm, abs(x - y) / max(1.0, abs(x)))
        lhs, rhs = (a * b) * c, a * (b * c)
        for x, y in zip(lhs.coeffs, rhs.coeffs):
            worst_assoc = max(worst_assoc, abs(x - y) / max(1.0, abs(x)))
        x, y, z = (
            Jet([rng.uniform(0.5, 2.0)] + [rng.uniform(-2, 2) for _ in range(5)])
            for _ in range(3)
        )
        dvv = x * x + y * y + z * z
        norm = jet_sqrt(dvv)
        nsq = norm * norm
        for x, y in zip(nsq.coeffs, dvv.coeffs):
            worst_normsq = max(worst_normsq, abs(x - y) / max(1.0, abs(y)))
    results.append(_leq("jet_mul_commutative", worst_comm, 1e-13))
    results.append(_leq("jet_mul_associative", worst_assoc, 1e-13))
    results.append(_leq("jet_norm_sq_matches_dot", worst_normsq, 1e-13))

    # Later checks take their inputs from this stream position, 1650 draws
    # in, so their reported values stay comparable across suite versions.
    for _ in range(1650):
        rng.random()

    # Parser.
    failures = 0
    for _ in range(500):
        ast = random_ast(rng, 6)
        if parse_expr(pretty_print(ast), {"t"}) != ast:
            failures += 1
    results.append(_leq("parser_roundtrip_failures", float(failures), 0.0))

    worst_eval0 = 0.0
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
        worst_eval0 = max(worst_eval0, abs(fval - jval) / max(1.0, abs(fval)))
    # Divergent primitives, checked where they are well conditioned.
    for _ in range(200):
        x = rng.uniform(0.5, 4.0)
        r = rng.choice((-3.0, -1.5, 0.5, 2.5, 3.0))
        jv = eval_jet(
            parse_expr(f"t^{r}", {"t"}), {"t": Jet.variable(x, 0)}
        ).value
        worst_eval0 = max(worst_eval0, abs(jv - x**r) / max(1.0, abs(x**r)))
        a = rng.uniform(-1.2, 1.2)
        jt = eval_jet(parse_expr("tan(t)", {"t"}), {"t": Jet.variable(a, 0)}).value
        worst_eval0 = max(worst_eval0, abs(jt - math.tan(a)) / max(1.0, abs(math.tan(a))))
    results.append(_leq("eval_order0_matches_float", worst_eval0, 1e-15))

    # Frenet apparatus against helix closed forms, residuals, oracle route.
    # Each base apparatus on the full grid is computed once: the helix and
    # unit-helix lists serve the lifted-curve checks below, and the circle's
    # is read once, so it is not kept.
    hgrid = grid(helix, samples)
    ugrid = grid(ush, samples)
    base_h = [frenet_apparatus(helix, t, cfg) for t in hgrid]
    base_app = [frenet_apparatus(ush, t, cfg) for t in ugrid]
    base_circle = (frenet_apparatus(circle, t, cfg) for t in grid(circle, samples))
    worst_cf = 0.0
    for app in base_h:
        worst_cf = max(worst_cf, abs(app.kappa - HELIX_KAPPA), abs(app.tau - HELIX_TAU))
    results.append(_leq("helix_apparatus_closed_form", worst_cf, 1e-10))

    worst_res = worst_ortho = 0.0
    for app in chain(base_h, base_app, base_circle):
        worst_res = max(worst_res, *app.residuals)
        worst_ortho = max(worst_ortho, gram_defect((app.T, app.N, app.B)))
    results.append(_leq("frenet_residuals_max", worst_res, cfg.residual_tol))

    worst_pair = worst_skew = worst_a13 = 0.0
    for curve in (helix, ush, circle):
        for t in grid(curve, max(2, samples // 5)):
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
    results.append(_leq("apparatus_vs_generalized", worst_pair, 1e-9))
    results.append(_leq("frame_skew_symmetry", worst_skew, 1e-9))
    results.append(_leq("frame_tridiagonal", worst_a13, 1e-9))

    ush_dev = max(abs(app.speed - 1.0) for app in base_app)
    results.append(_leq("unit_speed_helix_deviation", ush_dev, cfg.unit_speed_tol))
    helix_dev = max(
        abs(frenet_apparatus(helix, t, cfg).speed - 1.0)
        for t in grid(helix, max(2, samples // 10))
    )
    results.append(_leq("helix345_speed_deviation_is_4", abs(helix_dev - 4.0), 1e-12))

    # Lift identity suite.
    worst_prop = 0.0
    for _ in range(20):
        quad = random_quadruple(rng)
        conns = (Connection.flat(), random_connection(rng))
        for _ in range(100):
            p = random_tangent_point(rng)
            for G in conns:
                worst_prop = max(worst_prop, prop21_check(*quad, G, p).max_residual)
    results.append(_leq("prop21_max_residual", worst_prop, 1e-10))

    worst_vbase = 0.0
    worst_hc = 0.0
    for _ in range(20):
        X, Y, f, g = random_quadruple(rng)
        p = random_tangent_point(rng)
        vlift = lift_field(X, "vertical", Connection.flat()).at(p)
        worst_vbase = max(worst_vbase, max(abs(v) for v in vlift.base))
        const = FieldSpec(
            "vector", tuple(Num(round(rng.uniform(-2, 2), 3)) for _ in range(3))
        )
        h = lift_field(const, "horizontal", Connection.flat()).at(p).as_tuple()
        comp = lift_field(const, "complete", Connection.flat()).at(p).as_tuple()
        worst_hc = max(worst_hc, max(abs(a - b) for a, b in zip(h, comp)))
    results.append(_leq("vertical_lift_zero_base", worst_vbase, 0.0))
    results.append(_leq("flat_horizontal_equals_complete_const", worst_hc, 1e-13))

    # Parallel transport.
    line01 = CurveSpec.from_strings("t", "0", "0", 0.0, 1.0, "x_axis")
    flat_dev = 0.0
    for t in (0.25, 0.7, 1.0):
        w = parallel_transport(Connection.flat(), line01, (1.0, 2.0, 3.0), t, 50)
        flat_dev = max(flat_dev, max(abs(a - b) for a, b in zip(w, (1.0, 2.0, 3.0))))
    results.append(_leq("transport_flat_identity", flat_dev, 0.0))

    Gexp = Connection.from_entries({(1, 1, 1): 1.0})
    w100 = parallel_transport(Gexp, line01, (1.0, 0.0, 0.0), 1.0, 100)
    err100 = abs(w100[0] - math.exp(-1.0))
    results.append(_leq("transport_exp_decay", err100, 1e-9))
    w200 = parallel_transport(Gexp, line01, (1.0, 0.0, 0.0), 1.0, 200)
    err200 = abs(w200[0] - math.exp(-1.0))
    ratio = err100 / err200 if err200 > 0 else math.inf
    results.append(_geq("transport_step_convergence", ratio, 12.0))

    Grand = random_connection(rng)
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
    results.append(_leq("transport_linearity", lin_dev, 1e-10))

    # Lifted curves.
    vert = LiftedCurve(ush, LiftKind.vertical(), cfg=cfg).sweep(ugrid)
    vert2 = LiftedCurve(ush, LiftKind.vertical((5.0, -2.0, 7.0)), cfg=cfg).sweep(
        grid(ush, max(2, samples // 5))
    )
    worst_vmatch = max(
        max(abs(k - a.kappa) for k, a in zip(vert.kappa_lift, base_app)),
        max(abs(x - a.tau) for x, a in zip(vert.tau_lift, base_app)),
    )
    results.append(_leq("vertical_lift_matches_base", worst_vmatch, 1e-10))

    sub = grid(ush, max(2, samples // 5))
    vert_sub = LiftedCurve(ush, LiftKind.vertical(), cfg=cfg).sweep(sub)
    anchor_dev = max(
        max(abs(a - b) for a, b in zip(vert_sub.kappa_lift, vert2.kappa_lift)),
        max(abs(a - b) for a, b in zip(vert_sub.tau_lift, vert2.tau_lift)),
    )
    results.append(_leq("vertical_anchor_independence", anchor_dev, 1e-12))

    worst_hmatch = 0.0
    worst_lift_res = vert.max_residual
    worst_oracle = max(
        max(abs(k - o) for k, o in zip(vert.kappa_lift, vert.oracle_kappa)),
        max(abs(x - o) for x, o in zip(vert.tau_lift, vert.oracle_tau)),
    )
    worst_lift_ortho = vert.frame_ortho_max
    for w0 in ((1.0, 0.0, 0.0), (0.3, -1.0, 2.0)):
        horiz = LiftedCurve(helix, LiftKind.horizontal(w0), cfg=cfg).sweep(hgrid)
        worst_hmatch = max(
            worst_hmatch,
            max(abs(k - a.kappa) for k, a in zip(horiz.kappa_lift, base_h)),
            max(abs(x - a.tau) for x, a in zip(horiz.tau_lift, base_h)),
        )
        worst_lift_res = max(worst_lift_res, horiz.max_residual)
        worst_oracle = max(
            worst_oracle,
            max(abs(k - o) for k, o in zip(horiz.kappa_lift, horiz.oracle_kappa)),
            max(abs(x - o) for x, o in zip(horiz.tau_lift, horiz.oracle_tau)),
        )
        worst_lift_ortho = max(worst_lift_ortho, horiz.frame_ortho_max)
    results.append(_leq("horizontal_flat_matches_base", worst_hmatch, 1e-10))
    results.append(_leq("lifted_residuals_max", worst_lift_res, cfg.residual_tol))
    results.append(_leq("lifted_oracle_consistency", worst_oracle, 1e-9))
    results.append(
        _leq("frame_orthonormality", max(worst_ortho, worst_lift_ortho), cfg.ortho_tol)
    )

    comp = LiftedCurve(ush, LiftKind.complete(), cfg=cfg).sweep(
        grid(ush, max(2, samples // 2))
    )
    worst_c_oracle = max(
        max(abs(o - LIFTED_HELIX_KAPPA) for o in comp.oracle_kappa),
        max(abs(o - LIFTED_HELIX_TAU) for o in comp.oracle_tau),
    )
    results.append(_leq("complete_oracle_closed_form", worst_c_oracle, 1e-9))

    lc = LiftedCurve(ush, LiftKind.complete(), cfg=cfg)
    worst_tc = 0.0
    for t in grid(ush, 50):
        Tc = [p[0] for p in lc.frame(t)[0]]
        kappa = frenet_apparatus(ush, t, cfg).kappa
        worst_tc = max(worst_tc, abs(_fdot(Tc, Tc) - (1.0 + kappa * kappa)))
    results.append(_leq("complete_tangent_norm_identity", worst_tc, 1e-12))

    return results
