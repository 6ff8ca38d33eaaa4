"""Frenet apparatus, residuals, curve speed, generalized frames."""

import dataclasses
import math
import random
import struct

import pytest

from frenetlift.expr import BinOp, Call, CurveSpec, Num, UnknownVariable, Var, _linear
from frenetlift.frenet import (
    DegenerateCurvature,
    DomainIntervalError,
    FrameJets,
    ToleranceConfig,
    ZeroSpeed,
    curve_point_jets,
    frame_jets,
    frenet_apparatus,
    generalized_frenet,
    uniform_grid,
)
from frenetlift.jets import (
    DivisionByZeroJet,
    DomainError,
    Jet,
    JetError,
    NonFiniteJet,
    RankDeficient,
    ZeroNorm,
    _fdot,
    _pair_recurrence,
    _pcross,
    _pdot,
    _preject,
    _punit,
    fd_oracle,
    fnorm,
)
from jet_vectors import as_tuples, cross, cut, d, dot, jets, norm, scale, sub, tree_jet, value
from frenetlift.lifted_frenet import LiftedCurve
from frenetlift.lifts import Connection, LiftKind, lifted_point_jets
from frenetlift.verify import (
    LIFTED_HELIX_KAPPA,
    LIFTED_HELIX_TAU,
    builtin_curves,
    grid,
    random_connection,
    random_smooth_expression,
)

CURVES = builtin_curves()
HELIX = CURVES["helix345"]
USH = CURVES["unit_helix"]
CIRCLE = CURVES["circle2"]
LINE = CURVES["line"]
TORUS_KNOT = CurveSpec.from_strings(
    "(2 + 0.5*cos(3*t))*cos(2*t)", "(2 + 0.5*cos(3*t))*sin(2*t)", "0.5*sin(3*t)",
    0.0, 2.0 * math.pi, "torus_knot",
)


def embed_r6(pjets):
    zero = (0.0,) * len(pjets[0])
    return tuple(pjets) + (zero, zero, zero)


class TestPointJets:
    def test_helix_values(self):
        pj = curve_point_jets(HELIX, 0.0, 2)
        assert value(jets(pj)) == pytest.approx((3, 0, 0))

    def test_helix_first_derivatives(self):
        pj = curve_point_jets(HELIX, 0.0, 2)
        assert value(d(jets(pj))) == pytest.approx((0, 3, 4))

    def test_out_of_domain(self):
        with pytest.raises(DomainIntervalError):
            curve_point_jets(HELIX, -0.5, 2)

    def test_nan_parameter_out_of_domain(self):
        with pytest.raises(DomainIntervalError):
            curve_point_jets(HELIX, math.nan, 2)

    def test_evaluation_error_names_component(self):
        from frenetlift.jets import DomainError

        curve = CurveSpec.from_strings("t", "log(t)", "t", -1.0, 1.0)
        with pytest.raises(DomainError) as exc:
            curve_point_jets(curve, -0.5, 2)
        assert exc.value.component == 1


def _point_jets_outcome(route, curve, t, order):
    """Every coefficient by float.hex, or the error's type, message, span,
    component and t."""
    try:
        return [[x.hex() for x in cs] for cs in route(curve, t, order)]
    except Exception as err:
        return (type(err), str(err), getattr(err, "span", None),
                getattr(err, "component", None), getattr(err, "t", None))


def _per_component_route(curve, t, order):
    """One tree walk per component, in order, naming the failing component
    and t: the reference for the curve's shared jet program."""
    tj = Jet.variable(t, order)
    out = []
    for i, comp in enumerate(curve.components):
        try:
            out.append(tree_jet(comp, {"t": tj}, order).coeffs)
        except JetError as err:
            err.component, err.t = i, t
            raise
    return out


def _shared_curve(rng):
    """Three components built from one pool of sub-ASTs, which they reuse
    as whole components, as operands, and under sin and cos together."""
    pool = [random_smooth_expression(rng, rng.randint(1, 3)) for _ in range(3)]
    comps = []
    for _ in range(3):
        roll = rng.random()
        a, b = rng.choice(pool), rng.choice(pool)
        if roll < 0.25:
            comps.append(a)
        elif roll < 0.75:
            func = rng.choice(("sin", "cos", "sinh", "cosh", "exp"))
            comps.append(BinOp(rng.choice("+-*/"), a, Call(func, BinOp("*", Num(0.5), b))))
        else:
            comps.append(random_smooth_expression(rng, rng.randint(1, 4)))
    return CurveSpec(tuple(comps), -2.0, 2.0, "shared")


class TestCurveProgram:
    """curve_point_jets runs the components as one generated function whose
    shared subexpressions run once per point; one tree walk per component
    stays the reference, bit for bit and error for error."""

    def test_random_shared_curves_match_per_component(self):
        rng = random.Random(20261019)
        raised = 0
        for _ in range(600):
            curve = _shared_curve(rng)
            for order in range(1, 7):
                t = rng.uniform(-2.0, 2.0)
                want = _point_jets_outcome(_per_component_route, curve, t, order)
                assert _point_jets_outcome(curve_point_jets, curve, t, order) == want
                raised += isinstance(want, tuple)
        assert 0 < raised < 3600

    @pytest.mark.parametrize("x1, x2, x3, t, raised", [
        # log(t - 1) fails first in x2; x3 repeats it at another span.
        ("t", "1 + log(t - 1)", "log(t - 1)", 0.5, DomainError),
        ("t^2", "2*t*(1/(t - 0.5))", "1/(t - 0.5)", 0.5, DivisionByZeroJet),
        # One recurrence for both: at t=1 it overflows from order 4 on, at
        # 0.1 it does not.
        ("sin(exp(200*t))", "cos(exp(200*t))", "t", 1.0, NonFiniteJet),
        ("t", "cos(exp(200*t))", "sin(exp(200*t)) + cos(exp(200*t))", 1.0, NonFiniteJet),
        ("sin(exp(200*t))", "cos(exp(200*t))", "t", 0.1, None),
        ("sinh(700*t)", "t", "cosh(700*t)", 1.0, NonFiniteJet),
        # The folded exponents 0.0 and -0.0 are different numbers.
        ("t^0", "t^(-0)", "t^0 + t^(-0)", 0.5, None),
        ("(2 + 0.5*cos(3*t))*cos(2*t)", "(2 + 0.5*cos(3*t))*sin(2*t)", "0.5*sin(3*t)", 0.7,
         None),
        ("t*3", "3*t", "cos(t*3) - sin(3*t)", 0.25, None),
        # A number divisor and a product with -0.0 keep the kernel's signed
        # zeros, coefficient by coefficient.
        ("t/5", "t*(-0.0)", "(t*(-0.0))/5 - t/(-5)", 0.5, None),
    ], ids=["first-in-x2", "division-first-in-x2", "sin-cos-overflow", "cos-first",
            "sin-cos", "sinh-cosh-overflow", "signed-zero-exponent", "torus-knot",
            "scaled-either-side", "number-divisor-signed-zero"])
    @pytest.mark.parametrize("order", range(1, 8))
    def test_edge_cases(self, x1, x2, x3, t, raised, order):
        # ``raised`` is the error at order 6.
        curve = CurveSpec.from_strings(x1, x2, x3, -2.0, 2.0)
        want = _point_jets_outcome(_per_component_route, curve, t, order)
        if order == 6:
            assert (want[0] if isinstance(want, tuple) else None) is raised
        assert _point_jets_outcome(curve_point_jets, curve, t, order) == want

    def test_shared_failure_keeps_first_span_and_component(self):
        curve = CurveSpec.from_strings("t", "1 + log(t - 1)", "log(t - 1)", -2.0, 2.0)
        with pytest.raises(DomainError) as exc:
            curve_point_jets(curve, 0.5, 3)
        assert (exc.value.span, exc.value.component, exc.value.t) == ((4, 14), 1, 0.5)

    @pytest.mark.parametrize("x1, x2, message, span", [
        ("cos(1e999) + t", "sin(1e999) - t", "cos undefined at inf", (0, 10)),
        ("sin(1e999) + t", "cos(1e999) - t", "sin undefined at inf", (0, 10)),
    ], ids=["cos-first", "sin-first"])
    def test_shared_sin_cos_of_infinity_names_first_function(self, x1, x2, message, span):
        # sin and cos of one argument share one recurrence; a domain error
        # names the function and span a per-component evaluation meets first.
        curve = CurveSpec.from_strings(x1, x2, "t", 0.0, 1.0)
        want = _point_jets_outcome(_per_component_route, curve, 0.5, 5)
        assert want == (DomainError, message, span, 0, 0.5)
        assert _point_jets_outcome(curve_point_jets, curve, 0.5, 5) == want

    def test_signed_zero_numbers_stay_apart(self):
        # Num equality treats 0.0 == -0.0; their constant jets differ.
        comps = (Num(-0.0), Num(0.0), BinOp("-", Num(-0.0), BinOp("*", Var("t"), Num(0.0))))
        curve = CurveSpec(comps, -1.0, 1.0)
        for order in range(1, 7):
            want = _point_jets_outcome(_per_component_route, curve, 0.5, order)
            assert _point_jets_outcome(curve_point_jets, curve, 0.5, order) == want
        assert [cs[0].hex() for cs in curve_point_jets(curve, 0.5, 2)] == [
            "-0x0.0p+0", "0x0.0p+0", "-0x0.0p+0"]

    def test_unknown_variable(self):
        t, s = Var("t"), Var("s", (4, 5))
        curve = CurveSpec((t, BinOp("+", t, s), Call("sin", Var("s", (9, 10)))), -1.0, 1.0)
        want = _point_jets_outcome(_per_component_route, curve, 0.5, 5)
        assert want[:3] == (UnknownVariable, "at offset 4: unknown variable 's'", None)
        assert _point_jets_outcome(curve_point_jets, curve, 0.5, 5) == want

    def test_shared_work_runs_once_per_point(self, monkeypatch):
        # The torus knot shares its ring 2 + 0.5*cos(3*t) between x1 and
        # x2, and takes sin and cos of 3*t and of 2*t: its step list holds
        # two sin/cos pairs, one recurrence each, and six products (two
        # convolutions, four scalings), and a point makes two sin and two
        # cos calls.  The components one by one take five recurrences and
        # ten products.
        entries = _linear(TORUS_KNOT.components).shape[:-1]
        steps = [entry[0] for entry in entries]
        sines, cosines = ({entry[2] for entry in entries if entry[0] == name}
                          for name in ("sin", "cos"))
        assert len(sines & cosines) == 2
        assert steps.count("*") + steps.count("scale") == 6
        counts = {"sin": 0, "cos": 0, "recurrence": 0, "mul": 0}

        def counted(name, fn):
            def run(*args):
                counts[name] += 1
                return fn(*args)
            return run

        monkeypatch.setattr("frenetlift.expr.sin", counted("sin", math.sin))
        monkeypatch.setattr("frenetlift.expr.cos", counted("cos", math.cos))
        monkeypatch.setattr("frenetlift.jets._pair_recurrence",
                            counted("recurrence", _pair_recurrence))
        monkeypatch.setattr(Jet, "__mul__", counted("mul", Jet.__mul__))
        curve_point_jets(TORUS_KNOT, 0.7)
        assert counts == {"sin": 2, "cos": 2, "recurrence": 0, "mul": 0}
        counts.update(recurrence=0, mul=0)
        _per_component_route(TORUS_KNOT, 0.7, 5)
        assert (counts["recurrence"], counts["mul"]) == (5, 10)

    def test_program_kept_per_curve_memo_per_point(self):
        curve = CurveSpec.from_strings("cos(t)", "sin(t)", "t", 0.0, 1.0)
        first = curve_point_jets(curve, 0.25)
        assert curve_point_jets(curve, 0.75) != first
        assert curve_point_jets(curve, 0.25, 3) == tuple(cs[:4] for cs in first)
        assert not hasattr(CurveSpec.from_strings("cos(t)", "sin(t)", "t", 0.0, 1.0), "_jets")


class TestApparatus:
    def test_helix_frame(self):
        app = frenet_apparatus(HELIX, 0.0)
        assert app.T == pytest.approx((0, 0.6, 0.8), abs=1e-14)
        assert app.N == pytest.approx((-1, 0, 0), abs=1e-14)
        assert app.B == pytest.approx((0, -0.8, 0.6), abs=1e-14)
        assert app.kappa == pytest.approx(0.12, abs=1e-14)
        assert app.tau == pytest.approx(0.16, abs=1e-14)
        assert app.speed == pytest.approx(5.0)

    def test_circle(self):
        app = frenet_apparatus(CIRCLE, 1.0)
        assert app.kappa == pytest.approx(0.5, abs=1e-13)
        assert app.tau == pytest.approx(0.0, abs=1e-13)

    def test_line_degenerates(self):
        with pytest.raises(DegenerateCurvature) as exc:
            frenet_apparatus(LINE, 0.5)
        assert "t=0.5" in str(exc.value)

    def test_frame_orthonormal(self):
        for t in grid(HELIX, 20):
            app = frenet_apparatus(HELIX, t)
            frame = (app.T, app.N, app.B)
            for i, a in enumerate(frame):
                for j, b in enumerate(frame):
                    want = 1.0 if i == j else 0.0
                    got = sum(x * y for x, y in zip(a, b))
                    assert abs(got - want) <= 1e-12

    def test_kappa_tau_constant_on_grid(self):
        for t in grid(HELIX, 50):
            app = frenet_apparatus(HELIX, t)
            assert abs(app.kappa - 0.12) <= 1e-12
            assert abs(app.tau - 0.16) <= 1e-12

    def test_fd_cross_check(self):
        # Derivative route fully independent of jets: plain float stencils.
        from frenetlift.expr import eval_float

        t0 = 1.234

        def comp(i):
            return lambda u: eval_float(HELIX.components[i], {"t": u})

        d1 = [fd_oracle(comp(i), t0, 1, 1e-5) for i in range(3)]
        d2 = [fd_oracle(comp(i), t0, 2, 1e-4) for i in range(3)]
        cross = (
            d1[1] * d2[2] - d1[2] * d2[1],
            d1[2] * d2[0] - d1[0] * d2[2],
            d1[0] * d2[1] - d1[1] * d2[0],
        )
        speed = math.sqrt(sum(x * x for x in d1))
        kappa_fd = math.sqrt(sum(x * x for x in cross)) / speed**3
        app = frenet_apparatus(HELIX, t0)
        assert abs(app.kappa - kappa_fd) <= 1e-6


class TestResiduals:
    @pytest.mark.parametrize("curve", [HELIX, USH, CIRCLE], ids=lambda c: c.name)
    def test_frame_identities(self, curve):
        for t in grid(curve, 100):
            assert max(frenet_apparatus(curve, t).residuals) <= 1e-10

    def test_residuals_in_apparatus(self):
        app = frenet_apparatus(HELIX, 0.3)
        assert app.residuals == frenet_apparatus(HELIX, 0.3).residuals


def speed_deviation(curve, n):
    """Max deviation of the apparatus speed from 1 over an n-point grid."""
    return max(abs(frenet_apparatus(curve, t).speed - 1.0) for t in grid(curve, n))


class TestSpeedCheck:
    def test_unit_speed_helix(self):
        deviation = speed_deviation(USH, 50)
        assert deviation <= ToleranceConfig().unit_speed_tol
        assert deviation <= 1e-12

    def test_helix345_speed_five(self):
        deviation = speed_deviation(HELIX, 20)
        assert not deviation <= ToleranceConfig().unit_speed_tol
        assert deviation == pytest.approx(4.0, abs=1e-12)

    def test_circle_speed_two(self):
        assert speed_deviation(CIRCLE, 20) == pytest.approx(1.0, abs=1e-12)


class TestGeneralizedFrenet:
    def test_helix_embedded_in_r6(self):
        pj = embed_r6(curve_point_jets(HELIX, 0.7))
        gen = generalized_frenet(pj, 3)
        assert gen.chis[0] == pytest.approx(0.12, abs=1e-12)
        assert gen.chis[1] == pytest.approx(0.16, abs=1e-12)

    def test_line_in_r6_rank_deficient(self):
        pj = embed_r6(curve_point_jets(LINE, 0.5))
        with pytest.raises(RankDeficient) as exc:
            generalized_frenet(pj, 3)
        assert exc.value.index == 1

    def test_natural_lift_closed_form(self):
        # (beta, beta') of the unit-speed helix is a circular helix in R^6.
        pj = curve_point_jets(USH, 2.0)
        lifted = as_tuples(cut(jets(pj), 4) + d(jets(pj)))
        gen = generalized_frenet(lifted, 3)
        assert gen.chis[0] == pytest.approx(LIFTED_HELIX_KAPPA, abs=1e-9)
        assert gen.chis[1] == pytest.approx(LIFTED_HELIX_TAU, abs=1e-9)

    def test_matches_apparatus_in_r3(self):
        for curve in (HELIX, USH, CIRCLE):
            for t in grid(curve, 25):
                app = frenet_apparatus(curve, t)
                gen = generalized_frenet(curve_point_jets(curve, t), 3)
                assert abs(gen.chis[0] - app.kappa) <= 1e-9
                assert abs(gen.chis[1] - app.tau) <= 1e-9

    def test_left_handed_helix_keeps_torsion_sign(self):
        left = CurveSpec.from_strings(
            "3*cos(t)", "3*sin(t)", "-4*t", 0.0, 2.0 * math.pi, "left_helix"
        )
        app = frenet_apparatus(left, 1.0)
        assert app.tau == pytest.approx(-0.16, abs=1e-13)
        gen = generalized_frenet(curve_point_jets(left, 1.0), 3)
        assert gen.chis[1] == pytest.approx(-0.16, abs=1e-12)

    def test_skew_symmetry_and_tridiagonal(self):
        for curve in (HELIX, USH):
            for t in grid(curve, 15):
                A = generalized_frenet(curve_point_jets(curve, t), 3).matrix
                for i in range(3):
                    for j in range(3):
                        assert abs(A[i][j] + A[j][i]) <= 1e-9
                assert abs(A[0][2]) <= 1e-9

    @pytest.mark.parametrize("kind", ["base", "v", "c", "h"])
    @pytest.mark.parametrize("curve", [HELIX, TORUS_KNOT], ids=["helix", "torus_knot"])
    def test_matrix_matches_full_order_jet_route(self, curve, kind):
        for t in grid(curve, 9):
            pj = _kind_point_jets(curve, t, kind)
            gen = generalized_frenet(pj, 3)
            # chis are computed without the matrix, and must be its superdiagonal.
            chis = [x.hex() for x in gen.chis]
            got = gen.matrix
            assert chis == [got[i][i + 1].hex() for i in range(2)]
            want = _full_order_matrix(pj)
            assert [_bits(row) for row in got] == [_bits(row) for row in want]

    @pytest.mark.parametrize("curve, kind, index", [
        (LINE, "base", 1), (LINE, "c", 1), (CIRCLE, "v", 2), (CIRCLE, "c", 2),
    ])
    def test_rank_deficient_index(self, curve, kind, index):
        pj = _kind_point_jets(curve, 0.5, kind)
        with pytest.raises(RankDeficient) as exc:
            generalized_frenet(pj, 3)
        assert exc.value.index == index
        with pytest.raises(RankDeficient) as ref:
            _jet_route_frenet(pj)
        assert ref.value.index == index

    def test_rank_reference_slope_overflow_raises(self):
        # b'' is parallel to b', so the residual vanishes, but the rank test's
        # reference dot b'' . b'' has an overflowing slope 2 b'' . b''',
        # which the jet route meets before it can report the dependence.
        pj = ((0.0, 1.0, 5e149, 1e160 / 6, 0.0, 0.0), (0.0,) * 6, (0.0,) * 6)
        for route in (generalized_frenet, _jet_route_frenet):
            with pytest.raises(NonFiniteJet):
                route(pj, 3)

    def test_frame_size_validation(self):
        pj = curve_point_jets(HELIX, 0.5, 3)
        with pytest.raises(Exception):
            generalized_frenet(pj, 4)


_ORACLE_LIFTS = {
    "v": (LiftKind.vertical((1.0, -2.0, 0.5)), (1.0, -2.0, 0.5), None),
    "c": (LiftKind.complete(), None, None),
    "h": (LiftKind.horizontal((1.0, -0.5, 0.75)), None, (0.9, -0.4, 0.8)),
}


def _kind_point_jets(curve, t, kind):
    """Point jets of the curve at t ("base"), or of its lift of that kind
    under a non-flat connection."""
    pj = curve_point_jets(curve, t)
    if kind == "base":
        return pj
    lk, anchor, w = _ORACLE_LIFTS[kind]
    return lifted_point_jets(pj, lk, NONFLAT, anchor, w)


def _bits(values):
    return [struct.pack("<d", v) for v in values]


def _full_order_matrix(pjets, m: int = 3):
    """(dE_i/ds) . E_j through jet products on frame jets of order L = K - m."""
    L = len(pjets[0]) - 1 - m
    derivs = []
    cur = jets(pjets)
    for _ in range(m):
        cur = d(cur)
        derivs.append(cut(cur, L))
    speed = fnorm(value(derivs[0]))
    frame = []
    for i in range(2):
        u = derivs[i]
        for e in frame:
            u = sub(u, scale(e, dot(u, e)))
        frame.append(scale(u, Jet.constant(1.0, L) / norm(u)))
    if len(pjets) == 3:
        frame.append(cross(frame[0], frame[1]))
    else:
        u = derivs[2]
        for e in frame:
            u = sub(u, scale(e, dot(u, e)))
        frame.append(scale(u, Jet.constant(1.0, L) / norm(u)))
    return tuple(
        tuple(dot(d(frame[i]), cut(frame[j], L - 1)).value / speed for j in range(m))
        for i in range(m)
    )


# --- the float-pair oracle against its order-1 Jet route -------------------------

NONFLAT = Connection.from_entries({(1, 2, 3): 0.3, (3, 2, 1): -0.3, (2, 1, 1): 0.2})


def _jet_route_frenet(pjets, m: int = 3, rank_tol: float = 1e-9):
    """The Gram-Schmidt oracle on lists of order-1 Jets: (frame, chis,
    matrix) as generalized_frenet returns them."""
    derivs = []
    cur = jets(pjets)
    for _ in range(m):
        cur = d(cur)
        derivs.append(cut(cur, 1))
    speed_val = fnorm(value(derivs[0]))
    if speed_val < 1e-12:
        raise ZeroSpeed(math.nan)
    gs_count = 2 if (len(pjets) == 3 and m == 3) else m
    frame = []
    one = Jet.constant(1.0, 1)
    for i in range(gs_count):
        u = derivs[i]
        for e in frame:
            u = sub(u, scale(e, dot(u, e)))
        res_sq = dot(u, u).value
        ref_sq = dot(derivs[i], derivs[i]).value
        if res_sq < rank_tol * rank_tol * max(1.0, ref_sq):
            raise RankDeficient(i)
        frame.append(scale(u, one / norm(u)))
    if gs_count < m:
        frame.append(cross(frame[0], frame[1]))
    slopes = [value(d(E)) for E in frame]
    values = tuple(value(E) for E in frame)
    matrix = []
    for i in range(m):
        row = []
        for j in range(m):
            acc = 0.0
            for x, y in zip(slopes[i], values[j]):
                acc += x * y
            row.append(acc / speed_val)
        matrix.append(tuple(row))
    return values, tuple(matrix[i][i + 1] for i in range(m - 1)), tuple(matrix)


def _oracle_outcome(route, pjets):
    try:
        frame, chis, matrix = route(pjets)
    except (JetError, ZeroSpeed) as err:
        return type(err), str(err)
    return [_bits(v) for v in frame], _bits(chis), [_bits(row) for row in matrix]


def _pair_route(pjets):
    gen = generalized_frenet(pjets, 3)
    return gen.frame, gen.chis, gen.matrix


def _gen_route(pjets, m):
    gen = generalized_frenet(pjets, m)
    return gen.frame, gen.chis, gen.matrix


def _random_curve(rng):
    comps = [random_smooth_expression(rng, rng.randint(1, 4)) for _ in range(3)]
    return CurveSpec(tuple(comps), -2.0, 2.0, "random")


def _lifted_variants(pj, rng):
    """The point jets, then their v, c, flat-h and non-flat-h lifts."""
    anchor = tuple(rng.uniform(-2.0, 2.0) for _ in range(3))
    w = tuple(rng.uniform(-2.0, 2.0) for _ in range(3))
    yield pj
    yield lifted_point_jets(pj, LiftKind.vertical(anchor), NONFLAT, anchor)
    yield lifted_point_jets(pj, LiftKind.complete(), NONFLAT)
    yield lifted_point_jets(pj, LiftKind.horizontal(w), Connection.flat(), None, w)
    yield lifted_point_jets(pj, LiftKind.horizontal(w), NONFLAT, None, w)


def _from_derivatives(V1, V2, V3):
    """Order-5 point jets in R^3 whose first three derivatives at the point
    have the values V1, V2 and V3 (up to rounding of the coefficients)."""
    return tuple((0.0, a, b / 2, c / 6, 0.0, 0.0) for a, b, c in zip(V1, V2, V3))


def _loop_frenet(pjets, m: int = 3, rank_tol: float = 1e-9):
    """The Gram-Schmidt of generalized_frenet as a loop over the jets._p*
    steps, as it ran before it was generated: (frame, chis, slopes, speed)."""
    dim = len(pjets)
    a = [None, [cs[1] for cs in pjets]]
    for k in range(2, m + 2):
        col = [k * cs[k] for cs in pjets]
        for j in range(k - 1, 1, -1):
            col = [j * x for x in col]
        a.append(col)
    speed_val = fnorm(a[1])
    if speed_val < 1e-12:
        raise ZeroSpeed(math.nan)
    gs_count = 2 if (dim == 3 and m == 3) else m
    values, slopes = [], []
    for i in range(gs_count):
        dv, dd = a[i + 1], a[i + 2]
        uv, ud = dv, dd
        for ev, ed in zip(values, slopes):
            uv, ud = _preject(uv, ud, ev, ed, _pdot(uv, ud, ev, ed))
        sq = _pdot(uv, ud, uv, ud)
        ref_sq = _pdot(dv, dd, dv, dd)[0] if i else sq[0]
        if sq[0] < rank_tol * rank_tol * max(1.0, ref_sq):
            raise RankDeficient(i)
        ev, ed = _punit(uv, ud, sq)
        values.append(ev)
        slopes.append(ed)
    if gs_count < m:
        ev, ed = _pcross(values[0], slopes[0], values[1], slopes[1])
        values.append(ev)
        slopes.append(ed)
    chis = [_fdot(slopes[i], values[i + 1]) / speed_val for i in range(m - 1)]
    return values, chis, slopes, speed_val


def _frame_outcome(route):
    """Every float of (frame, chis, slopes, speed) by float.hex, or the
    error's type, message and index."""
    try:
        frame, chis, slopes, speed = route()
    except (JetError, ZeroSpeed) as err:
        return type(err), str(err), getattr(err, "index", None)
    return ([[x.hex() for x in v] for v in frame], [x.hex() for x in chis],
            [[x.hex() for x in d] for d in slopes], speed.hex())


class TestGeneratedGramSchmidt:
    """generalized_frenet's generated function gives the loop's bits and
    errors, on seeded point jets in R^3 to R^6 with every frame size."""

    EXTREMES = (1e154, -1e154, 3e153, 1e-160, -1e-160, 0.0, -0.0,
                math.inf, -math.inf, math.nan)

    def _point_jets(self, rng, dim, order):
        rare = rng.choice((0.0, 0.05, 0.2))
        pj = [[rng.choice(self.EXTREMES) if rng.random() < rare else rng.uniform(-2.0, 2.0)
               for _ in range(order + 1)] for _ in range(dim)]
        if rng.random() < 0.25:
            # Derivative k a multiple of derivative j: rank deficient.
            k = rng.randint(2, order)
            j = rng.randint(1, k - 1)
            c = rng.choice((1.0, -0.5, 1e-6))
            for cs in pj:
                cs[k] = c * cs[j]
        return pj

    def test_seeded_jets_match_loop(self):
        rng = random.Random(20261022)
        seen = set()
        for _ in range(4000):
            dim = rng.randint(3, 6)
            m = rng.randint(2, dim)
            pj = self._point_jets(rng, dim, m + rng.randint(1, 3))
            rank_tol = rng.choice((1e-9, 1e-9, 0.0, 1e-3))
            want = _frame_outcome(lambda: _loop_frenet(pj, m, rank_tol))

            def generated():
                gen = generalized_frenet(pj, m, rank_tol)
                return gen.frame, gen.chis, gen.slopes, gen.speed

            assert _frame_outcome(generated) == want
            seen.add(want[0] if isinstance(want[0], type) else "values")
            seen.add((dim, m))
        assert {"values", RankDeficient, NonFiniteJet, ZeroSpeed} <= seen
        assert {(dim, m) for dim in range(3, 7) for m in range(2, dim + 1)} <= seen


class TestPairOracle:
    def test_random_curves_match_jet_route_bits(self):
        rng = random.Random(20260)
        curves = succeeded = 0
        while curves < 200:
            curve = _random_curve(rng)
            try:
                pj = curve_point_jets(curve, rng.uniform(-2.0, 2.0))
                variants = list(_lifted_variants(pj, rng))
            except JetError:
                continue
            curves += 1
            for pjets in variants:
                want = _oracle_outcome(_jet_route_frenet, pjets)
                assert _oracle_outcome(_pair_route, pjets) == want
                succeeded += not isinstance(want[0], type)
        assert succeeded >= 400

    @pytest.mark.parametrize("curve", [HELIX, TORUS_KNOT, CIRCLE], ids=lambda c: c.name)
    def test_builtin_curves_match_jet_route_bits(self, curve):
        rng = random.Random(7)
        for t in grid(curve, 7):
            for pjets in _lifted_variants(curve_point_jets(curve, t), rng):
                want = _oracle_outcome(_jet_route_frenet, pjets)
                assert _oracle_outcome(_pair_route, pjets) == want

    def test_planar_complete_lift_rank_deficient(self):
        pj = lifted_point_jets(curve_point_jets(CIRCLE, 0.4), LiftKind.complete(), NONFLAT)
        assert _oracle_outcome(_jet_route_frenet, pj) == (
            RankDeficient, "vector 2 is linearly dependent on its predecessors")
        with pytest.raises(RankDeficient) as exc:
            generalized_frenet(pj, 3)
        assert exc.value.index == 2

    @pytest.mark.parametrize("slope", [1e308, 5e307, -1.7e308])
    def test_huge_slope_raises_nonfinite(self, slope):
        # Coefficient 2 of x1 is half the slope of the first derivative.
        x1 = Jet([0.0, 1.0, slope / 2.0, 0.0, 0.0, 0.0])
        x2 = Jet([0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
        x3 = Jet([0.0, 0.0, 0.0, 1.0, 0.0, 0.0])
        for pjets in (as_tuples((x1, x2, x3)), embed_r6(as_tuples((x1, x2, x3)))):
            want = (NonFiniteJet, "multiplication produced non-finite coefficients")
            assert _oracle_outcome(_jet_route_frenet, pjets) == want
            assert _oracle_outcome(_pair_route, pjets) == want

    @pytest.mark.parametrize("V1, V2, V3, message", [
        # b' . b' overflows in a running sum before product 2 is tested.
        ((1.3e154, 1.3e154, 1e200), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), "addition"),
        # Projecting b'' on E1: the slope of product 2 overflows, and the
        # difference of component 1 would too; every product is tested first.
        ((1.0, 0.0, 0.0), (1e300, 1e8, 1e10), (0.0, -1e308, 0.0), "multiplication"),
        # The norm of b', then its reciprocal, then the products with it.
        ((1e-3, 1e-3, 0.0), (1.5e308, 1.5e308, 0.0), (0.0, 0.0, 1.0), "operation"),
        ((1e-6, 0.0, 0.0), (1e297, 0.0, 0.0), (0.0, 1.0, 0.0), "division"),
        ((1e-6, 0.0, 0.0), (0.0, 1e303, 0.0), (0.0, 0.0, 1.0), "multiplication"),
        # The residual of b'' is finite, the dot of b'' with itself for the
        # rank test is not.
        ((1.0, 0.0, 0.0), (1e200, 1.0, 0.0), (0.0, 0.0, 1.0), "multiplication"),
    ], ids=["dot-sum", "projection", "norm", "reciprocal", "unit-product", "reference-dot"])
    def test_failure_at_each_step_matches_jet_route(self, V1, V2, V3, message):
        pj = _from_derivatives(V1, V2, V3)
        assert _oracle_outcome(_pair_route, pj) == (
            NonFiniteJet, f"{message} produced non-finite coefficients")
        for pjets in (pj, embed_r6(pj)):
            assert _oracle_outcome(_pair_route, pjets) == _oracle_outcome(_jet_route_frenet, pjets)

    @pytest.mark.parametrize("m", [2, 4, 5])
    def test_other_frame_sizes_match_jet_route_bits(self, m):
        # Derivatives of order 5 and up scale by 5, 3 and 7, whose products
        # round in the order jets._derivative takes them.
        rng = random.Random(m)
        compared = 0
        for t in grid(TORUS_KNOT, 9):
            pj = curve_point_jets(TORUS_KNOT, t, 7)
            for lift in (LiftKind.vertical((1.0, -2.0, 0.5)), LiftKind.complete()):
                pjets = lifted_point_jets(pj, lift, NONFLAT, (1.0, -2.0, 0.5))
                pjets = tuple(tuple(c * rng.uniform(0.5, 2.0) for c in cs) for cs in pjets)
                want = _oracle_outcome(lambda p: _jet_route_frenet(p, m), pjets)
                got = _oracle_outcome(lambda p: _gen_route(p, m), pjets)
                assert got == want
                compared += not isinstance(want[0], type)
        assert compared >= 9

    def test_cross_product_failure_matches_jet_route(self):
        # E1 and E2 are finite, with slopes near the largest float; the slope
        # of the first component of E1 x E2 is their sum.
        pj = _from_derivatives((0.0, 1.0, 1.0), (1e-5, 0.0, 0.0), (0.0, -1.5e303, 1.5e303))
        want = _oracle_outcome(_jet_route_frenet, pj)
        assert want == (NonFiniteJet, "subtraction produced non-finite coefficients")
        assert _oracle_outcome(_pair_route, pj) == want

    def test_zero_norm_floor(self):
        # A rank tolerance of 0 lets a vanishing residual reach the norm floor.
        pj = embed_r6(curve_point_jets(LINE, 0.5))
        with pytest.raises(ZeroNorm):
            _jet_route_frenet(pj, rank_tol=0.0)
        with pytest.raises(ZeroNorm):
            generalized_frenet(pj, 3, rank_tol=0.0)


# --- frame jets at order 2 against the order-K route ------------------------------


def _full_order_frame_jets(pjets, cfg: ToleranceConfig, t: float) -> FrameJets:
    """frame_jets at the orders the point jets allow, as lists of Jets: T
    and speed at K-1, N and B at K-2."""
    K = len(pjets[0]) - 1
    v1 = d(jets(pjets))
    v2 = d(v1)
    v3 = d(v2)
    speed = norm(v1)
    T = scale(v1, Jet.constant(1.0, K - 1) / speed)
    c = cross(cut(v1, K - 2), v2)
    cval = value(c)
    cn_val = fnorm(cval)
    kappa = cn_val / speed.value**3
    if kappa < cfg.kappa_floor or cn_val < 1e-12:
        raise DegenerateCurvature(t, kappa, cfg.kappa_floor)
    B = scale(c, Jet.constant(1.0, K - 2) / norm(c))
    N = cross(B, cut(T, K - 2))
    tau = sum(a * b for a, b in zip(cval, value(v3))) / (cn_val * cn_val)
    return FrameJets(T=T, N=N, B=B, speed=speed, kappa=kappa, tau=tau)


def _order_two(full: FrameJets) -> FrameJets:
    """The full-order reference cut to the order-2 triples of frame_jets."""
    T, N, B = (tuple(e.coeffs[:3] for e in V) for V in (full.T, full.N, full.B))
    return FrameJets(T=T, N=N, B=B, speed=full.speed.coeffs[:3], kappa=full.kappa, tau=full.tau)


def _frame_bits(fj: FrameJets):
    vectors = [[_bits(c) for c in V] for V in (fj.T, fj.N, fj.B)]
    return vectors, _bits(fj.speed), _bits((fj.kappa, fj.tau))


_FRAME_OVERFLOWS = pytest.mark.parametrize("coeffs", [
    {1: 1e160},
    {2: 0.5e308},
    {2: -0.85e308},
    {1: 1e120, 3: 1e200},
    {4: 1e308},
], ids=["speed", "slope", "negative-slope", "cross", "third-derivative"])


def _overflowing_point_jets(coeffs):
    """Point jets of (t, t^2, t^3) at 0 with the coefficients of x1 in
    ``coeffs`` replaced: finite, but the frame arithmetic overflows."""
    c = [0.0, 1.0, 0.0, 0.0, 0.0, 0.0]
    for k, v in coeffs.items():
        c[k] = v
    x1 = Jet(c)
    x2 = Jet([0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
    x3 = Jet([0.0, 0.0, 0.0, 1.0, 0.0, 0.0])
    return as_tuples((x1, x2, x3))


class TestOrderTwoFrame:
    @pytest.mark.parametrize("curve", [HELIX, USH, TORUS_KNOT], ids=lambda c: c.name)
    def test_matches_full_order_bits(self, curve):
        cfg = ToleranceConfig()
        for t in grid(curve, 11):
            pj = curve_point_jets(curve, t)
            fj = frame_jets(pj, cfg, t)
            assert [len(c) for V in (fj.T, fj.N, fj.B) for c in V] + [len(fj.speed)] == [3] * 10
            assert _frame_bits(fj) == _frame_bits(_order_two(_full_order_frame_jets(pj, cfg, t)))

    def test_random_curves_match_full_order_bits(self):
        rng = random.Random(4242)
        cfg = ToleranceConfig()
        compared = 0
        for _ in range(150):
            curve = _random_curve(rng)
            t = rng.uniform(-2.0, 2.0)
            try:
                pj = curve_point_jets(curve, t, rng.choice((4, 5, 7)))
                want = _full_order_frame_jets(pj, cfg, t)
            except (JetError, DegenerateCurvature):
                continue
            assert _frame_bits(frame_jets(pj, cfg, t)) == _frame_bits(_order_two(want))
            compared += 1
        assert compared >= 75

    def test_order_four_still_required(self):
        from frenetlift.jets import OrderExceeded

        with pytest.raises(OrderExceeded):
            frame_jets(curve_point_jets(HELIX, 0.5, 3), ToleranceConfig(), 0.5)

    @pytest.mark.parametrize("kind", ["v", "c", "flat_h", "h"])
    @pytest.mark.parametrize("curve", [HELIX, TORUS_KNOT], ids=["helix", "torus_knot"])
    def test_lifted_frame_matches_full_order(self, curve, kind):
        lifts = {
            "v": (LiftKind.vertical((1.0, -2.0, 0.5)), Connection.flat()),
            "c": (LiftKind.complete(), Connection.flat()),
            "flat_h": (LiftKind.horizontal((1.0, -0.5, 0.75)), Connection.flat()),
            "h": (LiftKind.horizontal((1.0, -0.5, 0.75)), NONFLAT),
        }
        lk, G = lifts[kind]
        lc = LiftedCurve(curve, lk, G)
        for t in grid(curve, 17)[:2]:
            pj = curve_point_jets(curve, t)
            P = lc.point_jets(t)
            want = lc._lift_pairs(_order_two(_full_order_frame_jets(pj, lc.cfg, t)), P)
            got = lc.frame(t)
            assert _pair_bits(got) == _pair_bits(want)

    @pytest.mark.parametrize("kind", ["v", "c", "flat_h", "h"])
    @pytest.mark.parametrize("curve", [HELIX, TORUS_KNOT], ids=["helix", "torus_knot"])
    def test_sweep_frame_matches_jet_route_at_every_point(self, curve, kind):
        lk, G = _LIFTS[kind]
        lc = LiftedCurve(curve, lk, G)
        ts = grid(curve, 17)
        for t, w in zip(ts, lc._fibers(ts)):
            pj = curve_point_jets(curve, t)
            P = lifted_point_jets(pj, lk, G, lc.anchor, w)
            want = _jet_route_lift_frame(lc, _full_order_frame_jets(pj, lc.cfg, t), P)
            got = lc._pairs(t, w)[1]
            assert _pair_bits(got) == _vector_bits(want)

    @pytest.mark.parametrize("kind", ["v", "c", "flat_h", "h"])
    def test_frame_is_the_analyzed_frame(self, kind):
        # frame(t) returns the pairs _pairs builds for apparatus(t): its
        # values are the apparatus frame and its slopes the analyzed ones.
        lk, G = _LIFTS[kind]
        lc = LiftedCurve(TORUS_KNOT, lk, G)
        for t in grid(TORUS_KNOT, 17)[:3]:
            frame = lc.frame(t)
            pairs = lc._pairs(t, next(lc._fibers([t])))[1]
            assert [_bits([p[0] for p in V]) for V in frame] == [
                _bits(V) for V in lc.apparatus(t).frame]
            assert _pair_bits(frame) == _pair_bits(pairs)

    def test_random_lifted_frames_match_jet_route(self):
        rng = random.Random(977)
        cfg = ToleranceConfig()
        compared = {"vertical": 0, "complete": 0, "flat": 0, "nonflat": 0}
        for _ in range(240):
            curve = _random_curve(rng)
            t = rng.uniform(-2.0, 2.0)
            w = tuple(rng.uniform(-2.0, 2.0) for _ in range(3))
            lk = rng.choice((LiftKind.vertical(w), LiftKind.complete(), LiftKind.horizontal(w)))
            G = rng.choice((Connection.flat(), random_connection(rng)))
            try:
                pj = curve_point_jets(curve, t, rng.choice((4, 5, 7)))
                fj = frame_jets(pj, cfg, t)
                full = _full_order_frame_jets(pj, cfg, t)
                P = lifted_point_jets(pj, lk, G, w, w)
            except (JetError, DegenerateCurvature, ZeroSpeed):
                continue
            lc = LiftedCurve(curve, lk, G)
            want = _vector_bits(_jet_route_lift_frame(lc, full, P))
            assert _pair_bits(lc._lift_pairs(fj, P)) == want
            assert _pair_bits(lc._lift_pairs(_order_two(full), P)) == want
            key = lk.kind if lk.kind != "horizontal" else ("flat" if G.is_flat else "nonflat")
            compared[key] += 1
        assert min(compared.values()) >= 15

    @_FRAME_OVERFLOWS
    def test_product_overflow_matches_full_order(self, coeffs):
        pj = _overflowing_point_jets(coeffs)
        outcomes = []
        for route in (frame_jets, _full_order_frame_jets):
            with pytest.raises(NonFiniteJet) as exc:
                route(pj, ToleranceConfig(), 0.5)
            outcomes.append((type(exc.value), str(exc.value)))
        assert outcomes[0] == outcomes[1]

    @_FRAME_OVERFLOWS
    def test_product_overflow_names_t(self, coeffs):
        with pytest.raises(NonFiniteJet, match="produced non-finite") as exc:
            frame_jets(_overflowing_point_jets(coeffs), ToleranceConfig(), 0.5)
        assert exc.value.t == 0.5
        assert getattr(exc.value, "component", None) is None

    @pytest.mark.parametrize("rows, message", [
        # |b'|^2 overflows in a running sum.
        (((0, 1.3e154), (0, 1.3e154), (0, 0, 0, 1)), "addition"),
        # The norm of b', then its reciprocal, then T = b' / |b'|.
        (((0, 1e-6), (0, 0, 1e151), (0, 0, 0, 1 / 3)), "operation"),
        (((0, 1e-6), (0, 0, 0.5e146), (0, 0, 0, 1 / 3)), "division"),
        (((0, 1e-6), (0, 0, 1.0), (0, 0, 0, 1e305 / 3)), "multiplication"),
        # b' x b'': both products of component 1 are finite, their
        # difference is not.
        (((0, 1.0), (0, 1.0, 0, -0.2e308), (0, 1.0, 0, 0.2e308)), "subtraction"),
    ], ids=["dot-sum", "norm", "reciprocal", "unit-product", "cross-difference"])
    def test_failure_at_each_step_names_t(self, rows, message):
        # Order-4 point jets: the full-order route then reads the coefficients
        # the triples read, and at most one more of T.
        pj = tuple(tuple(map(float, r)) + (0.0,) * (5 - len(r)) for r in rows)
        with pytest.raises(NonFiniteJet) as exc:
            frame_jets(pj, ToleranceConfig(), 0.5)
        assert str(exc.value) == f"{message} produced non-finite coefficients"
        assert exc.value.t == 0.5
        with pytest.raises(NonFiniteJet) as full:
            _full_order_frame_jets(pj, ToleranceConfig(), 0.5)
        assert str(full.value) == str(exc.value)

    def test_speed_cubed_overflow_names_t(self):
        # Every product of the frame is finite; |b'|^3 is not.
        pj = ((0.0, 1.3e154, -2.0, 0.0, 0.0), (0.0, 1.0, -1.0, 0.0, -2.0),
              (0.0, 1e151, 1.0, 1.0, 0.5))
        with pytest.raises(NonFiniteJet, match=r"^curvature overflows at t=0\.5$"):
            frame_jets(pj, ToleranceConfig(), 0.5)
        with pytest.raises(OverflowError):
            _full_order_frame_jets(pj, ToleranceConfig(), 0.5)

    def test_curvature_overflow_names_t(self):
        # Every jet coefficient is finite, but |b'|^3 overflows.
        big = CurveSpec.from_strings("1e103*t", "t^2", "t^3", 0.5, 1.0)
        with pytest.raises(NonFiniteJet, match=r"^curvature overflows at t=0\.5$") as exc:
            frame_jets(curve_point_jets(big, 0.5), ToleranceConfig(), 0.5)
        # The message names t already; the error carries no t to repeat.
        assert not hasattr(exc.value, "t")


_LIFTS = {
    "v": (LiftKind.vertical((1.0, -2.0, 0.5)), Connection.flat()),
    "c": (LiftKind.complete(), Connection.flat()),
    "flat_h": (LiftKind.horizontal((1.0, -0.5, 0.75)), Connection.flat()),
    "h": (LiftKind.horizontal((1.0, -0.5, 0.75)), NONFLAT),
}


def _jet_route_lift_frame(lc: LiftedCurve, fj: FrameJets, P):
    """The lifted frame through order-1 Jet operations on the full-order
    frame of _full_order_frame_jets: the oracle for the float pairs of
    LiftedCurve._lift_pairs."""
    kind = lc.kind.kind
    if kind == "vertical":
        zero = Jet.constant(0.0, 1)
        return tuple([zero, zero, zero] + cut(V, 1) for V in (fj.T, fj.N, fj.B))
    if kind == "complete":
        return tuple(cut(V, 1) + cut(d(V), 1) for V in (fj.T, fj.N, fj.B))
    wjets = [Jet(cs[:2]) for cs in P[3:6]]
    out = []
    for V in (fj.T, fj.N, fj.B):
        v3 = cut(V, 1)
        fiber = [-u for u in lc.connection.contract(wjets, v3)]
        out.append(v3 + fiber)
    return tuple(out)


def _vector_bits(vectors):
    return [[_bits(e.coeffs) for e in V] for V in vectors]


def _pair_bits(vectors):
    return [[_bits(p) for p in V] for V in vectors]


class TestUniformGrid:
    def test_endpoints_exact(self):
        # Accumulated steps can overshoot the top endpoint by one ulp; the
        # grid must pin both ends so closed-domain checks never trip.
        for n in (2, 3, 60, 119, 120, 1000):
            g = uniform_grid(USH.t_min, USH.t_max, n)
            assert g[0] == USH.t_min
            assert g[-1] == USH.t_max
            assert len(g) == n
            assert all(USH.t_min <= t <= USH.t_max for t in g)
            assert all(a < b for a, b in zip(g, g[1:]))

    def test_sweep_at_awkward_sample_count(self):
        for t in uniform_grid(USH.t_min, USH.t_max, 120):
            frenet_apparatus(USH, t)

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            uniform_grid(0.0, 1.0, 1)


class TestToleranceConfig:
    def test_defaults(self):
        cfg = ToleranceConfig()
        assert cfg.kappa_floor == 1e-9
        assert cfg.ortho_tol == 1e-12
        assert cfg.residual_tol == 1e-9
        assert cfg.unit_speed_tol == 1e-8

    def test_positive_required(self):
        with pytest.raises(ValueError):
            ToleranceConfig(kappa_floor=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_finite_required(self, value):
        # NaN fails every comparison and inf passes any bound: either one
        # would switch its check off.
        for f in dataclasses.fields(ToleranceConfig):
            with pytest.raises(ValueError, match="positive and finite"):
                ToleranceConfig(**{f.name: value})

    def test_replace(self):
        cfg = dataclasses.replace(ToleranceConfig(), residual_tol=1e-16)
        assert cfg.residual_tol == 1e-16
        assert cfg.ortho_tol == 1e-12
