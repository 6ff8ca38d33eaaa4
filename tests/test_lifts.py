"""Lift operators, the identity suite, parallel transport, curve lifts."""

import gc
import math
import random
import weakref

import pytest

from frenetlift import lifts
from frenetlift.expr import (
    CurveSpec,
    FieldSpec,
    BinOp,
    Call,
    FormatError,
    Neg,
    Num,
    eval_float,
    eval_forward,
    eval_jet,
    eval_second,
    scalar_field,
    vector_field,
)
from frenetlift.jets import DomainError, Jet, NonFiniteJet, _padd
from frenetlift.lifted_frenet import LiftedCurve
from frenetlift.lifts import (
    Connection,
    LiftKind,
    LiftedField,
    TangentPoint,
    apply_field,
    field_sum,
    lift_field,
    lift_function,
    lifted_point_jets,
    parallel_transport,
    parse_connection_file,
    prop21_check,
    transport_grid,
)
from frenetlift.frenet import DomainIntervalError, curve_point_jets, frame_jets
from frenetlift.verify import (
    builtin_curves,
    random_ast,
    random_connection,
    random_quadruple,
    random_tangent_point,
)
from jet_vectors import jets, value

HELIX = builtin_curves()["helix345"]
USH = builtin_curves()["unit_helix"]
LINE01 = builtin_curves()["line"]


class TestFunctionLifts:
    def test_vertical_is_pullback(self):
        f = scalar_field("x1+2*x2")
        p = TangentPoint((1, 1, 0), (9, 9, 9))
        assert lift_function(f, "v", p) == pytest.approx(3.0)

    def test_complete_is_fiber_gradient(self):
        f = scalar_field("x1*x2")
        p = TangentPoint((2, 3, 0), (1, 1, 0))
        assert lift_function(f, "c", p) == pytest.approx(5.0)

    def test_complete_of_constant_vanishes(self):
        f = scalar_field("1")
        p = TangentPoint((0.3, -2, 5), (4, 4, 4))
        assert lift_function(f, "c", p) == 0.0

    def test_short_and_full_kind_names_agree(self):
        f = scalar_field("x1*x2 + sin(x3)")
        X = vector_field("x2", "x3*x1", "1")
        p = TangentPoint((0.3, -2, 5), (4, -1, 0.5))
        for short, full in (("v", "vertical"), ("c", "complete")):
            assert lift_function(f, short, p) == lift_function(f, full, TangentPoint(p.x, p.y))
            assert apply_field(lift_field(X, "c"), (short, f), p) == \
                apply_field(lift_field(X, "complete"), (full, f), TangentPoint(p.x, p.y))

    @pytest.mark.parametrize("kind", ["h", "horizontal", "H", "x"])
    def test_unknown_kind_is_refused(self, kind):
        f = scalar_field("x1*x2")
        p = TangentPoint((1, 2, 3), (0, 0, 1))
        with pytest.raises(ValueError) as exc:
            lift_function(f, kind, p)
        assert str(exc.value) == f"unknown function lift kind {kind!r}"
        with pytest.raises(ValueError) as exc:
            apply_field(lift_field(vector_field("x2", "0", "0"), "v"), (kind, f), p)
        assert str(exc.value) == f"unknown scalar lift kind {kind!r}"


class TestFieldLifts:
    def test_vertical(self):
        X = vector_field("x2", "0", "0")
        val = lift_field(X, "v").at(TangentPoint((1, 2, 3), (7, 8, 9)))
        assert val.base == pytest.approx((0, 0, 0))
        assert val.fiber == pytest.approx((2, 0, 0))

    def test_horizontal_of_coordinate_field_with_flat_connection(self):
        X = vector_field("1", "0", "0")
        val = lift_field(X, "h").at(TangentPoint((1, 2, 3), (4, 5, 6)))
        assert val.base == pytest.approx((1, 0, 0))
        assert val.fiber == pytest.approx((0, 0, 0))

    def test_complete_of_identity_field(self):
        X = vector_field("x1", "x2", "x3")
        val = lift_field(X, "c").at(TangentPoint((1, 2, 3), (1, 0, 0)))
        assert val.base == pytest.approx((1, 2, 3))
        assert val.fiber == pytest.approx((1, 0, 0))

    def test_vertical_base_always_zero(self):
        rng = random.Random(11)
        for _ in range(20):
            X, _, _, _ = random_quadruple(rng)
            p = random_tangent_point(rng)
            assert lift_field(X, "v").at(p).base == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("kind", ["H", "x", "Vertical"])
    def test_unknown_kind_is_refused(self, kind):
        X = vector_field("x2", "0", "0")
        with pytest.raises(ValueError) as exc:
            lift_field(X, kind)
        assert str(exc.value) == f"unknown field lift kind {kind!r}"

    def test_flat_horizontal_equals_complete_for_constant_fields(self):
        X = vector_field("1.5", "-0.25", "2")
        p = TangentPoint((0.4, -1.7, 2.2), (3, -5, 8))
        h = lift_field(X, "h").at(p).as_tuple()
        c = lift_field(X, "c").at(p).as_tuple()
        assert max(abs(a - b) for a, b in zip(h, c)) <= 1e-13


    def test_error_spans_of_equal_subtrees(self):
        # field_sum shares the component trees of both summands; each
        # log(x1) must still report its own span.
        lone = vector_field("log(x1)", "x2", "x3")
        inner = vector_field("1 + log(x1)", "x2", "x3")
        p = TangentPoint((-1, 1, 1), (1, 0, 0))
        cases = [(lone, (0, 7)), (inner, (4, 11)),
                 (field_sum(lone, inner), (0, 7)), (field_sum(inner, lone), (4, 11))]
        for X, span in cases:
            for kind in ("vertical", "complete", "horizontal"):
                with pytest.raises(DomainError) as exc:
                    LiftedField(X, kind, Connection.flat()).at(p)
                assert exc.value.span == span
            with pytest.raises(DomainError) as exc:
                lift_function(FieldSpec("scalar", X.components[:1]), "c", p)
            assert exc.value.span == span


class TestApplyField:
    def test_vertical_on_complete_lift(self):
        X = vector_field("1", "0", "0")
        f = scalar_field("x1")
        p = TangentPoint((1, 2, 3), (4, 5, 6))
        assert apply_field(lift_field(X, "v"), ("c", f), p) == pytest.approx(1.0)

    def test_vertical_kills_vertical(self):
        X = vector_field("x1+x3", "x2^2", "1")
        f = scalar_field("x1*x2+x3")
        p = TangentPoint((0.7, -1.1, 2.3), (1, 2, 3))
        assert apply_field(lift_field(X, "v"), ("v", f), p) == 0.0

    def test_horizontal_on_vertical_lift(self):
        X = vector_field("1", "0", "0")
        f = scalar_field("x1^2")
        p = TangentPoint((3, 0, 0), (0, 0, 0))
        assert apply_field(lift_field(X, "h"), ("v", f), p) == pytest.approx(6.0)

    def test_vertical_lift_reads_no_base_derivative(self, monkeypatch):
        # X^v = (0, X) has no base part.
        X = vector_field("x1+x3", "x2^2", "1")
        f = scalar_field("-(x1*x2*x3)")
        p = TangentPoint((0.7, -1.1, 2.3), (1, 2, 3))
        Fv = lift_field(X, "v")
        # X^v(f^c) is f's first coefficient along X(x), with no order-2 pass.
        monkeypatch.setattr(lifts, "eval_second", None)
        assert apply_field(Fv, ("c", f), p).hex() == _one_pass(f, p.x, Fv.at(p).fiber).hex()
        # X^v(f^v) is +0.0, where f's pass along zero gives -0.0.
        assert _one_pass(f, p.x, (0.0, 0.0, 0.0)).hex() == "-0x0.0p+0"
        assert apply_field(Fv, ("v", f), p).hex() == "0x0.0p+0"


class TestProp21:
    def test_polynomial_quadruple_flat(self):
        X = vector_field("x2", "0", "0")
        Y = vector_field("0", "x3", "0")
        f = scalar_field("x1")
        g = scalar_field("x2")
        p = TangentPoint((0.3, 1.2, -0.8), (2, -1, 3))
        result = prop21_check(X, Y, f, g, Connection.flat(), p)
        assert result.max_residual <= 1e-12

    def test_coordinate_field_pairing(self):
        X = vector_field("1", "0", "0")
        f = scalar_field("x1")
        p = TangentPoint((1, 2, 3), (4, 5, 6))
        lhs = apply_field(lift_field(X, "v"), ("c", f), p)
        rhs = lift_function(scalar_field("1"), "v", p)  # (Xf) = 1 here
        assert lhs == pytest.approx(1.0)
        assert lhs - rhs == pytest.approx(0.0)

    def test_identities_connection_independent(self):
        X = vector_field("x2", "0", "0")
        Y = vector_field("0", "x3", "0")
        f = scalar_field("x1")
        g = scalar_field("x2")
        G = Connection.from_entries({(1, 1, 1): 0.4, (2, 3, 1): -0.2, (3, 2, 2): 0.7})
        p = TangentPoint((0.3, 1.2, -0.8), (2, -1, 3))
        result = prop21_check(X, Y, f, g, G, p)
        assert result.max_residual <= 1e-12

    def test_random_suite(self):
        rng = random.Random(17)
        worst = 0.0
        for _ in range(5):
            quad = random_quadruple(rng)
            for G in (Connection.flat(), random_connection(rng)):
                for _ in range(20):
                    p = random_tangent_point(rng)
                    worst = max(worst, prop21_check(*quad, G, p).max_residual)
        assert worst <= 1e-10

    def test_nan_residual_is_not_dropped(self):
        # Component 4 of f^c X^v + f^v X^c is 1e10*1e299 + 10*(-1e308), which
        # is inf - inf; max() over the components would keep the 0 of the
        # others and drop the NaN.
        X = vector_field("1e300/x1", "x2", "x3")
        Y = vector_field("x2", "x3", "x1")
        p = TangentPoint((10.0, 1.0, 1.0), (1e10, 0.0, 0.0))
        result = prop21_check(X, Y, scalar_field("x1"), scalar_field("x2"), Connection.flat(), p)
        assert [k for k, v in result.residuals.items() if math.isnan(v)] == ["module_c"]
        assert all(math.isfinite(v) for k, v in result.residuals.items() if k != "module_c")
        assert math.isnan(result.max_residual)
        # Wherever the NaN comes in the order, the maximum is NaN.
        for i in range(3):
            values = [0.0, 1.0, 2.0]
            values.insert(i, math.nan)
            assert math.isnan(lifts.Prop21Result(dict(zip("abcd", values))).max_residual)
        assert lifts.Prop21Result({"a": 1.0, "b": math.inf}).max_residual == math.inf


class TestParallelTransport:
    def test_flat_identity_exact(self):
        w = parallel_transport(Connection.flat(), HELIX, (1, 2, 3), 4.0, 100)
        assert w == (1.0, 2.0, 3.0)

    def test_exponential_decay(self):
        G = Connection.from_entries({(1, 1, 1): 1.0})
        w = parallel_transport(G, LINE01, (1, 0, 0), 1.0, 100)
        assert abs(w[0] - math.exp(-1)) <= 1e-9
        assert w[1] == w[2] == 0.0

    def test_fourth_order_convergence(self):
        G = Connection.from_entries({(1, 1, 1): 1.0})
        e100 = abs(parallel_transport(G, LINE01, (1, 0, 0), 1.0, 100)[0] - math.exp(-1))
        e200 = abs(parallel_transport(G, LINE01, (1, 0, 0), 1.0, 200)[0] - math.exp(-1))
        assert e200 <= e100 / 12.0

    def test_observed_order_is_four(self):
        # w1 = exp(-t) along the x-axis; each doubling of the step count
        # divides the RK4 error by 2^4.
        x_axis = CurveSpec.from_strings("t", "0", "0", 0.0, 1.0, "x_axis")
        G = Connection.from_entries({(1, 1, 1): 1.0})
        errors = [
            abs(parallel_transport(G, x_axis, (1.0, 0.0, 0.0), 1.0, steps)[0] - math.exp(-1.0))
            for steps in (25, 50, 100, 200, 400, 800)
        ]
        for e_prev, e in zip(errors, errors[1:]):
            assert abs(math.log2(e_prev / e) - 4.0) <= 0.1

    @pytest.mark.parametrize("texts, w0", [
        (("3*cos(t/5)", "3*sin(t/5)", "4*t/5"), (1.0, -0.5, 0.75)),
        (("(2 + cos(3*t))*cos(2*t)", "exp(t/4)*sin(2*t)", "t^2.5"), (0.3, 1.0, -2.0)),
        # Zero velocity components and signed zeros in w0: the zero signs
        # of a contraction row, with symbols or without, reach the result.
        (("t", "0*t", "1"), (-0.0, 1.0, -2.0)),
        (("t", "0*t", "1"), (1.0, -0.0, 2.0)),
    ])
    def test_rk4_bits_match_contract_reference(self, texts, w0):
        # The stages contract on floats in place; the reference takes each
        # velocity from order-1 jets and contracts through Connection.contract.
        curve = CurveSpec.from_strings(*texts, 0.5, 1.5)

        def rhs(G, u, w):
            vel = [eval_jet(c, {"t": Jet.variable(u, 1)}).coeffs[1] for c in curve.components]
            return [-v for v in G.contract(vel, w)]

        def reference(G, w, steps):
            h = 1.0 / steps
            for i in range(steps):
                u = 0.5 + i * h
                k1 = rhs(G, u, w)
                k2 = rhs(G, u + 0.5 * h, [a + 0.5 * h * b for a, b in zip(w, k1)])
                k3 = rhs(G, u + 0.5 * h, [a + 0.5 * h * b for a, b in zip(w, k2)])
                k4 = rhs(G, u + h, [a + h * b for a, b in zip(w, k3)])
                w = [a + (h / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                     for a, b1, b2, b3, b4 in zip(w, k1, k2, k3, k4)]
            return w

        for G in (Connection.flat(), Connection.from_entries({(1, 2, 3): 0.3, (3, 3, 2): 0.15}),
                  Connection.from_entries({(1, 2, 3): -2.5, (3, 3, 2): 1e-3}),
                  random_connection(random.Random(5))):
            got = parallel_transport(G, curve, w0, 1.5, 40)
            assert [x.hex() for x in got] == [x.hex() for x in reference(G, list(w0), 40)]

    def test_stage_code_shared_by_symbol_pattern(self):
        # The symbols are arguments of the generated stage, so connections
        # with the same nonzero symbols share its code.
        same = [Connection.from_entries({(1, 2, 3): v, (3, 3, 2): -v}) for v in (0.3, -2.5)]
        other = Connection.from_entries({(1, 2, 3): 0.3})
        for G in same + [other]:
            parallel_transport(G, HELIX, (1.0, -0.5, 0.75), 0.5, 2)
        assert same[0]._stage.__code__ is same[1]._stage.__code__
        assert same[0]._stage is not same[1]._stage
        assert other._stage.__code__ is not same[0]._stage.__code__

    def test_linearity_in_w0(self):
        rng = random.Random(3)
        G = random_connection(rng)
        u, v = (0.7, -0.3, 1.1), (-0.2, 0.9, 0.4)
        combo = tuple(2.0 * a - 0.5 * b for a, b in zip(u, v))
        wu = parallel_transport(G, HELIX, u, 3.0, 500)
        wv = parallel_transport(G, HELIX, v, 3.0, 500)
        wc = parallel_transport(G, HELIX, combo, 3.0, 500)
        for c, a, b in zip(wc, wu, wv):
            assert abs(c - (2.0 * a - 0.5 * b)) <= 1e-10

    def test_grid_pass_matches_single_calls(self):
        rng = random.Random(5)
        G = random_connection(rng)
        ts = [0.5, 1.5, 3.0]
        table = transport_grid(G, HELIX, (1.0, -1.0, 0.5), ts)
        for t in ts:
            direct = parallel_transport(G, HELIX, (1.0, -1.0, 0.5), t)
            assert max(abs(a - b) for a, b in zip(table[t], direct)) <= 1e-9

    def test_transport_at_t_min(self):
        G = Connection.from_entries({(1, 1, 1): 1.0})
        assert parallel_transport(G, LINE01, (1, 2, 3), 0.0) == (1.0, 2.0, 3.0)

    def test_step_cap_raises_before_integrating(self, monkeypatch):
        def no_steps(*args):
            raise AssertionError("transport started")

        monkeypatch.setattr(lifts, "_rk4_segment", no_steps)
        G = Connection.from_entries({(1, 1, 1): 1.0})
        cap = lifts.MAX_TRANSPORT_STEPS
        far = CurveSpec.from_strings("t", "0", "0", 0.0, 1e300)
        whole = CurveSpec.from_strings("t", "0", "0", -8e307, 8e307)
        calls = [
            lambda: parallel_transport(G, far, (1, 0, 0), 1e300),
            lambda: parallel_transport(G, whole, (1, 0, 0), 8e307),
            lambda: parallel_transport(G, LINE01, (1, 0, 0), 1.0, cap + 1),
            lambda: transport_grid(G, far, (1, 0, 0), [0.0, 1e300]),
            lambda: transport_grid(G, whole, (1, 0, 0), [8e307]),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="MAX_TRANSPORT_STEPS"):
                call()
        monkeypatch.setattr(lifts, "TRANSPORT_STEPS_PER_UNIT", cap)
        with pytest.raises(ValueError, match="MAX_TRANSPORT_STEPS"):
            transport_grid(G, LINE01, (1, 0, 0), [1.0])


    @pytest.mark.parametrize("w0", [(1.0, 2.0, 3.0, 4.0), (1.0, 2.0), (math.inf, 0.0, 0.0),
                                    (0.0, math.nan, 0.0), (0.0, 0.0, -math.inf)],
                             ids=["four", "two", "inf", "nan", "-inf"])
    @pytest.mark.parametrize("transport", [
        lambda G, w0: parallel_transport(G, LINE01, w0, 0.5),
        lambda G, w0: transport_grid(G, LINE01, w0, [0.5]),
        lambda G, w0: transport_grid(G, LINE01, w0, [0.0]),
    ], ids=["single", "grid", "grid-at-t-min"])
    def test_start_needs_three_finite_components(self, transport, w0):
        # One check for both: the grid used to drop a 4th component, fail
        # inside the RK4 stage on two, and both returned NaN from inf.
        G = Connection.from_entries({(1, 1, 1): 1.0, (2, 1, 3): 0.5})
        with pytest.raises(ValueError, match="^w0 must have 3 finite components$"):
            transport(G, w0)

    def test_nan_parameter_out_of_domain(self):
        G = Connection.from_entries({(1, 1, 1): 1.0})
        with pytest.raises(DomainIntervalError):
            parallel_transport(G, LINE01, (1, 0, 0), math.nan)
        with pytest.raises(DomainIntervalError):
            transport_grid(G, LINE01, (1, 0, 0), [0.5, math.nan])


class TestCurveLifts:
    def test_vertical_point(self):
        pj = curve_point_jets(HELIX, 0.0)
        lifted = lifted_point_jets(pj, LiftKind.vertical((0, 0, 0)), Connection.flat(), (0, 0, 0))
        assert value(jets(lifted)) == pytest.approx((0, 0, 0, 3, 0, 0))

    def test_complete_point(self):
        pj = curve_point_jets(USH, 0.0)
        lifted = lifted_point_jets(pj, LiftKind.complete(), Connection.flat())
        assert value(jets(lifted)) == pytest.approx((3, 0, 0, 0, 0.6, 0.8))

    def test_horizontal_point_flat(self):
        t = math.pi
        pj = curve_point_jets(HELIX, t)
        lifted = lifted_point_jets(
            pj, LiftKind.horizontal((1, 0, 0)), Connection.flat(), w_value=(1, 0, 0)
        )
        base = value(jets(pj))
        assert value(jets(lifted)) == pytest.approx(base + (1, 0, 0))

    def test_horizontal_kind_requires_w0(self):
        with pytest.raises(ValueError):
            LiftKind("horizontal")


class TestConnectionFile:
    def test_entries(self):
        G = parse_connection_file("gamma 1 1 1 = 1.0\ngamma 2 3 1 = -0.5\n")
        assert G.gamma[0][0][0] == 1.0
        assert G.gamma[1][2][0] == -0.5
        assert G.gamma[2][2][2] == 0.0

    def test_flat_shorthand(self):
        assert parse_connection_file("flat = true\n").is_flat

    def test_flat_with_entries_rejected(self):
        with pytest.raises(FormatError):
            parse_connection_file("flat = true\ngamma 1 1 1 = 1\n")

    def test_bad_indices(self):
        with pytest.raises(FormatError):
            parse_connection_file("gamma 0 1 1 = 1\n")

    @pytest.mark.parametrize("index", ["0", "4", "01", "+1", "1.0", "1e0", "-1", "\u0661",
                                       "\u0663", "\u00b9", "one"])
    def test_indices_are_exactly_1_2_or_3(self, index):
        with pytest.raises(FormatError, match=r"gamma indices must each be 1, 2 or 3"):
            parse_connection_file(f"gamma 1 {index} 3 = 0.5\n")

    @pytest.mark.parametrize("value", ["\u0663", "1_0", "inf", "nan", "+1", ".5", "1.", "0x1"])
    def test_values_are_expression_literals(self, value):
        with pytest.raises(FormatError, match=r"^line 1: gamma value must be a number"):
            parse_connection_file(f"gamma 1 2 3 = {value}\n")

    def test_empty_is_flat(self):
        assert parse_connection_file("# nothing\n").is_flat


# --- one order-2 pass and precomputed contraction terms -----------------------

_VARS = ("x1", "x2", "x3")


def _at(x):
    """A fresh tangent point over x, for the helpers that read only its x."""
    return TangentPoint(x, (0.0, 0.0, 0.0))


def _polarized(ast, x, a, b):
    """Three order-2 eval_jet calls polarized, the reference for the one
    eval_second pass of lifts._mixed_second."""

    def second(d):
        bindings = {name: Jet((float(x[i]), float(d[i]), 0.0)) for i, name in enumerate(_VARS)}
        return 2.0 * eval_jet(ast, bindings).coeffs[2]

    ab = tuple(u + v for u, v in zip(a, b))
    return 0.5 * (second(ab) - second(a) - second(b))


def _hex_or_error(func, *args):
    try:
        return func(*args).hex()
    except Exception as err:
        return type(err), str(err), getattr(err, "span", None)


def _loop_contract(G, direction, transported):
    """Connection.contract as a loop over all 27 symbols, the reference for
    its precomputed terms."""
    out = []
    for a in range(3):
        acc = None
        for b in range(3):
            for g in range(3):
                coeff = G.gamma[a][b][g]
                if coeff == 0.0:
                    continue
                term = direction[b] * transported[g] * coeff
                acc = term if acc is None else acc + term
        if acc is None:
            acc = 0.0 * direction[0] * transported[0]
        out.append(acc)
    return out


def _coeff_bits(values):
    return [[x.hex() for x in (v.coeffs if isinstance(v, Jet) else (v,))] for v in values]


class TestSecondOrderPass:
    def test_mixed_second_matches_three_jet_calls(self):
        rng = random.Random(20261106)
        raised = 0
        for _ in range(600):
            ast = random_ast(rng, 5, _VARS)
            x = [rng.uniform(-2.0, 2.0) for _ in range(3)]
            a = [rng.uniform(-3.0, 3.0) for _ in range(3)]
            b = [rng.uniform(-3.0, 3.0) for _ in range(3)]
            want = _hex_or_error(_polarized, ast, x, a, b)
            f = FieldSpec("scalar", (ast,))
            assert _hex_or_error(lifts._mixed_second, f, _at(x), a, b) == want
            raised += isinstance(want, tuple)
        assert 0 < raised < 600

    def test_mixed_second_on_suite_fields(self):
        rng = random.Random(20261107)
        for _ in range(40):
            X, _, f, g = random_quadruple(rng)
            p = random_tangent_point(rng)
            xval = lift_field(X, "v").at(p).fiber
            for scalar in (f, g):
                ast = scalar.components[0]
                want = _polarized(ast, p.x, p.y, xval).hex()
                assert lifts._mixed_second(scalar, p, p.y, xval).hex() == want

    def test_order2_error_of_earliest_direction(self):
        # a+b overflows in its second coefficient only; a and b do not.
        f = scalar_field("x1*x1*1e300")
        x, a, b = (1.0, 0.0, 0.0), (1e5, 0.0, 0.0), (1e5, 0.0, 0.0)
        want = _hex_or_error(_polarized, f.components[0], x, a, b)
        assert want[0] is NonFiniteJet
        assert _hex_or_error(lifts._mixed_second, f, _at(x), a, b) == want


class TestConnectionTerms:
    def test_contract_matches_loop(self):
        rng = random.Random(20261108)
        for _ in range(60):
            entries = {(a, b, c): rng.choice((0.0, -0.0, round(rng.uniform(-1, 1), 3)))
                       for a in (1, 2, 3) for b in (1, 2, 3) for c in (1, 2, 3)}
            G = Connection.from_entries(entries)
            assert G.is_flat == all(v == 0.0 for v in entries.values())
            floats = [[rng.uniform(-5, 5) for _ in range(3)] for _ in range(2)]
            for order in (1, 2):
                jets = [[Jet([rng.uniform(-5, 5) for _ in range(order + 1)]) for _ in range(3)]
                        for _ in range(2)]
                for direction, transported in (floats, jets):
                    want = _coeff_bits(_loop_contract(G, direction, transported))
                    assert _coeff_bits(G.contract(direction, transported)) == want

    def test_equality_and_hash_unchanged(self):
        G = Connection.from_entries({(1, 2, 3): 0.3, (3, 3, 2): 0.15})
        same = Connection(G.gamma)
        assert G == same and hash(G) == hash(same)
        assert Connection.flat() == Connection.from_entries({})
        assert hash(Connection.flat()) == hash(Connection.from_entries({}))
        assert G != Connection.flat()
        assert repr(G) == f"Connection(gamma={G.gamma!r})"


class TestFlatHorizontalFiber:
    def test_constant_negative_zero_pairs(self):
        curve = CurveSpec.from_strings("3*cos(t)", "-3*sin(t)", "-4*t", 0.0, 2.0)
        lc = LiftedCurve(curve, LiftKind.horizontal((-1.0, 0.0, 2.5)), Connection.flat())
        for t in (0.0, 0.4, 1.7):
            pj = curve_point_jets(curve, t)
            fj = frame_jets(pj, lc.cfg, t)
            P = lifted_point_jets(pj, lc.kind, lc.connection, None, (-1.0, 0.0, 2.5))
            w = [Jet(cs[:2]) for cs in P[3:6]]
            for V in lc._lift_pairs(fj, P):
                frame = [Jet(p) for p in V[:3]]
                want = [(-u).coeffs for u in _loop_contract(lc.connection, w, frame)]
                assert [tuple(x.hex() for x in p) for p in V[3:]] == \
                    [tuple(x.hex() for x in p) for p in want]
                assert all(math.copysign(1.0, x) == -1.0 for p in V[3:] for x in p)


class TestNonFlatHorizontalFiber:
    """The non-flat horizontal frame fiber, contracted on float pairs, has
    the bits of Connection.contract on order-1 Jets and of its 27-symbol
    loop reference, and raises what they raise."""

    CONNECTIONS = {
        # The second row holds no symbols: 0.0 * w[0] * V[0].
        "empty_row": Connection.from_entries({(1, 2, 3): 0.3, (3, 3, 2): 0.15}),
        "random": random_connection(random.Random(5)),
    }
    CURVES = {
        "helix": CurveSpec.from_strings("3*cos(t)", "-3*sin(t)", "-4*t", 0.0, 2.0),
        # Planar, so frame components and fiber slopes hold signed zeros.
        "planar": CurveSpec.from_strings("cos(t)", "0*t", "sin(t)", 0.0, 2.0),
    }
    # Fiber pairs set by hand on the lifted point: signed zeros, then
    # pairs whose products or sums overflow, or an infinite slope that
    # only the empty row's 0.0 * w[0] meets.
    ZERO_FIBERS = (((-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)),
                   ((0.0, 0.0), (-0.0, 1.5), (2.0, -0.0)))
    HUGE_FIBERS = (((1.0, math.inf), (0.5, 1.0), (-0.5, 2.0)),
                   ((1.7e308, 0.0),) * 3,
                   ((1.7e308, 1.7e308),) * 3)

    @staticmethod
    def _check(lc, fj, P):
        """Bits of the fiber pairs, or the error class and message."""
        G = lc.connection
        w = [Jet(cs[:2]) for cs in P[3:6]]
        frames = [[Jet(c[:2]) for c in V] for V in (fj.T, fj.N, fj.B)]

        def outcome(fibers):
            try:
                return [[tuple(x.hex() for x in p) for p in V] for V in fibers()]
            except NonFiniteJet as err:
                return type(err), str(err)

        want = outcome(lambda: [[(-u).coeffs for u in _loop_contract(G, w, f)] for f in frames])
        assert outcome(lambda: [[(-u).coeffs for u in G.contract(w, f)] for f in frames]) == want
        assert outcome(lambda: [V[3:] for V in lc._lift_pairs(fj, P)]) == want
        return want

    @pytest.mark.parametrize("curve", CURVES.values(), ids=CURVES.keys())
    @pytest.mark.parametrize("G", CONNECTIONS.values(), ids=CONNECTIONS.keys())
    def test_pairs_match_contract_bits(self, G, curve):
        for w0 in ((-1.0, 0.0, 2.5), (-0.0, 1.0, -2.0), (1.0, -0.0, 0.0)):
            lc = LiftedCurve(curve, LiftKind.horizontal(w0), G)
            for t in (0.0, 0.4, 1.7):
                pj = curve_point_jets(curve, t)
                fj = frame_jets(pj, lc.cfg, t)
                self._check(lc, fj, lifted_point_jets(pj, lc.kind, G, None, w0))
                for fiber in self.ZERO_FIBERS:
                    self._check(lc, fj, pj + tuple(p + (0.0,) * 4 for p in fiber))

    @pytest.mark.parametrize("G", CONNECTIONS.values(), ids=CONNECTIONS.keys())
    def test_overflow_raises_as_contract_does(self, G):
        curve = self.CURVES["helix"]
        lc = LiftedCurve(curve, LiftKind.horizontal((1.0, 0.0, 0.0)), G)
        pj = curve_point_jets(curve, 0.4)
        fj = frame_jets(pj, lc.cfg, 0.4)
        raised = [self._check(lc, fj, pj + tuple(p + (0.0,) * 4 for p in fiber))
                  for fiber in self.HUGE_FIBERS]
        assert all(r[0] is NonFiniteJet for r in raised)

    def test_random_connections_match_contract_bits(self):
        rng = random.Random(20261018)
        curve = self.CURVES["helix"]
        for _ in range(40):
            G = random_connection(rng)
            w0 = tuple(rng.choice((-0.0, 0.0, rng.uniform(-2.0, 2.0))) for _ in range(3))
            t = rng.uniform(0.0, 2.0)
            lc = LiftedCurve(curve, LiftKind.horizontal(w0), G)
            pj = curve_point_jets(curve, t)
            self._check(lc, frame_jets(pj, lc.cfg, t), lifted_point_jets(pj, lc.kind, G, None, w0))


# --- per-point results kept on each tangent point -------------------------------


def _fresh(p):
    """An equal point that keeps nothing yet: the uncached reference."""
    return TangentPoint(p.x, p.y)


def _one_pass(f, x, d, order=1):
    """Coefficient ``order`` (1 or 2) of s -> f(x + s d) from its own pass."""
    if order == 1:
        return eval_forward(f.components, lifts._points(x, (d,)))[0][0][1]
    return eval_second(f.components, lifts._points(x, (d,), 2))[0][0][2]


def _bits(value):
    if isinstance(value, float):
        return value.hex()
    return tuple(_bits(v) for v in value)


def _suite_bits(quad, G, p):
    """Bits of every lifted value, function lift and residual of the suite at
    p, or the error class, message and span the suite raises."""
    X, Y, f, g = quad
    try:
        lifted = [LiftedField(F, kind, G).at(p).as_tuple()
                  for F in (X, Y) for kind in ("vertical", "complete", "horizontal")]
        functions = [lift_function(s, kind, p) for s in (f, g) for kind in ("v", "c")]
        residuals = prop21_check(X, Y, f, g, G, p).residuals
    except ValueError as err:
        return type(err), str(err), getattr(err, "span", None)
    return _bits(lifted), _bits(functions), {k: v.hex() for k, v in residuals.items()}


def _random_quadruple_or_ast(rng, i):
    """Alternately the suite's polynomial quadruple and fields of random
    trees, whose lifts can raise."""
    if i % 2 == 0:
        return random_quadruple(rng)

    def field(n):
        return FieldSpec("vector" if n == 3 else "scalar",
                         tuple(random_ast(rng, 3, _VARS) for _ in range(n)))

    return field(3), field(3), field(1), field(1)


def _suite_reads(X, Y, f, g, G):
    """The suite's 22 public reads at a point: the 12 (field, kind) lifts
    of X, Y, X+Y and fX through LiftedField.at, then the 10 pairings of f
    and g through apply_field, each a function of the point."""
    kinds = ("vertical", "complete", "horizontal")
    specs = [X, Y, field_sum(X, Y), lifts.field_scale(f, X)]
    reads = [lambda p, F=LiftedField(F, kind, G): F.at(p).as_tuple()
             for F in specs for kind in kinds]
    for s in (f, g):
        for kind, lift in (("vertical", "v"), ("complete", "v"), ("vertical", "c"),
                           ("complete", "c"), ("horizontal", "v")):
            reads.append(lambda p, F=LiftedField(X, kind, G), g=(lift, s): apply_field(F, g, p))
    return reads


def _read_bits(read, p):
    """The bits of one read at p (a NaN as 'nan'), or its error."""
    try:
        result = read(p)
    except ValueError as err:
        return type(err), str(err), getattr(err, "span", None)
    values = result if isinstance(result, tuple) else (result,)
    return tuple("nan" if math.isnan(v) else v.hex() for v in values)


class TestPerPointCache:
    def test_suite_matches_uncached_bits(self):
        rng = random.Random(20261018)
        raised = calls = 0
        for i in range(12):
            quad = _random_quadruple_or_ast(rng, i)
            conns = (Connection.flat(), random_connection(rng))
            points = [random_tangent_point(rng) for _ in range(6)]
            # Each point twice in a row (one per connection), then revisited.
            for p in points + points[:2]:
                for G in conns:
                    want = _suite_bits(quad, G, _fresh(p))
                    assert _suite_bits(quad, G, p) == want
                    raised += isinstance(want[0], type)
                    calls += 1
        assert 0 < raised < calls

    def test_reads_in_any_order_match_canonical_reads(self):
        # The 12 lifts of X, Y, X+Y and fX and the 10 pairings the suite
        # reads, each read through the public calls on a fresh point: in
        # shuffled orders, with or without a suite run first, every read
        # gives the bits (or the error) of the canonical-order read.
        rng = random.Random(20261020)
        raised = reads = 0
        for i in range(16):
            X, Y, f, g = _random_quadruple_or_ast(rng, i)
            G = random_connection(rng)
            reads_of = _suite_reads(X, Y, f, g, G)
            for _ in range(3):
                p = random_tangent_point(rng)
                want = [_read_bits(read, _fresh(p)) for read in reads_of]
                for suite_first in (None, Connection.flat(), G):
                    order = list(range(len(reads_of)))
                    rng.shuffle(order)
                    q = _fresh(p)
                    if suite_first is not None:
                        _error_of(prop21_check, X, Y, f, g, suite_first, q)
                    got = {k: _read_bits(reads_of[k], q) for k in order}
                    assert [got[k] for k in range(len(reads_of))] == want
                raised += sum(isinstance(w[0], type) for w in want)
                reads += len(want)
        assert 0 < raised < reads

    def test_default_flat_connection_keeps_one_entry(self):
        X = vector_field("x1*x2 + sin(x3)", "x2^2 - x1", "exp(x1)*x3")
        p = TangentPoint((0.3, -1.2, 0.8), (0.5, -2.0, 1.5))
        for _ in range(3):
            lift_field(X, "h").at(p)
        # A horizontal value is kept under the field's and the connection's ids.
        assert [k for k in p._kept if isinstance(k, tuple) and len(k) == 2
                and isinstance(k[1], int)] == [(id(X), id(Connection.flat()))]
        assert lift_field(X, "h").connection is Connection.flat()
        assert LiftedCurve(HELIX, LiftKind.complete()).connection is Connection.flat()

    def test_equal_points_run_their_own_pass(self, monkeypatch):
        X = vector_field("x1*x2 + sin(x3)", "x2^2 - x1", "exp(x1)*x3")
        f = scalar_field("x1*x3 + cos(x2)")
        d = (0.5, -2.0, 1.5)
        points = [TangentPoint(x, d) for x in ((0.3, -1.2, 0.8), (1.1, 0.4, -0.6), (0.3, -1.2, 0.8))]
        assert points[0].x == points[2].x and points[0] != points[2]
        want = [(_bits(lifts._field_pass(X, _fresh(p))), _one_pass(f, p.x, d).hex())
                for p in points]
        passes = []
        real = lifts.eval_forward
        monkeypatch.setattr(lifts, "eval_forward",
                            lambda asts, pts: passes.append(asts) or real(asts, pts))
        for p, (pass_bits, deriv) in zip(points, want):
            for _ in range(2):
                assert _bits(lifts._pass(X, p)) == pass_bits
                assert lifts._dir_deriv(f, p, d).hex() == deriv
            q = _fresh(p)
            for kind in ("vertical", "complete", "horizontal"):
                assert _bits(lift_field(X, kind).at(p).as_tuple()) == \
                    _bits(lift_field(X, kind).at(q).as_tuple())
        # Each point runs X's pass and f's pass along d once, the third
        # too, though its x equals the first's; each fresh reference runs X's.
        assert passes == [X.components, f.components, X.components] * 3

    def test_signed_zero_is_another_point(self):
        X = vector_field("x1", "x2*x1", "x3")
        f = scalar_field("x1 + x2")
        pos, neg = (0.0, 1.0, 2.0), (-0.0, 1.0, 2.0)
        fresh = vector_field("x1", "x2*x1", "x3")
        for x in (pos, neg):
            assert _bits(lifts._pass(X, _at(x))[0]) == _bits(lifts._field_pass(fresh, _at(x))[0])
        assert lifts._pass(X, _at(neg))[0][0].hex() == "-0x0.0p+0"
        # Directions too, at one point: a flat horizontal fiber is
        # (-0.0, -0.0, -0.0).
        p = _at(pos)
        for d in ((0.0, 0.0, 0.0), (-0.0, -0.0, -0.0), (0.0, 0.0, 0.0)):
            want = _one_pass(scalar_field("x1 + x2"), pos, d)
            assert lifts._dir_deriv(f, p, d).hex() == want.hex()
        assert lifts._dir_deriv(f, p, (-0.0, -0.0, -0.0)).hex() == "-0x0.0p+0"

    def test_points_equal_only_themselves(self):
        # Equal coordinates do not make equal points: across a signed zero
        # the lifts differ in bits, so two such points key two entries.
        X = vector_field("x1", "x2*x1", "x3")
        pos, neg = TangentPoint((0.0, 1.0, 2.0), (1.0, 0.0, 0.0)), \
            TangentPoint((-0.0, 1.0, 2.0), (1.0, 0.0, 0.0))
        assert pos != neg and pos == pos
        assert pos != TangentPoint(pos.x, pos.y)
        kept = {pos: lifts._pass(X, pos)[0][0], neg: lifts._pass(X, neg)[0][0]}
        assert [v.hex() for v in kept.values()] == ["0x0.0p+0", "-0x0.0p+0"]

    def test_list_changed_in_place_is_another_point(self):
        X = vector_field("x1*x2", "x3", "x1")
        x = [1.0, 2.0, 3.0]
        p = _at(x)
        x[0] = 5.0
        # The point copied x when it was made.
        assert lifts._pass(X, p)[0] == (2.0, 3.0, 1.0)
        assert lifts._pass(X, _at(x))[0] == (10.0, 3.0, 5.0)

    def test_jacobian_is_immutable(self):
        X = vector_field("x1*x2", "x3", "x1")
        p = _at((1.0, 2.0, 3.0))
        J = lifts._pass(X, p)[1]
        assert isinstance(J, tuple) and all(isinstance(row, tuple) for row in J)
        assert lifts._pass(X, p)[1] is J

    def test_forward_passes_of_one_suite(self, monkeypatch):
        X = vector_field("x1*x2", "x3 - x1", "x2*x2")
        Y = vector_field("x3", "x1*x3", "x2 + 1")
        f = scalar_field("x1*x2*x3")
        g = scalar_field("x1 - x3*x3")
        G = Connection.from_entries({(1, 2, 3): 0.3, (2, 1, 1): -0.2})
        p = TangentPoint((0.7, -1.3, 2.1), (1.5, 0.25, -0.5))
        passes = []

        def recording(evaluate):
            def run(asts, points):
                passes.append((evaluate.__name__, tuple(asts), len(points)))
                return evaluate(asts, points)

            return run

        monkeypatch.setattr(lifts, "eval_forward", recording(lifts.eval_forward))
        monkeypatch.setattr(lifts, "eval_second", recording(lifts.eval_second))

        prop21_check(X, Y, f, g, G, p)
        # One pass along the axes per operand field; X+Y and fX derive theirs.
        assert [(asts, n) for name, asts, n in passes if asts not in (
            f.components, g.components)] == [(X.components, 3), (Y.components, 3)]
        # Per scalar: its own pass, one order-1 batch (f along y, X and
        # D_y X; g along the last two) and one order-2 batch along y+X, y
        # and X (y has no -0.0, so 0.0+y is y).  No pass runs along 0.
        for F, firsts in ((f, 3), (g, 2)):
            assert sorted((name, n) for name, asts, n in passes if asts == F.components) == \
                sorted([("eval_forward", 3), ("eval_forward", firsts), ("eval_second", 3)])
        assert len(passes) == 8

        # At the same point the next suite evaluates no tree: the operands'
        # passes and directional coefficients are kept, and the new X+Y and
        # fX derive their passes from them.
        passes.clear()
        prop21_check(X, Y, f, g, Connection.flat(), p)
        assert passes == []

    def test_negative_zero_fiber_adds_no_second(self, monkeypatch):
        f = scalar_field("x1*x2*x3")
        seconds = []
        real = lifts.eval_second

        def recording(asts, points):
            seconds.append(len(points))
            return real(asts, points)

        monkeypatch.setattr(lifts, "eval_second", recording)
        X = vector_field("x1*x2", "x3 - x1", "x2*x2")
        p = TangentPoint((0.7, -1.3, 2.1), (1.5, -0.0, -0.5))
        prop21_check(X, X, f, f, Connection.flat(), p)
        # Only the polarization of (y, X): y+X, y and X.  A -0.0 in y adds
        # no direction of its own.
        assert seconds == [3]

    def test_second_suite_computes_four_horizontal_lifts(self, monkeypatch):
        X, Y, f, g = random_quadruple(random.Random(7))
        p = random_tangent_point(random.Random(9))
        prop21_check(X, Y, f, g, Connection.flat(), p)
        calls = []

        def recording(name, real):
            def run(*args):
                calls.append((name, args))
                return real(*args)

            return run

        for name in ("_derived_pass", "field_sum", "field_scale", "_lifted", "eval_forward",
                     "eval_second"):
            monkeypatch.setattr(lifts, name, recording(name, getattr(lifts, name)))
        prop21_check(X, Y, f, g, random_connection(random.Random(8)), p)
        # No pass, no new composite: only the horizontal lifts of X+Y, X, Y
        # and fX, which depend on the connection, in the suite's order.
        assert [(name, args[0]) for name, args in calls] == [("_lifted", "horizontal")] * 4
        fibers = [_bits(args[1]) for _, args in calls]
        values = [lift_field(F, "v").at(p).fiber for F in (
            field_sum(X, Y), X, Y, lifts.field_scale(f, X))]
        assert fibers == [_bits(v) for v in values]
        assert len(set(map(_bits, values))) == 4

    def test_composites_freed_with_their_operands(self):
        def suite():
            quad = random_quadruple(random.Random(7))
            G = random_connection(random.Random(8))
            kept = []
            real_sum, real_scale = lifts.field_sum, lifts.field_scale
            try:
                lifts.field_sum = lambda *a: kept.append(real_sum(*a)) or kept[-1]
                lifts.field_scale = lambda *a: kept.append(real_scale(*a)) or kept[-1]
                prop21_check(*quad, G, random_tangent_point(random.Random(9)))
            finally:
                lifts.field_sum, lifts.field_scale = real_sum, real_scale
            assert len(kept) == 2
            return [weakref.ref(s) for s in (*quad, *kept)]

        enabled = gc.isenabled()
        gc.disable()
        try:
            refs = suite()
            # Reference counting alone frees them: no spec is in a cycle.
            assert [r() for r in refs] == [None] * 6
        finally:
            if enabled:
                gc.enable()

    def test_kept_composites_keep_their_operands_while_the_point_lives(self):
        # The suite keys X+Y and fX on their operands' ids, so the point keeps
        # the operands with them: no other spec can take an id of a key while
        # the point lives.  At the first point X fails in its own pass, so
        # the suite builds X+Y and runs no pass of Y's.
        def suite(first_component, x):
            X = vector_field(first_component, "x2", "x3")
            Y = vector_field("x3", "x1*x3", "x2 + 1")
            f = scalar_field("x1*x2")
            p = TangentPoint(x, (1.5, 0.25, -0.5))
            error = _error_of(prop21_check, X, Y, f, f, Connection.flat(), p)
            composites = [key[0] for key in p._kept
                          if isinstance(key, tuple) and key[0] in ("+", "*")]
            operands = (X, Y) if error else (X, Y, f)
            assert composites == ["+", "*"][:len(operands) - 1]
            return p, error, [weakref.ref(s) for s in operands]

        enabled = gc.isenabled()
        gc.disable()
        try:
            failing, error, failing_refs = suite("sqrt(x1)", (0.0, 1.0, 2.0))
            assert error[:2] == (DomainError, "sqrt undefined at 0.0")
            passing, error, passing_refs = suite("x1*x2", (0.7, -1.3, 2.1))
            assert error is None
            assert all(r() is not None for r in failing_refs + passing_refs)
            del failing
            assert [r() for r in failing_refs] == [None] * 2
            assert all(r() is not None for r in passing_refs)
            del passing
            assert [r() for r in passing_refs] == [None] * 3
        finally:
            if enabled:
                gc.enable()

    @pytest.mark.parametrize("kind", ["complete", "horizontal"])
    def test_signed_zero_fibers_are_other_points(self, kind):
        # One symbol per row, so each horizontal fiber entry is one product
        # and keeps the sign of its zero.
        G = Connection.from_entries({(1, 2, 3): 0.3, (2, 1, 1): -0.2, (3, 3, 2): 0.15})
        X = vector_field("x1*x2", "x3 - x1", "x2*x2")
        x = (0.7, -1.3, 2.1)
        ys = [(0.0, 0.0, 0.0), (-0.0, -0.0, -0.0), (0.0, -0.0, 0.0), (0.0, 0.0, 0.0)]
        got = []
        for y in ys:
            p = TangentPoint(x, y)
            want = _bits(LiftedField(X, kind, G).at(_fresh(p)).as_tuple())
            got.append(_bits(LiftedField(X, kind, G).at(p).as_tuple()))
            assert got[-1] == want
        if kind == "horizontal":
            assert len(set(got)) > 1

    def test_two_connections_at_one_point(self):
        X = vector_field("x1*x2", "x3 - x1", "x2*x2")
        p = TangentPoint((0.7, -1.3, 2.1), (1.5, 0.25, -0.5))
        conns = [Connection.from_entries({(1, 2, 3): 0.3}),
                 Connection.from_entries({(1, 2, 3): -0.7, (2, 1, 1): 0.2})]
        # An equal but distinct connection is another key, with the same value.
        conns.append(Connection(conns[0].gamma))
        for G in conns + conns[::-1]:
            want = _bits(lift_field(X, "h", G).at(_fresh(p)).as_tuple())
            assert _bits(lift_field(X, "h", G).at(p).as_tuple()) == want
        assert lift_field(X, "h", conns[0]).at(p) != lift_field(X, "h", conns[1]).at(p)


class TestZeroDirection:
    """The suite runs no pass along the all-+0.0 direction: X^v = (0, X)
    has no base part, so X^v(f^v) is +0.0 and X^v(f^c) reads f along X(x).
    The bits and errors below were pinned from the suite while it still ran
    that pass, so the new path is not checked against itself."""

    X = vector_field("x1*x2", "x3 - x1", "x2*x2")
    Y = vector_field("x3", "x1*x3", "x2 + 1")
    g = scalar_field("x1 - x3*x3")
    G = Connection.from_entries({(1, 2, 3): 0.3, (2, 1, 1): -0.2})
    p = TangentPoint((0.7, -1.3, 2.1), (1.5, 0.25, -0.5))
    ZERO = (0.0, 0.0, 0.0)
    PINNED = {
        "flat": {"additivity_c": "0x1.0000000000000p-53", "module_c": "0x1.0000000000000p-51",
                 "Xc_fc": "0x1.0000000000000p-51"},
        "G": {"additivity_c": "0x1.0000000000000p-53", "additivity_h": "0x1.0000000000000p-53",
              "module_c": "0x1.0000000000000p-51", "module_h": "0x1.0000000000000p-55",
              "Xc_fc": "0x1.0000000000000p-51"},
    }
    NAMES = ("additivity_v", "additivity_c", "additivity_h", "module_v", "module_c", "module_h",
             "Xv_fv", "Xc_fv", "Xv_fc", "Xc_fc", "XH_fv", "Xv_gv", "Xc_gv", "Xv_gc", "Xc_gc",
             "XH_gv")

    def test_negative_zero_pass_leaves_the_residuals(self, monkeypatch):
        # f = -(x1*x2) ends in a negation: its pass along zero gives -0.0 in
        # both orders, where the kept coefficient is +0.0.
        f = scalar_field("-(x1*x2)")
        for order in (1, 2):
            assert _one_pass(f, self.p.x, self.ZERO, order).hex() == "-0x0.0p+0"
        directions = []
        for name in ("eval_forward", "eval_second"):
            real = getattr(lifts, name)

            def recording(asts, points, real=real):
                directions.extend(tuple(b[1] for b in point.values()) for point in points)
                return real(asts, points)

            monkeypatch.setattr(lifts, name, recording)
        for tag, G in (("flat", Connection.flat()), ("G", self.G)):
            residuals = prop21_check(self.X, self.Y, f, self.g, G, self.p).residuals
            assert list(residuals) == list(self.NAMES)
            assert {k: v.hex() for k, v in residuals.items()} == {
                k: self.PINNED[tag].get(k, "0x0.0p+0") for k in self.NAMES}
        assert directions and _bits(self.ZERO) not in map(_bits, directions)
        # X^v(f^v) is +0.0; the pass along zero gave -0.0.
        Fv = lift_field(self.X, "v")
        assert apply_field(Fv, ("v", f), self.p).hex() == "0x0.0p+0"

    def test_singular_field_raises_the_same_error(self):
        # sqrt(x1) at x1 = 0 fails every pass, the one along zero too.  As g,
        # it first fails in its order-1 batch along X and D_y X, which held
        # zero second; a lone zero direction still runs its pass and raises.
        q = TangentPoint((0.0, 1.0, 2.0), (1.5, 0.25, -0.5))
        want = (DomainError, "sqrt undefined at 0.0", (0, 8))
        f = scalar_field("-(x1*x2)")
        for quad in ((self.X, self.Y, f, scalar_field("sqrt(x1)")),
                     (self.X, self.Y, scalar_field("sqrt(x1)"), self.g)):
            assert _error_of(prop21_check, *quad, self.G, q) == want
        for kind in ("v", "c"):
            singular = scalar_field("sqrt(x1)")
            assert _error_of(apply_field, lift_field(self.X, "v"), (kind, singular), q) == want
        singular = scalar_field("sqrt(x1)")
        assert _error_of(lifts._along, singular, q, 1, (q.y, self.ZERO)) == want
        assert _error_of(lifts._dir_deriv, singular, q, self.ZERO) == want


def _error_of(func, *args):
    try:
        func(*args)
    except ValueError as err:
        return type(err), str(err), getattr(err, "span", None)
    return None


# --- X+Y and fX passes derived from their operands' passes ----------------------


def _tree_pass(F, x):
    """The oracle: eval_forward on the synthesized trees themselves."""
    points = [{name: (float(v), d[i]) for i, (name, v) in enumerate(zip(_VARS, x))}
              for d in lifts._BASIS]
    try:
        outs = eval_forward(F.components, points)
    except ValueError as err:
        return type(err), str(err), getattr(err, "span", None)
    return _bits((tuple(v for v, _ in outs[0]),
                  tuple(tuple(out[k][1] for out in outs) for k in range(len(F.components)))))


def _pass_or_error(F, x):
    try:
        return _bits(lifts._pass(F, TangentPoint(x, (0.0, 0.0, 0.0))))
    except ValueError as err:
        return type(err), str(err), getattr(err, "span", None)


def _derived_or_error(step, left, right, x):
    """lifts._derived_pass of two operands' passes at x, as bits, or the
    error of the first operand's pass or step that fails."""
    p = TangentPoint(x, (0.0, 0.0, 0.0))
    try:
        return _bits(lifts._derived_pass(step, lifts._pass(left, p), lifts._pass(right, p)))
    except ValueError as err:
        return type(err), str(err), getattr(err, "span", None)


class TestCompositePass:
    """The passes prop21_check derives for its X+Y and fX from the operands'
    passes kept at p, against the roots' own trees (_tree_pass)."""

    def _check(self, X, Y, f, x, G=Connection.flat()):
        """Run the suite at x and check each composite it built: a kept pass
        has the trees' bits; otherwise the suite's error is an operand's own,
        the left one first, or else the trees'.  Returns what each composite
        gave, in the suite's order."""
        p = TangentPoint(x, (1.5, 0.25, -0.5))
        error = _error_of(prop21_check, X, Y, f, f, G, p)
        outcomes = []
        for op, left, right, combine in (("+", X, Y, field_sum), ("*", f, X, lifts.field_scale)):
            entry = p._kept.get((op, id(left), id(right)))
            if entry is None:
                break  # the suite raised before it built this composite
            composite, *operands = entry
            assert operands[0] is left and operands[1] is right
            for root in composite.components:
                assert root.op == op and root.span == (0, 0)
                # The suite compiled no code of the roots.
                assert not any(hasattr(root, a) for a in ("_forward", "_second", "_jet"))
            kept = p._kept.get((id(composite), "pass"))
            if kept is not None:
                assert _bits(kept) == _tree_pass(combine(left, right), x)
                outcomes.append("derived")
                continue
            failed = [e for e in (_pass_or_error(s, x) for s in (left, right))
                      if isinstance(e[0], type)]
            assert error == (failed[0] if failed else _tree_pass(combine(left, right), x))
            outcomes.append("operand" if failed else "root")
            break
        return outcomes

    def test_matches_tree_pass(self):
        rng = random.Random(20261201)
        outcomes = set()
        for i in range(300):
            X, Y, f, _ = _random_quadruple_or_ast(rng, i)
            outcomes.update(self._check(X, Y, f, random_tangent_point(rng).x))
        # Derived passes and operand errors; random trees rarely overflow a
        # root where neither operand does.
        assert {"derived", "operand"} <= outcomes

    @pytest.mark.parametrize("f, X", [
        ("2.5", ("x1*x2", "3", "-0.0")),
        ("x1 - x2", ("4", "x3", "x2*x2")),
        ("0", ("x1", "1e308", "x3")),
        ("1e300", ("x1*1e10", "x2", "1e-300")),
    ], ids=["number-factor", "number-component", "zero-factor", "overflowing-product"])
    def test_number_factor_on_either_side(self, f, X):
        # A number operand goes through the derived route like any other:
        # its pass (c, 0.0) enters _padd or _pmul as a pair, where the
        # trees scale by the number, with the same bits.
        f, X = scalar_field(f), vector_field(*X)
        assert any(isinstance(c, Num) for c in (*f.components, *X.components))
        outcomes = []
        for x in ((1.0, 2.0, 3.0), (-0.0, 0.5, -2.0), (1e10, 1.0, 1.0)):
            # X+X has numbers on both sides; X+Y overflows nowhere, so its
            # fX is reached where X+X overflows.
            outcomes += self._check(X, X, f, x)
            outcomes += self._check(X, vector_field("x2", "-x3", "x1"), f, x)
            # A sum of scalars, which the suite does not build.
            want = _pass_or_error(f, x)
            if not isinstance(want[0], type):
                want = _tree_pass(field_sum(f, f), x)
            assert _derived_or_error(_padd, f, f, x) == want
        assert "derived" in outcomes

    def test_root_overflow_is_the_trees_error(self):
        X = vector_field("1e308 + x1", "x2", "x3")
        Y = vector_field("1e308 - x2", "x3", "x1")
        f = scalar_field("x1*1e200")
        Z = vector_field("x1*1e200", "x2", "x3")
        x = (1.0, 1.0, 1.0)
        assert self._check(X, Y, f, x) == ["root"]
        assert self._check(Z, Z, f, x) == ["derived", "root"]
        p = TangentPoint(x, (1.5, 0.25, -0.5))
        assert _error_of(prop21_check, X, Y, f, f, Connection.flat(), p) == (
            NonFiniteJet, "addition produced non-finite coefficients", (0, 0))
        assert _error_of(prop21_check, Z, Z, f, f, Connection.flat(), p) == (
            NonFiniteJet, "multiplication produced non-finite coefficients", (0, 0))
        # Outside the suite a composite evaluates its own trees.
        assert _pass_or_error(field_sum(X, Y), x) == _tree_pass(field_sum(X, Y), x)

    def test_operand_error_left_first(self):
        bad_value = vector_field("x1", "1e999", "x3")
        bad_partial = vector_field("sqrt(x1)", "x2", "x3")
        good = scalar_field("x2*x3")
        x = (0.0, 1.0, 1.0)
        errors = []
        for left, right in ((bad_value, bad_partial), (bad_partial, bad_value)):
            want = _pass_or_error(left, x)
            assert isinstance(want[0], type)
            assert self._check(left, right, good, x) == ["operand"]
            assert _error_of(prop21_check, left, right, good, good, Connection.flat(),
                             TangentPoint(x, (1.5, 0.25, -0.5))) == want
            errors.append(want)
        assert errors[0] != errors[1]
        # Outside the suite X+Y evaluates its own trees, component by
        # component: the first component's sqrt fails before the second
        # component's value is tested.
        assert _pass_or_error(field_sum(bad_value, bad_partial), x) == errors[1]
        # fX: f's own error comes first, before X's.
        X = vector_field("x1*x2", "x3", "x2")
        bad_scalar = scalar_field("sqrt(x1)")
        assert self._check(X, X, bad_scalar, x) == ["derived", "operand"]

    def test_composite_of_composites(self):
        X = vector_field("x1*x2", "x3 - x1", "sin(x2)")
        Y = vector_field("x3", "x1*x3", "x2 + 1")
        f = scalar_field("x1 - x2*x3")
        F = lifts.field_scale(f, field_sum(X, Y))
        x = (0.3, -1.2, 0.8)
        # The suite's operands are composites themselves, whose passes come
        # from their own trees.
        assert self._check(F, X, f, x) == ["derived", "derived"]
        assert self._check(field_sum(F, X), F, f, x) == ["derived", "derived"]

    def test_suite_evaluates_no_root_tree(self, monkeypatch):
        X = vector_field("x1*x2", "2", "x3")
        Y = vector_field("x3", "x1*x3", "0.5")
        f = scalar_field("x1 - x2*x3")
        evaluated = []
        for name in ("eval_forward", "eval_second"):
            real = getattr(lifts, name)
            monkeypatch.setattr(lifts, name, lambda asts, points, real=real: (
                evaluated.extend(map(id, asts)) or real(asts, points)))
        for G in (Connection.flat(), Connection.from_entries({(1, 2, 3): 0.3})):
            assert self._check(X, Y, f, (0.3, -1.2, 0.8), G) == ["derived", "derived"]
        # Only the operands' own trees run, numbers too.
        assert set(evaluated) == {id(c) for c in (*X.components, *Y.components, *f.components)}


class TestLiftKindVectors:
    @pytest.mark.parametrize("make, message", [
        (lambda: LiftKind.vertical((1.0, 2.0)), "anchor must have 3 components, got 2"),
        (lambda: LiftKind.vertical((1.0, 2.0, 3.0, 4.0)), "anchor must have 3 components, got 4"),
        (lambda: LiftKind.horizontal((1.0, 0.0, 0.0, 4.0)), "w0 must have 3 components, got 4"),
        (lambda: LiftKind.horizontal(()), "w0 must have 3 components, got 0"),
        (lambda: LiftKind("vertical", anchor=(1.0,)), "anchor must have 3 components, got 1"),
    ], ids=["anchor-2", "anchor-4", "w0-4", "w0-0", "constructor"])
    def test_needs_three_components(self, make, message):
        # A 2-component anchor used to sweep 5-coordinate points, and a
        # 4-component w0 lost its last coordinate under a curved connection.
        with pytest.raises(ValueError, match=f"^{message}$"):
            make()

    def test_length_is_checked_before_finiteness(self):
        with pytest.raises(ValueError, match="3 components"):
            LiftKind.horizontal((math.nan, 0.0))
        with pytest.raises(ValueError, match="must be finite"):
            LiftKind.horizontal((math.nan, 0.0, 0.0))


class TestNonFiniteLifts:
    X = vector_field("x1*1e308*10", "x2", "x3")
    p = TangentPoint((1.0, 1.0, 1.0), (1.0, 1.0, 1.0))

    @pytest.mark.parametrize("kind", ["vertical", "complete", "horizontal"])
    def test_overflowing_value_raises(self, kind):
        with pytest.raises(NonFiniteJet) as exc:
            LiftedField(self.X, kind, random_connection(random.Random(4))).at(self.p)
        # The forward pass names the product that overflows first.
        assert exc.value.span == (0, 8)

    @pytest.mark.parametrize("kind", ["vertical", "complete", "horizontal"])
    def test_non_finite_number_raises(self, kind):
        X = vector_field("x1", "1e999", "x3")
        with pytest.raises(NonFiniteJet, match="value inf is not finite") as exc:
            LiftedField(X, kind, Connection.flat()).at(self.p)
        assert exc.value.span == (0, 5)

    @pytest.mark.parametrize("kind", ["complete", "horizontal"])
    def test_infinite_fiber_raises(self, kind):
        # Finite values and Jacobian, but y^1 * dX^1/dx^1 and y^1 G X^1 overflow.
        X = vector_field("x1*1e10", "x2", "x3")
        G = parse_connection_file("gamma 1 1 1 = 0.5\n")
        p = TangentPoint((1.0, 1.0, 1.0), (1e300, 1.0, 1.0))
        with pytest.raises(NonFiniteJet, match=f"^{kind} lift fiber .* is not finite$"):
            LiftedField(X, kind, G).at(p)
        assert LiftedField(X, "vertical", G).at(p).fiber == (1e10, 1.0, 1.0)

    def test_function_lift_and_retry_raise(self):
        f = scalar_field("x2 + 1e999*x1")
        for _ in range(2):  # a failed evaluation is not kept
            with pytest.raises(NonFiniteJet) as exc:
                lift_function(f, "v", self.p)
            assert exc.value.span == (5, 13)


def _without_pow_or_tan(ast) -> bool:
    """Whether a tree holds neither '^' nor tan: their jet and float code
    paths can round differently in the last bits."""
    if isinstance(ast, BinOp):
        return ast.op != "^" and all(map(_without_pow_or_tan, (ast.left, ast.right)))
    if isinstance(ast, Call):
        return ast.func != "tan" and _without_pow_or_tan(ast.arg)
    if isinstance(ast, Neg):
        return _without_pow_or_tan(ast.child)
    return True


class TestFloatOracle:
    def test_values_equal_eval_float(self):
        # Values come from the forward pass; plain floats are the oracle.
        rng = random.Random(20261019)
        compared = 0
        while compared < 300:
            asts = [random_ast(rng, 4, _VARS) for _ in range(3)]
            if not all(map(_without_pow_or_tan, asts)):
                continue
            p = random_tangent_point(rng)
            bindings = dict(zip(_VARS, p.x))
            try:
                want = tuple(eval_float(a, bindings) for a in asts)
                got = lift_field(FieldSpec("vector", tuple(asts)), "vertical").at(p).fiber
                scalar = lift_function(FieldSpec("scalar", tuple(asts[:1])), "v", p)
            except ValueError:
                continue
            assert got == want
            assert scalar == want[0]
            compared += 1
