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
    eval_jet,
    scalar_field,
    vector_field,
)
from frenetlift.jets import DomainError, Jet, NonFiniteJet
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
                  random_connection(random.Random(5))):
            got = parallel_transport(G, curve, w0, 1.5, 40)
            assert [x.hex() for x in got] == [x.hex() for x in reference(G, list(w0), 40)]

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

    def test_empty_is_flat(self):
        assert parse_connection_file("# nothing\n").is_flat


# --- one order-2 pass and precomputed contraction terms -----------------------

_VARS = ("x1", "x2", "x3")


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
            assert _hex_or_error(lifts._mixed_second, f, x, a, b) == want
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
                assert lifts._mixed_second(scalar, p.x, p.y, xval).hex() == want

    def test_order2_error_of_earliest_direction(self):
        # a+b overflows in its second coefficient only; a and b do not.
        f = scalar_field("x1*x1*1e300")
        x, a, b = (1.0, 0.0, 0.0), (1e5, 0.0, 0.0), (1e5, 0.0, 0.0)
        want = _hex_or_error(_polarized, f.components[0], x, a, b)
        assert want[0] is NonFiniteJet
        assert _hex_or_error(lifts._mixed_second, f, x, a, b) == want


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


# --- per-point results kept on each field spec ---------------------------------


def _uncached(spec, x):
    """Stands in for lifts._results_at: nothing is kept, everything computed."""
    return {}


def _one_pass(f, x, d):
    """The first directional derivative from its own forward pass."""
    return lifts._coefficients(f, x, 1, (d,))[0]


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


class TestPerPointCache:
    def test_suite_matches_uncached_bits(self, monkeypatch):
        rng = random.Random(20261018)
        raised = calls = 0
        for i in range(12):
            quad = _random_quadruple_or_ast(rng, i)
            conns = (Connection.flat(), random_connection(rng))
            points = [random_tangent_point(rng) for _ in range(6)]
            # Each point twice in a row (one per connection), then revisited.
            for p in points + points[:2]:
                for G in conns:
                    with monkeypatch.context() as m:
                        m.setattr(lifts, "_results_at", _uncached)
                        want = _suite_bits(quad, G, p)
                    assert _suite_bits(quad, G, p) == want
                    raised += isinstance(want[0], type)
                    calls += 1
        assert 0 < raised < calls

    def test_default_flat_connection_keeps_one_entry(self):
        X = vector_field("x1*x2 + sin(x3)", "x2^2 - x1", "exp(x1)*x3")
        p = TangentPoint((0.3, -1.2, 0.8), (0.5, -2.0, 1.5))
        for _ in range(3):
            lift_field(X, "h").at(p)
        horizontal = [k for k in X._at_x[1] if isinstance(k, tuple) and k[0] == "horizontal"]
        assert len(horizontal) == 1
        assert lift_field(X, "h").connection is Connection.flat()
        assert LiftedCurve(HELIX, LiftKind.complete()).connection is Connection.flat()

    def test_point_then_another_then_back(self):
        X = vector_field("x1*x2 + sin(x3)", "x2^2 - x1", "exp(x1)*x3")
        f = scalar_field("x1*x3 + cos(x2)")
        x, x2 = (0.3, -1.2, 0.8), (1.1, 0.4, -0.6)
        d = (0.5, -2.0, 1.5)
        for point in (x, x2, x):
            values, jacobian = lifts._field_pass(X, point)
            assert _bits(lifts._eval_field_components(X, point)) == _bits(values)
            assert _bits(lifts._jacobian(X, point)) == _bits(jacobian)
            assert lifts._dir_deriv(f, point, d).hex() == _one_pass(f, point, d).hex()
            p = TangentPoint(point, d)
            for kind in ("vertical", "complete", "horizontal"):
                with pytest.MonkeyPatch.context() as m:
                    m.setattr(lifts, "_results_at", _uncached)
                    want = lift_field(X, kind).at(p).as_tuple()
                assert _bits(lift_field(X, kind).at(p).as_tuple()) == _bits(want)

    def test_signed_zero_is_another_point(self):
        X = vector_field("x1", "x2*x1", "x3")
        f = scalar_field("x1 + x2")
        pos, neg = (0.0, 1.0, 2.0), (-0.0, 1.0, 2.0)
        fresh = vector_field("x1", "x2*x1", "x3")
        for point in (pos, neg, pos):
            assert _bits(lifts._eval_field_components(X, point)) == \
                _bits(lifts._field_pass(fresh, point)[0])
        assert lifts._eval_field_components(X, neg)[0].hex() == "-0x0.0p+0"
        # Directions too: a flat horizontal fiber is (-0.0, -0.0, -0.0).
        for d in ((0.0, 0.0, 0.0), (-0.0, -0.0, -0.0), (0.0, 0.0, 0.0)):
            want = _one_pass(scalar_field("x1 + x2"), pos, d)
            assert lifts._dir_deriv(f, pos, d).hex() == want.hex()
        assert lifts._dir_deriv(f, pos, (-0.0, -0.0, -0.0)).hex() == "-0x0.0p+0"

    def test_many_directions_at_one_point_stay_bounded(self):
        f = scalar_field("x1*x2 - sin(x3)")
        x = (0.4, -0.9, 1.3)
        for i in range(500):
            d = (i * 0.01, 1.0 - i * 0.003, -0.5)
            assert lifts._dir_deriv(f, x, d).hex() == _one_pass(f, x, d).hex()
            assert len(f._at_x[1]) <= lifts._PER_POINT_MAX

    def test_list_changed_in_place_is_another_point(self):
        X = vector_field("x1*x2", "x3", "x1")
        x = [1.0, 2.0, 3.0]
        assert lifts._eval_field_components(X, x) == (2.0, 3.0, 1.0)
        x[0] = 5.0
        assert lifts._eval_field_components(X, x) == (10.0, 3.0, 5.0)

    def test_jacobian_is_immutable(self):
        X = vector_field("x1*x2", "x3", "x1")
        J = lifts._jacobian(X, (1.0, 2.0, 3.0))
        assert isinstance(J, tuple) and all(isinstance(row, tuple) for row in J)
        assert lifts._jacobian(X, (1.0, 2.0, 3.0)) is J

    def test_forward_passes_of_one_suite(self, monkeypatch):
        X = vector_field("x1*x2", "x3 - x1", "x2*x2")
        Y = vector_field("x3", "x1*x3", "x2 + 1")
        f = scalar_field("x1*x2*x3")
        g = scalar_field("x1 - x3*x3")
        G = Connection.from_entries({(1, 2, 3): 0.3, (2, 1, 1): -0.2})
        p = TangentPoint((0.7, -1.3, 2.1), (1.5, 0.25, -0.5))
        passes = []

        def recording(evaluate):
            def run(asts, bindings):
                passes.append((evaluate.__name__, tuple(asts),
                               len(next(iter(bindings.values()))[1])))
                return evaluate(asts, bindings)

            return run

        monkeypatch.setattr(lifts, "eval_forward", recording(lifts.eval_forward))
        monkeypatch.setattr(lifts, "eval_second", recording(lifts.eval_second))

        prop21_check(X, Y, f, g, G, p)
        # One pass along the axes per operand field; X+Y and fX derive theirs.
        assert [(asts, n) for name, asts, n in passes if asts not in (
            f.components, g.components)] == [(X.components, 3), (Y.components, 3)]
        # Per scalar: its own pass, one order-1 batch (f along y, X, 0 and
        # D_y X; g along the last three) and one order-2 batch along y, 0,
        # X+y and X (y has no -0.0, so 0.0+y is y).
        for F, firsts in ((f, 4), (g, 3)):
            assert sorted((name, n) for name, asts, n in passes if asts == F.components) == \
                sorted([("eval_forward", 3), ("eval_forward", firsts), ("eval_second", 4)])
        assert len(passes) == 8

        # At the same point the next suite evaluates no tree: the operands'
        # passes and directional coefficients are kept, and the new X+Y and
        # fX derive their passes from them.
        passes.clear()
        prop21_check(X, Y, f, g, Connection.flat(), p)
        assert passes == []

    def test_negative_zero_fiber_adds_its_own_second(self, monkeypatch):
        f = scalar_field("x1*x2*x3")
        seconds = []
        real = lifts.eval_second

        def recording(asts, bindings):
            seconds.append(len(next(iter(bindings.values()))[1]))
            return real(asts, bindings)

        monkeypatch.setattr(lifts, "eval_second", recording)
        X = vector_field("x1*x2", "x3 - x1", "x2*x2")
        p = TangentPoint((0.7, -1.3, 2.1), (1.5, -0.0, -0.5))
        prop21_check(X, X, f, f, Connection.flat(), p)
        # 0.0 + y differs from y in its second entry: y, 0, X+y, X and 0.0+y.
        assert seconds == [5]

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
            with pytest.MonkeyPatch.context() as m:
                m.setattr(lifts, "_results_at", _uncached)
                want = _bits(LiftedField(X, kind, G).at(p).as_tuple())
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
            with pytest.MonkeyPatch.context() as m:
                m.setattr(lifts, "_results_at", _uncached)
                want = _bits(lift_field(X, "h", G).at(p).as_tuple())
            assert _bits(lift_field(X, "h", G).at(p).as_tuple()) == want
        assert lift_field(X, "h", conns[0]).at(p) != lift_field(X, "h", conns[1]).at(p)

    def test_many_fibers_at_one_point_stay_bounded(self):
        X = vector_field("x1*x2", "x3 - x1", "sin(x2)")
        G = Connection.from_entries({(1, 2, 3): 0.3, (2, 1, 1): -0.2})
        x = (0.4, -0.9, 1.3)
        for i in range(500):
            p = TangentPoint(x, (i * 0.01, 1.0 - i * 0.003, -0.5))
            for kind in ("complete", "horizontal"):
                with pytest.MonkeyPatch.context() as m:
                    m.setattr(lifts, "_results_at", _uncached)
                    want = _bits(LiftedField(X, kind, G).at(p).as_tuple())
                assert _bits(LiftedField(X, kind, G).at(p).as_tuple()) == want
            assert len(X._at_x[1]) <= lifts._PER_POINT_MAX


# --- X+Y and fX passes derived from their operands' passes ----------------------


def _tree_pass(F, x):
    """The oracle: eval_forward on the synthesized trees themselves."""
    try:
        out = lifts.eval_forward(F.components, lifts._bindings(x, lifts._BASIS))
    except ValueError as err:
        return type(err), str(err), getattr(err, "span", None)
    return _bits((tuple(v for v, _ in out), tuple(d for _, d in out)))


def _pass_or_error(F, x):
    try:
        return _bits(lifts._field_pass(F, x))
    except ValueError as err:
        return type(err), str(err), getattr(err, "span", None)


class TestCompositePass:
    def _check(self, left, right, x, combine):
        F = combine(left, right)
        got = _pass_or_error(F, x)
        operands = [_pass_or_error(FieldSpec(s.kind, s.components), x) for s in (left, right)]
        failed = [o for o in operands if isinstance(o[0], type)]
        if failed:
            # An operand's own error, the left one first.
            assert got == failed[0]
        else:
            assert got == _tree_pass(F, x)
        return isinstance(got[0], type), bool(failed)

    def test_matches_tree_pass(self):
        rng = random.Random(20261201)
        outcomes = set()
        for i in range(300):
            X, Y, f, _ = _random_quadruple_or_ast(rng, i)
            x = random_tangent_point(rng).x
            outcomes.add(self._check(X, Y, x, field_sum))
            outcomes.add(self._check(f, Y, x, lifts.field_scale))
        # Successes, operand errors and, from random trees, no other kind.
        assert (False, False) in outcomes and (True, True) in outcomes

    @pytest.mark.parametrize("f, X", [
        ("2.5", ("x1*x2", "3", "-0.0")),
        ("x1 - x2", ("4", "x3", "x2*x2")),
        ("0", ("x1", "1e308", "x3")),
        ("1e300", ("x1*1e10", "x2", "1e-300")),
    ], ids=["number-factor", "number-component", "zero-factor", "overflowing-product"])
    def test_number_factor_on_either_side(self, f, X):
        f, X = scalar_field(f), vector_field(*X)
        assert any(isinstance(c, Num) for c in (*f.components, *X.components))
        for x in ((1.0, 2.0, 3.0), (-0.0, 0.5, -2.0), (1e10, 1.0, 1.0)):
            self._check(f, X, x, lifts.field_scale)
            self._check(X, X, x, field_sum)

    def test_root_overflow_is_the_trees_error(self):
        X = vector_field("1e308 + x1", "x2", "x3")
        Y = vector_field("1e308 - x2", "x3", "x1")
        f = scalar_field("x1*1e200")
        Z = vector_field("x1*1e200", "x2", "x3")
        x = (1.0, 1.0, 1.0)
        assert _pass_or_error(field_sum(X, Y), x) == (
            NonFiniteJet, "addition produced non-finite coefficients", (0, 0))
        assert _pass_or_error(lifts.field_scale(f, Z), x) == (
            NonFiniteJet, "multiplication produced non-finite coefficients", (0, 0))
        assert _tree_pass(field_sum(X, Y), x) == _pass_or_error(field_sum(X, Y), x)

    def test_operand_error_left_first(self):
        bad_value = vector_field("x1", "1e999", "x3")
        bad_partial = vector_field("sqrt(x1)", "x2", "x3")
        x = (0.0, 1.0, 1.0)
        for left, right in ((bad_value, bad_partial), (bad_partial, bad_value)):
            want = _pass_or_error(left, x)
            assert isinstance(want[0], type)
            assert _pass_or_error(field_sum(left, right), x) == want

    def test_composite_of_composites(self):
        X = vector_field("x1*x2", "x3 - x1", "sin(x2)")
        Y = vector_field("x3", "x1*x3", "x2 + 1")
        f = scalar_field("x1 - x2*x3")
        F = field_sum(lifts.field_scale(f, field_sum(X, Y)), X)
        x = (0.3, -1.2, 0.8)
        assert _pass_or_error(F, x) == _tree_pass(F, x)


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
