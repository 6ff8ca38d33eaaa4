"""Lift operators, the identity suite, parallel transport, curve lifts."""

import math
import random

import pytest

from frenetlift import lifts
from frenetlift.expr import CurveSpec, FieldSpec, FormatError, scalar_field, vector_field
from frenetlift.jets import DomainError
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
from frenetlift.frenet import DomainIntervalError, curve_point_jets
from frenetlift.verify import (
    builtin_curves,
    random_connection,
    random_quadruple,
    random_tangent_point,
)

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

    def test_raw_expression(self):
        X = vector_field("0", "1", "0")
        p = TangentPoint((1, 2, 3), (4, 5, 6))
        got = apply_field(lift_field(X, "c"), "x2*y2", p)
        # X^c of x2*y2 at p: base (0,1,0) against y2, fiber 0 against x2.
        assert got == pytest.approx(5.0)


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
            lambda: transport_grid(G, LINE01, (1, 0, 0), [1.0], cap),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="MAX_TRANSPORT_STEPS"):
                call()


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
        assert lifted.value() == pytest.approx((0, 0, 0, 3, 0, 0))

    def test_complete_point(self):
        pj = curve_point_jets(USH, 0.0)
        lifted = lifted_point_jets(pj, LiftKind.complete(), Connection.flat())
        assert lifted.value() == pytest.approx((3, 0, 0, 0, 0.6, 0.8))

    def test_horizontal_point_flat(self):
        t = math.pi
        pj = curve_point_jets(HELIX, t)
        lifted = lifted_point_jets(
            pj, LiftKind.horizontal((1, 0, 0)), Connection.flat(), w_value=(1, 0, 0)
        )
        base = pj.value()
        assert lifted.value() == pytest.approx(base + (1, 0, 0))

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
