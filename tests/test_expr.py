"""Parser, evaluators, pretty printer and the line-oriented file formats."""

import math
import random

import pytest

from frenetlift.expr import (
    MAX_NESTING,
    BinOp,
    Call,
    CurveSpec,
    FormatError,
    Neg,
    Num,
    ParseError,
    UnknownFunction,
    UnknownVariable,
    Var,
    eval_float,
    eval_jet,
    parse_curve_file,
    parse_expr,
    parse_field_file,
    pretty_print,
)
from frenetlift.jets import DomainError, Jet
from frenetlift.verify import random_ast

HELIX_FILE = """\
name = helix345
x1 = 3*cos(t)
x2 = 3*sin(t)
x3 = 4*t
t_min = 0
t_max = 6.283185307
"""


class TestParse:
    def test_scaled_call(self):
        ast = parse_expr("3*cos(t)", {"t"})
        assert ast == BinOp("*", Num(3.0), Call("cos", Var("t")))

    def test_unclosed_call(self):
        with pytest.raises(ParseError) as exc:
            parse_expr("sin(", {"t"})
        assert exc.value.offset == 4

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariable) as exc:
            parse_expr("x1*x2", {"t"})
        assert exc.value.name == "x1"
        assert exc.value.offset == 0

    def test_unknown_function(self):
        with pytest.raises(UnknownFunction) as exc:
            parse_expr("foo(t)", {"t"})
        assert exc.value.name == "foo"

    def test_precedence(self):
        assert parse_expr("1+2*t", {"t"}) == BinOp(
            "+", Num(1.0), BinOp("*", Num(2.0), Var("t"))
        )

    def test_left_associativity(self):
        assert parse_expr("t-1-2", {"t"}) == BinOp(
            "-", BinOp("-", Var("t"), Num(1.0)), Num(2.0)
        )

    def test_unary_minus_binds_below_power(self):
        assert parse_expr("-t^2", {"t"}) == Neg(BinOp("^", Var("t"), Num(2.0)))

    def test_exponent_folds_at_parse_time(self):
        assert parse_expr("t^(1+1)", {"t"}) == BinOp("^", Var("t"), Num(2.0))

    def test_nonconstant_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse_expr("t^t", {"t"})

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_expr("   ", {"t"})

    def test_number_forms(self):
        for text, value in (("1", 1.0), ("0.5", 0.5), ("1e-3", 1e-3), ("2.5E+2", 250.0)):
            assert parse_expr(text, {"t"}) == Num(value)

    @pytest.mark.parametrize(
        "nest",
        [
            lambda n: "(" * n + "t" + ")" * n,
            lambda n: "sin(" * n + "t" + ")" * n,
            lambda n: "-" * n + "t",
            lambda n: "t" + "^1" * n,
        ],
        ids=["parens", "call", "neg", "pow"],
    )
    def test_nesting_limit(self, nest):
        ast = parse_expr(nest(MAX_NESTING), {"t"})
        value = eval_float(ast, {"t": 0.5})
        assert eval_jet(ast, {"t": Jet.variable(0.5, 2)}).value == value
        with pytest.raises(ParseError, match="nested") as exc:
            parse_expr(nest(MAX_NESTING + 1), {"t"})
        assert 0 < exc.value.offset < len(nest(MAX_NESTING + 1))

    def test_error_offsets_inside_input(self):
        for text in ("1+", "sin(t", "(t", "t )", "2**t", "1. 5"):
            with pytest.raises(ParseError) as exc:
                parse_expr(text, {"t"})
            assert 0 <= exc.value.offset <= len(text)


class TestEval:
    def test_square(self):
        jet = eval_jet(parse_expr("t^2", {"t"}), {"t": Jet.variable(3.0, 2)})
        assert list(jet.coeffs) == pytest.approx([9, 6, 1])

    def test_geometric_series(self):
        jet = eval_jet(parse_expr("1/(1-t)", {"t"}), {"t": Jet.variable(0.0, 3)})
        assert list(jet.coeffs) == pytest.approx([1, 1, 1, 1])

    def test_domain_error_carries_span(self):
        ast = parse_expr("1+log(t)", {"t"})
        with pytest.raises(DomainError) as exc:
            eval_jet(ast, {"t": Jet.variable(-1.0, 1)})
        lo, hi = exc.value.span
        assert (lo, hi) == (2, 8)

    def test_float_path_matches_order0(self):
        rng = random.Random(7)
        checked = 0
        while checked < 100:
            ast = random_ast(rng, 4)
            t0 = rng.uniform(-2.0, 2.0)
            try:
                fval = eval_float(ast, {"t": t0})
                jval = eval_jet(ast, {"t": Jet.variable(t0, 0)}).value
            except Exception:
                continue
            if not (math.isfinite(fval) and math.isfinite(jval)):
                continue
            checked += 1
            # Full-grammar agreement: loose bound, covers pow/tan divergence.
            assert jval == pytest.approx(fval, rel=1e-9, abs=1e-9) or abs(
                jval - fval
            ) <= 1e-9 * abs(fval)


class TestPrettyPrint:
    def test_fixed_point(self):
        ast = parse_expr("3*cos(t)", {"t"})
        assert pretty_print(ast) == "3*cos(t)"

    def test_sign_preservation(self):
        ast = parse_expr("-(t+1)", {"t"})
        assert pretty_print(ast) == "-(t+1)"

    def test_canonical_number_format(self):
        ast = parse_expr("t^2.0", {"t"})
        assert pretty_print(ast) == "t^2"

    def test_minimal_parentheses(self):
        cases = {
            "t*(1+t)": "t*(1+t)",
            "(t*2)^3": "(t*2)^3",
            "t-(1-t)": "t-(1-t)",
            "t/(2*t)": "t/(2*t)",
            "-t^2": "-t^2",
            "(1+t)^2": "(1+t)^2",
        }
        for text, want in cases.items():
            assert pretty_print(parse_expr(text, {"t"})) == want

    def test_roundtrip_random(self):
        rng = random.Random(20260808)
        for _ in range(500):
            ast = random_ast(rng, 6)
            assert parse_expr(pretty_print(ast), {"t"}) == ast


class TestCurveFile:
    def test_helix_file(self):
        spec = parse_curve_file(HELIX_FILE)
        assert spec.name == "helix345"
        assert len(spec.components) == 3
        assert spec.domain == (0.0, 6.283185307)

    def test_missing_component(self):
        broken = "\n".join(
            line for line in HELIX_FILE.splitlines() if not line.startswith("x3")
        )
        with pytest.raises(FormatError):
            parse_curve_file(broken)

    def test_empty_domain(self):
        broken = HELIX_FILE.replace("t_max = 6.283185307", "t_max = 0")
        with pytest.raises(FormatError):
            parse_curve_file(broken)

    def test_unknown_key(self):
        with pytest.raises(FormatError):
            parse_curve_file(HELIX_FILE + "color = red\n")

    def test_comments_and_blanks(self):
        spec = parse_curve_file("# header\n\n" + HELIX_FILE)
        assert spec.name == "helix345"

    def test_curve_spec_validation(self):
        with pytest.raises(ValueError):
            CurveSpec.from_strings("t", "t", "t", 1.0, 1.0)


class TestFieldFile:
    def test_scalar(self):
        spec = parse_field_file("f = x1*x2\n")
        assert spec.kind == "scalar"

    def test_vector(self):
        spec = parse_field_file("X1 = x2\nX2 = 0\nX3 = x1+x3\n")
        assert spec.kind == "vector"
        assert len(spec.components) == 3

    def test_mixed_keys_rejected(self):
        with pytest.raises(FormatError):
            parse_field_file("f = x1\nX1 = x2\nX2 = 0\nX3 = 0\n")

    def test_wrong_variables_rejected(self):
        with pytest.raises(FormatError):
            parse_field_file("f = t\n")
