"""Parser, evaluators, pretty printer and the line-oriented file formats."""

import contextlib
import itertools
import math
import random
import struct

import pytest

from frenetlift.expr import (
    MAX_DEPTH,
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
    _CODE_CACHE_SIZE,
    _code,
    eval_float,
    eval_forward,
    eval_jet,
    eval_second,
    parse_curve_file,
    parse_expr,
    parse_field_file,
    parse_number,
    pretty_print,
)
from frenetlift.jets import (
    JET_FUNCTIONS,
    DimensionMismatch,
    DivisionByZeroJet,
    DomainError,
    Jet,
    JetError,
    NonFiniteJet,
)
from frenetlift.verify import random_ast
from jet_vectors import tree_jet

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

    def test_flat_chain_within_depth(self):
        text = "+".join(["t"] * 150)
        ast = parse_expr(text, {"t"})
        assert eval_float(ast, {"t": 0.5}) == 75.0
        assert eval_jet(ast, {"t": Jet.variable(0.5, 2)}).coeffs == (75.0, 150.0, 0.0)
        assert parse_expr(pretty_print(ast), {"t"}) == ast

    @pytest.mark.parametrize("op", ["+", "-", "*", "/"])
    def test_depth_limit(self, op):
        parse_expr(op.join(["t"] * MAX_DEPTH), {"t"})
        text = op.join(["t"] * (MAX_DEPTH + 1))
        with pytest.raises(ParseError, match="deep") as exc:
            parse_expr(text, {"t"})
        assert 0 < exc.value.offset < len(text)

    def test_depth_counts_across_nesting(self):
        # A chain inside parentheses sits under the chain around it, so the
        # heights add up although only one level of parentheses is used.
        half = "+".join(["t"] * (MAX_DEPTH // 2))
        parse_expr(f"({half})*{half}", {"t"})
        with pytest.raises(ParseError, match="deep"):
            parse_expr(f"(({half})*{half})*{half}", {"t"})

    @pytest.mark.parametrize("text", ["t^((-8)^0.5)", "t^(0^-1)", "t^(0^-0.5)"])
    def test_exponent_without_real_value_rejected(self, text):
        with pytest.raises(ParseError, match="foldable"):
            parse_expr(text, {"t"})

    @pytest.mark.parametrize("text, offset", [
        ("t^(1e999-1e999)", 2), ("t^(0*1e999)", 2), ("t ^ (1e999 - 1e999)", 4),
        ("t^(-(1e999*0))", 2),
    ])
    def test_exponent_folding_to_nan_rejected(self, text, offset):
        # The float evaluator raises nothing on inf - inf or 0*inf, so the
        # exponent folded to NaN, which pretty_print could not print.
        with pytest.raises(ParseError, match="foldable") as exc:
            parse_expr(text, {"t"})
        assert exc.value.offset == offset

    @pytest.mark.parametrize("text", ["t^1e999", "t^(-1e999)", "t^(1e999*2)"])
    def test_infinite_exponent_kept(self, text):
        node = parse_expr(text, {"t"})
        assert math.isinf(node.right.value)
        assert parse_expr(pretty_print(node), {"t"}) == node

    def test_exponent_dividing_below_floor_rejected(self):
        # The exponent folds through eval_float, which refuses a divisor
        # below DIV_FLOOR in magnitude as it does in evaluation.
        with pytest.raises(ParseError, match="foldable") as exc:
            parse_expr("t^(1/1e-301)", {"t"})
        assert exc.value.offset == 2
        with pytest.raises(DivisionByZeroJet):
            eval_float(parse_expr("1/t", {"t"}), {"t": 1e-301})

    @pytest.mark.parametrize("text, offset, expected", [
        ("1.5\u00b2*t", 3, "a token (found '\u00b2')"),
        ("1e\u00b2", 1, "exponent digits"),
        ("1.\u0663", 2, "digits after decimal point"),
        ("\u0663*t", 0, "a token (found '\u0663')"),
    ], ids=["superscript", "superscript-exponent", "arabic-fraction", "arabic"])
    def test_digits_are_ascii(self, text, offset, expected):
        # str.isdigit() holds for these: float() refused '1.5\u00b2' and
        # read '\u0663' as 3.
        with pytest.raises(ParseError) as exc:
            parse_expr(text, {"t"})
        assert (exc.value.offset, exc.value.expected) == (offset, expected)

    def test_error_offsets_inside_input(self):
        for text in ("1+", "sin(t", "(t", "t )", "2**t", "1. 5"):
            with pytest.raises(ParseError) as exc:
                parse_expr(text, {"t"})
            assert 0 <= exc.value.offset <= len(text)


class TestParseNumber:
    @pytest.mark.parametrize("text", [
        "0", "-0", "7", " 2.5e3 ", "-0.1", "12e-3", "1E+2", "0.000", "1e999", "-1e999",
        "5e-324", "\t-17\n", "00012.50",
    ])
    def test_bits_are_parse_expr_bits(self, text):
        node = parse_expr(text, ())
        want = -node.child.value if isinstance(node, Neg) else node.value
        assert struct.pack("<d", parse_number(text)) == struct.pack("<d", want)

    @pytest.mark.parametrize("text", [
        "\u0663", "1_0", "inf", "-inf", "nan", "infinity", "+1", ".5", "-.5", "- 5", "--5",
        "1 2", "", " ", "-", "\u00b2", "2\u00b2", "0x10", "1,0", "(1)", "1e5e5",
    ])
    def test_refuses_what_is_not_one_literal(self, text):
        with pytest.raises(ValueError, match="expected a number"):
            parse_number(text)

    @pytest.mark.parametrize("text, offset, expected", [
        ("1.", 2, "digits after decimal point"),
        ("-1.", 3, "digits after decimal point"),
        (" 5.e3", 2, "digits after decimal point"),
        ("1e", 1, "exponent digits"),
        ("-1e+", 2, "exponent digits"),
        ("1.5E-x", 3, "exponent digits"),
    ])
    def test_malformed_literal_is_a_parse_error(self, text, offset, expected):
        # The tokenizer's own errors, at offsets into the stripped text.
        with pytest.raises(ParseError) as exc:
            parse_number(text)
        assert (exc.value.offset, exc.value.expected) == (offset, expected)
        with pytest.raises(ParseError) as exc:
            parse_expr(text.strip(), {"x"})
        assert (exc.value.offset, exc.value.expected) == (offset, expected)


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

    @pytest.mark.parametrize("text, message, span", [
        ("t + sin(1e999)", "sin undefined at inf", (4, 14)),
        ("t + cos(-1e999)", "cos undefined at -inf", (4, 15)),
        ("t + tan(1e999)", "tan undefined at inf", (4, 14)),
    ])
    def test_infinite_argument_is_a_domain_error(self, text, message, span):
        # The jet and float evaluators agree on the function, value and span.
        ast = parse_expr(text, {"t"})
        for evaluate in (lambda: eval_jet(ast, {"t": Jet.variable(0.5, 3)}),
                         lambda: eval_float(ast, {"t": 0.5})):
            with pytest.raises(DomainError, match=f"^{message}$") as exc:
                evaluate()
            assert exc.value.span == span

    def test_one_tree_at_several_orders(self):
        ast = parse_expr("2/(1-t) + 3", {"t"})
        for order in (3, 0, 5, 3):
            jet = eval_jet(ast, {"t": Jet.variable(0.0, order)})
            assert jet.coeffs == (5.0,) + (2.0,) * order

    @pytest.mark.parametrize("text, t, span", [
        ("t^-1", 0.0, (0, 4)),
        ("t^-0.5", 0.0, (0, 6)),
        ("1+t^0.5", -4.0, (2, 7)),
        ("(t-1)^(1/3)", -7.0, (0, 11)),
    ])
    def test_float_power_without_real_value(self, text, t, span):
        with pytest.raises(DomainError) as exc:
            eval_float(parse_expr(text, {"t"}), {"t": t})
        assert (exc.value.func, exc.value.span) == ("pow", span)

    @pytest.mark.parametrize("text, t, span", [
        ("t^-1", 1e-301, (0, 4)),
        ("t^-2", -2e-300, (0, 4)),
        ("1 + t^-3", 1e-150, (4, 8)),
    ])
    def test_float_negative_power_below_floor(self, text, t, span):
        # The positive power is below DIV_FLOOR: undefined in floats as in jets.
        ast = parse_expr(text, {"t"})
        errors = []
        for evaluate in (lambda: eval_float(ast, {"t": t}),
                         lambda: eval_jet(ast, {"t": Jet.variable(t, 1)})):
            with pytest.raises(DomainError) as exc:
                evaluate()
            errors.append((exc.value.func, str(exc.value), exc.value.span))
        assert errors == [("pow", f"pow undefined at {t!r}", span)] * 2

    def test_float_evaluation_leaves_nodes_as_parsed(self):
        # The oracle walks the tree and keeps nothing on its nodes.
        ast = parse_expr("sin(t)^2 + (1 - t)/t^(1/2) - -log(t)", {"t"})
        nodes = list(_nodes(ast))
        parsed = [dict(vars(node)) for node in nodes]
        for t in (0.5, 2.0):
            eval_float(ast, {"t": t})
        with pytest.raises(DomainError):
            eval_float(ast, {"t": -1.0})
        assert [vars(node) for node in nodes] == parsed

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


    @pytest.mark.parametrize("c", ["2.5", "0", "1e-320", "3"])
    def test_product_with_number_matches_constant_jet(self, c):
        t = Jet.variable(0.3, 5)
        bind = {"t": t}
        inner = eval_jet(parse_expr("sin(t)*t - t", {"t"}), bind)
        const = Jet.constant(float(c), 5)
        want = [struct.pack("<d", x) for x in (const * inner).coeffs]
        for text in (f"{c}*(sin(t)*t - t)", f"(sin(t)*t - t)*{c}"):
            got = eval_jet(parse_expr(text, {"t"}), bind).coeffs
            assert [struct.pack("<d", x) for x in got] == want


NAMES = ("x1", "x2", "x3")
BASIS = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


def _jet_route(asts, point, tangents):
    """Order-1 tree walk direction by direction, each direction through every AST."""
    derivs = [[] for _ in asts]
    for d in tangents:
        bindings = {name: Jet((point[i], d[i])) for i, name in enumerate(NAMES)}
        for k, ast in enumerate(asts):
            jet = tree_jet(ast, bindings, 1)
            derivs[k].append(jet.coeffs)
    return [(ds[0][0], tuple(c[1] for c in ds)) for ds in derivs]


def _forward_route(asts, point, tangents):
    """eval_forward with one binding dict per direction, regrouped by AST."""
    outs = eval_forward(asts, [{name: (point[i], d[i]) for i, name in enumerate(NAMES)}
                               for d in tangents])
    return [(outs[0][k][0], tuple(out[k][1] for out in outs)) for k in range(len(asts))]


def _outcome(route, asts, point, tangents):
    """Results by struct bits, or the error's class, message and span."""
    try:
        results = route(asts, point, tangents)
    except Exception as err:
        return type(err), str(err), getattr(err, "span", None)
    return [(struct.pack("<d", v), [struct.pack("<d", x) for x in d]) for v, d in results]


class TestForward:
    def test_matches_order1_jets(self):
        rng = random.Random(20261018)
        raised = 0
        for _ in range(2000):
            ast = random_ast(rng, 6, NAMES)
            point = [rng.uniform(-2.0, 2.0) for _ in range(3)]
            one = ([rng.uniform(-2.0, 2.0) for _ in range(3)],)
            for tangents in (BASIS, one):
                want = _outcome(_jet_route, [ast], point, tangents)
                assert _outcome(_forward_route, [ast], point, tangents) == want
                raised += isinstance(want, tuple)
        assert 0 < raised < 4000

    @pytest.mark.parametrize("texts, point, tangents, raised", [
        # Tangent 2 overflows first, but direction 1 meets the log first.
        (["(x2*1e200)*1e200 + log(x1)"], (-1.0, 1e-300, 1.0), BASIS, DomainError),
        (["(x2*1e200)*1e200", "log(x1)"], (-1.0, 1e-300, 1.0), BASIS, DomainError),
        # Only the quotient's tangent along x2 overflows.
        (["x1/x2"], (1.0, 1e-300, 1.0), BASIS, NonFiniteJet),
        # Every tangent is near the largest float, none overflows alone.
        (["x1 + x2", "x1*x2 - x3"], (0.0, 1.0, 0.5), ((1e308, 0.0, 0.0),) * 3, None),
        # Signed zeros: each inlined step keeps the kernel's zero signs.
        (["0*x1", "x1*0", "-(x1 - x1)", "-(0*x1) - x2"], (-2.0, 0.0, 1.0), BASIS, None),
        # A lone number meets no finiteness test.
        (["1e999", "-1e999"], (1.0, 1.0, 1.0), BASIS, None),
        # The denominator's value is below DIV_FLOOR.
        (["x3 + x1/x2"], (1.0, 1e-301, 1.0), BASIS, DivisionByZeroJet),
        # An infinite argument is outside the domain of sin, cos and tan.
        (["x1 + sin(1e999)"], (1.0, 1.0, 1.0), BASIS, DomainError),
        (["x1 + cos(-1e999)"], (1.0, 1.0, 1.0), BASIS, DomainError),
        (["x1 + tan(1e999)"], (1.0, 1.0, 1.0), BASIS, DomainError),
        # A repeated subtree runs once and fails where it first occurs.
        (["log(x1 - 1) + log(x1 - 1)*x2"], (0.5, 1.0, 1.0), BASIS, DomainError),
        (["sin(x1*x2)*x3 + cos(x1*x2)*sin(x1*x2)", "-(x1*x2)"], (0.5, -1.5, 2.0), BASIS, None),
    ], ids=["one-expression", "two-expressions", "quotient", "large-tangents", "signed-zero",
            "lone-infinity", "below-floor", "sin-infinity", "cos-infinity", "tan-infinity",
            "shared-failing", "shared"])
    def test_edge_cases(self, texts, point, tangents, raised):
        asts = [parse_expr(text, NAMES) for text in texts]
        want = _outcome(_jet_route, asts, point, tangents)
        assert (want[0] if isinstance(want, tuple) else None) is raised
        assert _outcome(_forward_route, asts, point, tangents) == want


class TestCompiledSpans:
    """Compiled code is cached on each node, and the float evaluator reads
    each node's own span, so equal subtrees at different places report
    their own spans."""

    @pytest.mark.parametrize("inner_first", [False, True])
    def test_equal_subtrees_keep_their_spans(self, inner_first):
        lone = parse_expr("log(x1)", NAMES)
        inner = parse_expr("1 + log(x1)", NAMES)
        assert inner.right == lone and hash(inner.right) == hash(lone)
        cases = [(lone, (0, 7)), (inner, (4, 11))]
        evaluators = (
            lambda ast: eval_float(ast, {"x1": -1.0, "x2": 1.0, "x3": 1.0}),
            lambda ast: eval_jet(ast, {n: Jet((x, 1.0)) for n, x in zip(NAMES, (-1.0, 1, 1))}),
            lambda ast: _forward_route([ast], (-1.0, 1.0, 1.0), BASIS),
        )
        for ast, span in reversed(cases) if inner_first else cases:
            for evaluate in evaluators:
                with pytest.raises(DomainError) as exc:
                    evaluate(ast)
                assert exc.value.span == span


    @pytest.mark.parametrize("text, span", [
        ("x2 + x1*1e308*10", (5, 13)),
        ("x2 - 1e308*x1", (5, 13)),
        ("x1*1e308*x3", (0, 8)),
        ("x2 + (1e200*x1)*(1e200*x3)", (5, 26)),
        ("1e308*sin(x1) + 1e308*sin(x1)", (0, 29)),
        ("1e308*sin(x1) - -1e308*sin(x1)", (0, 30)),
        ("x3 * (1e308*sin(x1) + 1e308*sin(x1))", (5, 36)),
        # The repeated factor runs once, at its first span.
        ("x2 - (x1*1e200*1e200)*(x1*1e200*1e200)", (5, 21)),
    ])
    def test_nonfinite_sum_difference_product_spans(self, text, span):
        ast = parse_expr(text, NAMES)
        evaluators = (
            lambda: eval_jet(ast, {n: Jet((1.0, 1.0)) for n in NAMES}),
            lambda: eval_jet(ast, {n: Jet.variable(1.0, 5) for n in NAMES}),
            lambda: _forward_route([ast], (1.0, 1.0, 1.0), BASIS),
            lambda: _forward_route([ast], (1.0, 1.0, 1.0), BASIS[:1]),
            lambda: _second_route([ast], (1.0, 1.0, 1.0), BASIS),
        )
        for evaluate in evaluators:
            with pytest.raises(NonFiniteJet) as exc:
                evaluate()
            assert exc.value.span == span


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
        infinite = [parse_expr(text, {"t"}) for text in ("1e999", "t*1e999", "2^1e999", "t^-1e999")]
        for ast in [random_ast(rng, 6) for _ in range(500)] + infinite:
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

    def test_overflowing_domain_width(self):
        # Finite endpoints whose difference overflows would give NaN samples.
        with pytest.raises(ValueError, match="t_max - t_min"):
            CurveSpec.from_strings("t", "t", "t", -1e308, 1e308)
        wide = HELIX_FILE.replace("t_min = 0", "t_min = -1e308").replace(
            "t_max = 6.283185307", "t_max = 1e308")
        with pytest.raises(FormatError, match=r"domain \[-1e\+308, 1e\+308\]"):
            parse_curve_file(wide)


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


# --- order-2 pass and order-1 eval_jet against the tree walk --------------------

def _second_jet_route(asts, point, tangents):
    """Order-2 tree walk direction by direction on (x, d_i, 0.0), each
    direction through every AST."""
    coeffs = [[] for _ in asts]
    for d in tangents:
        bindings = {name: Jet((point[i], d[i], 0.0)) for i, name in enumerate(NAMES)}
        for k, ast in enumerate(asts):
            coeffs[k].append(tree_jet(ast, bindings, 2).coeffs)
    return [(cs[0][0], tuple(c[1] for c in cs), tuple(c[2] for c in cs)) for cs in coeffs]


def _second_route(asts, point, tangents):
    """eval_second with one binding dict per direction, regrouped by AST."""
    outs = eval_second(asts, [{name: (point[i], d[i], 0.0) for i, name in enumerate(NAMES)}
                              for d in tangents])
    return [(outs[0][k][0], tuple(out[k][1] for out in outs), tuple(out[k][2] for out in outs))
            for k in range(len(asts))]


def _hex_outcome(route, *args):
    """Every coefficient by float.hex, or the error's class, message and span."""
    try:
        results = route(*args)
    except Exception as err:
        return type(err), str(err), getattr(err, "span", None)
    return [(v.hex(), [x.hex() for x in d], [y.hex() for y in e]) for v, d, e in results]


def _nodes(ast):
    yield ast
    for child in (getattr(ast, "child", None), getattr(ast, "left", None),
                  getattr(ast, "right", None), getattr(ast, "arg", None)):
        if child is not None:
            yield from _nodes(child)


class TestSecond:
    def test_matches_order2_jet_kernel(self):
        rng = random.Random(20261104)
        raised = 0
        seen = set()
        for _ in range(1500):
            ast = random_ast(rng, 6, NAMES)
            for node in _nodes(ast):
                if isinstance(node, Call):
                    seen.add(node.func)
                elif isinstance(node, BinOp) and node.op == "^":
                    seen.add(("^", node.right.value.is_integer()))
                elif isinstance(node, BinOp):
                    seen.add(node.op)
            point = [rng.uniform(-2.0, 2.0) for _ in range(3)]
            three = [[rng.uniform(-2.0, 2.0) for _ in range(3)] for _ in range(3)]
            for tangents in (BASIS, three, three[:1]):
                want = _hex_outcome(_second_jet_route, [ast], point, tangents)
                assert _hex_outcome(_second_route, [ast], point, tangents) == want
                raised += isinstance(want, tuple)
        assert set(JET_FUNCTIONS) | {"/", ("^", True), ("^", False)} <= seen
        assert 0 < raised < 4500

    @pytest.mark.parametrize("texts, point, tangents, raised", [
        # Direction 2 overflows at the first product; direction 1 meets the
        # log later.
        (["(x2*1e200)*1e200 + log(x1)"], (-1.0, 1e-300, 1.0), BASIS, DomainError),
        (["(x2*1e200)*1e200", "log(x1)"], (-1.0, 1e-300, 1.0), BASIS, DomainError),
        # Only the second coefficient along direction 2 overflows.
        (["x1 + x2*x2"], (1.0, 1.0, 1.0), ((1.0, 0.0, 0.0), (0.0, 1e160, 0.0)), NonFiniteJet),
        (["sin(x2)"], (1.0, 1.0, 1.0), ((1.0, 0.0, 0.0), (0.0, 1e160, 0.0)), NonFiniteJet),
        (["x1/x2"], (1.0, 1e-150, 1.0), BASIS, NonFiniteJet),
        (["exp(x2) - x3^0.5"], (1.0, 1.0, 4.0), ((0.0, 1e160, 0.0), BASIS[2]), NonFiniteJet),
        # Near the largest float in value and slope, none overflows.
        (["x1 + x2", "x1*x2 - x3"], (0.0, 1.0, 0.5), ((1e307, 0.0, 0.0),) * 3, None),
        # An infinite argument is outside the domain of sin, cos and tan.
        (["x1 + sin(1e999)"], (1.0, 1.0, 1.0), BASIS, DomainError),
        (["x1 + cos(-1e999)"], (1.0, 1.0, 1.0), BASIS, DomainError),
        (["x1 + tan(1e999)"], (1.0, 1.0, 1.0), BASIS, DomainError),
        # Direction 2 overflows first in tree order, at x2*x2; the error
        # raised is direction 1's, at x1*x1 (span (8, 13)).
        (["x2*x2 + x1*x1"], (1.0, 1.0, 1.0), ((1e160, 0.0, 0.0), (0.0, 1e160, 0.0)),
         NonFiniteJet),
        # Only the partner's triple, sin's, overflows at order 2 (span (0, 7)).
        (["cos(x1)"], (math.pi / 2, 1.0, 1.0), ((1e158, 0.0, 0.0),), NonFiniteJet),
        # A repeated subtree runs once and fails where it first occurs.
        (["log(x1 - 1) + log(x1 - 1)*x2"], (0.5, 1.0, 1.0), BASIS, DomainError),
        (["sin(x1*x2)*x3 + cos(x1*x2)*sin(x1*x2)", "-(x1*x2)"], (0.5, -1.5, 2.0), BASIS, None),
    ], ids=["one-expression", "two-expressions", "square", "sin", "quotient", "per-direction",
            "large-tangents", "sin-infinity", "cos-infinity", "tan-infinity",
            "first-direction", "sin-partner", "shared-failing", "shared"])
    def test_edge_cases(self, texts, point, tangents, raised):
        asts = [parse_expr(text, NAMES) for text in texts]
        want = _hex_outcome(_second_jet_route, asts, point, tangents)
        assert (want[0] if isinstance(want, tuple) else None) is raised
        assert _hex_outcome(_second_route, asts, point, tangents) == want


class TestOrder1Jet:
    """Order-1 eval_jet runs the forward code on the jets' coefficient
    pairs; the tree walk over the Jet kernel stays the reference."""

    def test_matches_jet_kernel(self):
        rng = random.Random(20261105)
        raised = 0
        for _ in range(3000):
            ast = random_ast(rng, 6, NAMES)
            bindings = {name: Jet((rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)))
                        for name in NAMES}
            outcomes = []
            for route in (eval_jet, lambda a, b: tree_jet(a, b, 1)):
                try:
                    outcomes.append([x.hex() for x in route(ast, bindings).coeffs])
                except Exception as err:
                    outcomes.append((type(err), str(err), getattr(err, "span", None)))
            assert outcomes[0] == outcomes[1]
            raised += isinstance(outcomes[1], tuple)
        assert 0 < raised < 3000

    @pytest.mark.parametrize("text, values, raised", [
        ("0*x1", (-2.0, 1.0, 1.0), None),
        ("x1*0", (-2.0, 1.0, 1.0), None),
        ("-(x1 - x1)", (-2.0, 1.0, 1.0), None),
        ("-(0*x1) - x2", (1.0, 0.0, 1.0), None),
        ("1e999", (1.0, 1.0, 1.0), None),
        ("x3 + x1/x2", (1.0, 1e-301, 1.0), DivisionByZeroJet),
        ("x3 + x1/(x2 - x2)", (1.0, 2.0, 1.0), DivisionByZeroJet),
    ])
    def test_edge_cases(self, text, values, raised):
        bindings = {name: Jet((v, -1.5)) for name, v in zip(NAMES, values)}
        # eval_jet on a fresh tree, which has no forward code yet, and on a
        # tree whose forward code eval_forward compiled and cached first.
        for warm in (False, True):
            ast = parse_expr(text, NAMES)
            if warm:
                with contextlib.suppress(JetError):
                    eval_forward([ast], [{name: j.coeffs for name, j in bindings.items()}])
            assert ("_forward" in vars(ast)) is warm
            outcomes = []
            for route in (eval_jet, lambda a, b: tree_jet(a, b, 1)):
                try:
                    outcomes.append([x.hex() for x in route(ast, bindings).coeffs])
                except Exception as err:
                    outcomes.append((type(err), str(err), getattr(err, "span", None)))
            assert outcomes[0] == outcomes[1]
            assert (outcomes[1][0] if isinstance(outcomes[1], tuple) else None) is raised

    def test_mixed_orders_reach_jet_kernel(self):
        ast = parse_expr("x1*x2", NAMES)
        with pytest.raises(DimensionMismatch):
            eval_jet(ast, {"x1": Jet((1.0, 1.0)), "x2": Jet((1.0, 1.0, 0.0)), "x3": Jet((1.0, 0.0))})

    def test_order1_curve_velocity_bits(self):
        ast = parse_expr("3*cos(t/5) + t^2.5 - tan(t)", {"t"})
        for t in (0.3, 0.7, 1.3, 31.4):
            tj = Jet.variable(t, 1)
            got = eval_jet(ast, {"t": tj}).coeffs
            assert [x.hex() for x in got] == [x.hex() for x in tree_jet(ast, {"t": tj}, 1).coeffs]


def _coeff_outcome(run):
    """The coefficients ``run`` returns by float.hex, or its error's class,
    message and span."""
    try:
        return [x.hex() for x in run()]
    except Exception as err:
        return type(err), str(err), getattr(err, "span", None)


class TestGeneratedCode:
    """eval_forward, eval_second and order-1 eval_jet run one generated
    function per tree, whose code trees of one shape share."""

    @staticmethod
    def _forward(ast, values, tangent):
        return eval_forward([ast], [{n: (v, d) for n, v, d in zip(NAMES, values, tangent)}])

    def test_one_shape_shares_code_with_own_spans(self):
        trees = [parse_expr(text, NAMES) for text in ("x2 + log(x1)", " (x3)  +  sqrt(x2)")]
        spans = []
        for ast in trees:
            with pytest.raises(DomainError) as exc:
                self._forward(ast, (-1.0, -2.0, 1.0), (1.0, 0.0, 0.0))
            spans.append(exc.value.span)
        assert spans == [(5, 12), (10, 18)]
        assert trees[0]._forward.__code__ is trees[1]._forward.__code__
        for ast in trees:
            with pytest.raises(DomainError) as exc:
                _second_route([ast], (-1.0, -2.0, 1.0), BASIS)
            assert exc.value.span in spans
        assert trees[0]._second.__code__ is trees[1]._second.__code__

    @pytest.mark.parametrize("value", [0.0, -0.0, 1e999, -1e999])
    def test_numbers_keep_their_bits(self, value):
        # Each number is an argument of the shared code, never source text.
        bindings = {n: Jet((1.0, -1.5)) for n in NAMES}
        for ast in (Num(value), Neg(Num(value)), BinOp("-", Var("x1"), Neg(Num(value)))):
            want = _outcome(_jet_route, [ast], (1.0, 1.0, 1.0), ((-1.5,) * 3,))
            assert _outcome(_forward_route, [ast], (1.0, 1.0, 1.0), ((-1.5,) * 3,)) == want
            assert (_hex_outcome(_second_route, [ast], (1.0, 1.0, 1.0), BASIS)
                    == _hex_outcome(_second_jet_route, [ast], (1.0, 1.0, 1.0), BASIS))
            assert (_coeff_outcome(lambda: eval_jet(ast, bindings).coeffs)
                    == _coeff_outcome(lambda: tree_jet(ast, bindings, 1).coeffs))
        lone, other = Num(value), Num(0.5)
        assert self._forward(lone, (0.0,) * 3, (0.0,) * 3)[0][0][0].hex() == value.hex()
        self._forward(other, (0.0,) * 3, (0.0,) * 3)
        assert lone._forward.__code__ is other._forward.__code__

    @pytest.mark.parametrize("name", ["x1) or print('ran'", "1/0", "b[0]", "x1\nraise SystemExit"])
    def test_name_is_a_key_not_code(self, name):
        ast = BinOp("*", Var(name, (3, 4)), Num(2.0))
        with pytest.raises(UnknownVariable) as exc:
            self._forward(ast, (1.0, 1.0, 1.0), (1.0, 0.0, 0.0))
        assert (exc.value.name, exc.value.offset) == (name, 3)
        with pytest.raises(UnknownVariable):
            eval_second([ast], [{"x1": (1.0, 1.0, 0.0)}])
        assert eval_forward([ast], [{name: (1.5, -1.0)}]) == [[(3.0, -2.0)]]
        assert eval_second([ast], [{name: (1.5, -1.0, 0.0)}]) == [[(3.0, -2.0, 0.0)]]

    def test_cache_keeps_its_bound(self):
        # x1 followed by one to four operators, each on x2: 340 shapes.
        texts = ["x1" + "".join(op + "x2" for op in ops)
                 for n in range(1, 5) for ops in itertools.product("+-*/", repeat=n)]
        assert len(texts) > _CODE_CACHE_SIZE
        _code.cache_clear()
        for text in texts:
            self._forward(parse_expr(text, NAMES), (1.5, 0.5, 1.0), (1.0, 0.0, 0.0))
            assert _code.cache_info().currsize <= _CODE_CACHE_SIZE
        assert _code.cache_info()[1:] == (len(texts), _CODE_CACHE_SIZE, _CODE_CACHE_SIZE)
        # The first shape was dropped: a new tree of it compiles again.
        assert self._forward(parse_expr(texts[0], NAMES), (1.5, 0.5, 1.0), (1.0, 0.0, 0.0)) == [
            [(2.0, 1.0)]]
        assert _code.cache_info().misses == len(texts) + 1

    @pytest.mark.parametrize("text", [
        "(" * MAX_NESTING + "t" + ")" * MAX_NESTING,
        "sin(" * MAX_NESTING + "t" + ")" * MAX_NESTING,
        "cos(" * MAX_NESTING + "t" + ")" * MAX_NESTING,
        "-" * MAX_NESTING + "t",
        "t" + "^1" * MAX_NESTING,
        "+".join(["t"] * MAX_DEPTH),
        "-".join(["t"] * MAX_DEPTH),
        "*".join(["t"] * MAX_DEPTH),
        "/".join(["t"] * MAX_DEPTH),
        "({0})*{0}".format("+".join(["t"] * (MAX_DEPTH // 2))),
        "+".join(["sin(t)*t"] * (MAX_DEPTH - 10)),
    ], ids=["parens", "sin", "cos", "neg", "pow", "sum", "difference", "product", "quotient",
            "across-nesting", "wide"])
    def test_deepest_trees_match_jet_kernel(self, text):
        ast = parse_expr(text, {"t"})
        for t in (0.5, 1.25):
            one, two = {"t": Jet.variable(t, 1)}, {"t": Jet.variable(t, 2)}
            assert (_coeff_outcome(lambda: eval_jet(ast, one).coeffs)
                    == _coeff_outcome(lambda: tree_jet(ast, one, 1).coeffs))
            assert (_coeff_outcome(lambda: eval_second([ast], [{"t": (t, 1.0, 0.0)}])[0][0])
                    == _coeff_outcome(lambda: tree_jet(ast, two, 2).coeffs))
