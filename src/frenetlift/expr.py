"""Expression language for curves and fields.

Grammar (whitespace insignificant, left associative):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' exponent)?      exponent folds to a constant
    base   := NUMBER | NAME | NAME '(' expr ')' | '(' expr ')' | '-' factor

Numbers are decimal literals with optional fraction and exponent part.
Exponents of '^' must fold to a real at parse time, which keeps powers of
negative bases meaningful for integer exponents.  Unary minus produces a
base, so ``-t^2`` reads as ``-(t^2)``.

ASTs are immutable; source spans (byte offsets into the input) are carried
for error reporting but ignored by structural equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Union

from .jets import (
    DivisionByZeroJet,
    DomainError,
    Jet,
    JET_FUNCTIONS,
    JetError,
    jet_pow,
)

__all__ = [
    "ExprAst",
    "Num",
    "Var",
    "Neg",
    "BinOp",
    "Call",
    "CurveSpec",
    "FieldSpec",
    "ParseError",
    "UnknownVariable",
    "UnknownFunction",
    "FormatError",
    "FUNCTION_NAMES",
    "CURVE_VARS",
    "FIELD_VARS",
    "parse_expr",
    "eval_jet",
    "eval_float",
    "pretty_print",
    "parse_curve_file",
    "parse_field_file",
    "scalar_field",
    "vector_field",
]

FUNCTION_NAMES = frozenset(JET_FUNCTIONS)

CURVE_VARS = frozenset({"t"})
FIELD_VARS = frozenset({"x1", "x2", "x3"})


class ParseError(ValueError):
    """Syntax error with the byte offset and what was expected there."""

    def __init__(self, offset: int, expected: str):
        self.offset = offset
        self.expected = expected
        super().__init__(f"at offset {offset}: expected {expected}")


class UnknownVariable(ParseError):
    def __init__(self, name: str, offset: int):
        self.name = name
        self.offset = offset
        self.expected = "a known variable"
        ValueError.__init__(self, f"at offset {offset}: unknown variable '{name}'")


class UnknownFunction(ParseError):
    def __init__(self, name: str, offset: int):
        self.name = name
        self.offset = offset
        self.expected = "a known function"
        ValueError.__init__(self, f"at offset {offset}: unknown function '{name}'")


class FormatError(ValueError):
    """Line-oriented input file violates the expected key/value shape."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


Span = tuple

# AST node definitions.  Spans are excluded from equality so a pretty-printed
# and reparsed tree compares structurally identical to the original.


@dataclass(frozen=True)
class Num:
    value: float
    span: Span = field(compare=False, default=(0, 0))


@dataclass(frozen=True)
class Var:
    name: str
    span: Span = field(compare=False, default=(0, 0))


@dataclass(frozen=True)
class Neg:
    child: "ExprAst"
    span: Span = field(compare=False, default=(0, 0))


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "ExprAst"
    right: "ExprAst"
    span: Span = field(compare=False, default=(0, 0))


@dataclass(frozen=True)
class Call:
    func: str
    arg: "ExprAst"
    span: Span = field(compare=False, default=(0, 0))


ExprAst = Union[Num, Var, Neg, BinOp, Call]


# --- tokenizer ---------------------------------------------------------------

_OPS = "+-*/^()"


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append(("op", ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == ".":
                j += 1
                if j >= n or not text[j].isdigit():
                    raise ParseError(j, "digits after decimal point")
                while j < n and text[j].isdigit():
                    j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k >= n or not text[k].isdigit():
                    raise ParseError(j, "exponent digits")
                j = k
                while j < n and text[j].isdigit():
                    j += 1
            tokens.append(("num", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise ParseError(i, f"a token (found {ch!r})")
    tokens.append(("end", "", n))
    return tokens


# --- parser ------------------------------------------------------------------


# Deepest nesting of '(', function calls, unary minus and '^' exponents the
# parser accepts; the recursive descent and evaluators stay far inside the
# interpreter's recursion limit.
MAX_NESTING = 100


class _Parser:
    def __init__(self, text: str, allowed_vars: frozenset[str] | set[str]):
        self.text = text
        self.vars = allowed_vars
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def nested(self, parse, off: int) -> ExprAst:
        """Run ``parse`` one nesting level deeper."""
        if self.depth == MAX_NESTING:
            raise ParseError(off, f"at most {MAX_NESTING} nested levels")
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, text, off = self.peek()
        if kind != "op" or text != op:
            raise ParseError(off, f"'{op}'")
        return self.advance()

    def parse(self) -> ExprAst:
        node = self.expr()
        kind, _, off = self.peek()
        if kind != "end":
            raise ParseError(off, "end of input or an operator")
        return node

    def expr(self) -> ExprAst:
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                right = self.term()
                node = BinOp(text, node, right, (node.span[0], right.span[1]))
            else:
                return node

    def term(self) -> ExprAst:
        node = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                right = self.factor()
                node = BinOp(text, node, right, (node.span[0], right.span[1]))
            else:
                return node

    def factor(self) -> ExprAst:
        node = self.base()
        kind, text, off = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            exponent = self.nested(self.factor, off)
            value = _fold_constant(exponent)
            folded = Num(value, exponent.span)
            return BinOp("^", node, folded, (node.span[0], exponent.span[1]))
        return node

    def base(self) -> ExprAst:
        kind, text, off = self.peek()
        if kind == "num":
            self.advance()
            return Num(float(text), (off, off + len(text)))
        if kind == "name":
            self.advance()
            nkind, ntext, _ = self.peek()
            if nkind == "op" and ntext == "(":
                if text not in FUNCTION_NAMES:
                    raise UnknownFunction(text, off)
                self.advance()
                arg = self.nested(self.expr, off)
                _, _, close_off = self.expect_op(")")
                return Call(text, arg, (off, close_off + 1))
            if text not in self.vars:
                raise UnknownVariable(text, off)
            return Var(text, (off, off + len(text)))
        if kind == "op" and text == "(":
            self.advance()
            node = self.nested(self.expr, off)
            _, _, close_off = self.expect_op(")")
            return _respan(node, (off, close_off + 1))
        if kind == "op" and text == "-":
            self.advance()
            child = self.nested(self.factor, off)
            return Neg(child, (off, child.span[1]))
        raise ParseError(off, "a number, variable, function call, '(' or '-'")


def _respan(node: ExprAst, span: Span) -> ExprAst:
    cls = type(node)
    kwargs = {f: getattr(node, f) for f in node.__dataclass_fields__}
    kwargs["span"] = span
    return cls(**kwargs)


class _NotConstant(Exception):
    pass


def _fold_constant(node: ExprAst) -> float:
    try:
        return _fold(node)
    except _NotConstant:
        raise ParseError(node.span[0], "a constant exponent") from None
    except (ValueError, ZeroDivisionError, OverflowError):
        raise ParseError(node.span[0], "a foldable constant exponent") from None


def _fold(node: ExprAst) -> float:
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Neg):
        return -_fold(node.child)
    if isinstance(node, BinOp):
        a = _fold(node.left)
        b = _fold(node.right)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            return a / b
        return a**b
    if isinstance(node, Call):
        return getattr(math, node.func)(_fold(node.arg))
    raise _NotConstant


def parse_expr(text: str, allowed_vars) -> ExprAst:
    """Parse ``text`` into an AST over the given variable set."""
    if not text or not text.strip():
        raise ParseError(0, "a nonempty expression")
    return _Parser(text, frozenset(allowed_vars)).parse()


# --- evaluation ---------------------------------------------------------------


def eval_jet(ast: ExprAst, bindings: Mapping[str, Jet]) -> Jet:
    """Evaluate an AST in jet arithmetic.

    Domain and division failures are re-raised with the source span of the
    offending node attached.
    """
    order = next(iter(bindings.values())).order if bindings else 0
    return _eval_jet(ast, bindings, order)


def _eval_jet(node: ExprAst, b: Mapping[str, Jet], order: int) -> Jet:
    if isinstance(node, Num):
        return Jet.constant(node.value, order)
    if isinstance(node, Var):
        try:
            return b[node.name]
        except KeyError:
            raise UnknownVariable(node.name, node.span[0]) from None
    if isinstance(node, Neg):
        return -_eval_jet(node.child, b, order)
    if isinstance(node, BinOp):
        left = _eval_jet(node.left, b, order)
        if node.op == "^":
            assert isinstance(node.right, Num)
            return _spanned(lambda: jet_pow(left, node.right.value), node.span)
        right = _eval_jet(node.right, b, order)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        return _spanned(lambda: left / right, node.span)
    if isinstance(node, Call):
        arg = _eval_jet(node.arg, b, order)
        return _spanned(lambda: JET_FUNCTIONS[node.func](arg), node.span)
    raise TypeError(f"not an AST node: {node!r}")


def _spanned(thunk, span):
    try:
        return thunk()
    except JetError as err:
        if getattr(err, "span", None) is None:
            err.span = span
        raise


_FLOAT_FUNCS = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "sinh": math.sinh,
    "cosh": math.cosh,
}


def eval_float(ast: ExprAst, bindings: Mapping[str, float]) -> float:
    """Plain floating-point evaluation, independent of the jet code path."""
    if isinstance(ast, Num):
        return ast.value
    if isinstance(ast, Var):
        try:
            return float(bindings[ast.name])
        except KeyError:
            raise UnknownVariable(ast.name, ast.span[0]) from None
    if isinstance(ast, Neg):
        return -eval_float(ast.child, bindings)
    if isinstance(ast, BinOp):
        a = eval_float(ast.left, bindings)
        b = eval_float(ast.right, bindings)
        if ast.op == "+":
            return a + b
        if ast.op == "-":
            return a - b
        if ast.op == "*":
            return a * b
        if ast.op == "/":
            if abs(b) < 1e-300:
                err = DivisionByZeroJet(f"denominator {b!r}")
                err.span = ast.span
                raise err
            return a / b
        try:
            return a**b
        except (ValueError, OverflowError):
            raise DomainError("pow", a, ast.span) from None
    if isinstance(ast, Call):
        u = eval_float(ast.arg, bindings)
        if ast.func == "log" and u <= 0.0:
            raise DomainError("log", u, ast.span)
        if ast.func == "sqrt" and u < 0.0:
            raise DomainError("sqrt", u, ast.span)
        try:
            return _FLOAT_FUNCS[ast.func](u)
        except (ValueError, OverflowError):
            raise DomainError(ast.func, u, ast.span) from None
    raise TypeError(f"not an AST node: {ast!r}")


# --- pretty printing -----------------------------------------------------------

_BIN_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_NEG_PREC = 3
_ATOM_PREC = 5


def _format_num(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def pretty_print(ast: ExprAst) -> str:
    """Canonical text with minimal parentheses; reparsing reproduces the AST."""
    return _pp(ast, 0)


def _pp(node: ExprAst, ctx: int) -> str:
    if isinstance(node, Num):
        text = _format_num(node.value)
        prec = _NEG_PREC if node.value < 0 else _ATOM_PREC
    elif isinstance(node, Var):
        text, prec = node.name, _ATOM_PREC
    elif isinstance(node, Call):
        text, prec = f"{node.func}({_pp(node.arg, 0)})", _ATOM_PREC
    elif isinstance(node, Neg):
        text, prec = "-" + _pp(node.child, _NEG_PREC), _NEG_PREC
    elif isinstance(node, BinOp) and node.op == "^":
        assert isinstance(node.right, Num)
        text = f"{_pp(node.left, _ATOM_PREC)}^{_format_num(node.right.value)}"
        prec = _BIN_PREC["^"]
    elif isinstance(node, BinOp):
        own = _BIN_PREC[node.op]
        text = f"{_pp(node.left, own)}{node.op}{_pp(node.right, own + 1)}"
        prec = own
    else:
        raise TypeError(f"not an AST node: {node!r}")
    if prec < ctx:
        return f"({text})"
    return text


# --- domain types ---------------------------------------------------------------


@dataclass(frozen=True)
class CurveSpec:
    """A parametric curve in R^3: three expressions in t plus a domain."""

    components: tuple[ExprAst, ExprAst, ExprAst]
    t_min: float
    t_max: float
    name: str = "curve"

    def __post_init__(self):
        if len(self.components) != 3:
            raise ValueError("a curve needs exactly 3 components")
        if not (math.isfinite(self.t_min) and math.isfinite(self.t_max)):
            raise ValueError("domain endpoints must be finite")
        if not self.t_min < self.t_max:
            raise ValueError("domain must satisfy t_min < t_max")

    @property
    def domain(self) -> tuple[float, float]:
        return (self.t_min, self.t_max)

    @classmethod
    def from_strings(
        cls, x1: str, x2: str, x3: str, t_min: float, t_max: float, name: str = "curve"
    ) -> "CurveSpec":
        comps = tuple(parse_expr(s, CURVE_VARS) for s in (x1, x2, x3))
        return cls(comps, float(t_min), float(t_max), name)


@dataclass(frozen=True)
class FieldSpec:
    """A scalar function or vector field on R^3, over variables x1, x2, x3."""

    kind: str
    components: tuple[ExprAst, ...]

    def __post_init__(self):
        if self.kind not in ("scalar", "vector"):
            raise ValueError(f"unknown field kind {self.kind!r}")
        expected = 1 if self.kind == "scalar" else 3
        if len(self.components) != expected:
            raise ValueError(
                f"{self.kind} field needs {expected} component(s), got {len(self.components)}"
            )


def scalar_field(text: str) -> FieldSpec:
    return FieldSpec("scalar", (parse_expr(text, FIELD_VARS),))


def vector_field(x1: str, x2: str, x3: str) -> FieldSpec:
    return FieldSpec("vector", tuple(parse_expr(s, FIELD_VARS) for s in (x1, x2, x3)))


# --- line-oriented files -----------------------------------------------------------


def _key_value_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FormatError(lineno, f"expected 'key = value', got {raw.strip()!r}")
        key, value = line.split("=", 1)
        yield lineno, key.strip(), value.strip()


def _key_value_map(text: str) -> dict[str, tuple[int, str]]:
    """key -> (line number, value), rejecting a key given twice."""
    seen: dict[str, tuple[int, str]] = {}
    for lineno, key, value in _key_value_lines(text):
        if key in seen:
            raise FormatError(lineno, f"duplicate key {key!r}")
        seen[key] = (lineno, value)
    return seen


def parse_curve_file(text: str) -> CurveSpec:
    """Parse the line-oriented curve format.

    Keys: name (optional), x1, x2, x3, t_min, t_max.  '#' starts a comment.
    """
    seen = _key_value_map(text)
    allowed = {"name", "x1", "x2", "x3", "t_min", "t_max"}
    for key, (lineno, _) in seen.items():
        if key not in allowed:
            raise FormatError(lineno, f"unknown key {key!r}")
    for key in ("x1", "x2", "x3", "t_min", "t_max"):
        if key not in seen:
            raise FormatError(0, f"missing key {key!r}")
    comps = []
    for key in ("x1", "x2", "x3"):
        lineno, value = seen[key]
        try:
            comps.append(parse_expr(value, CURVE_VARS))
        except ParseError as err:
            raise FormatError(lineno, f"{key}: {err}") from err
    bounds = {}
    for key in ("t_min", "t_max"):
        lineno, value = seen[key]
        try:
            bounds[key] = float(value)
        except ValueError:
            raise FormatError(lineno, f"{key} must be a number, got {value!r}") from None
    name = seen["name"][1] if "name" in seen else "curve"
    try:
        return CurveSpec(tuple(comps), bounds["t_min"], bounds["t_max"], name)
    except ValueError as err:
        raise FormatError(0, str(err)) from err


def parse_field_file(text: str) -> FieldSpec:
    """Parse a field file: key f (scalar) or keys X1, X2, X3 (vector)."""
    seen = _key_value_map(text)
    keys = set(seen) - {"name"}
    if keys == {"f"}:
        kind, wanted = "scalar", ("f",)
    elif keys == {"X1", "X2", "X3"}:
        kind, wanted = "vector", ("X1", "X2", "X3")
    else:
        raise FormatError(0, "expected either key 'f' or keys 'X1', 'X2', 'X3'")
    comps = []
    for key in wanted:
        lineno, value = seen[key]
        try:
            comps.append(parse_expr(value, FIELD_VARS))
        except ParseError as err:
            raise FormatError(lineno, f"{key}: {err}") from err
    return FieldSpec(kind, tuple(comps))
