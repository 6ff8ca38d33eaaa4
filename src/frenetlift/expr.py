"""Expression language for curves and fields.

Grammar (whitespace insignificant, left associative):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' exponent)?      exponent folds to a constant
    base   := NUMBER | NAME | NAME '(' expr ')' | '(' expr ')' | '-' factor

Numbers are decimal literals with optional fraction and exponent part.
Exponents of '^' must fold to a real at parse time, which keeps powers of
negative bases meaningful for integer exponents.  They fold through the
float evaluator, so a constant exponent folds exactly where
:func:`eval_float` would evaluate it, and fails where it would fail.  Unary
minus produces a base, so ``-t^2`` reads as ``-(t^2)``.

Powers are real or an error.  ``a^r`` with a zero base and a negative
exponent, or a negative base and a non-integer exponent, raises
:class:`DomainError` in evaluation; a constant exponent that folds to such
a power, or that divides by a number below ``DIV_FLOOR`` in magnitude, is a
:class:`ParseError`.

ASTs are immutable; source spans (byte offsets into the input) are carried
for error reporting but ignored by structural equality.

Each AST is compiled once, on first evaluation, into nested closures that
are cached on the node object itself.  Structurally equal nodes at
different spans therefore keep separate code, and an error reports the
span of the node that failed.  There are four evaluators of one tree:

- :func:`eval_float` evaluates in plain floats with its own arithmetic
  and its own compiler, apart from the others, because it is their
  oracle.
- :func:`eval_jet` evaluates K-jets through the same :class:`Jet` kernel
  calls as a tree walk, so every bit is the same.  Each number builds its
  constant jet once per order.  When every binding is an order-1 jet it
  runs the forward code on the jets' coefficient pairs instead, which
  gives the same bits and errors.
- :func:`eval_forward` is order-1 forward mode on plain ``(value,
  derivative)`` float pairs, for gradients and Jacobians.
- :func:`eval_second` is order 2 (univariate Taylor propagation) on plain
  ``(value, d_i, 0.0)`` float triples, for the second derivatives of the
  lift identities.

The last two share one pass loop, one pass per direction, direction 1
through every tree first.  Each pass repeats the float steps and the
per-operation finiteness test of the jet kernel of its order bit for bit.
Both inline sin and cos and run '^' and the other functions through the
jet kernel.  The jet, forward and order-2 evaluators are one compiler over
three kernels: one dispatcher walks the tree and picks the code for each
node, and each kernel supplies the closures of its own coefficient
arithmetic.

A curve's three components compile together into one K-jet program, cached
on the :class:`CurveSpec` (:func:`_curve_jets`).  Its subtrees share one
code wherever their numbers agree bit for bit, and sin and cos of one
argument share one recurrence, so each shared subexpression runs once per
point, with the bits and errors of evaluating the components one by one.
"""

from __future__ import annotations

import math
import operator
import struct
from dataclasses import dataclass, field, replace
from math import cos, isfinite, sin
from typing import Callable, Mapping, NamedTuple, Union

from .jets import (
    DIV_FLOOR,
    DivisionByZeroJet,
    DomainError,
    Jet,
    JET_FUNCTIONS,
    JetError,
    NonFiniteJet,
    _sin_cos,
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
    """Line-oriented input file violates the expected key/value shape.

    ``line`` 0 marks an error in the whole file, printed without a line.
    """

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


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
# parser accepts, and the most levels the tree it builds may have: a flat
# chain such as t+t+...+t nests nothing but adds one level per operator.
# Together they keep the recursive descent and every tree walker
# (evaluators, equality, hashing, pretty_print) far inside the
# interpreter's recursion limit.
MAX_NESTING = 100
MAX_DEPTH = 200


class _Parser:
    """Recursive descent; each rule returns (node, height of its tree)."""

    def __init__(self, text: str, allowed_vars: frozenset[str] | set[str]):
        self.text = text
        self.vars = allowed_vars
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def nested(self, parse, off: int):
        """Run ``parse`` one nesting level deeper."""
        if self.depth == MAX_NESTING:
            raise ParseError(off, f"at most {MAX_NESTING} nested levels")
        self.depth += 1
        parsed = parse()
        self.depth -= 1
        return parsed

    @staticmethod
    def grown(node: ExprAst, height: int, off: int):
        if height > MAX_DEPTH:
            raise ParseError(off, f"an expression tree at most {MAX_DEPTH} levels deep")
        return node, height

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
        node, _ = self.expr()
        kind, _, off = self.peek()
        if kind != "end":
            raise ParseError(off, "end of input or an operator")
        return node

    def expr(self):
        return self.chain("+-", self.term)

    def term(self):
        return self.chain("*/", self.factor)

    def chain(self, ops: str, operand):
        """operand (op operand)*, left associative, for the operators in ops."""
        node, height = operand()
        while True:
            kind, text, off = self.peek()
            if kind != "op" or text not in ops:
                return node, height
            self.advance()
            right, rh = operand()
            span = (node.span[0], right.span[1])
            node, height = self.grown(BinOp(text, node, right, span), max(height, rh) + 1, off)

    def factor(self):
        node, height = self.base()
        kind, text, off = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            exponent, _ = self.nested(self.factor, off)
            folded = Num(_fold_constant(exponent), exponent.span)
            span = (node.span[0], exponent.span[1])
            return self.grown(BinOp("^", node, folded, span), height + 1, off)
        return node, height

    def base(self):
        kind, text, off = self.peek()
        if kind == "num":
            self.advance()
            return Num(float(text), (off, off + len(text))), 1
        if kind == "name":
            self.advance()
            nkind, ntext, _ = self.peek()
            if nkind == "op" and ntext == "(":
                if text not in FUNCTION_NAMES:
                    raise UnknownFunction(text, off)
                self.advance()
                arg, height = self.nested(self.expr, off)
                _, _, close_off = self.expect_op(")")
                return self.grown(Call(text, arg, (off, close_off + 1)), height + 1, off)
            if text not in self.vars:
                raise UnknownVariable(text, off)
            return Var(text, (off, off + len(text))), 1
        if kind == "op" and text == "(":
            self.advance()
            node, height = self.nested(self.expr, off)
            _, _, close_off = self.expect_op(")")
            return replace(node, span=(off, close_off + 1)), height
        if kind == "op" and text == "-":
            self.advance()
            child, height = self.nested(self.factor, off)
            return self.grown(Neg(child, (off, child.span[1])), height + 1, off)
        raise ParseError(off, "a number, variable, function call, '(' or '-'")


def _fold_constant(node: ExprAst) -> float:
    """The value of an exponent, through the float evaluator's own code, so
    folding counts as no :func:`eval_float` call."""
    try:
        return _compiled(node, "_float", _float_code)({})
    except UnknownVariable:
        raise ParseError(node.span[0], "a constant exponent") from None
    except (ValueError, OverflowError):
        raise ParseError(node.span[0], "a foldable constant exponent") from None


def parse_expr(text: str, allowed_vars) -> ExprAst:
    """Parse ``text`` into an AST over the given variable set."""
    if not text or not text.strip():
        raise ParseError(0, "a nonempty expression")
    return _Parser(text, frozenset(allowed_vars)).parse()


# --- evaluation ---------------------------------------------------------------
#
# Each evaluator compiles a tree once into nested closures, cached on the node
# object under its own attribute.  The cache lives on the object, not in a
# table keyed by the node: structurally equal nodes compare equal whatever
# their spans, and every closure reports the span of its own node.


def _compiled(node: ExprAst, attr: str, compile_node):
    code = getattr(node, attr, None)
    if code is None:
        code = compile_node(node)
        object.__setattr__(node, attr, code)
    return code


_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _spanned(func, span: Span, left, right=None):
    """Code for ``func`` of one or two operands' results.  A JetError that
    func raises gets the node's span; one an operand raised keeps its own."""
    if right is None:

        def run(b, extra):
            u = left(b, extra)
            try:
                return func(u)
            except JetError as err:
                err.span = span
                raise

        return run

    def run2(b, extra):
        u, w = left(b, extra), right(b, extra)
        try:
            return func(u, w)
        except JetError as err:
            err.span = span
            raise

    return run2


def _real_pow(base: float, exponent: float) -> float:
    """``base ** exponent`` where it is real; ValueError where it is not.

    A zero base with a negative exponent and a negative base with a
    non-integer exponent have no real power: Python raises ZeroDivisionError
    for the first and returns a complex number for the second.
    """
    try:
        value = base**exponent
    except ZeroDivisionError:
        raise ValueError(f"{base!r} to the power {exponent!r}") from None
    if isinstance(value, complex):
        raise ValueError(f"{base!r} to the power {exponent!r}")
    return value


# Float evaluator: closures of the bindings, returning a float.

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


def _float_code(node: ExprAst):
    if isinstance(node, Num):
        value = node.value
        return lambda b: value
    if isinstance(node, Var):
        name, offset = node.name, node.span[0]

        def var(b):
            try:
                return float(b[name])
            except KeyError:
                raise UnknownVariable(name, offset) from None

        return var
    if isinstance(node, Neg):
        child = _compiled(node.child, "_float", _float_code)
        return lambda b: -child(b)
    if isinstance(node, BinOp):
        left = _compiled(node.left, "_float", _float_code)
        right = _compiled(node.right, "_float", _float_code)
        op, span = node.op, node.span
        if op == "+":
            return lambda b: left(b) + right(b)
        if op == "-":
            return lambda b: left(b) - right(b)
        if op == "*":
            return lambda b: left(b) * right(b)
        if op == "/":

            def divide(b):
                num, den = left(b), right(b)
                if abs(den) < DIV_FLOOR:
                    err = DivisionByZeroJet(f"denominator {den!r}")
                    err.span = span
                    raise err
                return num / den

            return divide

        def power(b):
            base, exponent = left(b), right(b)
            # A negative integer power is the reciprocal of a positive one,
            # undefined where that one is below DIV_FLOOR, as in the jet kernel.
            if (exponent < 0.0 and exponent.is_integer() and abs(base) < 1.0
                    and abs(base ** -exponent) < DIV_FLOOR):
                raise DomainError("pow", base, span)
            try:
                return _real_pow(base, exponent)
            except (ValueError, OverflowError):
                raise DomainError("pow", base, span) from None

        return power
    if isinstance(node, Call):
        arg = _compiled(node.arg, "_float", _float_code)
        name, func, span = node.func, _FLOAT_FUNCS[node.func], node.span

        def call(b):
            u = arg(b)
            if (name == "log" and u <= 0.0) or (name == "sqrt" and u < 0.0):
                raise DomainError(name, u, span)
            try:
                return func(u)
            except (ValueError, OverflowError):
                raise DomainError(name, u, span) from None

        return call
    raise TypeError(f"not an AST node: {node!r}")


def eval_float(ast: ExprAst, bindings: Mapping[str, float]) -> float:
    """Plain floating-point evaluation, independent of the jet code path."""
    return _compiled(ast, "_float", _float_code)(bindings)


def _var(name: str, offset: int):
    def var(b, extra):
        try:
            return b[name]
        except KeyError:
            raise UnknownVariable(name, offset) from None

    return var


class _Kernel(NamedTuple):
    """Closure factories of one coefficient arithmetic, for the jet, the
    forward or the order-2 evaluator.  Each returns code, a closure of
    (bindings, extra) that returns the node's value: a Jet, or the float
    coefficients along the one direction the bindings carry.  The tree walk
    and the choice of code for each node are :meth:`compile_node`, shared
    by all three and by the structural keys of :class:`_Program`."""

    attr: str | None  # the node attribute that caches this arithmetic's code
    num: Callable  # (value)
    neg: Callable  # (child code)
    scale: Callable  # (operand code, number, span): operand times a number
    power: Callable  # (base code, folded exponent, span)
    binary: Callable  # (op, left code, right code, span) for + - * /
    call: Callable  # (function name, argument code, span)
    var: Callable = _var  # (name, offset)

    def code(self, node: ExprAst):
        return _compiled(node, self.attr, self.compile_node)

    def compile_node(self, node: ExprAst, sub=None):
        """The code of ``node`` over the code ``sub`` gives each child, by
        default the child's own cached code."""
        sub = sub or self.code
        if isinstance(node, Num):
            return self.num(node.value)
        if isinstance(node, Var):
            return self.var(node.name, node.span[0])
        if isinstance(node, Neg):
            return self.neg(sub(node.child))
        if isinstance(node, BinOp):
            op, span = node.op, node.span
            # A product with a number scales each coefficient, O(K) instead
            # of an O(K^2) convolution with a constant jet, and gives the
            # same bits.
            if op == "*" and isinstance(node.left, Num):
                return self.scale(sub(node.right), node.left.value, span)
            left = sub(node.left)
            if op == "^":
                return self.power(left, node.right.value, span)
            if op == "*" and isinstance(node.right, Num):
                return self.scale(left, node.right.value, span)
            return self.binary(op, left, sub(node.right), span)
        if isinstance(node, Call):
            return self.call(node.func, sub(node.arg), node.span)
        raise TypeError(f"not an AST node: {node!r}")


# K-jet arithmetic: code of (bindings, order), returning a Jet through the
# same kernel calls a tree walk would make.


def _jet_num(value: float):
    constants: dict[int, Jet] = {}

    def num(b, order):
        jet = constants.get(order)
        if jet is None:
            jet = constants[order] = Jet.constant(value, order)
        return jet

    return num


_JET = _Kernel(
    attr="_jet",
    num=_jet_num,
    neg=lambda child: lambda b, order: -child(b, order),
    scale=lambda operand, c, span: _spanned(lambda u: u * c, span, operand),
    power=lambda base, r, span: _spanned(lambda u: jet_pow(u, r), span, base),
    binary=lambda op, left, right, span: _spanned(_ARITH[op], span, left, right),
    call=lambda name, arg, span: _spanned(JET_FUNCTIONS[name], span, arg),
)


def eval_jet(ast: ExprAst, bindings: Mapping[str, Jet]) -> Jet:
    """Evaluate an AST in jet arithmetic.

    Domain and division failures are re-raised with the source span of the
    offending node attached.  When every binding is an order-1 jet, the
    forward code runs on the jets' coefficient pairs, which takes the jet
    kernel's float steps and gives its bits and errors.
    """
    pairs = {}
    for name, jet in bindings.items():
        if len(jet.coeffs) != 2:
            break
        pairs[name] = jet.coeffs
    else:
        if pairs:
            return Jet._of(_FORWARD.code(ast)(pairs, None))
    order = next(iter(bindings.values())).order if bindings else 0
    return _JET.code(ast)(bindings, order)


# Several trees as one K-jet program.  A structural key names the code a
# node compiles to and holds its children's slots, so two subtrees get one
# key exactly when they compile to the same code with every number bit for
# bit equal (Num equality would merge 0.0 and -0.0); spans are left out.

_bits = struct.Struct("<d").pack

_KEYS = _Kernel(
    None,
    lambda value: ("num", _bits(value)),
    lambda child: ("neg", child),
    lambda operand, c, span: ("scale", operand, _bits(c)),
    lambda base, r, span: ("pow", base, _bits(r)),
    lambda op, left, right, span: ("binary", op, left, right),
    lambda name, arg, span: ("call", name, arg),
    lambda name, offset: ("var", name),
)

def _partner(key: tuple):
    """The key of cos(u) for that of sin(u) and the other way round, or None."""
    if key[0] == "call" and key[1] in ("sin", "cos"):
        return ("call", "cos" if key[1] == "sin" else "sin", key[2])
    return None


def _memo(code, slot: int):
    """``code``, run at most once per evaluation: its value is kept in that
    evaluation's bindings under the slot number."""

    def shared(b, order):
        value = b.get(slot)
        if value is None:
            value = b[slot] = code(b, order)
        return value

    return shared


class _Program:
    """K-jet code of several trees compiled together, one code per root.

    A first walk numbers each distinct structural key (a slot) and counts
    its users in the merged graph; a second builds each slot's code once,
    memoized where it has more than one user, as is the one ``_sin_cos``
    call behind sin(u) and cos(u) where both occur.  Slots are met in the
    order evaluation first runs them, roots in turn and children left to
    right, and each code keeps the spans of its first occurrence.  A shared
    code can fail only there, so the program raises the error evaluating
    the trees one by one would raise first.
    """

    def __init__(self, roots):
        self.slots: dict[tuple, int] = {}  # structural key -> slot
        self.uses: list[int] = []  # per slot: its users in the merged graph
        self.node_slots: dict[int, int] = {}  # id(node) -> slot
        for root in roots:
            self.uses[self._intern(root)] += 1
        self.codes: dict[int, Callable] = {}  # slot -> code
        self.code_slots: dict[int, int] = {}  # id(code) -> slot
        self.pairs: dict[int, Callable] = {}  # slot of u -> code of sin(u), cos(u)
        self.kernel = _JET._replace(call=self._call)
        self.roots = [self._build(root) for root in roots]

    def _intern(self, node: ExprAst) -> int:
        key = _KEYS.compile_node(node, self._intern)
        slot = self.slots.get(key)
        if slot is None:
            # sin(u) and cos(u) read u once, through their shared recurrence.
            if _partner(key) not in self.slots:
                for part in key:
                    if type(part) is int:
                        self.uses[part] += 1
            slot = self.slots[key] = len(self.uses)
            self.uses.append(0)
        self.node_slots[id(node)] = slot
        return slot

    def _build(self, node: ExprAst):
        slot = self.node_slots[id(node)]
        code = self.codes.get(slot)
        if code is None:
            code = self.kernel.compile_node(node, self._build)
            if self.uses[slot] > 1 and not isinstance(node, (Num, Var)):
                code = _memo(code, slot)
            self.codes[slot] = code
            self.code_slots[id(code)] = slot
        return code

    def _call(self, name: str, arg, span: Span):
        u = self.code_slots[id(arg)]
        if _partner(("call", name, u)) not in self.slots:
            return _JET.call(name, arg, span)
        pair = self.pairs.get(u)
        if pair is None:
            # Kept past the node slots, so the slot numbers stay apart.
            pair = self.pairs[u] = _memo(
                _spanned(lambda w: _sin_cos(w, name), span, arg), len(self.uses) + u)
        index = 0 if name == "sin" else 1
        return lambda b, order: pair(b, order)[index]


# Float arithmetic of one direction: code of (bindings, None), returning a
# node's value and Taylor coefficients along one direction as plain floats, a
# pair (v, d) in forward mode and a triple (v, d, e) at order 2.  Each takes
# the float steps of the jet kernel of its order and meets its finiteness
# test, on the same total, after each operation, raised with the node's span.


def _non_finite(what: str, span: Span | None) -> NonFiniteJet:
    err = NonFiniteJet(f"{what} produced non-finite coefficients")
    err.span = span
    return err


def _through_jet(func, span: Span, arg):
    """Code for a jet kernel that is not inlined: ``func`` on the operand's
    coefficients as a Jet."""
    return _spanned(lambda u: func(Jet._of(u)).coeffs, span, arg)


def _jet_power(base, r: float, span: Span):
    return _through_jet(lambda u: jet_pow(u, r), span, base)


def _forward_num(value: float):
    pair = (value, 0.0)
    return lambda b, extra: pair


def _forward_neg(child):
    def neg(b, extra):
        v, d = child(b, extra)
        return -v, -d

    return neg


def _forward_scale(operand, c: float, span: Span):
    """Code for ``operand * c``, the jet kernel's O(K) product with a number."""

    def scaled(b, extra):
        v, d = operand(b, extra)
        v = v * c + 0.0
        d = d * c + 0.0
        if not isfinite(v + d):
            raise _non_finite("multiplication", span)
        return v, d

    return scaled


def _forward_binary(op: str, left, right, span: Span):
    if op in ("+", "-"):
        arith, what = _ARITH[op], "addition" if op == "+" else "subtraction"

        def add_sub(b, extra):
            u, du = left(b, extra)
            w, dw = right(b, extra)
            v = arith(u, w)
            d = arith(du, dw)
            if not isfinite(v + d):
                raise _non_finite(what, span)
            return v, d

        return add_sub
    if op == "*":

        def mul(b, extra):
            u, du = left(b, extra)
            w, dw = right(b, extra)
            v = 0.0 + u * w
            d = (0.0 + u * dw) + du * w
            if not isfinite(v + d):
                raise _non_finite("multiplication", span)
            return v, d

        return mul

    def divide(b, extra):
        u, du = left(b, extra)
        w, dw = right(b, extra)
        if abs(w) < DIV_FLOOR:
            err = DivisionByZeroJet(f"denominator constant term {w!r}")
            err.span = span
            raise err
        v = u / w
        d = (du - v * dw) / w
        if not isfinite(v + d):
            raise _non_finite("division", span)
        return v, d

    return divide


def _forward_call(name: str, arg, span: Span):
    """sin and cos inline, as ``_pair_recurrence`` at order 1: the jet
    kernel also tests the partner function's pair, which is finite exactly
    when this one is.  The other functions run through the jet kernel."""
    if name == "sin":

        def sine(b, extra):
            u, du = arg(b, extra)
            try:
                v = sin(u)
                d = 0.0 + du * cos(u)
            except ValueError:
                raise DomainError("sin", u, span) from None
            if not isfinite(v + d):
                raise _non_finite("operation", span)
            return v, d

        return sine
    if name == "cos":

        def cosine(b, extra):
            u, du = arg(b, extra)
            try:
                v = cos(u)
                d = -(0.0 + du * sin(u))
            except ValueError:
                raise DomainError("cos", u, span) from None
            if not isfinite(v + d):
                raise _non_finite("operation", span)
            return v, d

        return cosine
    return _through_jet(JET_FUNCTIONS[name], span, arg)


_FORWARD = _Kernel(
    "_forward", _forward_num, _forward_neg, _forward_scale, _jet_power, _forward_binary,
    _forward_call,
)


def _second_num(value: float):
    triple = (value, 0.0, 0.0)
    return lambda b, extra: triple


def _second_neg(child):
    def neg(b, extra):
        v, d, e = child(b, extra)
        return -v, -d, -e

    return neg


def _second_scale(operand, c: float, span: Span):
    """Code for ``operand * c``, the jet kernel's O(K) product with a number."""

    def scaled(b, extra):
        v, d, e = operand(b, extra)
        v = v * c + 0.0
        d = d * c + 0.0
        e = e * c + 0.0
        if not isfinite(sum((v, d, e))):
            raise _non_finite("multiplication", span)
        return v, d, e

    return scaled


def _second_binary(op: str, left, right, span: Span):
    if op in ("+", "-"):
        arith, what = _ARITH[op], "addition" if op == "+" else "subtraction"

        def add_sub(b, extra):
            u, du, eu = left(b, extra)
            w, dw, ew = right(b, extra)
            v = arith(u, w)
            d = arith(du, dw)
            e = arith(eu, ew)
            if not isfinite(sum((v, d, e))):
                raise _non_finite(what, span)
            return v, d, e

        return add_sub
    if op == "*":

        def mul(b, extra):
            u, du, eu = left(b, extra)
            w, dw, ew = right(b, extra)
            v = 0.0 + u * w
            d = (0.0 + u * dw) + du * w
            e = ((0.0 + u * ew) + du * dw) + eu * w
            if not isfinite(((0.0 + v) + d) + e):
                raise _non_finite("multiplication", span)
            return v, d, e

        return mul

    def divide(b, extra):
        u, du, eu = left(b, extra)
        w, dw, ew = right(b, extra)
        if abs(w) < DIV_FLOOR:
            err = DivisionByZeroJet(f"denominator constant term {w!r}")
            err.span = span
            raise err
        v = u / w
        d = (du - v * dw) / w
        e = ((eu - v * ew) - d * dw) / w
        if not isfinite(((0.0 + v) + d) + e):
            raise _non_finite("division", span)
        return v, d, e

    return divide


def _second_call(name: str, arg, span: Span):
    """sin and cos inline, as ``_pair_recurrence`` at order 2, which tests
    the sin and the cos triple both: at order 2 one can overflow while the
    other does not.  The other functions run through the jet kernel."""
    if name not in ("sin", "cos"):
        return _through_jet(JET_FUNCTIONS[name], span, arg)
    is_sin = name == "sin"

    def sin_cos(b, extra):
        u, du, eu = arg(b, extra)
        try:
            s0, c0 = sin(u), cos(u)
        except ValueError:
            raise DomainError(name, u, span) from None
        s1 = 0.0 + du * c0
        c1 = -(0.0 + du * s0)
        s2 = ((0.0 + du * c1) + (2 * eu) * c0) / 2
        c2 = -((0.0 + du * s1) + (2 * eu) * s0) / 2
        if not (isfinite(sum((s0, s1, s2))) and isfinite(sum((c0, c1, c2)))):
            raise _non_finite("operation", span)
        return (s0, s1, s2) if is_sin else (c0, c1, c2)

    return sin_cos


_SECOND = _Kernel(
    "_second", _second_num, _second_neg, _second_scale, _jet_power, _second_binary,
    _second_call,
)


def _passes(kernel: _Kernel, asts, bindings: Mapping[str, tuple], tail: tuple) -> list:
    """Every AST's code of ``kernel`` on bindings ``(value, (d_1, ..., d_n))``,
    the same n >= 1 for all, as n passes: pass i binds each variable to
    ``(value, d_i, *tail)``.  Direction 1 runs through every AST, then
    direction 2, and so on, so the error raised is the first one that order
    meets.  Each AST gives ``(value, (D_1, ..., D_n), ...)``: its value, then
    one tuple per coefficient after it."""
    codes = [kernel.code(ast) for ast in asts]
    n = len(next(iter(bindings.values()))[1])
    passes = []
    for i in range(n):
        point = {name: (v, d[i], *tail) for name, (v, d) in bindings.items()}
        passes.append([code(point, None) for code in codes])
    return [(outs[0][0], *tuple(zip(*outs))[1:]) for outs in zip(*passes)]


def eval_forward(asts, bindings: Mapping[str, tuple]) -> list:
    """Values and n directional derivatives of several ASTs, n >= 1.

    ``bindings`` maps each variable to ``(value, (d_1, ..., d_n))``, the
    same n for all.  Each AST gives ``(value, (D_1, ..., D_n))`` with
    ``D_i`` bit for bit the order-1 coefficient of :func:`eval_jet` on the
    jets ``(value, d_i)``.  The directions run one pass each, direction 1
    through every AST first, so the error raised is the first one that
    order meets.
    """
    return _passes(_FORWARD, asts, bindings, ())


def eval_second(asts, bindings: Mapping[str, tuple]) -> list:
    """Values with first and second coefficients along n directions.

    ``bindings`` maps each variable to ``(value, (d_1, ..., d_n))``, the
    same n for all.  Each AST gives ``(value, (D_1, ..., D_n), (E_1, ...,
    E_n))`` with ``D_i`` and ``E_i`` bit for bit coefficients 1 and 2 of
    :func:`eval_jet` on the jets ``(value, d_i, 0.0)``.  The directions
    run one pass each and errors are raised as in :func:`eval_forward`.
    """
    return _passes(_SECOND, asts, bindings, (0.0,))


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
        if not math.isfinite(self.t_max - self.t_min):
            raise ValueError(
                f"domain [{self.t_min!r}, {self.t_max!r}] is too wide: t_max - t_min overflows")

    @property
    def domain(self) -> tuple[float, float]:
        return (self.t_min, self.t_max)

    @classmethod
    def from_strings(
        cls, x1: str, x2: str, x3: str, t_min: float, t_max: float, name: str = "curve"
    ) -> "CurveSpec":
        comps = tuple(parse_expr(s, CURVE_VARS) for s in (x1, x2, x3))
        return cls(comps, float(t_min), float(t_max), name)


def _per_component(components, t: float, evaluate) -> list:
    """``evaluate(comp)`` for each of a curve's components at parameter t,
    given as ASTs or as their codes.

    A :class:`JetError` leaves with ``component`` (0-based) and ``t`` set,
    so the error message can name where evaluation failed.
    """
    out = []
    for i, comp in enumerate(components):
        try:
            out.append(evaluate(comp))
        except JetError as err:
            err.component = i
            err.t = t
            raise
    return out


def _curve_jets(curve: CurveSpec, t: float, order: int) -> tuple[tuple[float, ...], ...]:
    """Coefficients c_0..c_order of each curve component at t, from one run
    of the components' :class:`_Program`, compiled once per curve."""
    codes = _compiled(curve, "_jets", lambda c: _Program(c.components).roots)
    b = {"t": Jet.variable(t, order)}
    return tuple(_per_component(codes, t, lambda code: code(b, order).coeffs))


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


def _parse_components(seen: dict, keys: tuple[str, ...], variables) -> tuple[ExprAst, ...]:
    """The expressions under ``keys``; a parse error names its line and key."""
    comps = []
    for key in keys:
        lineno, value = seen[key]
        try:
            comps.append(parse_expr(value, variables))
        except ParseError as err:
            raise FormatError(lineno, f"{key}: {err}") from err
    return tuple(comps)


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
    comps = _parse_components(seen, ("x1", "x2", "x3"), CURVE_VARS)
    bounds = {}
    for key in ("t_min", "t_max"):
        lineno, value = seen[key]
        try:
            bounds[key] = float(value)
        except ValueError:
            raise FormatError(lineno, f"{key} must be a number, got {value!r}") from None
    name = seen["name"][1] if "name" in seen else "curve"
    try:
        return CurveSpec(comps, bounds["t_min"], bounds["t_max"], name)
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
    return FieldSpec(kind, _parse_components(seen, wanted, FIELD_VARS))
