"""Expression language for curves and fields.

Grammar (whitespace insignificant, left associative):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' exponent)?      exponent folds to a constant
    base   := NUMBER | NAME | NAME '(' expr ')' | '(' expr ')' | '-' factor

Numbers are decimal literals in the ASCII digits: digits, then optionally
'.' and digits, then optionally 'e' or 'E', a sign if any, and digits.
:func:`parse_number` reads one such literal with an optional leading '-'; it
is the one reader of the numbers in curve and connection files and in
command line flags, so they take the syntax and the bits of expressions.
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

:func:`eval_float` evaluates in plain floats with its own arithmetic, by
a plain walk of the tree that compiles nothing and caches nothing, apart
from the others, because it is their oracle.  Its only production use is
folding constant exponents at parse time.

The other evaluators compile each AST once, on first evaluation, and cache
the code on the node object itself.  Structurally equal nodes at different
spans therefore keep separate code, and an error reports the span of the
node that failed.

The other evaluators share one front end.  A linearizer turns one or more
trees into one step list (:class:`_Linear`): each distinct subtree once, in
the order a tree walk first meets it, with the spans of its first
occurrence, so a shared step fails only where the walk would fail first.
Three back ends run the list:

- The K-jet back end (:class:`_JetProgram`) runs the steps of one tree in
  order through the :class:`Jet` kernel calls a tree walk makes, so every
  bit is the same.  Each number builds its constant jet once per order,
  and sin and cos of one argument share one recurrence.  :func:`eval_jet`
  runs it.
- The curve back end (:func:`_curve_source`) writes a curve's three
  components as one generated function of t per order K: per step, the
  float steps, finiteness test and error of the Jet kernel call the K-jet
  back end makes.  It is made once per curve and order on the
  :class:`CurveSpec` (:func:`_curve_jets`), so each subexpression the
  components share runs once per point.
- The float back end (:class:`_Emitted`) writes the list as one generated
  Python function of straight-line code: per step, a few flat lines that
  repeat the float steps and the per-operation finiteness test of the jet
  kernel of its order bit for bit, and raise its error with the step's
  span.  It inlines sin and cos and runs '^' and the other functions
  through the jet kernel.  No text of the tree reaches the generated
  source, so trees of one shape share one compiled code, kept in a
  bounded cache.  :func:`eval_forward` runs it on plain ``(value,
  derivative)`` float pairs, for gradients and Jacobians, and
  :func:`eval_second` at order 2 (univariate Taylor propagation) on plain
  ``(value, d, 0.0)`` float triples, for the second derivatives of the
  lift identities.  The two share one pass loop, :func:`_passes`: a pass
  is the trees' functions run on one binding dict per direction,
  direction 1 through every tree first, so the error raised is the first
  one that order meets.  When every binding of :func:`eval_jet` is an
  order-1 jet, it runs the forward function on the jets' coefficient
  pairs, which gives the same bits and errors.

:func:`eval_jet` runs the list instead of generated code because most of
its trees are evaluated only a few times, and compiling their code would
cost more than running them.  A curve is evaluated at every point of a
grid, so its code repays the compile.
"""

from __future__ import annotations

import math
import operator
import re
import struct
from dataclasses import dataclass, field, replace
from math import cos, isfinite, sin  # noqa: F401  (read by generated code)
from typing import Mapping, NamedTuple

from .jets import (  # noqa: F401  (_CODE_CACHE_SIZE and _code: the shared cache)
    DIV_FLOOR,
    DivisionByZeroJet,
    DomainError,
    Jet,
    JET_FUNCTIONS,
    JetError,
    NonFiniteJet,
    _CODE_CACHE_SIZE,
    _code,
    _generated,
    _sin_cos,
    _source,
    _sum_from_zero,
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
    "parse_number",
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


ExprAst = Num | Var | Neg | BinOp | Call


# --- tokenizer ---------------------------------------------------------------

_OPS = "+-*/^()"
# ASCII only: [0-9], unlike str.isdigit(), refuses '²' and '٣', which float()
# then refuses ('1.5²') or reads as an ASCII digit ('٣' as 3).  The groups are
# the point, the fraction digits, the exponent mark and the exponent digits.
_NUMBER = re.compile(r"[0-9]+(?:(\.)([0-9]*))?(?:([eE][+-]?)([0-9]*))?")


def _number_end(text: str, i: int) -> int | None:
    """End of the number literal at text[i], or None if none starts there."""
    m = _NUMBER.match(text, i)
    if m is None:
        return None
    point, fraction, mark, exponent = m.groups()
    if point and not fraction:
        raise ParseError(m.end(1), "digits after decimal point")
    if mark and not exponent:
        raise ParseError(m.start(3), "exponent digits")
    return m.end()


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
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        j = _number_end(text, i)
        if j is not None:
            tokens.append(("num", text[i:j], i))
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
    """The value of an exponent, through the float evaluator's walk, so
    folding counts as no :func:`eval_float` call.  A NaN (``1e999-1e999``,
    ``0*1e999``) is no real exponent, and is refused as one that does not
    fold; an infinity is kept."""
    try:
        value = _float_value(node, {})
    except UnknownVariable:
        raise ParseError(node.span[0], "a constant exponent") from None
    except (ValueError, OverflowError):
        value = math.nan
    if math.isnan(value):
        raise ParseError(node.span[0], "a foldable constant exponent")
    return value


def parse_number(text: str) -> float:
    """The value of one number literal, with an optional leading '-' and
    surrounding whitespace: the reader of every number in files and flags.

    The value has the bits ``parse_expr`` gives the same text.  Anything
    else is a ValueError, a malformed literal a :class:`ParseError` at its
    offset in the stripped text.
    """
    body = text.strip()
    start = 1 if body.startswith("-") else 0
    if _number_end(body, start) != len(body):
        raise ValueError(f"expected a number, got {text!r}")
    # float() rounds '-' + literal to the negation of the literal's double.
    return float(body)


def _to_float(value) -> float:
    """A number given to a library constructor: text through
    :func:`parse_number`, anything else through ``float()``."""
    return parse_number(value) if isinstance(value, str) else float(value)


def parse_expr(text: str, allowed_vars) -> ExprAst:
    """Parse ``text`` into an AST over the given variable set."""
    if not text or not text.strip():
        raise ParseError(0, "a nonempty expression")
    return _Parser(text, frozenset(allowed_vars)).parse()


# --- evaluation ---------------------------------------------------------------
#
# The float evaluator walks the tree on every call and keeps nothing.  The
# K-jet and float back ends compile a tree once into their program or
# generated function of its step list, cached on the node object under
# their own attribute.  The cache lives on the object, not in a table keyed
# by the node: structurally equal nodes compare equal whatever their spans,
# and each node's code reports its own span.


def _compiled(node: ExprAst, attr: str, compile_node):
    code = getattr(node, attr, None)
    if code is None:
        code = compile_node(node)
        object.__setattr__(node, attr, code)
    return code


# Float evaluator: a plain walk of the tree, the left operand before the right.

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


def _float_value(node: ExprAst, bindings: Mapping[str, float]) -> float:
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        try:
            return float(bindings[node.name])
        except KeyError:
            raise UnknownVariable(node.name, node.span[0]) from None
    if isinstance(node, Neg):
        return -_float_value(node.child, bindings)
    if isinstance(node, BinOp):
        left = _float_value(node.left, bindings)
        right = _float_value(node.right, bindings)
        op = node.op
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if abs(right) < DIV_FLOOR:
                err = DivisionByZeroJet(f"denominator {right!r}")
                err.span = node.span
                raise err
            return left / right
        # A negative integer power is the reciprocal of a positive one,
        # undefined where that one is below DIV_FLOOR, as in the jet kernel.
        if (right < 0.0 and right.is_integer() and abs(left) < 1.0
                and abs(left ** -right) < DIV_FLOOR):
            raise DomainError("pow", left, node.span)
        # Python raises ZeroDivisionError for a zero base with a negative
        # exponent and returns a complex number for a negative base with a
        # non-integer one: neither has a real power.
        try:
            value = left**right
        except (ZeroDivisionError, ValueError, OverflowError):
            raise DomainError("pow", left, node.span) from None
        if isinstance(value, complex):
            raise DomainError("pow", left, node.span)
        return value
    if isinstance(node, Call):
        u = _float_value(node.arg, bindings)
        name = node.func
        if (name == "log" and u <= 0.0) or (name == "sqrt" and u < 0.0):
            raise DomainError(name, u, node.span)
        try:
            return _FLOAT_FUNCS[name](u)
        except (ValueError, OverflowError):
            raise DomainError(name, u, node.span) from None
    raise TypeError(f"not an AST node: {node!r}")


def eval_float(ast: ExprAst, bindings: Mapping[str, float]) -> float:
    """Plain floating-point evaluation, independent of the jet code path."""
    return _float_value(ast, bindings)


# One step list of several trees, for both back ends.  A structural key names
# each node's step and holds its operands' entries, so two subtrees get one
# entry exactly when they take the same steps with every number bit for bit
# equal (Num equality would merge 0.0 and -0.0); spans are left out.

_bits = struct.Struct("<d").pack


def _step(node: ExprAst, sub) -> tuple:
    """One node as (step, parameters, where, operands), the operands being
    what ``sub`` gives the children and ``where`` the span (a variable's
    offset) its error reports.  sin and cos are steps of their own; '^'
    and the other functions run through the jet kernel."""
    if isinstance(node, Num):
        return "num", (node.value,), None, ()
    if isinstance(node, Var):
        return "var", (node.name,), node.span[0], ()
    if isinstance(node, Neg):
        return "neg", (), None, (sub(node.child),)
    if isinstance(node, BinOp):
        op, span = node.op, node.span
        # A product with a number scales each coefficient, O(K) instead of
        # an O(K^2) convolution with a constant jet, and gives the same bits.
        if op == "*" and isinstance(node.left, Num):
            return "scale", (node.left.value,), span, (sub(node.right),)
        left = sub(node.left)
        if op == "^":
            return "pow", (node.right.value,), span, (left,)
        if op == "*" and isinstance(node.right, Num):
            return "scale", (node.right.value,), span, (left,)
        return op, (), span, (left, sub(node.right))
    if isinstance(node, Call):
        arg = sub(node.arg)
        if node.func in ("sin", "cos"):
            return node.func, (), node.span, (arg,)
        return "jet", (JET_FUNCTIONS[node.func],), node.span, (arg,)
    raise TypeError(f"not an AST node: {node!r}")


class _Linear(NamedTuple):
    """Trees as one step list, each distinct subtree once, in the order a
    tree walk first meets it: roots in turn, children left to right.  An
    entry keeps the spans of its first occurrence; a shared entry can fail
    only there, so the list raises the error the walk would raise first.

    ``shape`` holds per entry ``(step, index of its first argument,
    operand entries...)``, and last ``("return", number of arguments, root
    entries...)``; ``args`` all the entries' parameters in turn, each
    entry's with its ``where`` last if it has one."""

    shape: tuple
    args: list


def _linear(roots) -> _Linear:
    shape, args, entries = [], [], {}

    def enter(node: ExprAst) -> int:
        step, keyed, where, operands = _step(node, enter)
        key = (step, *[_bits(p) if isinstance(p, float) else p for p in keyed], *operands)
        entry = entries.get(key)
        if entry is None:
            entry = entries[key] = len(shape)
            shape.append((step, len(args), *operands))
            args.extend(keyed if where is None else (*keyed, where))
        return entry

    tops = [enter(root) for root in roots]
    shape.append(("return", len(args), *tops))
    return _Linear(tuple(shape), args)


# K-jet back end.  Steps call the Jet kernel through its operators, so
# ``u * c`` is ``Jet.__mul__``, and a "jet" step calls its parameter.

_JET_CALLS = {
    "scale": operator.mul, "pow": jet_pow,
    "+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
    "sin": JET_FUNCTIONS["sin"], "cos": JET_FUNCTIONS["cos"],
}


def _bound(b: Mapping, var: tuple):
    """The binding of ``var``, a (name, offset) pair."""
    try:
        return b[var[0]]
    except KeyError:
        raise UnknownVariable(*var) from None


class _JetProgram:
    """The steps of one tree run in order on one list of values.

    Slot 0 holds the bindings.  The numbers, variable keys and function
    names fill their slots once, each number's constant jet once per
    order, and each step writes its own slot.  A step is ``(kernel, x, y,
    slot, span)``: ``kernel`` on the values in slots x and y, or x alone
    where y is None; a JetError it raises gets the span.  sin(u) and
    cos(u), where both occur, read one ``_sin_cos`` call, made where the
    first of them is, with its name and span.
    """

    def __init__(self, root: ExprAst):
        linear = _linear((root,))
        *entries, (_, _, top) = linear.shape
        values = self.values = [None]
        self.numbers = []  # the slots of the numbers
        self.by_order: dict[int, list] = {}  # order -> the values before the steps
        steps = self.steps = []
        slots, pairs = [], {}
        sines = {entry[2] for entry in entries if entry[0] == "sin"}
        paired = sines & {entry[2] for entry in entries if entry[0] == "cos"}

        def put(value) -> int:
            values.append(value)
            return len(values) - 1

        def add(kernel, x, y=None, span=None) -> int:
            steps.append((kernel, x, y, len(values), span))
            return put(None)

        for step, first, *operands in entries:
            params = linear.args[first:first + 2]  # no step has more than two
            u = [slots[entry] for entry in operands]
            if step == "num":
                slot = put(params[0])
                self.numbers.append(slot)
            elif step == "var":
                slot = add(_bound, 0, put(params))
            elif step == "neg":
                slot = add(operator.neg, u[0])
            elif step == "jet":
                slot = add(params[0], u[0], None, params[1])
            elif step in ("scale", "pow"):
                slot = add(_JET_CALLS[step], u[0], put(params[0]), params[1])
            elif step in ("sin", "cos") and operands[0] in paired:
                pair = pairs.get(operands[0])
                if pair is None:
                    pair = pairs[operands[0]] = add(_sin_cos, u[0], put(step), params[0])
                slot = add(operator.itemgetter(0 if step == "sin" else 1), pair)
            else:
                slot = add(_JET_CALLS[step], *u, span=params[0])
            slots.append(slot)
        self.root = slots[top]

    def run(self, b: Mapping, order: int) -> Jet:
        """The tree's Jet on the bindings ``b`` at ``order``."""
        v = self.by_order.get(order)
        if v is None:
            v = self.by_order[order] = self.values.copy()
            for slot in self.numbers:
                v[slot] = Jet.constant(v[slot], order)
        v = v.copy()
        v[0] = b
        try:
            for kernel, x, y, slot, span in self.steps:
                v[slot] = kernel(v[x]) if y is None else kernel(v[x], v[y])
        except JetError as err:
            err.span = span
            raise
        return v[self.root]


def eval_jet(ast: ExprAst, bindings: Mapping[str, Jet]) -> Jet:
    """Evaluate an AST in jet arithmetic.

    Domain and division failures are re-raised with the source span of the
    offending node attached.  When every binding is an order-1 jet, the
    forward code runs on the jets' coefficient pairs, which takes the jet
    kernel's float steps and gives its bits and errors.
    """
    pairs = {}
    for name, jet in bindings.items():
        coeffs = jet.coeffs
        if len(coeffs) != 2:
            break
        pairs[name] = coeffs
    else:
        if pairs:
            try:
                code = ast._forward
            except AttributeError:
                code = _FORWARD.code(ast)
            return Jet._of(code(pairs))
    order = next(iter(bindings.values())).order if bindings else 0
    return _compiled(ast, "_jet", _JetProgram).run(bindings, order)


# Float arithmetic of one direction, as straight-line generated code.  One
# Python function per tree takes a binding dict and returns the tree's value
# and Taylor coefficients along the one direction the bindings carry as
# plain floats, a pair (v, d) in forward mode and a triple (v, d, e) at
# order 2.  Each node's lines take the float steps of the jet kernel of its
# order and meet its finiteness test, on the same total, after each
# operation, raised with the node's span.  No text of the tree reaches the
# source: numbers, spans, variable names and jet functions are arguments of
# a generated factory, so trees of one shape share one compiled code, kept
# in the bounded cache ``jets._code``.


def _non_finite(what: str, span: Span | None) -> NonFiniteJet:
    err = NonFiniteJet(f"{what} produced non-finite coefficients")
    err.span = span
    return err


def _zero_denominator(w: float, span: Span) -> DivisionByZeroJet:
    err = DivisionByZeroJet(f"denominator constant term {w!r}")
    err.span = span
    return err


def _through_jet(func, coeffs: tuple, span: Span, *args) -> tuple:
    """A jet kernel that is not inlined: ``func`` on the coefficients as a
    Jet, a JetError it raises spanned as the node."""
    try:
        return func(Jet._of(coeffs), *args).coeffs
    except JetError as err:
        err.span = span
        raise


class _Emitted:
    """The float back end: per step of a :class:`_Linear` list but "num",
    the source lines of its float steps, finiteness test and error, over
    the coefficients u* and w* of the operands, r* of the entry, t* of
    spare locals and the parameters p*.  A number is its argument and
    zeros, and takes no line.  The shape of a tree's list keys its code.
    """

    def __init__(self, attr: str, width: int, steps: dict):
        self.attr = attr  # the node attribute that caches a tree's function
        self.width = width  # coefficients per value
        self.steps = steps

    def code(self, node: ExprAst):
        return _compiled(node, self.attr, self.compile)

    def compile(self, root: ExprAst):
        """One function of the bindings for the whole tree."""
        linear = _linear((root,))
        return _generated(self.source, linear.shape, linear.args, globals())

    def source(self, shape: tuple) -> str:
        """The source of the factory of ``shape``'s function."""
        *entries, (_, nargs, root) = shape

        def coeffs(entry: int) -> tuple:
            step, first, *_ = entries[entry]
            if step == "num":
                return (f"k{first}",) + ("0.0",) * (self.width - 1)
            return tuple(f"r{entry}_{i}" for i in range(self.width))

        lines = []
        for n, (step, first, *operands) in enumerate(entries):
            if step == "num":
                continue
            # No step has more than two parameters.
            fields = {f"p{j}": f"k{first + j}" for j in range(2)}
            for prefix, entry in zip("uw", operands):
                fields.update((f"{prefix}{i}", c) for i, c in enumerate(coeffs(entry)))
            fields.update((f"r{i}", c) for i, c in enumerate(coeffs(n)))
            fields.update((f"t{i}", f"t{n}_{i}") for i in range(self.width))
            lines.extend(line.format_map(fields) for line in self.steps[step])
        return _source(nargs, "b", lines + [f"return {', '.join(coeffs(root))}"])


_FORWARD = _Emitted("_forward", 2, {
    "var": ("try: {r0}, {r1} = b[{p0}]",
            "except KeyError: raise UnknownVariable({p0}, {p1}) from None"),
    "neg": ("{r0} = -{u0}; {r1} = -{u1}",),
    # The jet kernel's O(K) product with a number.
    "scale": ("{r0} = {u0} * {p0} + 0.0; {r1} = {u1} * {p0} + 0.0",
              "if not isfinite({r0} + {r1}): raise _non_finite('multiplication', {p1})"),
    "+": ("{r0} = {u0} + {w0}; {r1} = {u1} + {w1}",
          "if not isfinite({r0} + {r1}): raise _non_finite('addition', {p0})"),
    "-": ("{r0} = {u0} - {w0}; {r1} = {u1} - {w1}",
          "if not isfinite({r0} + {r1}): raise _non_finite('subtraction', {p0})"),
    "*": ("{r0} = 0.0 + {u0} * {w0}; {r1} = (0.0 + {u0} * {w1}) + {u1} * {w0}",
          "if not isfinite({r0} + {r1}): raise _non_finite('multiplication', {p0})"),
    "/": ("if abs({w0}) < DIV_FLOOR: raise _zero_denominator({w0}, {p0})",
          "{r0} = {u0} / {w0}; {r1} = ({u1} - {r0} * {w1}) / {w0}",
          "if not isfinite({r0} + {r1}): raise _non_finite('division', {p0})"),
    # _pair_recurrence at order 1: the jet kernel also tests the partner
    # function's pair, which is finite exactly when this one is.
    "sin": ("try: {r0} = sin({u0}); {r1} = 0.0 + {u1} * cos({u0})",
            "except ValueError: raise DomainError('sin', {u0}, {p0}) from None",
            "if not isfinite({r0} + {r1}): raise _non_finite('operation', {p0})"),
    "cos": ("try: {r0} = cos({u0}); {r1} = -(0.0 + {u1} * sin({u0}))",
            "except ValueError: raise DomainError('cos', {u0}, {p0}) from None",
            "if not isfinite({r0} + {r1}): raise _non_finite('operation', {p0})"),
    "pow": ("{r0}, {r1} = _through_jet(jet_pow, ({u0}, {u1}), {p1}, {p0})",),
    "jet": ("{r0}, {r1} = _through_jet({p0}, ({u0}, {u1}), {p1})",),
})

_SECOND = _Emitted("_second", 3, {
    "var": ("try: {r0}, {r1}, {r2} = b[{p0}]",
            "except KeyError: raise UnknownVariable({p0}, {p1}) from None"),
    "neg": ("{r0} = -{u0}; {r1} = -{u1}; {r2} = -{u2}",),
    "scale": ("{r0} = {u0} * {p0} + 0.0; {r1} = {u1} * {p0} + 0.0; {r2} = {u2} * {p0} + 0.0",
              "if not isfinite(sum(({r0}, {r1}, {r2}))): "
              "raise _non_finite('multiplication', {p1})"),
    "+": ("{r0} = {u0} + {w0}; {r1} = {u1} + {w1}; {r2} = {u2} + {w2}",
          "if not isfinite(sum(({r0}, {r1}, {r2}))): raise _non_finite('addition', {p0})"),
    "-": ("{r0} = {u0} - {w0}; {r1} = {u1} - {w1}; {r2} = {u2} - {w2}",
          "if not isfinite(sum(({r0}, {r1}, {r2}))): raise _non_finite('subtraction', {p0})"),
    "*": ("{r0} = 0.0 + {u0} * {w0}; {r1} = (0.0 + {u0} * {w1}) + {u1} * {w0}",
          "{r2} = ((0.0 + {u0} * {w2}) + {u1} * {w1}) + {u2} * {w0}",
          "if not isfinite(((0.0 + {r0}) + {r1}) + {r2}): "
          "raise _non_finite('multiplication', {p0})"),
    "/": ("if abs({w0}) < DIV_FLOOR: raise _zero_denominator({w0}, {p0})",
          "{r0} = {u0} / {w0}; {r1} = ({u1} - {r0} * {w1}) / {w0}",
          "{r2} = (({u2} - {r0} * {w2}) - {r1} * {w1}) / {w0}",
          "if not isfinite(((0.0 + {r0}) + {r1}) + {r2}): raise _non_finite('division', {p0})"),
    # _pair_recurrence at order 2 tests the sin and the cos triple both (the
    # t* hold the partner's): one can overflow while the other does not.
    "sin": ("try: {r0} = sin({u0}); {t0} = cos({u0})",
            "except ValueError: raise DomainError('sin', {u0}, {p0}) from None",
            "{r1} = 0.0 + {u1} * {t0}; {t1} = -(0.0 + {u1} * {r0})",
            "{r2} = ((0.0 + {u1} * {t1}) + (2 * {u2}) * {t0}) / 2",
            "{t2} = -((0.0 + {u1} * {r1}) + (2 * {u2}) * {r0}) / 2",
            "if not (isfinite(sum(({r0}, {r1}, {r2}))) and isfinite(sum(({t0}, {t1}, {t2})))): "
            "raise _non_finite('operation', {p0})"),
    "cos": ("try: {t0} = sin({u0}); {r0} = cos({u0})",
            "except ValueError: raise DomainError('cos', {u0}, {p0}) from None",
            "{t1} = 0.0 + {u1} * {r0}; {r1} = -(0.0 + {u1} * {t0})",
            "{t2} = ((0.0 + {u1} * {r1}) + (2 * {u2}) * {r0}) / 2",
            "{r2} = -((0.0 + {u1} * {t1}) + (2 * {u2}) * {t0}) / 2",
            "if not (isfinite(sum(({t0}, {t1}, {t2}))) and isfinite(sum(({r0}, {r1}, {r2})))): "
            "raise _non_finite('operation', {p0})"),
    "pow": ("{r0}, {r1}, {r2} = _through_jet(jet_pow, ({u0}, {u1}, {u2}), {p1}, {p0})",),
    "jet": ("{r0}, {r1}, {r2} = _through_jet({p0}, ({u0}, {u1}, {u2}), {p1})",),
})


def _passes(kernel: _Emitted, asts, points) -> list:
    """Every AST's function of ``kernel`` on each binding dict of ``points``
    in turn, one dict per direction: direction 1 runs through every AST,
    then direction 2, and so on, so the error raised is the first one that
    order meets.  One list of the ASTs' outputs per direction."""
    codes = [kernel.code(ast) for ast in asts]
    return [[code(point) for code in codes] for point in points]


def eval_forward(asts, points) -> list:
    """Values and first coefficients of several ASTs along n >= 1
    directions, one pass per dict of ``points``, each binding every
    variable to ``(value, d)``.  Per direction, each AST gives ``(value,
    D)``, bit for bit the coefficients of :func:`eval_jet` on those pairs
    as order-1 jets; errors are raised in :func:`_passes`' order."""
    return _passes(_FORWARD, asts, points)


def eval_second(asts, points) -> list:
    """:func:`eval_forward` at order 2: each dict binds every variable to
    ``(value, d, 0.0)``, and per direction each AST gives ``(value, D,
    E)``, bit for bit coefficients 0 to 2 of :func:`eval_jet` on those
    triples as jets."""
    return _passes(_SECOND, asts, points)


# A curve's K-jet program as straight-line generated code: one function of t
# per shape of the components' step list and order K.  Each step's lines
# take the float steps of the Jet kernel call that the K-jet back end makes,
# meet its finiteness test in the kernel's form (``sum(...)``, or the
# running total of the convolutions), and raise its error with the step's
# span.  sin and cos of one argument share one recurrence, made where the
# first of them is, with its name and span; '^' and the other functions run
# through the jet kernel.


def _tuple(names) -> str:
    return f"({', '.join(names)},)"


def _curve_source(key) -> str:
    """The source of the factory of a curve's function of t at order K: the
    components' coefficient tuples, or a JetError with ``component``
    (0-based) and ``t`` set."""
    shape, order = key
    *entries, (_, nargs, *tops) = shape
    ks = range(order + 1)
    names, pairs, body = [], {}, []
    # Root i's segment runs the steps its tree adds to those before it.
    starts, last = {}, -1
    for i, top in enumerate(tops):
        if top > last:
            starts[last + 1] = i
            last = top
    for n, (step, first, *operands) in enumerate(entries):
        if n in starts:
            body.append(f"c = {starts[n]}")
        p0, p1 = f"k{first}", f"k{first + 1}"
        u, w = ([names[entry] for entry in operands] + [None, None])[:2]
        r = [f"r{n}_{k}" for k in ks]
        if step == "num":
            names.append((p0,) + ("0.0",) * order)
            continue
        if step in ("sin", "cos") and operands[0] in pairs:
            names.append(pairs[operands[0]][step == "cos"])
            continue
        names.append(r)
        if step == "var":
            body += [f"try: {', '.join(r)}, = b[{p0}]",
                     f"except KeyError: raise UnknownVariable({p0}, {p1}) from None"]
        elif step == "neg":
            body.append("; ".join(f"{r[k]} = -{u[k]}" for k in ks))
        elif step == "scale":
            body += ["; ".join(f"{r[k]} = {u[k]} * {p0} + 0.0" for k in ks),
                     f"if not isfinite(sum({_tuple(r)})): "
                     f"raise _non_finite('multiplication', {p1})"]
        elif step in ("+", "-"):
            what = "addition" if step == "+" else "subtraction"
            body += ["; ".join(f"{r[k]} = {u[k]} {step} {w[k]}" for k in ks),
                     f"if not isfinite(sum({_tuple(r)})): raise _non_finite('{what}', {p0})"]
        elif step == "*":
            for k in ks:
                products = (f"{u[j]} * {w[k - j]}" for j in ks[:k + 1])
                body.append(f"{r[k]} = {_sum_from_zero(products)}")
            body.append(f"if not isfinite({_sum_from_zero(r)}): "
                        f"raise _non_finite('multiplication', {p0})")
        elif step == "/":
            body.append(f"if abs({w[0]}) < DIV_FLOOR: raise _zero_denominator({w[0]}, {p0})")
            for k in ks:
                quotient = u[k]
                for j in range(k):
                    quotient = f"({quotient} - {r[j]} * {w[k - j]})"
                body.append(f"{r[k]} = {quotient} / {w[0]}")
            body.append(f"if not isfinite({_sum_from_zero(r)}): "
                        f"raise _non_finite('division', {p0})")
        elif step in ("sin", "cos"):
            # _pair_recurrence, with j * u_j formed once per j (1 * u_1 is
            # u_1); it tests the sine's coefficients, then the cosine's.
            other = [f"t{n}_{k}" for k in ks]
            sn, cs = (r, other) if step == "sin" else (other, r)
            pairs[operands[0]] = (sn, cs)
            du = [None, u[1] if order else None] + [f"d{n}_{j}" for j in range(2, order + 1)]
            body += [f"try: {sn[0]} = sin({u[0]}); {cs[0]} = cos({u[0]})",
                     f"except ValueError: raise DomainError('{step}', {u[0]}, {p0}) from None",
                     *[f"{du[j]} = {j} * {u[j]}" for j in range(2, order + 1)]]
            for k in ks[1:]:
                ss = _sum_from_zero(f"{du[j]} * {cs[k - j]}" for j in ks[1:k + 1])
                cc = _sum_from_zero(f"{du[j]} * {sn[k - j]}" for j in ks[1:k + 1])
                body += [f"{sn[k]} = {ss} / {k}", f"{cs[k]} = (-1.0 * {cc}) / {k}"]
            body.append(f"if not (isfinite(sum({_tuple(sn)})) and isfinite(sum({_tuple(cs)}))): "
                        f"raise _non_finite('operation', {p0})")
        elif step == "pow":
            body.append(f"{', '.join(r)}, = _through_jet(jet_pow, {_tuple(u)}, {p1}, {p0})")
        else:
            body.append(f"{', '.join(r)}, = _through_jet({p0}, {_tuple(u)}, {p1})")
    variable = ("float(t)", "1.0") + ("0.0",) * (order - 1) if order else ("float(t)",)
    # Each segment's first line sets c, so the component of an error is known.
    lines = [f"b = {{'t': {_tuple(variable)}}}", "try:", *[f" {line}" for line in body],
             "except JetError as err: err.component = c; err.t = t; raise",
             f"return {_tuple(_tuple(names[top]) for top in tops)}"]
    return _source(nargs, "t", lines)


# --- pretty printing -----------------------------------------------------------

_BIN_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_NEG_PREC = 3
_ATOM_PREC = 5


def _format_num(v: float) -> str:
    if math.isinf(v):
        # No literal names an infinity, but 1e999 rounds to one.
        return "1e999" if v > 0 else "-1e999"
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
        return cls(comps, _to_float(t_min), _to_float(t_max), name)


def _curve_jets(curve: CurveSpec, t: float, order: int) -> tuple[tuple[float, ...], ...]:
    """Coefficients c_0..c_order of each curve component at t, from the
    generated function of the components' step list at this order
    (:func:`_curve_source`), made once per curve and order.

    A :class:`JetError` leaves with ``component`` (0-based) and ``t`` set,
    so the error message can name where evaluation failed.
    """
    runs = _compiled(curve, "_jets", lambda c: {})
    run = runs.get(order)
    if run is None:
        linear = _linear(curve.components)
        Jet.variable(t, order)  # refuses an order as the binding of t would
        run = runs[order] = _generated(_curve_source, (linear.shape, order), linear.args,
                                       globals())
    return run(t)


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
            bounds[key] = parse_number(value)
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
