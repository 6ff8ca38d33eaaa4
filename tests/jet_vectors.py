"""Vector operations on lists of Jets, and a tree walk, for tests only.

The package passes point jets as tuples of coefficient tuples and runs its
vector algebra on float pairs and triples.  These helpers take the same
steps on whole ``Jet`` objects at any order, so tests can use them as the
full-order and bit-parity reference: dot products sum left to right from
the first product, and the norm applies the package's ``NORM_FLOOR`` test
before ``jet_sqrt``.  :func:`tree_jet` is the reference of the expression
evaluators in the same way.
"""

import math
import operator

from frenetlift.expr import BinOp, Call, Neg, Num, UnknownVariable, Var
from frenetlift.jets import JET_FUNCTIONS, NORM_FLOOR, Jet, JetError, ZeroNorm, jet_pow, jet_sqrt

_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def tree_jet(ast, bindings, order):
    """The Jet of ``ast`` by a recursive walk over the Jet operators and
    JET_FUNCTIONS, children left to right, a number as its constant jet at
    ``order``.  A JetError a node's own operation raises gets its span."""

    def walk(node):
        if isinstance(node, Num):
            return Jet.constant(node.value, order)
        if isinstance(node, Var):
            try:
                return bindings[node.name]
            except KeyError:
                raise UnknownVariable(node.name, node.span[0]) from None
        if isinstance(node, Neg):
            return -walk(node.child)
        if isinstance(node, Call):
            kernel, operands = JET_FUNCTIONS[node.func], (walk(node.arg),)
        elif isinstance(node, BinOp) and node.op == "^":
            kernel, operands = jet_pow, (walk(node.left), node.right.value)
        else:
            kernel, operands = _ARITHMETIC[node.op], (walk(node.left), walk(node.right))
        try:
            return kernel(*operands)
        except JetError as err:
            err.span = node.span
            raise

    return walk(ast)


def jets(pjets):
    """A list of Jets from coefficient tuples."""
    return [Jet(cs) for cs in pjets]


def as_tuples(v):
    """Coefficient tuples, as the package passes point jets."""
    return tuple(e.coeffs for e in v)


def value(v):
    return tuple(e.value for e in v)


def d(v):
    return [e.d() for e in v]


def cut(v, order):
    return [e.truncated(order) for e in v]


def dot(a, b):
    acc = a[0] * b[0]
    for x, y in zip(a[1:], b[1:]):
        acc = acc + x * y
    return acc


def norm(v):
    sq = dot(v, v)
    if sq.coeffs[0] < NORM_FLOOR * NORM_FLOOR:
        raise ZeroNorm(f"vector norm {math.sqrt(max(sq.coeffs[0], 0.0)):.3e} below floor")
    return jet_sqrt(sq)


def cross(a, b):
    (a1, a2, a3), (b1, b2, b3) = a, b
    return [a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1]


def scale(v, s):
    return [e * s for e in v]


def sub(a, b):
    return [x - y for x, y in zip(a, b)]
