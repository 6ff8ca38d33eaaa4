"""Vertical, complete and horizontal lifts from R^3 to its tangent space.

Tangent-space points carry base coordinates x and fiber coordinates y.  For
a vector field X and a constant-coefficient connection with symbols
G[a][b][g] (a: fiber output, b: direction, g: transported index), the three
lifts evaluate at p = (x, y) as

    vertical:    base 0,     fiber X(x)
    complete:    base X(x),  fiber  sum_b y^b dX^a/dx^b
    horizontal:  base X(x),  fiber -sum_{b,g} y^b G[a][b][g] X^g(x)

Scalar functions lift as f^v(p) = f(x) and f^c(p) = y . grad f(x).  Applying
a lifted field to a lifted function is a directional derivative on the
6-dimensional space.  The second-order terms that appear for f^c come from
the polarization identity over the directions a+b, a and b, whose second
directional derivatives one call of :func:`expr.eval_second` gives, one
order-2 pass per direction, each the tree's code on one binding dict of
float triples, so no nested or multivariate jets are needed.

A field's component values and Jacobian come from one forward evaluation
along the coordinate axes (:func:`expr.eval_forward`, one binding dict and
pass per axis), so a failure in the first partials is an error for every
lift kind, as is a value or a lifted fiber that is not finite.  Each
:class:`FieldSpec` keeps what it computes at a tangent point for the last
base point it met, keyed on the exact bits of x: that pass, its lifted
values, and for a scalar its first and second directional coefficients,
one entry per direction, and the mixed seconds polarized from them.
:func:`prop21_check` fills the directional entries for each scalar with
one order-1 and one order-2 evaluation, each one pass per direction, and
:func:`apply_field` reads them.  The suite asks for no pass along the zero
direction: once a pass of an order has succeeded at x, the zero
direction's coefficient is kept as +0.0 (:func:`_along` says why that
changes no residual and no error).

:func:`field_sum` and :func:`field_scale` build a new spec of synthesized
root nodes over their operands' trees, and it keeps its operands.  The
roots and their steps are built once per (left, right) pair and kept on
the left operand (X of X+Y, f of fX); the composite's per-point results
sit inside the left operand's results at x, under the right operand.  Both
hold the right operand by a weak reference, checked on lookup, and the
roots refer only to component trees, so no spec holds another and a second
suite at the same x computes only the horizontal lifts of a new
connection.  The pass is derived from the operands' passes.  Each root
has a step tree, the root with each operand that is not a number read from
a binding of that operand's value and partial, and the step trees run
through the pass loop of :func:`expr.eval_forward`, one binding dict per
axis, which gives the bits and the error order of evaluating the roots.
An operand whose own pass fails raises its error, the left operand first,
before any root step runs, so where both fail, or where the tree would
have failed in a root step first, the error raised is the operand's.

Curves lift pointwise: vertical to (anchor, beta(t)), complete to
(beta(t), beta'(t)), and horizontal to (beta(t), w(t)) with w parallel
transported along beta by classical 4-stage Runge-Kutta.  Each stage takes
the curve velocity from one order-1 :func:`expr.eval_jet` per component and
contracts it with the stage's fiber on plain floats.
"""

from __future__ import annotations

import math
import operator
import struct
import weakref
from dataclasses import dataclass
from typing import Sequence

from .expr import (
    BinOp,
    FieldSpec,
    FormatError,
    CurveSpec,
    Num,
    Var,
    _FORWARD,
    _key_value_lines,
    _passes,
    _per_component,
    eval_forward,
    eval_jet,
    eval_second,
)
from .frenet import DomainIntervalError
from .jets import Jet, NonFiniteJet, _derivative, _fdot

__all__ = [
    "TangentPoint",
    "Connection",
    "LiftKind",
    "LiftedField",
    "LiftedFieldValue",
    "Prop21Result",
    "lift_function",
    "lift_field",
    "apply_field",
    "field_sum",
    "field_scale",
    "prop21_check",
    "parallel_transport",
    "transport_grid",
    "fiber_jets",
    "lifted_point_jets",
    "parse_connection_file",
]

# Transport resolution: steps per unit parameter length.
TRANSPORT_STEPS_PER_UNIT = 1000

# Work cap on one transport.  An RK4 step took 32-49 us (best of 7 on a
# shared 2-core x86 host, CPython 3.11.7; a helix and a torus knot, 3 or 27
# nonzero connection symbols), so ten million steps take about 5-8 minutes.
# A curve domain that needs more is an input error, raised before any step
# is taken.
MAX_TRANSPORT_STEPS = 10_000_000


@dataclass(frozen=True)
class TangentPoint:
    """A point of the tangent space: base coordinates x, fiber coordinates y."""

    x: tuple[float, float, float]
    y: tuple[float, float, float]

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(float(v) for v in self.x))
        object.__setattr__(self, "y", tuple(float(v) for v in self.y))
        if len(self.x) != 3 or len(self.y) != 3:
            raise ValueError("a tangent point needs 3 base and 3 fiber coordinates")
        if not all(math.isfinite(v) for v in self.x + self.y):
            raise ValueError("tangent point coordinates must be finite")


@dataclass(frozen=True)
class Connection:
    """Constant connection symbols G[a][b][g], all zero for the flat case."""

    gamma: tuple[tuple[tuple[float, ...], ...], ...]

    def __post_init__(self):
        g = tuple(tuple(tuple(float(v) for v in row) for row in plane) for plane in self.gamma)
        if len(g) != 3 or any(len(p) != 3 or any(len(r) != 3 for r in p) for p in g):
            raise ValueError("connection symbols must form a 3x3x3 array")
        for plane in g:
            for row in plane:
                for v in row:
                    if not math.isfinite(v):
                        raise ValueError("connection symbols must be finite")
        object.__setattr__(self, "gamma", g)
        # Per output a, the nonzero symbols as (b, g, coefficient), in the
        # order the contraction sums them.
        object.__setattr__(self, "_terms", tuple(
            tuple((b, c, v) for b, row in enumerate(p) for c, v in enumerate(row) if v != 0.0)
            for p in g))

    @classmethod
    def flat(cls) -> "Connection":
        # One shared instance: per-point results keyed on its id hit again.
        return _FLAT

    @classmethod
    def from_entries(cls, entries: dict[tuple[int, int, int], float]) -> "Connection":
        """Build from 1-based (a, b, g) -> value entries; the rest are 0."""
        g = [[[0.0] * 3 for _ in range(3)] for _ in range(3)]
        for (a, b, c), v in entries.items():
            if not (1 <= a <= 3 and 1 <= b <= 3 and 1 <= c <= 3):
                raise ValueError(f"connection indices must be in 1..3, got {(a, b, c)}")
            g[a - 1][b - 1][c - 1] = float(v)
        return cls(tuple(tuple(tuple(r) for r in p) for p in g))

    @property
    def is_flat(self) -> bool:
        return not any(self._terms)

    def contract(self, direction: Sequence, transported: Sequence):
        """sum_{b,g} G[a][b][g] * direction[b] * transported[g], per output a.

        Works elementwise over floats or jets (anything with * and +).
        """
        out = []
        for terms in self._terms:
            acc = None
            for b, g, coeff in terms:
                term = direction[b] * transported[g] * coeff
                acc = term if acc is None else acc + term
            if acc is None:
                acc = 0.0 * direction[0] * transported[0]
            out.append(acc)
        return out


_FLAT = Connection((((0.0,) * 3,) * 3,) * 3)


@dataclass(frozen=True)
class LiftKind:
    """Which lift to take, with the data the lift needs.

    Vertical lifts of curves sit over a fixed anchor point (any constant
    anchor yields an isometric fiber copy); horizontal lifts start from an
    initial fiber vector w0 at t_min.
    """

    kind: str
    anchor: tuple[float, float, float] | None = None
    w0: tuple[float, float, float] | None = None

    @classmethod
    def vertical(cls, anchor: Sequence[float] | None = None) -> "LiftKind":
        a = tuple(float(v) for v in anchor) if anchor is not None else None
        return cls("vertical", anchor=a)

    @classmethod
    def complete(cls) -> "LiftKind":
        return cls("complete")

    @classmethod
    def horizontal(cls, w0: Sequence[float]) -> "LiftKind":
        return cls("horizontal", w0=tuple(float(v) for v in w0))

    def __post_init__(self):
        if self.kind not in ("vertical", "complete", "horizontal"):
            raise ValueError(f"unknown lift kind {self.kind!r}")
        for vec in (self.anchor, self.w0):
            if vec is not None and not all(math.isfinite(v) for v in vec):
                raise ValueError("lift parameters must be finite")
        if self.kind == "horizontal" and self.w0 is None:
            raise ValueError("horizontal lift needs an initial fiber vector w0")


# --- per-point results (passes, directional coefficients, lifted values) ----


_FIELD_NAMES = ("x1", "x2", "x3")
_BASIS = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
_pack3 = struct.Struct("<3d").pack
# Most results kept for one base point; a caller that sweeps many fiber
# directions at one x must not grow the cache without bound.
_PER_POINT_MAX = 64


def _results_at(spec: FieldSpec, x: Sequence[float]) -> dict:
    """The results ``spec`` keeps for base point x.

    The spec holds the results for its last base point only, stored the way
    compiled code is stored on AST nodes; another x replaces them with an
    empty dict.  x is keyed on its bits, so -0.0 and 0.0 are different
    points.  An x given as a tuple is kept too, and the same tuple object
    again needs no packing.

    A spec built by :func:`field_sum` or :func:`field_scale` keeps its
    results inside its left operand's results at x, in the entry of its
    right operand, and remembers that entry for the same tuple x.
    """
    memo = spec.__dict__.get("_at_x")
    if memo is not None and memo[2] is x:
        return memo[1]
    kept = x if type(x) is tuple else None
    operands = spec.__dict__.get("_operands")
    if operands is not None:
        _, left, right = operands
        results = _kept_for(_results_at(left, x), spec.components[0].op, right, dict)
        object.__setattr__(spec, "_at_x", (None, results, kept))
        return results
    xbits = _pack3(*x)
    memo = (xbits, {} if memo is None or memo[0] != xbits else memo[1], kept)
    object.__setattr__(spec, "_at_x", memo)
    return memo[1]


def _keep(results: dict, key, value) -> None:
    if len(results) >= _PER_POINT_MAX:
        results.clear()
    results[key] = value


def _kept(results: dict, key, compute, *args):
    """``results[key]``, or ``compute(*args)``, kept there.  A compute that
    raises keeps nothing."""
    value = results.get(key)
    if value is None:
        value = compute(*args)
        _keep(results, key, value)
    return value


def _kept_for(table: dict, op: str, right: FieldSpec, build):
    """What ``table`` keeps for ``op`` with the right operand ``right``, or
    ``build()``, kept there.  The entry is keyed by the id of ``right`` and
    holds it only by a weak reference, which a lookup checks: a spec freed
    since cannot answer for a new one at its id."""
    key = (op, id(right))
    entry = table.get(key)
    if entry is None or entry[0]() is not right:
        entry = (weakref.ref(right), build())
        _keep(table, key, entry)
    return entry[1]


def _field_pass(spec: FieldSpec, x: Sequence[float]):
    """Component values and Jacobian rows J[a][b] = dX^a/dx^b at x, from one
    forward pass along the coordinate axes.  The error is the one that pass
    meets, or else a NonFiniteJet spanning the first component whose value
    is not finite (a lone ``1e999``).  A spec built by :func:`field_sum` or
    :func:`field_scale` derives its pass from its operands' instead."""
    operands = spec.__dict__.get("_operands")
    if operands is not None:
        return _composite_pass(x, *operands)
    values, rows = _values_and_rows(eval_forward(spec.components, _points(x, _BASIS)))
    for c, v in zip(spec.components, values):
        if not math.isfinite(v):
            err = NonFiniteJet(f"value {v!r} is not finite")
            err.span = c.span
            raise err
    return values, rows


def _values_and_rows(outs):
    """(values, Jacobian rows) from per-direction ``(value, derivative)``
    outputs of the components: the values of the first direction, and per
    component its derivative along each direction."""
    return tuple(v for v, _ in outs[0]), tuple(zip(*[[d for _, d in out] for out in outs]))


def _pass(spec: FieldSpec, x: Sequence[float]):
    """:func:`_field_pass` of ``spec`` at x, kept with its results there."""
    return _kept(_results_at(spec, x), "pass", _field_pass, spec, x)


def _points(x: Sequence[float], dirs, *pad) -> list[dict]:
    """Bindings of x1..x3 at x, one dict per direction d of ``dirs``: each
    x_i bound to ``(x_i, d_i)``, followed by the entry i of each ``pad``."""
    xs = tuple(map(float, x))
    return [dict(zip(_FIELD_NAMES, zip(xs, map(float, d), *pad))) for d in dirs]


_ZERO_BITS = _pack3(0.0, 0.0, 0.0)


def _along(f: FieldSpec, x: Sequence[float], order: int, dirs) -> list[float]:
    """Coefficient ``order`` (1 or 2) of s -> f(x + s d) for each direction
    d of ``dirs``, for a scalar f, kept one entry per direction (keyed on
    its bits).  The directions not kept yet come from one evaluation, one
    pass per direction, so its error is the first one they meet in the
    given order.

    The all-+0.0 direction runs no pass unless it comes first among them.
    Each derivative coefficient of a pass is a sum of terms, each with a
    factor from the direction's entries, times factors that depend on x
    alone.  Along zero every term is a signed zero, unless one of those
    factors is not finite or a division by a value fails; and then the
    pass along any other direction at x fails too, at that step or an
    earlier one.  So once a pass of the order has succeeded at x, the pass
    along zero would succeed with signed zeros: its coefficient is kept as
    +0.0 without running it, and leaving it out of a batch that runs
    another direction first changes no error.  The sign may differ from
    the pass's; :func:`prop21_check` meets it only inside abs().
    """
    results = _results_at(f, x)
    keys = [(order, _pack3(*d)) for d in dirs]
    values = [results.get(key) for key in keys]
    if None not in values:
        return values
    known = {key: v for key, v in zip(keys, values) if v is not None}
    todo = {key: d for key, d in zip(keys, dirs) if key not in known}
    zero = (order, _ZERO_BITS)
    if zero in todo and next(iter(todo)) != zero:
        del todo[zero]
    if order == 1:
        outs = eval_forward(f.components, _points(x, todo.values()))
    else:
        outs = eval_second(f.components, _points(x, todo.values(), (0.0,) * 3))
    known.update(zip(todo, (out[0][order] for out in outs)))
    for key in todo:
        _keep(results, key, known[key])
    known.setdefault(zero, 0.0)
    if zero not in results:
        _keep(results, zero, known[zero])
    return [known[key] for key in keys]


def _dir_deriv(f: FieldSpec, x: Sequence[float], d: Sequence[float]) -> float:
    """First derivative of s -> f(x + s d) at 0, for a scalar f."""
    value = _results_at(f, x).get((1, _pack3(*d)))
    return _along(f, x, 1, (d,))[0] if value is None else value


def _polarization(a: Sequence[float], b: Sequence[float]) -> tuple:
    """The directions a+b, a and b whose seconds polarize to a mixed one."""
    return tuple(map(operator.add, a, b)), a, b


def _mixed_second(
    f: FieldSpec, x: Sequence[float], a: Sequence[float], b: Sequence[float]
) -> float:
    """sum_{i,j} a_i b_j d2f/dx_i dx_j by polarization of the second
    directional derivatives along a+b, a and b, kept by the bits of a and
    b."""
    results = _results_at(f, x)
    key = ("mixed", _pack3(*a), _pack3(*b))
    value = results.get(key)
    if value is None:
        s_ab, s_a, s_b = _along(f, x, 2, _polarization(a, b))
        value = 0.5 * (2.0 * s_ab - 2.0 * s_a - 2.0 * s_b)
        _keep(results, key, value)
    return value


# --- function and field lifts -------------------------------------------------


def lift_function(f: FieldSpec, kind: str, p: TangentPoint) -> float:
    """Value of f^v or f^c at p: the pullback f(x), or y . grad f(x)."""
    if f.kind != "scalar":
        raise ValueError("lift_function expects a scalar field")
    if kind in ("v", "vertical"):
        return _pass(f, p.x)[0][0]
    if kind in ("c", "complete"):
        return _dir_deriv(f, p.x, p.y)
    raise ValueError(f"unknown function lift kind {kind!r}")


@dataclass(frozen=True)
class LiftedFieldValue:
    base: tuple[float, float, float]
    fiber: tuple[float, float, float]

    def as_tuple(self) -> tuple[float, ...]:
        return self.base + self.fiber


def _lifted(kind: str, base, fiber) -> LiftedFieldValue:
    if not all(map(math.isfinite, fiber)):
        raise NonFiniteJet(f"{kind} lift fiber {fiber!r} is not finite")
    return LiftedFieldValue(base, fiber)


class LiftedField:
    """A lifted vector field, evaluable at tangent points.

    Values are kept on the field spec with its other per-point results:
    vertical ones by x, complete ones by x and the bits of y, horizontal
    ones by x, the bits of y and the connection object.
    """

    def __init__(self, field: FieldSpec, kind: str, connection: Connection | None = None):
        if field.kind != "vector":
            raise ValueError("lift_field expects a vector field")
        if kind not in ("vertical", "complete", "horizontal"):
            raise ValueError(f"unknown field lift kind {kind!r}")
        self.field = field
        self.kind = kind
        self.connection = connection or Connection.flat()

    def at(self, p: TangentPoint) -> LiftedFieldValue:
        kind, G = self.kind, self.connection
        if kind == "vertical":
            key = kind
        elif kind == "complete":
            key = (kind, _pack3(*p.y))
        else:
            key = (kind, _pack3(*p.y), id(G))
        results = _results_at(self.field, p.x)
        value = results.get(key)
        if value is None:
            values, jacobian = _kept(results, "pass", _field_pass, self.field, p.x)
            if kind == "vertical":
                value = LiftedFieldValue((0.0, 0.0, 0.0), values)
            elif kind == "complete":
                value = _lifted(kind, values, tuple(_fdot(p.y, row) for row in jacobian))
            else:
                # The entry holds G, so no other connection can take its id
                # while the entry is kept: a lookup compares by identity.
                value = G, _lifted(kind, values, tuple(map(operator.neg, G.contract(p.y, values))))
            _keep(results, key, value)
        return value[1] if kind == "horizontal" else value


def lift_field(
    X: FieldSpec, kind: str, connection: Connection | None = None
) -> LiftedField:
    """The lift of X of ``kind``, given by its full name or its first letter."""
    kind = {"v": "vertical", "c": "complete", "h": "horizontal"}.get(kind, kind)
    return LiftedField(X, kind, connection)


def apply_field(F: LiftedField, g: tuple[str, FieldSpec], p: TangentPoint) -> float:
    """Directional derivative along F at p of the lift of a scalar function:
    ``g`` is a pair (kind, FieldSpec) with kind in {'v', 'c'}."""
    val = F.at(p)
    kind, spec = g
    if not isinstance(spec, FieldSpec) or spec.kind != "scalar":
        raise ValueError("apply_field expects a scalar FieldSpec")
    if kind in ("v", "vertical"):
        # g depends on x only.
        return _dir_deriv(spec, p.x, val.base)
    if kind in ("c", "complete"):
        # d/dx part needs mixed seconds of f against the fiber coordinate;
        # d/dy part is just grad f against the fiber direction.
        return _mixed_second(spec, p.x, val.base, p.y) + _dir_deriv(spec, p.x, val.fiber)
    raise ValueError(f"unknown scalar lift kind {kind!r}")


# --- field algebra on ASTs ------------------------------------------------------


# The bindings of component k's left and right operand in its root step.
_LEFT_NAMES, _RIGHT_NAMES = ("l0", "l1", "l2"), ("r0", "r1", "r2")


def _roots(op: str, pairs) -> tuple:
    """Roots ``op`` over the (left, right) component pairs, and their step
    trees: root k with each operand that is not a Num read from the binding
    l<k> or r<k>, so it compiles to the root's own ``+``, ``*`` or product
    with a number, finiteness test and span (0, 0)."""
    pairs = tuple(pairs)
    roots = tuple(BinOp(op, a, b, (0, 0)) for a, b in pairs)
    steps = tuple(
        BinOp(op, a if isinstance(a, Num) else Var(_LEFT_NAMES[k]),
              b if isinstance(b, Num) else Var(_RIGHT_NAMES[k]), (0, 0))
        for k, (a, b) in enumerate(pairs))
    return roots, steps


def _composite(op: str, left: FieldSpec, right: FieldSpec, pairs) -> FieldSpec:
    """The field of roots ``op`` over the (left, right) component pairs,
    keeping its operands and step trees for :func:`_composite_pass`.

    The roots and steps are built once per right operand and kept on the
    left one, like its per-point results.  They refer to component trees
    only, so the left operand holds nothing that holds a spec.
    """
    built = left.__dict__.get("_composites")
    if built is None:
        built = {}
        object.__setattr__(left, "_composites", built)
    roots, steps = _kept_for(built, op, right, lambda: _roots(op, pairs))
    spec = FieldSpec(right.kind, roots)
    object.__setattr__(spec, "_operands", (steps, left, right))
    return spec


def _composite_pass(x: Sequence[float], steps, left: FieldSpec, right: FieldSpec):
    """A composite's pass from its operands' passes, left operand first.

    The step trees run in :func:`expr._passes` on the operands' values and
    partials, one binding dict per axis, so the bits and, when both
    operands' passes succeed, the error are those of evaluating the roots'
    trees.  A scalar left operand (fX) pairs its one component with each of
    the right's.
    """
    lv, lj = _pass(left, x)
    rv, rj = _pass(right, x)
    n = len(rv)
    if len(lv) < n:
        lv, lj = lv * n, lj * n
    names = _LEFT_NAMES[:n] + _RIGHT_NAMES[:n]
    points = [dict(zip(names, zip(lv + rv, column))) for column in zip(*lj, *rj)]
    return _values_and_rows(_passes(_FORWARD, steps, points))


def field_sum(X: FieldSpec, Y: FieldSpec) -> FieldSpec:
    if X.kind != Y.kind:
        raise ValueError("cannot add fields of different kinds")
    return _composite("+", X, Y, zip(X.components, Y.components))


def field_scale(f: FieldSpec, X: FieldSpec) -> FieldSpec:
    """The module product fX of a scalar and a vector field."""
    if f.kind != "scalar" or X.kind != "vector":
        raise ValueError("field_scale expects (scalar, vector)")
    return _composite("*", f, X, ((f.components[0], c) for c in X.components))


# --- lift identity suite ----------------------------------------------------------


@dataclass(frozen=True)
class Prop21Result:
    """Absolute residuals of the lift identity suite at one tangent point."""

    residuals: dict[str, float]

    @property
    def max_residual(self) -> float:
        """The largest residual, or NaN where any residual is NaN."""
        return _nan_max(list(self.residuals.values()))


def _nan_max(values: list[float]) -> float:
    """max of non-negative values, but NaN where any of them is NaN, which
    ``max`` drops unless it comes first."""
    return math.nan if math.isnan(sum(values)) else max(values)


def _max_abs_diff(u: LiftedFieldValue, v: Sequence[float]) -> float:
    return _nan_max([abs(a - b) for a, b in zip(u.as_tuple(), v)])


def prop21_check(
    X: FieldSpec,
    Y: FieldSpec,
    f: FieldSpec,
    g: FieldSpec,
    G: Connection,
    p: TangentPoint,
) -> Prop21Result:
    """Residuals of the lift identities at p.

    Checked componentwise: additivity of all three lifts; the module rules
    (fX)^v = f^v X^v, (fX)^c = f^c X^v + f^v X^c, (fX)^H = f^v X^H; and the
    scalar pairings X^v(f^v) = 0, X^c(f^v) = X^v(f^c) = X^H(f^v) = (Xf)^v,
    X^c(f^c) = (Xf)^c, each evaluated for both scalar arguments.
    """
    res: dict[str, float] = {}
    kinds = ("vertical", "complete", "horizontal")

    XY = field_sum(X, Y)
    FXv, FXc, FXh = FX = [LiftedField(X, kind, G) for kind in kinds]
    for F in FX:
        left = LiftedField(XY, F.kind, G).at(p)
        xa = F.at(p).as_tuple()
        ya = LiftedField(Y, F.kind, G).at(p).as_tuple()
        res["additivity_" + F.kind[0]] = _max_abs_diff(left, tuple(map(operator.add, xa, ya)))

    fX = field_scale(f, X)
    fv = lift_function(f, "v", p)
    Xv, Xc, Xh = (F.at(p).as_tuple() for F in FX)
    fXv, fXc, fXh = (LiftedField(fX, kind, G).at(p) for kind in kinds)

    # Every directional coefficient of f and g read below, from one order-1
    # and one order-2 evaluation per scalar, each one pass per direction:
    # firsts along y (f^c), X and D_y X; seconds along the polarizations of
    # (y, X), (0, y) and (X, y) but the zero direction, which _along keeps
    # once these passes succeed.  They come after fX's lifts: where fX's
    # root overflows, f along X(x) often overflows too, and the error raised
    # stays fX's.
    xval, dyX = Xv[3:], Xc[3:]
    seconds = (*_polarization(p.y, xval), tuple(0.0 + v for v in p.y))
    _along(f, p.x, 1, (p.y, xval, dyX))
    _along(f, p.x, 2, seconds)
    _along(g, p.x, 1, (xval, dyX))
    _along(g, p.x, 2, seconds)

    fc = lift_function(f, "c", p)
    res["module_v"] = _max_abs_diff(fXv, tuple(fv * u for u in Xv))
    res["module_c"] = _max_abs_diff(fXc, tuple(fc * u + fv * w for u, w in zip(Xv, Xc)))
    res["module_h"] = _max_abs_diff(fXh, tuple(fv * u for u in Xh))

    for scalar, tag in ((f, "f"), (g, "g")):
        xf_v = _dir_deriv(scalar, p.x, xval)
        # (Xf)^c = (D_y X)(x) . grad f(x) + sum y^b X^g d2f/dx^b dx^g
        xf_c = _fdot(dyX, _pass(scalar, p.x)[1][0]) + _mixed_second(scalar, p.x, p.y, xval)
        res[f"Xv_{tag}v"] = abs(apply_field(FXv, ("v", scalar), p))
        res[f"Xc_{tag}v"] = abs(apply_field(FXc, ("v", scalar), p) - xf_v)
        res[f"Xv_{tag}c"] = abs(apply_field(FXv, ("c", scalar), p) - xf_v)
        res[f"Xc_{tag}c"] = abs(apply_field(FXc, ("c", scalar), p) - xf_c)
        res[f"XH_{tag}v"] = abs(apply_field(FXh, ("v", scalar), p) - xf_v)
    return Prop21Result(res)


# --- parallel transport -------------------------------------------------------------


def _rk4_segment(
    G: Connection,
    curve: CurveSpec,
    w: list[float],
    t0: float,
    t1: float,
    steps: int,
) -> list[float]:
    """Classical RK4 for w' = -G(beta', w) over ``steps`` equal steps.

    Each stage evaluates the curve velocity at its own time, one order-1
    :func:`eval_jet` per component, and contracts it with the stage's fiber
    over ``G._terms`` in the order of :meth:`Connection.contract`.
    """
    h = (t1 - t0) / steps
    half = 0.5 * h
    rows = G._terms
    for i in range(steps):
        u = t0 + i * h
        k = None
        ks = []
        for s, c in ((u, 0.0), (u + half, half), (u + half, half), (u + h, h)):
            y = w if k is None else [a + c * b for a, b in zip(w, k)]
            tj = {"t": Jet._of((s, 1.0))}
            vel = _per_component(curve.components, s, lambda comp: eval_jet(comp, tj).coeffs[1])
            k = []
            for row in rows:
                # -0.0 + x is x, so a row sums as contract sums it; a row
                # without symbols is contract's 0.0 * direction * transported.
                acc = -0.0 if row else 0.0 * vel[0] * y[0]
                for b, g, coeff in row:
                    acc += vel[b] * y[g] * coeff
                k.append(-acc)
            ks.append(k)
        w = [
            a + (h / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            for a, b1, b2, b3, b4 in zip(w, *ks)
        ]
    return w


def _check_transport_steps(steps: float) -> None:
    if not steps <= MAX_TRANSPORT_STEPS:
        raise ValueError(
            f"parallel transport needs {steps:.4g} RK4 steps, more than the cap of "
            f"{MAX_TRANSPORT_STEPS} (MAX_TRANSPORT_STEPS); shorten the curve domain"
        )


def parallel_transport(
    G: Connection,
    curve: CurveSpec,
    w0: Sequence[float],
    t: float,
    steps: int | None = None,
) -> tuple[float, float, float]:
    """Transport w0 from t_min to t along the curve: w' = -G(beta', w).

    Classical 4-stage Runge-Kutta with a fixed step (t - t_min)/steps; the
    default step count is proportional to the parameter length, and a count
    above ``MAX_TRANSPORT_STEPS`` is a ValueError.  The flat connection
    transports exactly.
    """
    if not curve.t_min <= t <= curve.t_max:
        raise DomainIntervalError(t, curve.domain)
    w = [float(v) for v in w0]
    if len(w) != 3:
        raise ValueError("w0 must have 3 components")
    if t == curve.t_min:
        return tuple(w)
    if steps is None:
        steps = TRANSPORT_STEPS_PER_UNIT * (t - curve.t_min)
    elif steps < 1:
        raise ValueError("steps must be >= 1")
    _check_transport_steps(steps)
    return tuple(_rk4_segment(G, curve, w, curve.t_min, t, max(1, math.ceil(steps))))


def transport_grid(
    G: Connection,
    curve: CurveSpec,
    w0: Sequence[float],
    ts: Sequence[float],
) -> dict[float, tuple[float, float, float]]:
    """One integration pass covering many target parameters.

    Returns a map t -> w(t).  Integration proceeds left to right through the
    sorted targets at ``TRANSPORT_STEPS_PER_UNIT`` RK4 steps per unit of t,
    so a sweep over an n-point grid costs one traversal.  The step count is
    checked against ``MAX_TRANSPORT_STEPS`` first.
    """
    targets = sorted(set(float(t) for t in ts))
    for t in targets:
        if not curve.t_min <= t <= curve.t_max:
            raise DomainIntervalError(t, curve.domain)
    if targets:
        # Each target rounds its segment up by less than one step.
        _check_transport_steps(TRANSPORT_STEPS_PER_UNIT * (targets[-1] - curve.t_min) + len(targets))
    out: dict[float, tuple[float, float, float]] = {}
    w = [float(v) for v in w0]
    prev = curve.t_min
    for t in targets:
        if t > prev:
            n = max(1, math.ceil(TRANSPORT_STEPS_PER_UNIT * (t - prev)))
            w = _rk4_segment(G, curve, w, prev, t, n)
            prev = t
        out[t] = tuple(w)
    return out


def fiber_jets(
    G: Connection, base_velocity: Sequence[Sequence[float]], w_value: Sequence[float], order: int
) -> tuple[tuple[float, ...], ...]:
    """Taylor coefficients of the transported fiber from its defining ODE.

    Given the coefficients of beta' (one tuple per component) and the value
    w(t), the relation w' = -G(beta', w) determines every higher coefficient
    recursively, over the nonzero symbols only, in ``Connection._terms``
    order.
    """
    if order > len(base_velocity[0]):
        raise ValueError("base velocity jets too short for requested order")
    W = [[0.0] * (order + 1) for _ in range(3)]
    for a in range(3):
        W[a][0] = float(w_value[a])
    for k in range(order):
        for a in range(3):
            s = 0.0
            for b, g, coeff in G._terms[a]:
                conv = 0.0
                for i in range(k + 1):
                    conv += base_velocity[b][i] * W[g][k - i]
                s += coeff * conv
            W[a][k + 1] = -s / (k + 1)
    return tuple(tuple(W[a]) for a in range(3))


def lifted_point_jets(
    curve_jets: Sequence[Sequence[float]],
    kind: LiftKind,
    G: Connection,
    anchor: Sequence[float] | None = None,
    w_value: Sequence[float] | None = None,
) -> tuple[tuple[float, ...], ...]:
    """Point jets of the lifted curve in R^6 from point jets of the base:
    (anchor, beta), (beta, beta') one order lower, or (beta, w).

    For the horizontal kind ``w_value`` is the transported fiber at the
    expansion point (the caller integrates the transport ODE; this function
    extends the value to jets through the ODE itself).
    """
    base = tuple(curve_jets)
    K = len(base[0]) - 1
    if kind.kind == "vertical":
        if anchor is None:
            raise ValueError("vertical lift needs an anchor")
        return tuple((float(v),) + (0.0,) * K for v in anchor) + base
    vel = tuple(_derivative(cs) for cs in base)
    if kind.kind == "complete":
        return tuple(cs[:K] for cs in base) + vel
    if kind.kind == "horizontal":
        if w_value is None:
            raise ValueError("horizontal lift needs the transported fiber value")
        return base + fiber_jets(G, vel, w_value, K)
    raise ValueError(f"unknown lift kind {kind.kind!r}")


# --- connection file ------------------------------------------------------------


def parse_connection_file(text: str) -> Connection:
    """Parse the line-oriented connection format.

    Entries look like ``gamma 1 2 3 = 0.5`` with 1-based indices; unspecified
    entries are zero.  ``flat = true`` is shorthand for the zero connection
    and excludes gamma entries.
    """
    entries: dict[tuple[int, int, int], float] = {}
    flat = False
    for lineno, key, value in _key_value_lines(text):
        if key == "flat":
            if value.lower() not in ("true", "false"):
                raise FormatError(lineno, f"flat must be true or false, got {value!r}")
            flat = value.lower() == "true"
            continue
        parts = key.split()
        if len(parts) != 4 or parts[0] != "gamma":
            raw = text.splitlines()[lineno - 1].strip()
            raise FormatError(lineno, f"expected 'gamma A B G = value', got {raw!r}")
        try:
            idx = tuple(int(p) for p in parts[1:])
        except ValueError:
            raise FormatError(lineno, f"gamma indices must be integers, got {key!r}") from None
        if not all(1 <= i <= 3 for i in idx):
            raise FormatError(lineno, f"gamma indices must be in 1..3, got {key!r}")
        try:
            val = float(value)
        except ValueError:
            raise FormatError(lineno, f"gamma value must be a number, got {value!r}") from None
        if not math.isfinite(val):
            raise FormatError(lineno, f"gamma value must be a finite number, got {value!r}")
        if idx in entries:
            raise FormatError(lineno, f"duplicate gamma entry {key!r}")
        entries[idx] = val
    if flat and entries:
        raise FormatError(0, "'flat = true' excludes explicit gamma entries")
    if flat or not entries:
        return Connection.flat()
    return Connection.from_entries(entries)
