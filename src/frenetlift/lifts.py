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
lift kind, as is a value or a lifted fiber that is not finite.

What the lifts compute at a :class:`TangentPoint` stays on that point for
as long as it lives, in one table with one entry per quantity, so a read
that finds its entry is one lookup: the axis bindings, a spec's pass, a
lifted value under its :class:`LiftedField`'s key, a scalar's first or
second coefficient along a direction (keyed on its bits), an
:func:`apply_field` value, and :func:`prop21_check`'s composites and
directional coefficients.  An object whose id is in a key is kept in the
table too, so no other object takes the id while the point lives.  Two
points with equal x share nothing, so a point holds memory in proportion
to the distinct (field, connection) pairs asked about it; the ``fields``
and ``verify`` commands hold one point at a time.  :func:`prop21_check`
fills the directional entries for each scalar with one order-1 and one
order-2 evaluation, each one pass per direction, and :func:`apply_field`
reads them.  A vertical lift X^v = (0, X) has no base part, so applying it
reads no derivative along its zero base: X^v(f^v) is 0 once f's own pass
succeeds, and X^v(f^c) is f's first coefficient along X(x).

:func:`field_sum` and :func:`field_scale` return a plain spec of root nodes
over their operands' trees, evaluated like any other field.
:func:`prop21_check` keeps its X+Y and fX on the point together with their
operands, so the ids in their keys stay theirs while the point lives, and
derives their passes from the operands' passes kept there: per axis, then
per component, one :func:`jets._padd` or :func:`jets._pmul` on the
operands' (value, partial) pairs, which takes the roots' float steps, so
the bits and, once both operands' passes succeed, the errors are those of
evaluating the roots.  An operand whose own pass fails raises its error,
the left operand first.  The left operand keeps its last composite, so
the next point with the same operands builds no spec.  A second suite at
the point computes only the horizontal lifts of a new connection.

Curves lift pointwise: vertical to (anchor, beta(t)), complete to
(beta(t), beta'(t)), and horizontal to (beta(t), w(t)) with w parallel
transported along beta by classical 4-stage Runge-Kutta.  A connection's
stage is one generated function of straight-line code, compiled once per
connection (:func:`_stage_code`).  It binds t once, takes the curve
velocity from one order-1 :func:`expr.eval_jet` per component, so 12 per
step, and contracts it with the stage's fiber, the nonzero symbols
unrolled in :meth:`Connection.contract`'s order; the fiber and the stage
slopes stay plain floats, so a step gives the bits of RK4 on ``contract``.
A failing component leaves its error with ``component`` and ``t`` set, as
a sweep's does.
"""

from __future__ import annotations

import math
import operator
import struct
from dataclasses import dataclass
from itertools import count
from typing import Sequence

from .expr import (
    BinOp,
    FieldSpec,
    FormatError,
    CurveSpec,
    _compiled,
    _generated,
    _key_value_lines,
    _source,
    _to_float,
    eval_forward,
    eval_jet,
    eval_second,
    parse_number,
)
from .frenet import DomainIntervalError
from .jets import Jet, JetError, NonFiniteJet, _derivative, _fdot, _padd, _pmul

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

# Work cap on one transport.  An RK4 step took 13-20 us (best of 7, four
# runs, on a shared 2-core x86 host, CPython 3.11.7; a helix and a torus
# knot, 3 or 27 nonzero connection symbols), so ten million steps take
# about 2-3.5 minutes.  A curve domain that needs more is an input error,
# raised before any step is taken.
MAX_TRANSPORT_STEPS = 10_000_000


@dataclass(frozen=True, eq=False)
class TangentPoint:
    """A point of the tangent space: base coordinates x, fiber coordinates y,
    keeping what the lifts compute at it (outside the repr).  It equals only
    itself: equal coordinates such as 0.0 and -0.0 can lift to other bits."""

    x: tuple[float, float, float]
    y: tuple[float, float, float]

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(map(_to_float, self.x)))
        object.__setattr__(self, "y", tuple(map(_to_float, self.y)))
        if len(self.x) != 3 or len(self.y) != 3:
            raise ValueError("a tangent point needs 3 base and 3 fiber coordinates")
        if not all(map(math.isfinite, self.x + self.y)):
            raise ValueError("tangent point coordinates must be finite")
        object.__setattr__(self, "_kept", {})


@dataclass(frozen=True)
class Connection:
    """Constant connection symbols G[a][b][g], all zero for the flat case."""

    gamma: tuple[tuple[tuple[float, ...], ...], ...]

    def __post_init__(self):
        g = tuple(tuple(tuple(map(_to_float, row)) for row in plane) for plane in self.gamma)
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
            g[a - 1][b - 1][c - 1] = v
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
        a = tuple(map(_to_float, anchor)) if anchor is not None else None
        return cls("vertical", anchor=a)

    @classmethod
    def complete(cls) -> "LiftKind":
        return cls("complete")

    @classmethod
    def horizontal(cls, w0: Sequence[float]) -> "LiftKind":
        return cls("horizontal", w0=tuple(map(_to_float, w0)))

    def __post_init__(self):
        if self.kind not in ("vertical", "complete", "horizontal"):
            raise ValueError(f"unknown lift kind {self.kind!r}")
        for name, vec in (("anchor", self.anchor), ("w0", self.w0)):
            if vec is not None and len(vec) != 3:
                raise ValueError(f"{name} must have 3 components, got {len(vec)}")
            if vec is not None and not all(math.isfinite(v) for v in vec):
                raise ValueError("lift parameters must be finite")
        if self.kind == "horizontal" and self.w0 is None:
            raise ValueError("horizontal lift needs an initial fiber vector w0")


# --- per-point results (passes, directional coefficients, lifted values) ----


_BASIS = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
_pack3 = struct.Struct("<3d").pack
# Full names of the lift kinds, by their first letters.
_KINDS = {"v": "vertical", "c": "complete", "h": "horizontal"}
_FULL_KINDS = tuple(_KINDS.values())


def _keep(p: TangentPoint, obj) -> int:
    """id(obj), with obj kept at p, so no other object takes an id of a key
    while p lives."""
    key = id(obj)
    p._kept.setdefault(key, obj)
    return key


def _points(x: Sequence[float], dirs, order: int = 1) -> list[dict]:
    """Bindings of x1..x3 at x, one dict per direction d of ``dirs``: each
    x_i bound to ``(x_i, d_i)``, followed by 0.0 for an order-2 pass."""
    x1, x2, x3 = x
    if order == 1:
        return [{"x1": (x1, a), "x2": (x2, b), "x3": (x3, c)} for a, b, c in dirs]
    return [{"x1": (x1, a, 0.0), "x2": (x2, b, 0.0), "x3": (x3, c, 0.0)} for a, b, c in dirs]


def _field_pass(spec: FieldSpec, p: TangentPoint):
    """Component values and Jacobian rows J[a][b] = dX^a/dx^b at p.x, from
    one forward pass along the coordinate axes, whose bindings p keeps.  The
    error is the one that pass meets, or else a NonFiniteJet spanning the
    first component whose value is not finite (a lone ``1e999``)."""
    axes = p._kept.get("axes")
    if axes is None:
        axes = p._kept["axes"] = _points(p.x, _BASIS)
    values, rows = _values_and_rows(eval_forward(spec.components, axes))
    if not all(map(math.isfinite, values)):
        c, v = next((c, v) for c, v in zip(spec.components, values) if not math.isfinite(v))
        err = NonFiniteJet(f"value {v!r} is not finite")
        err.span = c.span
        raise err
    return values, rows


def _values_and_rows(outs):
    """(values, Jacobian rows) from the components' ``(value, derivative)``
    outputs along the three axes: the values of the first axis, and per
    component its derivative along each axis."""
    first, second, third = outs
    return (tuple([v for v, _ in first]),
            tuple([(a, b, c) for (_, a), (_, b), (_, c) in zip(first, second, third)]))


def _pass(spec: FieldSpec, p: TangentPoint):
    """:func:`_field_pass` of ``spec`` at p, kept at p."""
    value = p._kept.get((id(spec), "pass"))
    if value is None:
        value = _field_pass(spec, p)
        p._kept[_keep(p, spec), "pass"] = value
    return value


def _along(f: FieldSpec, p: TangentPoint, order: int, dirs) -> list[float]:
    """Coefficient ``order`` (1 or 2) of s -> f(x + s d) at p.x for each
    direction d of ``dirs``, for a scalar f, kept at p one entry per
    direction (keyed on its bits).  The directions not kept yet come from
    one evaluation, one pass per direction, so its error is the first one
    they meet in the given order."""
    kept, i = p._kept, id(f)
    keys = [(i, order, _pack3(*d)) for d in dirs]
    values = [kept.get(key) for key in keys]
    if None in values:
        todo = {key: d for key, d, v in zip(keys, dirs, values) if v is None}
        evaluate = eval_forward if order == 1 else eval_second
        outs = evaluate(f.components, _points(p.x, todo.values(), order))
        _keep(p, f)
        kept.update(zip(todo, [out[0][order] for out in outs]))
        values = [kept[key] for key in keys]
    return values


def _dir_deriv(f: FieldSpec, p: TangentPoint, d: Sequence[float]) -> float:
    """First derivative of s -> f(p.x + s d) at 0, for a scalar f."""
    value = p._kept.get((id(f), 1, _pack3(*d)))
    return _along(f, p, 1, (d,))[0] if value is None else value


def _polarization(a: Sequence[float], b: Sequence[float]) -> tuple:
    """The directions a+b, a and b whose seconds polarize to a mixed one."""
    return tuple(map(operator.add, a, b)), a, b


def _polarized(s_ab: float, s_a: float, s_b: float) -> float:
    """The mixed second from the seconds along a+b, a and b."""
    return 0.5 * (2.0 * s_ab - 2.0 * s_a - 2.0 * s_b)


def _mixed_second(
    f: FieldSpec, p: TangentPoint, a: Sequence[float], b: Sequence[float]
) -> float:
    """sum_{i,j} a_i b_j d2f/dx_i dx_j at p.x by polarization of the second
    directional derivatives along a+b, a and b, which p keeps."""
    return _polarized(*_along(f, p, 2, _polarization(a, b)))


# --- function and field lifts -------------------------------------------------


def lift_function(f: FieldSpec, kind: str, p: TangentPoint) -> float:
    """Value of f^v or f^c at p: the pullback f(x), or y . grad f(x)."""
    if f.kind != "scalar":
        raise ValueError("lift_function expects a scalar field")
    full = _KINDS.get(kind, kind)
    if full == "vertical":
        return _pass(f, p)[0][0]
    if full == "complete":
        return _dir_deriv(f, p, p.y)
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

    Its values are kept at the point with the field's other results there,
    under one key made with the field: the field's id with the kind, or for
    the horizontal kind with the connection's id.  So its field, kind and
    connection are read-only.
    """

    __slots__ = ("_field", "_kind", "_connection", "_key")

    field = property(operator.attrgetter("_field"))
    kind = property(operator.attrgetter("_kind"))
    connection = property(operator.attrgetter("_connection"))

    def __init__(self, field: FieldSpec, kind: str, connection: Connection | None = None):
        if field.kind != "vector":
            raise ValueError("lift_field expects a vector field")
        if kind not in _FULL_KINDS:
            raise ValueError(f"unknown field lift kind {kind!r}")
        self._field = field
        self._kind = kind
        self._connection = G = connection or _FLAT
        self._key = (id(field), id(G) if kind == "horizontal" else kind)

    def at(self, p: TangentPoint) -> LiftedFieldValue:
        value = p._kept.get(self._key)
        if value is None:
            kind, G = self._kind, self._connection
            values, jacobian = _pass(self._field, p)
            if kind == "vertical":
                value = LiftedFieldValue((0.0, 0.0, 0.0), values)
            elif kind == "complete":
                y, (r1, r2, r3) = p.y, jacobian
                value = _lifted(kind, values, (_fdot(y, r1), _fdot(y, r2), _fdot(y, r3)))
            else:
                _keep(p, G)
                value = _lifted(kind, values, tuple(map(operator.neg, G.contract(p.y, values))))
            p._kept[self._key] = value
        return value


def lift_field(
    X: FieldSpec, kind: str, connection: Connection | None = None
) -> LiftedField:
    """The lift of X of ``kind``, given by its full name or its first letter."""
    return LiftedField(X, _KINDS.get(kind, kind), connection)


def apply_field(F: LiftedField, g: tuple[str, FieldSpec], p: TangentPoint) -> float:
    """Directional derivative along F at p of the lift of a scalar function:
    ``g`` is a pair (kind, FieldSpec) with kind in {'v', 'c'}.  The value is
    kept at p under the scalar's id, the kind as given and F's key."""
    val = F.at(p)
    kind, spec = g
    if not isinstance(spec, FieldSpec) or spec.kind != "scalar":
        raise ValueError("apply_field expects a scalar FieldSpec")
    key = (id(spec), kind, F._key)
    value = p._kept.get(key)
    if value is None:
        # The reads of _applied keep spec at p.
        value = p._kept[key] = _applied(F.kind, val, kind, spec, p)
    return value


def _applied(lift: str, val: LiftedFieldValue, kind: str, spec: FieldSpec, p: TangentPoint):
    """X^lift(spec^kind) at p, where X^lift is ``val`` there."""
    full = _KINDS.get(kind, kind)
    if full == "vertical":
        # g depends on x only, and X^v = (0, X) has no base part: after g's
        # own pass at x, for its errors, X^v(g^v) is 0.
        if lift == "vertical":
            _pass(spec, p)
            return 0.0
        return _dir_deriv(spec, p, val.base)
    if full == "complete":
        # d/dx part needs mixed seconds of f against the fiber coordinate,
        # none for X^v; d/dy part is just grad f against the fiber direction.
        if lift == "vertical":
            return _dir_deriv(spec, p, val.fiber)
        return _mixed_second(spec, p, val.base, p.y) + _dir_deriv(spec, p, val.fiber)
    raise ValueError(f"unknown scalar lift kind {kind!r}")


# --- field algebra on ASTs ------------------------------------------------------


def field_sum(X: FieldSpec, Y: FieldSpec) -> FieldSpec:
    """The sum X+Y of two fields of one kind: one root '+' per component."""
    if X.kind != Y.kind:
        raise ValueError("cannot add fields of different kinds")
    return FieldSpec(X.kind, tuple(
        BinOp("+", a, b, (0, 0)) for a, b in zip(X.components, Y.components)))


def field_scale(f: FieldSpec, X: FieldSpec) -> FieldSpec:
    """The module product fX of a scalar and a vector field."""
    if f.kind != "scalar" or X.kind != "vector":
        raise ValueError("field_scale expects (scalar, vector)")
    return FieldSpec("vector", tuple(BinOp("*", f.components[0], c, (0, 0)) for c in X.components))


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
    """:func:`_nan_max` of the componentwise ``abs(u - v)``."""
    diffs = [abs(a - b) for a, b in zip(u.base + u.fiber, v)]
    return math.nan if math.isnan(sum(diffs)) else max(diffs)


def _derived_pass(step, left, right):
    """The pass of the roots ``step`` (:func:`jets._padd` or
    :func:`jets._pmul`) over two operands' components, from the operands'
    passes: axis by axis, then component by component, as
    :func:`expr.eval_forward` runs the roots, on their (value, partial)
    pairs, so with the roots' bits and errors.  A scalar left operand
    repeats its one component for each of the right's.  A step's error
    spans the roots' (0, 0)."""
    (lv, lj), (rv, rj) = left, right
    n = len(rv)
    if len(lv) < n:
        lv, lj = lv * n, lj * n
    try:
        outs = [[step((u, du[b]), (w, dw[b])) for u, du, w, dw in zip(lv, lj, rv, rj)]
                for b in range(3)]
    except NonFiniteJet as err:
        err.span = (0, 0)
        raise
    return _values_and_rows(outs)


# The attribute under which a left operand keeps its last composite, by op.
_LAST_COMPOSITE = {"+": "_last_sum", "*": "_last_scale"}


def _composite(p: TangentPoint, op: str, build, left: FieldSpec, right: FieldSpec) -> FieldSpec:
    """The spec ``build(left, right)``, kept at p with its operands, so the
    ids in its key stay theirs while p lives.  Across points, ``left`` keeps
    its last one of ``op`` with the right operand's components, which are
    the same objects exactly when its trees are."""
    key = (op, id(left), id(right))
    entry = p._kept.get(key)
    if entry is None:
        attr = _LAST_COMPOSITE[op]
        last = getattr(left, attr, None)
        if last is None or last[0] is not getattr(right, "components", None):
            composite = build(left, right)
            last = (right.components, composite)
            object.__setattr__(left, attr, last)
        entry = p._kept[key] = (last[1], left, right)
    return entry[0]


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
    kept = p._kept

    # X+Y and fX are kept at p with their operands.  Each pass is derived
    # just before the composite's first lift, so its error comes before any
    # later one.
    XY = _composite(p, "+", field_sum, X, Y)
    if (id(XY), "pass") not in kept:
        kept[_keep(p, XY), "pass"] = _derived_pass(_padd, _pass(X, p), _pass(Y, p))
    FXv, FXc, FXh = FX = [LiftedField(X, kind, G) for kind in _FULL_KINDS]
    additivity = []
    for F in FX:
        left = LiftedField(XY, F.kind, G).at(p)
        xa = F.at(p).as_tuple()
        ya = LiftedField(Y, F.kind, G).at(p).as_tuple()
        additivity.append(_max_abs_diff(left, list(map(operator.add, xa, ya))))

    fX = _composite(p, "*", field_scale, f, X)
    fv = _pass(f, p)[0][0]
    if (id(fX), "pass") not in kept:
        kept[_keep(p, fX), "pass"] = _derived_pass(_pmul, _pass(f, p), _pass(X, p))
    Xv, Xc, Xh = FXv.at(p).as_tuple(), FXc.at(p).as_tuple(), FXh.at(p).as_tuple()
    fXv, fXc, fXh = [LiftedField(fX, kind, G).at(p) for kind in _FULL_KINDS]

    # Every directional coefficient of f and g read below, from one order-1
    # and one order-2 evaluation per scalar, each one pass per direction:
    # firsts along y (f^c), X and D_y X; seconds along the polarization of
    # (y, X), which (X, y) shares.  They come after fX's lifts: where fX's
    # root overflows, f along X(x) often overflows too, and the error raised
    # stays fX's.  They are kept at p together, for a later suite with
    # these f, g and X.
    xval, dyX = Xv[3:], Xc[3:]
    key = (id(f), id(g), id(X))
    coefficients = kept.get(key)
    if coefficients is None:
        seconds = _polarization(p.y, xval)
        coefficients = kept[key] = (
            _along(f, p, 1, (p.y, xval, dyX)), _along(f, p, 2, seconds),
            _along(g, p, 1, (xval, dyX)), _along(g, p, 2, seconds))
    (fc, *f_firsts), f_seconds, g_firsts, g_seconds = coefficients

    res = {
        "additivity_v": additivity[0],
        "additivity_c": additivity[1],
        "additivity_h": additivity[2],
        "module_v": _max_abs_diff(fXv, [fv * u for u in Xv]),
        "module_c": _max_abs_diff(fXc, [fc * u + fv * w for u, w in zip(Xv, Xc)]),
        "module_h": _max_abs_diff(fXh, [fv * u for u in Xh]),
    }
    for scalar, firsts, polar, names in (
        (f, f_firsts, f_seconds, ("Xv_fv", "Xc_fv", "Xv_fc", "Xc_fc", "XH_fv")),
        (g, g_firsts, g_seconds, ("Xv_gv", "Xc_gv", "Xv_gc", "Xc_gc", "XH_gv")),
    ):
        # (Xf)^v is f along X(x); (Xf)^c = (D_y X)(x) . grad f(x) + sum y^b
        # X^g d2f/dx^b dx^g, the mixed second of (y, X).
        xf_v = firsts[0]
        xf_c = _fdot(dyX, _pass(scalar, p)[1][0]) + _polarized(*polar)
        v, c = ("v", scalar), ("c", scalar)
        res[names[0]] = abs(apply_field(FXv, v, p))
        res[names[1]] = abs(apply_field(FXc, v, p) - xf_v)
        res[names[2]] = abs(apply_field(FXv, c, p) - xf_v)
        res[names[3]] = abs(apply_field(FXc, c, p) - xf_c)
        res[names[4]] = abs(apply_field(FXh, v, p) - xf_v)
    return Prop21Result(res)


# --- parallel transport -------------------------------------------------------------


# One RK4 stage at time s and fiber y, -G(beta'(s), y): the velocity from
# one order-1 eval_jet per component on one binding of t, then each output's
# terms in contract's order.  eval_jet is read from this module's globals at
# each call, so whoever replaces lifts.eval_jet sees all three.
_STAGE_LINES = (
    "t = {'t': Jet._of((s, 1.0))}",
    "try: v0 = eval_jet(c1, t).coeffs[1]",
    "except JetError as err: err.component = 0; err.t = s; raise",
    "try: v1 = eval_jet(c2, t).coeffs[1]",
    "except JetError as err: err.component = 1; err.t = s; raise",
    "try: v2 = eval_jet(c3, t).coeffs[1]",
    "except JetError as err: err.component = 2; err.t = s; raise",
)


def _stage_source(rows: tuple) -> str:
    """The source of a stage whose outputs sum the (b, g) terms of
    ``rows``: each output sums its terms ``v_b * y_g * coeff`` left to
    right, as :meth:`Connection.contract` does, and an output without
    symbols is ``0.0 * v0 * y0``."""
    names = (f"k{i}" for i in count())
    sums = [" + ".join(f"v{b} * y{g} * {next(names)}" for b, g in row) or "0.0 * v0 * y0"
            for row in rows]
    returned = "return " + ", ".join(f"-({total})" for total in sums)
    return _source(sum(map(len, rows)), "c1, c2, c3, s, y0, y1, y2", _STAGE_LINES + (returned,))


def _stage_code(G: Connection):
    """G's RK4 stage as a generated function of (c1, c2, c3, s, y0, y1, y2),
    returning -G(beta'(s), y) with contract's bits.  A :class:`JetError`
    leaves with ``component`` (0-based) and ``t`` set.  The coefficients
    are arguments, so connections whose nonzero symbols sit at the same
    indices share one code."""
    rows = tuple(tuple((b, g) for b, g, _ in terms) for terms in G._terms)
    coeffs = [coeff for terms in G._terms for _, _, coeff in terms]
    return _generated(_stage_source, rows, coeffs, globals())


def _rk4_segment(
    G: Connection,
    curve: CurveSpec,
    w: list[float],
    t0: float,
    t1: float,
    steps: int,
) -> list[float]:
    """Classical RK4 for w' = -G(beta', w) over ``steps`` equal steps.

    Each step makes four calls of G's stage (:func:`_stage_code`), at u,
    u + h/2 (twice) and u + h, so 12 order-1 :func:`eval_jet` calls, and
    keeps the fiber and the stage slopes as plain floats.
    """
    h = (t1 - t0) / steps
    half = 0.5 * h
    sixth = h / 6.0
    stage = _compiled(G, "_stage", _stage_code)
    x1, x2, x3 = curve.components
    w0, w1, w2 = w
    for i in range(steps):
        u = t0 + i * h
        a0, a1, a2 = stage(x1, x2, x3, u, w0, w1, w2)
        b0, b1, b2 = stage(x1, x2, x3, u + half, w0 + half * a0, w1 + half * a1, w2 + half * a2)
        c0, c1, c2 = stage(x1, x2, x3, u + half, w0 + half * b0, w1 + half * b1, w2 + half * b2)
        d0, d1, d2 = stage(x1, x2, x3, u + h, w0 + h * c0, w1 + h * c1, w2 + h * c2)
        w0 = w0 + sixth * (a0 + 2.0 * b0 + 2.0 * c0 + d0)
        w1 = w1 + sixth * (a1 + 2.0 * b1 + 2.0 * c1 + d1)
        w2 = w2 + sixth * (a2 + 2.0 * b2 + 2.0 * c2 + d2)
    return [w0, w1, w2]


def _transport_start(curve: CurveSpec, w0: Sequence[float], ts: Sequence[float]) -> list[float]:
    """w0 as a list, once each t of ``ts`` lies in the curve's domain and w0
    has exactly 3 finite components."""
    for t in ts:
        if not curve.t_min <= t <= curve.t_max:
            raise DomainIntervalError(t, curve.domain)
    w = list(map(_to_float, w0))
    if len(w) != 3 or not all(math.isfinite(v) for v in w):
        raise ValueError("w0 must have 3 finite components")
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
    w = _transport_start(curve, w0, (t,))
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
    targets = sorted(set(map(_to_float, ts)))
    w = _transport_start(curve, w0, targets)
    if targets:
        # Each target rounds its segment up by less than one step.
        _check_transport_steps(TRANSPORT_STEPS_PER_UNIT * (targets[-1] - curve.t_min) + len(targets))
    out: dict[float, tuple[float, float, float]] = {}
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


_INDICES = {"1": 1, "2": 2, "3": 3}


def parse_connection_file(text: str) -> Connection:
    """Parse the line-oriented connection format.

    Entries look like ``gamma 1 2 3 = 0.5``: indices 1, 2 or 3, and a value
    that :func:`expr.parse_number` reads; unspecified entries are zero.
    ``flat = true`` is shorthand for the zero connection and excludes gamma
    entries.
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
        idx = tuple(_INDICES.get(p) for p in parts[1:])
        if None in idx:
            raise FormatError(lineno, f"gamma indices must each be 1, 2 or 3, got {key!r}")
        try:
            val = parse_number(value)
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
