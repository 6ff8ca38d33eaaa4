"""Truncated Taylor (jet) arithmetic and float helpers that repeat it.

A :class:`Jet` stores the normalized Taylor coefficients ``c_k = f^(k)(t0)/k!``
of a scalar function about an expansion point, up to a fixed order K.
Arithmetic and elementary functions propagate the whole coefficient vector
through the standard convolution recurrences, so the k-th derivative of any
composite expression is exact to rounding.  The public constructor coerces
every coefficient to float; the results of jet arithmetic are float tuples
already, so the kernel wraps them with the private ``Jet._of`` instead.
Point jets cross the package as tuples of coefficient tuples, one per
component; vector operations on them run on the order-1 pairs and order-2
triples below, one body per vector step that repeats the kernel's float
steps.  The steps on pairs are written as source lines of generated
straight-line code, compiled once per shape (:func:`_generated`), the
machinery the expression evaluators use too.  :func:`fd_oracle`
is a finite-difference estimator with one Richardson extrapolation step, kept
deliberately independent of the jet code path so the two can cross-check
each other.
"""

from __future__ import annotations

import math
from functools import lru_cache
from math import isfinite, sqrt  # noqa: F401  (read by generated code)
from types import CodeType, FunctionType
from typing import Callable, Iterable, Sequence

__all__ = [
    "Jet",
    "JetError",
    "DivisionByZeroJet",
    "DomainError",
    "OrderExceeded",
    "DimensionMismatch",
    "ZeroNorm",
    "RankDeficient",
    "NonFiniteJet",
    "JET_FUNCTIONS",
    "jet_pow",
    "fd_oracle",
]

# Division-by-zero guard sits at the subnormal boundary rather than exact
# zero so near-underflow denominators fail loudly instead of spraying Inf.
DIV_FLOOR = 1e-300

# Below this norm the direction of a vector is numerically meaningless.
NORM_FLOOR = 1e-12


class JetError(ValueError):
    """Base class for jet and vector algebra failures."""


class DivisionByZeroJet(JetError):
    """Denominator jet has (numerically) zero constant term."""


class DomainError(JetError):
    """Elementary function evaluated outside its domain.

    Carries the function name and the offending constant term; an optional
    ``span`` is attached by the expression evaluator.
    """

    def __init__(self, func: str, value: float, span=None):
        self.func = func
        self.value = value
        self.span = span
        super().__init__(f"{func} undefined at {value!r}")


class OrderExceeded(JetError):
    """Requested derivative order exceeds the jet's truncation order."""


class DimensionMismatch(JetError):
    """Vector dimensions or jet orders do not agree."""


class ZeroNorm(JetError):
    """Normalization of a (numerically) zero vector was requested."""


class RankDeficient(JetError):
    """Gram-Schmidt hit a linearly dependent vector.

    ``index`` is the 0-based position of the first dependent input.
    """

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"vector {index} is linearly dependent on its predecessors")


class NonFiniteJet(JetError):
    """An operation produced NaN or infinite coefficients."""


def _finite(coeffs: list[float]) -> tuple[float, ...]:
    # Summing is one C-level pass; any NaN/Inf entry taints the total.  A
    # finite aggregate that overflows the sum also trips this, which is fine:
    # coefficients at 1e308 scale are already past any meaningful use.
    if not math.isfinite(sum(coeffs)):
        raise NonFiniteJet("operation produced non-finite coefficients")
    return tuple(coeffs)


def _derivative(coeffs: Sequence[float]) -> tuple[float, ...]:
    """Coefficients of the derivative function, one order lower: coefficient
    k of f' is (k+1) * c_(k+1)."""
    return tuple([(k + 1) * c for k, c in enumerate(coeffs[1:])])


class Jet:
    """Normalized Taylor coefficients c_0..c_K of a scalar about one point."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[float]):
        cs = tuple(map(float, coeffs))
        if not cs:
            raise ValueError("a jet needs at least the order-0 coefficient")
        self.coeffs = cs

    @classmethod
    def _of(cls, coeffs: tuple[float, ...]) -> "Jet":
        """Wrap a float tuple the kernel produced, without re-coercing it."""
        jet = object.__new__(cls)
        jet.coeffs = coeffs
        return jet

    @classmethod
    def variable(cls, t0: float, order: int) -> "Jet":
        """Jet of the identity function at t0: [t0, 1, 0, ..., 0]."""
        if order < 0:
            raise ValueError("jet order must be >= 0")
        if order == 0:
            return cls((float(t0),))
        return cls((float(t0), 1.0) + (0.0,) * (order - 1))

    @classmethod
    def constant(cls, value: float, order: int) -> "Jet":
        if order < 0:
            raise ValueError("jet order must be >= 0")
        return cls((float(value),) + (0.0,) * order)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def value(self) -> float:
        return self.coeffs[0]

    def derivative(self, k: int) -> float:
        """k-th derivative at the expansion point, i.e. k! * c_k."""
        if k < 0:
            raise ValueError("derivative order must be >= 0")
        if k > self.order:
            raise OrderExceeded(f"derivative {k} of an order-{self.order} jet")
        return math.factorial(k) * self.coeffs[k]

    def d(self) -> "Jet":
        """Jet of the derivative function (one order lower)."""
        if self.order == 0:
            raise OrderExceeded("cannot differentiate an order-0 jet")
        return Jet._of(_derivative(self.coeffs))

    def truncated(self, order: int) -> "Jet":
        if order > self.order:
            raise OrderExceeded(f"cannot extend an order-{self.order} jet to {order}")
        if order == self.order:
            return self
        return Jet._of(self.coeffs[: order + 1])

    def is_finite(self) -> bool:
        return all(math.isfinite(c) for c in self.coeffs)

    def _coerced(self, other) -> "Jet":
        if isinstance(other, Jet):
            if len(other.coeffs) != len(self.coeffs):
                raise DimensionMismatch(
                    f"jet orders differ: {self.order} vs {other.order}"
                )
            return other
        if isinstance(other, (int, float)):
            return Jet.constant(other, self.order)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        o = self._coerced(other)
        if o is NotImplemented:
            return NotImplemented
        out = tuple([a + b for a, b in zip(self.coeffs, o.coeffs)])
        if not math.isfinite(sum(out)):
            raise NonFiniteJet("addition produced non-finite coefficients")
        return Jet._of(out)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerced(other)
        if o is NotImplemented:
            return NotImplemented
        out = tuple([a - b for a, b in zip(self.coeffs, o.coeffs)])
        if not math.isfinite(sum(out)):
            raise NonFiniteJet("subtraction produced non-finite coefficients")
        return Jet._of(out)

    def __rsub__(self, other):
        o = self._coerced(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __neg__(self):
        return Jet._of(tuple([-a for a in self.coeffs]))

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return self._scaled(float(other))
        o = self._coerced(other)
        if o is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        n = len(a)
        out = []
        tot = 0.0
        for k in range(n):
            s = 0.0
            for j in range(k + 1):
                s += a[j] * b[k - j]
            out.append(s)
            tot += s
        if not math.isfinite(tot):
            raise NonFiniteJet("multiplication produced non-finite coefficients")
        return Jet._of(tuple(out))

    __rmul__ = __mul__

    def _scaled(self, c: float) -> "Jet":
        # The product with Jet.constant(c) sums a[k] * c with exact zeros
        # from a 0.0 start; "+ 0.0" gives the same bits, signed zeros included.
        out = tuple([a * c + 0.0 for a in self.coeffs])
        if not math.isfinite(sum(out)):
            raise NonFiniteJet("multiplication produced non-finite coefficients")
        return Jet._of(out)

    def __truediv__(self, other):
        o = self._coerced(other)
        if o is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if abs(b[0]) < DIV_FLOOR:
            raise DivisionByZeroJet(f"denominator constant term {b[0]!r}")
        n = len(a)
        out: list[float] = []
        tot = 0.0
        for k in range(n):
            s = a[k]
            for j in range(k):
                s -= out[j] * b[k - j]
            s /= b[0]
            out.append(s)
            tot += s
        if not math.isfinite(tot):
            raise NonFiniteJet("division produced non-finite coefficients")
        return Jet._of(tuple(out))

    def __rtruediv__(self, other):
        o = self._coerced(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def __repr__(self):
        return f"Jet({list(self.coeffs)!r})"


# --- elementary functions -------------------------------------------------
#
# All recurrences below are the classic normalized-coefficient forms: with
# v = f(u), the identity u' * f'(u) = v' becomes a convolution between the
# shifted coefficient sequences.


def _pair_recurrence(u: Jet, f, g, sign: float, name: str) -> tuple[Jet, Jet]:
    """Jets of (f(u), g(u)) for f' = g and g' = sign * f: sin/cos with
    sign -1, sinh/cosh with sign +1.  A value of u outside the domain of f
    and g (an infinity under sin and cos) is a DomainError of ``name``."""
    uc = u.coeffs
    n = len(uc)
    s = [0.0] * n
    c = [0.0] * n
    try:
        s[0] = f(uc[0])
        c[0] = g(uc[0])
    except OverflowError:
        raise NonFiniteJet(f"{f.__name__}/{g.__name__} overflow at {uc[0]!r}") from None
    except ValueError:
        raise DomainError(name, uc[0]) from None
    for k in range(1, n):
        ss = 0.0
        cc = 0.0
        for j in range(1, k + 1):
            ss += j * uc[j] * c[k - j]
            cc += j * uc[j] * s[k - j]
        s[k] = ss / k
        c[k] = sign * cc / k
    return Jet._of(_finite(s)), Jet._of(_finite(c))


def _sin_cos(u: Jet, name: str = "sin") -> tuple[Jet, Jet]:
    """Jets of sin(u) and cos(u); ``name`` is the function a domain error
    names."""
    return _pair_recurrence(u, math.sin, math.cos, -1.0, name)


def jet_sin(u: Jet) -> Jet:
    return _sin_cos(u)[0]


def jet_cos(u: Jet) -> Jet:
    return _sin_cos(u, "cos")[1]


def jet_tan(u: Jet) -> Jet:
    try:
        near_pole = abs(math.cos(u.coeffs[0])) < 1e-12
    except ValueError:
        raise DomainError("tan", u.coeffs[0]) from None
    if near_pole:
        raise DomainError("tan", u.coeffs[0])
    s, c = _sin_cos(u)
    return s / c


def jet_exp(u: Jet) -> Jet:
    uc = u.coeffs
    n = len(uc)
    v = [0.0] * n
    try:
        v[0] = math.exp(uc[0])
    except OverflowError:
        raise NonFiniteJet(f"exp overflows at {uc[0]!r}") from None
    for k in range(1, n):
        s = 0.0
        for j in range(1, k + 1):
            s += j * uc[j] * v[k - j]
        v[k] = s / k
    return Jet._of(_finite(v))


def jet_log(u: Jet) -> Jet:
    uc = u.coeffs
    if uc[0] <= 0.0:
        raise DomainError("log", uc[0])
    n = len(uc)
    v = [0.0] * n
    v[0] = math.log(uc[0])
    for k in range(1, n):
        s = 0.0
        for j in range(1, k):
            s += j * v[j] * uc[k - j]
        v[k] = (uc[k] - s / k) / uc[0]
    return Jet._of(_finite(v))


def jet_sqrt(u: Jet) -> Jet:
    uc = u.coeffs
    if uc[0] <= 0.0:
        raise DomainError("sqrt", uc[0])
    n = len(uc)
    v = [0.0] * n
    v[0] = math.sqrt(uc[0])
    for k in range(1, n):
        s = 0.0
        for j in range(1, k):
            s += v[j] * v[k - j]
        v[k] = (uc[k] - s) / (2.0 * v[0])
    return Jet._of(_finite(v))


def _sinh_cosh(u: Jet) -> tuple[Jet, Jet]:
    return _pair_recurrence(u, math.sinh, math.cosh, 1.0, "sinh")


def jet_sinh(u: Jet) -> Jet:
    return _sinh_cosh(u)[0]


def jet_cosh(u: Jet) -> Jet:
    return _sinh_cosh(u)[1]


def jet_pow(u: Jet, r: float) -> Jet:
    """u**r.

    Integer exponents go through repeated multiplication (well-defined for
    negative bases, and for zero bases when r >= 0); a negative one whose
    power falls below ``DIV_FLOOR`` is a DomainError, as it is in floats.
    Fractional exponents require a positive constant term and reduce to
    exp(r*log(u)).
    """
    rf = float(r)
    if rf.is_integer():
        n = int(rf)
        if n == 0:
            return Jet.constant(1.0, u.order)
        p = _int_pow(u, abs(n))
        if n > 0:
            return p
        if abs(p.coeffs[0]) < DIV_FLOOR:
            raise DomainError("pow", u.coeffs[0])
        return Jet.constant(1.0, u.order) / p
    if u.coeffs[0] <= 0.0:
        raise DomainError("pow", u.coeffs[0])
    return jet_exp(jet_log(u) * rf)


def _int_pow(u: Jet, n: int) -> Jet:
    result = None
    base = u
    while n:
        if n & 1:
            result = base if result is None else result * base
        n >>= 1
        if n:
            base = base * base
    assert result is not None
    return result


JET_FUNCTIONS: dict[str, Callable[[Jet], Jet]] = {
    "sin": jet_sin,
    "cos": jet_cos,
    "tan": jet_tan,
    "exp": jet_exp,
    "log": jet_log,
    "sqrt": jet_sqrt,
    "sinh": jet_sinh,
    "cosh": jet_cosh,
}


# --- generated code ---------------------------------------------------------
#
# Straight-line code for kernels that run often on one shape of input: a
# generated factory, compiled once per shape, whose arguments carry what
# varies within the shape (numbers, spans, names), so no text of an input
# reaches the source.

# Compiled shapes kept, least recently used dropped first, as ``re`` keeps
# its patterns.
_CODE_CACHE_SIZE = 256


@lru_cache(maxsize=_CODE_CACHE_SIZE)
def _code(source_of, shape) -> CodeType:
    """The code of the factory that ``source_of(shape)`` defines."""
    (code,) = [c for c in compile(source_of(shape), "<generated>", "exec").co_consts
               if isinstance(c, CodeType)]
    return code


def _generated(source_of, shape, args, namespace: dict):
    """The function the factory of ``shape`` makes of ``args``, with the
    globals ``namespace``."""
    return FunctionType(_code(source_of, shape), namespace)(*args)


def _source(nargs: int, signature: str, lines) -> str:
    """A factory of the names k0, k1, ... (its ``nargs`` arguments) that
    returns ``def run(signature)`` running ``lines`` flat, one statement
    line each."""
    params = ", ".join(f"k{i}" for i in range(nargs))
    body = "".join(f"  {line}\n" for line in lines)
    return f"def make({params}):\n def run({signature}):\n{body} return run\n"


# --- order-1 pairs and vectors of them, order-2 triples ---------------------
#
# A pair (v, d) or a triple (v, d, e) holds the coefficients of an order-1 or
# order-2 jet as plain floats.  A vector of pairs travels as two float lists,
# its values and its slopes; a vector of triples as a sequence of triples.
# Each helper runs one operation on whole operands in one body: it takes the
# float steps of the kernel above at that order, in its operand order and
# with its "0.0 +" starts (which decide signed zeros), and meets the same
# finiteness tests in the order the jet operations meet them, so its results
# and errors are those of the Jet operations.  A finiteness test reads no
# sign of zero, so the totals it tests leave the kernel's "0.0 +" out.


def _pmul(a: tuple[float, float], b: tuple[float, float]) -> tuple[float, float]:
    """Product of two pairs, as ``Jet.__mul__`` at order 1."""
    a0, a1 = a
    b0, b1 = b
    v = 0.0 + a0 * b0
    d = (0.0 + a0 * b1) + a1 * b0
    if not math.isfinite(v + d):
        raise NonFiniteJet("multiplication produced non-finite coefficients")
    return v, d


def _padd(a: tuple[float, float], b: tuple[float, float]) -> tuple[float, float]:
    """Sum of two pairs, as ``Jet.__add__`` at order 1."""
    v = a[0] + b[0]
    d = a[1] + b[1]
    if not math.isfinite(v + d):
        raise NonFiniteJet("addition produced non-finite coefficients")
    return v, d


# Each vector step on pairs is written once, below, as the source lines of
# its float steps, finiteness tests and errors over names of floats: a vector
# of pairs is a list of value names and a list of slope names.  Generated
# code runs the lines (see _generated): one step on whole operands of one
# length in the helpers after them, and a whole Gram-Schmidt in one function
# in frenet.generalized_frenet.  Generated code reads the names isfinite,
# sqrt, NonFiniteJet and _zero_norm.


def _raise(what: str) -> str:
    return f"raise NonFiniteJet('{what} produced non-finite coefficients')"


def _all_finite(values, slopes) -> str:
    return " and ".join([f"isfinite({v} + {d})" for v, d in zip(values, slopes)])


def _dot_lines(out, a, b) -> list[str]:
    """The pair ``out`` := the dot of the vectors of pairs a and b, as
    ``a[0] * b[0] + a[1] * b[1] + ...`` on order-1 jets: products summed
    left to right, each product tested, then each running sum.  No product
    is -0.0, so the sum may start at the first product, whose test is that
    of the first sum."""
    (v, d), (av, ad), (bv, bd) = out, a, b
    lines = [] if av else [f"{v} = {d} = 0.0"]
    for i, (x, dx, y, dy) in enumerate(zip(av, ad, bv, bd)):
        pv, pd = (v, d) if i == 0 else ("pv", "pd")
        lines += [f"{pv} = 0.0 + {x} * {y}; {pd} = (0.0 + {x} * {dy}) + {dx} * {y}",
                  f"if not isfinite({pv} + {pd}): {_raise('multiplication')}"]
        if i:
            lines += [f"{v} = {v} + pv; {d} = {d} + pd",
                      f"if not isfinite({v} + {d}): {_raise('addition')}"]
    return lines


def _reject_lines(out, u, e, s) -> list[str]:
    """The vector ``out`` := u - e * s for vectors of pairs u, e and a pair
    s, as ``u[k] - e[k] * s`` on order-1 jets: every product is tested
    before any difference.  ``out`` may name u."""
    (ov, od), (uv, ud), (ev, ed), (s0, s1) = out, u, e, s
    gv = [f"g{i}" for i in range(len(ev))]
    gd = [f"h{i}" for i in range(len(ev))]
    return [*[f"{g} = 0.0 + {x} * {s0}; {h} = (0.0 + {x} * {s1}) + {y} * {s0}"
              for g, h, x, y in zip(gv, gd, ev, ed)],
            f"if not ({_all_finite(gv, gd)}): {_raise('multiplication')}",
            *[f"{q} = {x} - {g}; {r} = {y} - {h}"
              for q, r, x, y, g, h in zip(ov, od, uv, ud, gv, gd)],
            f"if not ({_all_finite(ov, od)}): {_raise('subtraction')}"]


def _unit_lines(out, u, sq) -> list[str]:
    """The vector ``out`` := u / |u| for a vector of pairs u whose dot with
    itself is the pair ``sq``, as u times ``Jet.constant(1.0, 1) / n`` for
    the order-1 norm n: the ``NORM_FLOOR`` test (:class:`ZeroNorm`),
    ``jet_sqrt``, the reciprocal (the floor keeps n far above
    ``DIV_FLOOR``), then the products."""
    (ov, od), (uv, ud), (s0, s1) = out, u, sq
    return [f"if {s0} < {NORM_FLOOR * NORM_FLOOR!r}: raise _zero_norm({s0})",
            f"n0 = sqrt({s0}); n1 = ({s1} - 0.0) / (2.0 * n0)",
            f"if not isfinite(n0 + n1): {_raise('operation')}",
            "r0 = 1.0 / n0; r1 = (0.0 - r0 * n1) / n0",
            f"if not isfinite(r0 + r1): {_raise('division')}",
            *[f"{v} = 0.0 + {x} * r0; {d} = (0.0 + {x} * r1) + {y} * r0"
              for v, d, x, y in zip(ov, od, uv, ud)],
            f"if not ({_all_finite(ov, od)}): {_raise('multiplication')}"]


# Component k of a cross product is a[i] * b[j] - a[j] * b[i].
_CROSS_INDICES = ((1, 2), (2, 0), (0, 1))


def _cross_lines(out, a, b) -> list[str]:
    """The vector ``out`` := the cross product of the 3-vectors of pairs a
    and b, as ``a2 * b3 - a3 * b2`` and its cyclic shifts on order-1 jets:
    per component, both products tested, then their difference."""
    (ov, od), (av, ad), (bv, bd) = out, a, b
    lines = []
    for v, d, (i, j) in zip(ov, od, _CROSS_INDICES):
        x, dx, y, dy = av[i], ad[i], bv[j], bd[j]
        lines += [f"pv = 0.0 + {x} * {y}; pd = (0.0 + {x} * {dy}) + {dx} * {y}",
                  f"if not isfinite(pv + pd): {_raise('multiplication')}"]
        x, dx, y, dy = av[j], ad[j], bv[i], bd[i]
        lines += [f"qv = 0.0 + {x} * {y}; qd = (0.0 + {x} * {dy}) + {dx} * {y}",
                  f"if not isfinite(qv + qd): {_raise('multiplication')}",
                  f"{v} = pv - qv; {d} = pd - qd",
                  f"if not isfinite({v} + {d}): {_raise('subtraction')}"]
    return lines


def _zero_norm(s0: float) -> ZeroNorm:
    return ZeroNorm(f"vector norm {math.sqrt(max(s0, 0.0)):.3e} below floor")


def _sum_from_zero(terms) -> str:
    """``terms`` added left to right to 0.0, as the kernel's loops and
    ``_fdot`` add them."""
    total = "0.0"
    for term in terms:
        total = f"({total} + {term})"
    return total


def _pair_step_source(key) -> str:
    """The source of one step on vectors of pairs of length n, a function
    of the operands' value and slope lists (and the pair s) returning the
    result as _pdot, _preject, _punit and _pcross do."""
    step, n = key

    def vector(name):
        return [f"{name}{i}" for i in range(n)], [f"{name}d{i}" for i in range(n)]

    a, b, out, s = vector("a"), vector("b"), vector("o"), ("s0", "s1")
    returned = f"[{', '.join(out[0])}], [{', '.join(out[1])}]"
    if step == "dot":
        signature, lines, returned = "av, ad, bv, bd", _dot_lines(s, a, b), "s0, s1"
    elif step == "reject":
        signature, lines = "av, ad, bv, bd, s", _reject_lines(out, a, b, s)
    elif step == "unit":
        signature, lines = "av, ad, s", _unit_lines(out, a, s)
    else:
        signature, lines = "av, ad, bv, bd", _cross_lines(out, a, b)
    names = {"av": a[0], "ad": a[1], "bv": b[0], "bd": b[1], "s": s}
    unpack = [f"{', '.join(names[param])}, = {param}"
              for param in signature.split(", ") if names[param]]
    return _source(0, signature, unpack + lines + [f"return {returned}"])


def _pair_step(step: str, n: int):
    """The generated function of one pair step on vectors of length n."""
    return _generated(_pair_step_source, (step, n), (), globals())


def _pdot(av: Sequence[float], ad: Sequence[float],
          bv: Sequence[float], bd: Sequence[float]) -> tuple[float, float]:
    """Dot of the vectors of pairs (av, ad) and (bv, bd), by ``_dot_lines``."""
    return _pair_step("dot", len(av))(av, ad, bv, bd)


def _preject(uv: Sequence[float], ud: Sequence[float], ev: Sequence[float],
             ed: Sequence[float], s: tuple[float, float]) -> tuple[list, list]:
    """u - e * s for vectors of pairs u, e and a pair s, by ``_reject_lines``."""
    return _pair_step("reject", len(uv))(uv, ud, ev, ed, s)


def _punit(uv: Sequence[float], ud: Sequence[float],
           sq: tuple[float, float]) -> tuple[list, list]:
    """u / |u| for a vector of pairs u whose dot with itself is ``sq``, by
    ``_unit_lines``."""
    return _pair_step("unit", len(uv))(uv, ud, sq)


def _pcross(av: Sequence[float], ad: Sequence[float],
            bv: Sequence[float], bd: Sequence[float]) -> tuple[list, list]:
    """Cross product of two 3-vectors of pairs, by ``_cross_lines``."""
    return _pair_step("cross", 3)(av, ad, bv, bd)


def _tunit(v: Sequence) -> tuple[tuple[float, float, float], tuple]:
    """Norm and unit vector of a vector of triples, as the norm ``n`` of
    order-2 jets and their products with ``Jet.constant(1.0, 2) / n`` take
    them: the dot summed left to right (each product tested, then each
    running sum, from 0.0 as in ``_pdot``), the norm floor (which keeps n
    far above ``DIV_FLOOR``), ``jet_sqrt``, the reciprocal, then the
    products."""
    isfinite = math.isfinite
    s0 = s1 = s2 = 0.0
    for a0, a1, a2 in v:
        pv = 0.0 + a0 * a0
        pd = (0.0 + a0 * a1) + a1 * a0
        pe = ((0.0 + a0 * a2) + a1 * a1) + a2 * a0
        if not isfinite(pv + pd + pe):
            raise NonFiniteJet("multiplication produced non-finite coefficients")
        s0 += pv
        s1 += pd
        s2 += pe
        if not isfinite(s0 + s1 + s2):
            raise NonFiniteJet("addition produced non-finite coefficients")
    if s0 < NORM_FLOOR * NORM_FLOOR:
        raise _zero_norm(s0)
    n0 = math.sqrt(s0)
    n1 = (s1 - 0.0) / (2.0 * n0)
    n2 = (s2 - (0.0 + n1 * n1)) / (2.0 * n0)
    if not isfinite(n0 + n1 + n2):
        raise NonFiniteJet("operation produced non-finite coefficients")
    r0 = 1.0 / n0
    r1 = (0.0 - r0 * n1) / n0
    r2 = ((0.0 - r0 * n2) - r1 * n1) / n0
    if not isfinite(r0 + r1 + r2):
        raise NonFiniteJet("division produced non-finite coefficients")
    unit = tuple([(0.0 + a0 * r0, (0.0 + a0 * r1) + a1 * r0,
                   ((0.0 + a0 * r2) + a1 * r1) + a2 * r0) for a0, a1, a2 in v])
    if not all([isfinite(x + y + z) for x, y, z in unit]):
        raise NonFiniteJet("multiplication produced non-finite coefficients")
    return (n0, n1, n2), unit


def _tcross(a: Sequence, b: Sequence) -> tuple:
    """Cross product of two 3-vectors of triples, as ``a2 * b3 - a3 * b2``
    and its cyclic shifts on order-2 jets: per component, both products
    tested, then their difference."""
    isfinite = math.isfinite
    out = []
    for i, j in _CROSS_INDICES:
        (x0, x1, x2), (y0, y1, y2) = a[i], b[j]
        p0 = 0.0 + x0 * y0
        p1 = (0.0 + x0 * y1) + x1 * y0
        p2 = ((0.0 + x0 * y2) + x1 * y1) + x2 * y0
        if not isfinite(p0 + p1 + p2):
            raise NonFiniteJet("multiplication produced non-finite coefficients")
        (x0, x1, x2), (y0, y1, y2) = a[j], b[i]
        q0 = 0.0 + x0 * y0
        q1 = (0.0 + x0 * y1) + x1 * y0
        q2 = ((0.0 + x0 * y2) + x1 * y1) + x2 * y0
        if not isfinite(q0 + q1 + q2):
            raise NonFiniteJet("multiplication produced non-finite coefficients")
        p0 -= q0
        p1 -= q1
        p2 -= q2
        if not isfinite(p0 + p1 + p2):
            raise NonFiniteJet("subtraction produced non-finite coefficients")
        out.append((p0, p1, p2))
    return tuple(out)


# --- plain-float helpers ----------------------------------------------------


def fnorm(v: Sequence[float]) -> float:
    """Euclidean norm of a plain float vector."""
    return math.sqrt(_fdot(v, v))


def _fdot(a: Sequence[float], b: Sequence[float]) -> float:
    """Dot product summed left to right from 0.0, as ``_pdot`` sums the
    values of its pairs; ``sum()`` would differ (Python 3.12 compensates
    it).  Its bits do not depend on the order of a and b."""
    s = 0.0
    for x, y in zip(a, b):
        s += x * y
    return s


def gram_defect(vectors: Sequence[Sequence[float]]) -> float:
    """Worst deviation of the vectors' Gram matrix from the identity.

    Only the upper triangle is read: the matrix is symmetric to the bit, and
    ``max`` from 0.0 skips NaN entries whatever order it meets them in."""
    worst = 0.0
    for i, a in enumerate(vectors):
        worst = max(worst, abs(_fdot(a, a) - 1.0))
        for b in vectors[i + 1:]:
            worst = max(worst, abs(_fdot(a, b)))
    return worst


def frame_residuals(dT, dN, dB, T, N, B, kappa: float, tau: float) -> tuple[float, float, float]:
    """Norms of dT/ds - kappa N, dN/ds + kappa T - tau B and dB/ds + tau N.

    The frame derivatives dT, dN, dB are taken in arc length.
    """
    r1 = fnorm([d - kappa * n for d, n in zip(dT, N)])
    r2 = fnorm([d + kappa * t - tau * b for d, t, b in zip(dN, T, B)])
    r3 = fnorm([d + tau * n for d, n in zip(dB, N)])
    return (r1, r2, r3)


# --- finite-difference oracle ------------------------------------------------

# Near-optimal plain central-difference steps at double precision.
FD_DEFAULT_STEP = {1: 1e-5, 2: 1e-4, 3: 1e-3}


def _central(f: Callable[[float], float], t0: float, k: int, h: float) -> float:
    if k == 1:
        return (f(t0 + h) - f(t0 - h)) / (2.0 * h)
    if k == 2:
        return (f(t0 + h) - 2.0 * f(t0) + f(t0 - h)) / (h * h)
    # k == 3
    return (f(t0 + 2 * h) - 2.0 * f(t0 + h) + 2.0 * f(t0 - h) - f(t0 - 2 * h)) / (
        2.0 * h * h * h
    )


def fd_oracle(
    f: Callable[[float], float], t0: float, k: int, h: float | None = None
) -> float:
    """Central-difference k-th derivative with one Richardson step.

    Combines the symmetric stencils at h and h/2; the h**2 error terms
    cancel, leaving an O(h**4) truncation error.  Independent of the jet
    code by construction: callers compare the two.
    """
    if type(k) is not int or k not in (1, 2, 3):
        raise ValueError("fd_oracle supports derivative orders 1..3")
    if h is None:
        h = FD_DEFAULT_STEP[k]
    # Nudge h so t0 + h is exactly representable relative to t0.  A step
    # below the float spacing at t0 would leave every stencil on t0.
    adjusted = (t0 + h) - t0
    if not (math.isfinite(adjusted) and t0 + adjusted / 2 != t0 and t0 - adjusted / 2 != t0):
        raise ValueError(f"fd_oracle step h={h!r} does not move t0={t0!r}")
    h = adjusted
    coarse = _central(f, t0, k, h)
    fine = _central(f, t0, k, h * 0.5)
    return (4.0 * fine - coarse) / 3.0
