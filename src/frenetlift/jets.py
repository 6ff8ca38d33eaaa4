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
triples below, which repeat the kernel's float steps.  :func:`fd_oracle`
is a finite-difference estimator with one Richardson extrapolation step, kept
deliberately independent of the jet code path so the two can cross-check
each other.
"""

from __future__ import annotations

import math
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
        cs = tuple(float(c) for c in coeffs)
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


def _pair_recurrence(u: Jet, f, g, sign: float) -> tuple[Jet, Jet]:
    """Jets of (f(u), g(u)) for f' = g and g' = sign * f: sin/cos with
    sign -1, sinh/cosh with sign +1."""
    uc = u.coeffs
    n = len(uc)
    s = [0.0] * n
    c = [0.0] * n
    try:
        s[0] = f(uc[0])
        c[0] = g(uc[0])
    except OverflowError:
        raise NonFiniteJet(f"{f.__name__}/{g.__name__} overflow at {uc[0]!r}") from None
    for k in range(1, n):
        ss = 0.0
        cc = 0.0
        for j in range(1, k + 1):
            ss += j * uc[j] * c[k - j]
            cc += j * uc[j] * s[k - j]
        s[k] = ss / k
        c[k] = sign * cc / k
    return Jet._of(_finite(s)), Jet._of(_finite(c))


def _sin_cos(u: Jet) -> tuple[Jet, Jet]:
    return _pair_recurrence(u, math.sin, math.cos, -1.0)


def jet_sin(u: Jet) -> Jet:
    return _sin_cos(u)[0]


def jet_cos(u: Jet) -> Jet:
    return _sin_cos(u)[1]


def jet_tan(u: Jet) -> Jet:
    if abs(math.cos(u.coeffs[0])) < 1e-12:
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
    return _pair_recurrence(u, math.sinh, math.cosh, 1.0)


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


# --- order-1 pairs and order-2 triples ----------------------------------------
#
# A pair (v, d) or a triple (v, d, e) holds the coefficients of an order-1 or
# order-2 jet as plain floats.  Each helper takes the float steps of the
# kernel above at that order, in its operand order, and meets the same
# finiteness test, so its results are the bits the Jet operations would give.


def _pmul(a: tuple[float, float], b: tuple[float, float]) -> tuple[float, float]:
    """Product of two pairs, as ``Jet.__mul__`` at order 1."""
    a0, a1 = a
    b0, b1 = b
    v = 0.0 + a0 * b0
    d = (0.0 + a0 * b1) + a1 * b0
    if not math.isfinite(v + d):
        raise NonFiniteJet("multiplication produced non-finite coefficients")
    return v, d


def _psub(a: tuple[float, float], b: tuple[float, float]) -> tuple[float, float]:
    """Difference of two pairs, as ``Jet.__sub__`` at order 1."""
    v = a[0] - b[0]
    d = a[1] - b[1]
    if not math.isfinite(v + d):
        raise NonFiniteJet("subtraction produced non-finite coefficients")
    return v, d


def _padd(a: tuple[float, float], b: tuple[float, float]) -> tuple[float, float]:
    """Sum of two pairs, as ``Jet.__add__`` at order 1."""
    v = a[0] + b[0]
    d = a[1] + b[1]
    if not math.isfinite(v + d):
        raise NonFiniteJet("addition produced non-finite coefficients")
    return v, d


def _pdot(
    a: Sequence[tuple[float, float]], b: Sequence[tuple[float, float]]
) -> tuple[float, float]:
    """Dot of two vectors of pairs, as ``a[0] * b[0] + a[1] * b[1] + ...``
    on order-1 jets: products summed left to right, each product and each
    sum tested."""
    v, d = _pmul(a[0], b[0])
    for x, y in zip(a[1:], b[1:]):
        pv, pd = _pmul(x, y)
        v += pv
        d += pd
        if not math.isfinite(v + d):
            raise NonFiniteJet("addition produced non-finite coefficients")
    return v, d


def _pnorm(sq: tuple[float, float]) -> tuple[float, float]:
    """Norm of a vector from the pair of its dot with itself: the
    ``NORM_FLOOR`` test (:class:`ZeroNorm`), then ``jet_sqrt`` at order 1."""
    s0, s1 = sq
    if s0 < NORM_FLOOR * NORM_FLOOR:
        raise ZeroNorm(f"vector norm {math.sqrt(max(s0, 0.0)):.3e} below floor")
    v = math.sqrt(s0)
    d = (s1 - 0.0) / (2.0 * v)
    if not math.isfinite(v + d):
        raise NonFiniteJet("operation produced non-finite coefficients")
    return v, d


def _pdiv(a: tuple[float, float], b: tuple[float, float]) -> tuple[float, float]:
    """Quotient of two pairs, as ``Jet.__truediv__`` at order 1."""
    a0, a1 = a
    b0, b1 = b
    if abs(b0) < DIV_FLOOR:
        raise DivisionByZeroJet(f"denominator constant term {b0!r}")
    v = a0 / b0
    d = (a1 - v * b1) / b0
    if not math.isfinite(v + d):
        raise NonFiniteJet("division produced non-finite coefficients")
    return v, d


def _tmul(a: Sequence[float], b: Sequence[float]) -> tuple[float, float, float]:
    """Product of two triples, as ``Jet.__mul__`` at order 2."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    v = 0.0 + a0 * b0
    d = (0.0 + a0 * b1) + a1 * b0
    e = ((0.0 + a0 * b2) + a1 * b1) + a2 * b0
    if not math.isfinite(((0.0 + v) + d) + e):
        raise NonFiniteJet("multiplication produced non-finite coefficients")
    return v, d, e


def _tsub(a: Sequence[float], b: Sequence[float]) -> tuple[float, float, float]:
    """Difference of two triples, as ``Jet.__sub__`` at order 2."""
    out = (a[0] - b[0], a[1] - b[1], a[2] - b[2])
    if not math.isfinite(out[0] + out[1] + out[2]):
        raise NonFiniteJet("subtraction produced non-finite coefficients")
    return out


def _tunit(v: Sequence) -> tuple[tuple[float, float, float], tuple]:
    """Norm and unit vector of a vector of triples, as the norm ``n`` of
    order-2 jets and their products with ``Jet.constant(1.0, 2) / n`` take
    them: the dot summed left to right, the norm floor (which keeps n far
    above ``DIV_FLOOR``), ``jet_sqrt``, the reciprocal, then the products."""
    s0, s1, s2 = _tmul(v[0], v[0])
    for x in v[1:]:
        pv, pd, pe = _tmul(x, x)
        s0 += pv
        s1 += pd
        s2 += pe
        if not math.isfinite(s0 + s1 + s2):
            raise NonFiniteJet("addition produced non-finite coefficients")
    if s0 < NORM_FLOOR * NORM_FLOOR:
        raise ZeroNorm(f"vector norm {math.sqrt(max(s0, 0.0)):.3e} below floor")
    n0 = math.sqrt(s0)
    n1 = (s1 - 0.0) / (2.0 * n0)
    n2 = (s2 - (0.0 + n1 * n1)) / (2.0 * n0)
    if not math.isfinite(n0 + n1 + n2):
        raise NonFiniteJet("operation produced non-finite coefficients")
    r0 = 1.0 / n0
    r1 = (0.0 - r0 * n1) / n0
    r2 = ((0.0 - r0 * n2) - r1 * n1) / n0
    if not math.isfinite(((0.0 + r0) + r1) + r2):
        raise NonFiniteJet("division produced non-finite coefficients")
    return (n0, n1, n2), tuple([_tmul(x, (r0, r1, r2)) for x in v])


def _cross(a: Sequence, b: Sequence, mul, sub) -> tuple:
    """Cross product of two 3-vectors of pairs (``_pmul``, ``_psub``) or
    triples (``_tmul``, ``_tsub``): ``a2 * b3 - a3 * b2`` and its cyclic
    shifts on jets."""
    (a1, a2, a3), (b1, b2, b3) = a, b
    return (sub(mul(a2, b3), mul(a3, b2)), sub(mul(a3, b1), mul(a1, b3)),
            sub(mul(a1, b2), mul(a2, b1)))


# --- plain-float helpers ----------------------------------------------------


def fnorm(v: Sequence[float]) -> float:
    """Euclidean norm of a plain float vector."""
    return math.sqrt(_fdot(v, v))


def _fdot(a: Sequence[float], b: Sequence[float]) -> float:
    """Dot product summed left to right from 0.0, as ``_pdot`` sums the
    values of its pairs; ``sum()`` would differ (Python 3.12 compensates
    it)."""
    s = 0.0
    for x, y in zip(a, b):
        s += x * y
    return s


def gram_defect(vectors: Sequence[Sequence[float]]) -> float:
    """Worst deviation of the vectors' Gram matrix from the identity."""
    worst = 0.0
    for i, a in enumerate(vectors):
        for j, b in enumerate(vectors):
            worst = max(worst, abs(_fdot(a, b) - (1.0 if i == j else 0.0)))
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
    if k not in (1, 2, 3):
        raise ValueError("fd_oracle supports derivative orders 1..3")
    if h is None:
        h = FD_DEFAULT_STEP[k]
    # Nudge h so t0 + h is exactly representable relative to t0.
    adjusted = (t0 + h) - t0
    if adjusted != 0.0:
        h = adjusted
    coarse = _central(f, t0, k, h)
    fine = _central(f, t0, k, h * 0.5)
    return (4.0 * fine - coarse) / 3.0
