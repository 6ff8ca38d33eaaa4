"""Frenet apparatus for parametric curves, in general (non-unit-speed) form.

All derivatives come from jet arithmetic; arc-length derivatives use the
chain rule d/ds = (1/speed) d/dt, so nothing here requires unit speed.  The
frame identities

    dT/ds = kappa N,   dN/ds = -kappa T + tau B,   dB/ds = -tau N

are measured as residual norms rather than assumed, and a generalized
Gram-Schmidt frame over successive derivatives provides an independent
second route to the same curvatures (it also serves curves in R^6).

Each route computes only the Taylor coefficients that are read, straight
from the point jets: the frame runs on order-2 float triples and the
Gram-Schmidt route on order-1 jets held as value and slope floats.  Each
vector step (dot, projection and difference, normalisation, cross
product) is one body of ``jets`` that repeats the jet kernel's float steps
and finiteness tests; the Gram-Schmidt runs its steps as one generated
function per dimension and frame size.  Taylor arithmetic is causal, so
every coefficient kept has the bits a full-order computation would give.

Torsion is signed by the convention tau = -N . dB/ds; the triple-product
formula used for the direct computation agrees with it for the binormal
B = (beta' x beta'') / ||beta' x beta''||.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from math import isfinite, sqrt  # noqa: F401  (read by generated code)
from typing import Sequence

from .expr import CurveSpec, _curve_jets
from .jets import (  # noqa: F401  (_zero_norm: read by generated code)
    NORM_FLOOR,
    DimensionMismatch,
    NonFiniteJet,
    OrderExceeded,
    RankDeficient,
    ZeroNorm,
    _cross_lines,
    _dot_lines,
    _fdot,
    _generated,
    _reject_lines,
    _source,
    _sum_from_zero,
    _tcross,
    _tunit,
    _unit_lines,
    _zero_norm,
    fnorm,
    frame_residuals,
)

__all__ = [
    "ToleranceConfig",
    "FrenetData",
    "FrameJets",
    "GeneralizedFrame",
    "GeometryError",
    "DomainIntervalError",
    "DegenerateCurvature",
    "ZeroSpeed",
    "DEFAULT_ORDER",
    "uniform_grid",
    "curve_point_jets",
    "frame_jets",
    "frenet_apparatus",
    "generalized_frenet",
]

# The complete lift's Gram-Schmidt oracle needs lifted point jets of order
# m + 1 = 4, and the complete lift loses one order (its fiber is the base
# velocity), so the base point jets need order 5.
DEFAULT_ORDER = 5


class GeometryError(ValueError):
    """Base class for geometric degeneracies."""


class DomainIntervalError(GeometryError):
    def __init__(self, t: float, domain: tuple[float, float]):
        self.t = t
        self.domain = domain
        super().__init__(f"t={t!r} outside curve domain [{domain[0]!r}, {domain[1]!r}]")


class DegenerateCurvature(GeometryError):
    """Curvature below the configured floor: N and B are undefined."""

    def __init__(self, t: float, kappa: float, floor: float):
        self.t = t
        self.kappa = kappa
        super().__init__(f"curvature {kappa:.3e} below floor {floor:.3e} at t={t!r}")


class ZeroSpeed(GeometryError):
    def __init__(self, t: float):
        self.t = t
        super().__init__(f"curve speed vanishes at t={t!r}")


@dataclass(frozen=True)
class ToleranceConfig:
    kappa_floor: float = 1e-9
    ortho_tol: float = 1e-12
    residual_tol: float = 1e-9
    unit_speed_tol: float = 1e-8

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not (0.0 < value < math.inf):
                raise ValueError(f"{f.name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class FrenetData:
    """Frenet apparatus and frame-identity residuals at one parameter value."""

    t: float
    point: tuple[float, ...]
    speed: float
    T: tuple[float, ...]
    N: tuple[float, ...]
    B: tuple[float, ...]
    kappa: float
    tau: float
    residuals: tuple[float, float, float]


@dataclass(frozen=True)
class FrameJets:
    """Frenet frame along a curve as order-2 Taylor coefficients (c0, c1, c2).

    T, N and B hold one float triple per component, the speed one triple.
    Callers read the value and the first derivative, and the complete lift
    one derivative more.
    """

    T: tuple[tuple[float, float, float], ...]
    N: tuple[tuple[float, float, float], ...]
    B: tuple[tuple[float, float, float], ...]
    speed: tuple[float, float, float]
    kappa: float
    tau: float


@dataclass(frozen=True)
class GeneralizedFrame:
    """Gram-Schmidt frame over successive derivatives, with its curvatures.

    ``frame`` holds the values of E_1..E_m and ``slopes`` their derivatives
    in t; ``speed`` is ||b'||.  ``matrix[i][j]`` is (dE_i/ds) . E_j, built
    from those on first read; the curvatures ``chis`` are its first
    superdiagonal, computed with the same float steps.  For dimension 3
    with m = 3 the last frame vector is E1 x E2, which makes the second
    curvature the signed torsion; in dimension 6 the flag orientation
    leaves it nonnegative.
    """

    frame: tuple[tuple[float, ...], ...]
    chis: tuple[float, ...]
    slopes: tuple[tuple[float, ...], ...]
    speed: float

    @functools.cached_property
    def matrix(self) -> tuple[tuple[float, ...], ...]:
        return tuple([tuple([_fdot(s, v) / self.speed for v in self.frame])
                      for s in self.slopes])


def uniform_grid(lo: float, hi: float, n: int) -> list[float]:
    """n uniformly spaced samples with both endpoints exact.

    The last point is pinned to hi rather than accumulated, so rounding can
    never push it outside a closed domain.
    """
    if n < 2:
        raise ValueError("a grid needs at least 2 samples")
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n - 1)] + [hi]


def curve_point_jets(
    curve: CurveSpec, t: float, order: int = DEFAULT_ORDER
) -> tuple[tuple[float, ...], ...]:
    """Taylor coefficients c_0..c_order of the three curve components at t,
    one tuple per component.

    The components run as one generated function over one step list with
    each distinct subexpression once (``expr._curve_source``), so a subtree
    they share, or sin and cos of one argument, is evaluated once per
    point.  Bits and errors are those of one :func:`expr.eval_jet` per
    component.
    """
    if not curve.t_min <= t <= curve.t_max:
        raise DomainIntervalError(t, curve.domain)
    return _curve_jets(curve, t, order)


def frame_jets(pjets: Sequence[Sequence[float]], cfg: ToleranceConfig, t: float) -> FrameJets:
    """Frame from point jets of order >= 4, as order-2 float triples.

    T, N, B and the speed come out as coefficients 0..2, the highest any
    caller reads (the complete lift differentiates a frame vector once more
    to order 1).  They are built from the first and second derivatives cut
    to order 2, read straight from the point jets, tau from the value of
    the third.  The unit vectors and cross products run on float triples,
    one body per vector step (``jets._tunit``, ``jets._tcross``), that
    repeat the order-2 jet kernel step for step, so each coefficient has
    the bits a full-order jet computation would give.  A
    :class:`NonFiniteJet` from that arithmetic leaves with ``t`` set, and a
    ``speed**3`` that overflows raises one whose message names t.
    """
    if len(pjets[0]) < 5:
        raise OrderExceeded(
            f"frame computation needs point jets of order >= 4, got {len(pjets[0]) - 1}")
    # Coefficients 0..2 of b' and b'', by jets._derivative's products
    # (a leading 1 * is exact); coefficient 1 of b'' is the third derivative.
    v1, v2 = [], []
    for cs in pjets:
        c1, c2, c3, c4 = cs[1:5]
        a2 = 2 * c2
        a3 = 3 * c3
        v1.append((c1, a2, a3))
        v2.append((a2, 2 * a3, 3 * (4 * c4)))
    try:
        try:
            speed, T = _tunit(v1)
        except ZeroNorm:
            raise ZeroSpeed(t) from None
        c = _tcross(v1, v2)
        cval = [x[0] for x in c]
        cn_val = fnorm(cval)
        kappa = cn_val / speed[0]**3
        if kappa < cfg.kappa_floor or cn_val < NORM_FLOOR:
            raise DegenerateCurvature(t, kappa, cfg.kappa_floor)
        B = _tunit(c)[1]
        N = _tcross(B, T)
    except NonFiniteJet as err:
        err.t = t
        raise
    except OverflowError:
        raise NonFiniteJet(f"curvature overflows at t={t!r}") from None
    tau = _fdot(cval, [x[1] for x in v2]) / (cn_val * cn_val)
    return FrameJets(T=T, N=N, B=B, speed=speed, kappa=kappa, tau=tau)


def frenet_apparatus(
    curve: CurveSpec, t: float, cfg: ToleranceConfig | None = None
) -> FrenetData:
    """Frame, curvature, torsion and frame-identity residuals at t.

    General-parameter formulas: T = b'/||b'||, kappa = ||b' x b''||/||b'||^3,
    tau = (b' x b'') . b''' / ||b' x b''||^2, B = (b' x b'')/||b' x b''||,
    N = B x T.
    """
    cfg = cfg or ToleranceConfig()
    pjets = curve_point_jets(curve, t)
    fj = frame_jets(pjets, cfg, t)
    inv = 1.0 / fj.speed[0]
    dT, dN, dB = ([c[1] * inv for c in V] for V in (fj.T, fj.N, fj.B))
    T, N, B = (tuple([c[0] for c in V]) for V in (fj.T, fj.N, fj.B))
    return FrenetData(
        t=t,
        point=tuple([cs[0] for cs in pjets]),
        speed=fj.speed[0],
        T=T,
        N=N,
        B=B,
        kappa=fj.kappa,
        tau=fj.tau,
        residuals=frame_residuals(dT, dN, dB, T, N, B, fj.kappa, fj.tau),
    )


# The generated Gram-Schmidt function of each (dimension, frame size) in use.
_GRAM_SCHMIDT: dict = {}


def generalized_frenet(
    pjets: Sequence[Sequence[float]], m: int = 3, rank_tol: float = 1e-9
) -> GeneralizedFrame:
    """Gram-Schmidt frame over (b', ..., b^(m)) in order-1 jet arithmetic.

    Needs point jets (one coefficient tuple per component, in R^3 or R^6)
    of order >= m + 1 so the frame can be differentiated once.  The
    curvatures take m - 1 dots here; the whole matrix is built only when
    ``.matrix`` is read.  Both read only the value and first derivative of
    each frame vector, so coefficients 0 and 1 of each derivative are read
    straight from the point jets and the whole Gram-Schmidt runs on
    order-1 jets held as values and slopes.  It runs as one generated
    function per dimension and m (:func:`_gram_schmidt_source`), built on
    first use, whose vector steps are the lines of ``jets._dot_lines``,
    ``_reject_lines``, ``_unit_lines`` and ``_cross_lines``: the float
    operations and finiteness tests of the order-1 jet kernel.  Taylor
    arithmetic is causal, so the results are the same bits the full-order
    jets would carry.  Raises :class:`RankDeficient` with the 0-based index
    of the first derivative that is (numerically) dependent on its
    predecessors.
    """
    if m < 2:
        raise ValueError("frame size m must be >= 2")
    dim, order = len(pjets), len(pjets[0]) - 1
    if m > dim:
        raise DimensionMismatch(f"frame size {m} exceeds dimension {dim}")
    if order - m < 1:
        raise OrderExceeded(
            f"point jets of order {order} cannot support a frame of size {m}"
        )
    run = _GRAM_SCHMIDT.get((dim, m))
    if run is None:
        run = _GRAM_SCHMIDT[dim, m] = _generated(_gram_schmidt_source, (dim, m), (), globals())
    frame, chis, slopes, speed = run(pjets, rank_tol)
    return GeneralizedFrame(frame=frame, chis=chis, slopes=slopes, speed=speed)


def _gram_schmidt_source(key) -> str:
    """The source of the Gram-Schmidt of ``generalized_frenet`` in dimension
    ``dim`` with frame size ``m``: a function of the point jets and
    ``rank_tol`` returning the frame values, chis, slopes and speed."""
    dim, m = key
    comps = range(dim)
    # a[k] holds the names of k! c_k per component, by jets._derivative's
    # products applied k times: k * c_k first, then k - 1 and on down to 2
    # (a leading 1 * is exact).  Derivative i has value a[i] and slope
    # a[i + 1].
    a = {k: [f"a{k}_{c}" for c in comps] for k in range(1, m + 2)}
    lines = [f"a1_{c} = pj[{c}][1]" for c in comps]
    for k in range(2, m + 2):
        for c in comps:
            product = f"{k} * pj[{c}][{k}]"
            for j in range(k - 1, 1, -1):
                product = f"{j} * ({product})"
            lines.append(f"a{k}_{c} = {product}")
    lines += [f"speed = sqrt({_sum_from_zero(f'{x} * {x}' for x in a[1])})",
              f"if speed < {NORM_FLOOR!r}: raise ZeroSpeed(math.nan)"]

    # In R^3 with a full frame the last vector comes from the cross product,
    # which orients the torsion sign; Gram-Schmidt alone would leave it >= 0.
    gs_count = 2 if (dim == 3 and m == 3) else m
    frame = []
    for i in range(gs_count):
        d = u = (a[i + 1], a[i + 2])
        for e in frame:
            lines += _dot_lines(("sv", "sd"), u, e)
            u, old = ([f"u{c}" for c in comps], [f"w{c}" for c in comps]), u
            lines += _reject_lines(u, old, e, ("sv", "sd"))
        lines += _dot_lines(("sq0", "sq1"), u, u)
        if i:
            lines += _dot_lines(("rv", "rd"), d, d)
        # The first residual is its derivative, whose dot is sq0 already.
        ref = "rv" if i else "sq0"
        lines.append(f"if sq0 < rank_tol * rank_tol * max(1.0, {ref}): raise RankDeficient({i})")
        frame.append(([f"e{i}_{c}" for c in comps], [f"f{i}_{c}" for c in comps]))
        lines += _unit_lines(frame[-1], u, ("sq0", "sq1"))
    if gs_count < m:
        frame.append((["e2_0", "e2_1", "e2_2"], ["f2_0", "f2_1", "f2_2"]))
        lines += _cross_lines(frame[-1], frame[0], frame[1])

    def vectors(names) -> str:
        return "(" + "".join(f"({', '.join(v)}), " for v in names) + ")"

    chis = [f"{_sum_from_zero(f'{x} * {y}' for x, y in zip(frame[i][1], frame[i + 1][0]))} / speed"
            for i in range(m - 1)]
    lines.append(f"return {vectors(v for v, _ in frame)}, ({', '.join(chis)},), "
                 f"{vectors(d for _, d in frame)}, speed")
    return _source(0, "pj, rank_tol", lines)
