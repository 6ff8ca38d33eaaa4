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
Gram-Schmidt route on order-1 jets held as value and slope float lists.
Each vector step (dot, projection and difference, normalisation, cross
product) runs in one body of ``jets`` that repeats the jet kernel's float
steps and finiteness tests.  Taylor arithmetic is causal, so every
coefficient kept has the bits a full-order computation would give.

Torsion is signed by the convention tau = -N . dB/ds; the triple-product
formula used for the direct computation agrees with it for the binormal
B = (beta' x beta'') / ||beta' x beta''||.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Sequence

from .expr import CurveSpec, _curve_jets
from .jets import (
    NORM_FLOOR,
    DimensionMismatch,
    NonFiniteJet,
    OrderExceeded,
    RankDeficient,
    ZeroNorm,
    _fdot,
    _pcross,
    _pdot,
    _preject,
    _punit,
    _tcross,
    _tunit,
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

    ``matrix[i][j]`` is (dE_i/ds) . E_j; the curvatures are its first
    superdiagonal.  For dimension 3 with m = 3 the last frame vector is
    E1 x E2, which makes the second curvature the signed torsion; in
    dimension 6 the flag orientation leaves it nonnegative.
    """

    frame: tuple[tuple[float, ...], ...]
    chis: tuple[float, ...]
    matrix: tuple[tuple[float, ...], ...]


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

    The components compile into one jet program with shared
    subexpressions (``expr._Program``), so a subtree they share, or sin and
    cos of one argument, is evaluated once per point.  Bits and errors are
    those of one :func:`expr.eval_jet` per component.
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


def generalized_frenet(
    pjets: Sequence[Sequence[float]], m: int = 3, rank_tol: float = 1e-9
) -> GeneralizedFrame:
    """Gram-Schmidt frame over (b', ..., b^(m)) in order-1 jet arithmetic.

    Needs point jets (one coefficient tuple per component, in R^3 or R^6)
    of order >= m + 1 so the frame can be differentiated once.  The matrix
    reads only the value and first derivative of each frame vector, so
    coefficients 0 and 1 of each derivative are read straight from the
    point jets and the whole Gram-Schmidt runs on order-1 jets held as a
    value list and a slope list.  Each vector step (``jets._pdot``,
    ``_preject``, ``_punit``, ``_pcross``) runs in one body that repeats the
    float operations and finiteness tests of the order-1 jet kernel, and
    Taylor arithmetic is causal, so the results are the same bits the
    full-order jets would carry.  Raises :class:`RankDeficient` with the
    0-based index of the first derivative that is (numerically) dependent
    on its predecessors.
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
    # a[k] is k! c_k per component, by jets._derivative's products applied k
    # times: k * c_k first, then k - 1 and on down to 2 (a leading 1 * is
    # exact).  Derivative i has value a[i] and slope a[i + 1].
    a = [None, [cs[1] for cs in pjets]]
    for k in range(2, m + 2):
        col = [k * cs[k] for cs in pjets]
        for j in range(k - 1, 1, -1):
            col = [j * x for x in col]
        a.append(col)
    speed_val = fnorm(a[1])
    if speed_val < NORM_FLOOR:
        raise ZeroSpeed(math.nan)

    # In R^3 with a full frame the last vector comes from the cross product,
    # which orients the torsion sign; Gram-Schmidt alone would leave it >= 0.
    gs_count = 2 if (dim == 3 and m == 3) else m
    values: list[list[float]] = []
    slopes: list[list[float]] = []
    for i in range(gs_count):
        dv, dd = a[i + 1], a[i + 2]
        uv, ud = dv, dd
        for ev, ed in zip(values, slopes):
            uv, ud = _preject(uv, ud, ev, ed, _pdot(uv, ud, ev, ed))
        sq = _pdot(uv, ud, uv, ud)
        # The first residual is its derivative, whose dot is sq already.
        ref_sq = _pdot(dv, dd, dv, dd)[0] if i else sq[0]
        if sq[0] < rank_tol * rank_tol * max(1.0, ref_sq):
            raise RankDeficient(i)
        ev, ed = _punit(uv, ud, sq)
        values.append(ev)
        slopes.append(ed)
    if gs_count < m:
        ev, ed = _pcross(values[0], slopes[0], values[1], slopes[1])
        values.append(ev)
        slopes.append(ed)

    matrix = tuple([tuple([_fdot(s, v) / speed_val for v in values]) for s in slopes])
    chis = tuple([matrix[i][i + 1] for i in range(m - 1)])
    return GeneralizedFrame(frame=tuple([tuple(v) for v in values]), chis=chis, matrix=matrix)
