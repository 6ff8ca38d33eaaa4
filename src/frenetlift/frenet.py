"""Frenet apparatus for parametric curves, in general (non-unit-speed) form.

All derivatives come from jet arithmetic; arc-length derivatives use the
chain rule d/ds = (1/speed) d/dt, so nothing here requires unit speed.  The
frame identities

    dT/ds = kappa N,   dN/ds = -kappa T + tau B,   dB/ds = -tau N

are measured as residual norms rather than assumed, and a generalized
Gram-Schmidt frame over successive derivatives provides an independent
second route to the same curvatures (it also serves curves in R^6).

Torsion is signed by the convention tau = -N . dB/ds; the triple-product
formula used for the direct computation agrees with it for the binormal
B = (beta' x beta'') / ||beta' x beta''||.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .expr import CurveSpec, eval_jet
from .jets import (
    DimensionMismatch,
    Jet,
    JetError,
    OrderExceeded,
    RankDeficient,
    VecJ,
    ZeroNorm,
    fnorm,
    frame_residuals,
)

__all__ = [
    "ToleranceConfig",
    "FrenetData",
    "FrameJets",
    "SpeedReport",
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
    "speed_check",
    "generalized_frenet",
]

# Torsion of a lifted curve needs 4th derivatives of the base curve plus one
# spare order for residual derivatives.
DEFAULT_ORDER = 5

SPEED_FLOOR = 1e-12


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
            if getattr(self, f.name) <= 0.0:
                raise ValueError(f"{f.name} must be positive")

    def replace(self, **kwargs) -> "ToleranceConfig":
        return dataclasses.replace(self, **kwargs)


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
    """Jet-valued Frenet frame along a curve, for downstream differentiation.

    T carries one more order than N and B (it needs only first derivatives
    of the curve); callers truncate to a common order as needed.
    """

    T: VecJ
    N: VecJ
    B: VecJ
    speed: Jet
    kappa: float
    tau: float


@dataclass(frozen=True)
class SpeedReport:
    max_deviation: float
    unit_speed: bool


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


def curve_point_jets(curve: CurveSpec, t: float, order: int = DEFAULT_ORDER) -> VecJ:
    """Jets of the three curve components at t."""
    if t < curve.t_min or t > curve.t_max:
        raise DomainIntervalError(t, curve.domain)
    tj = Jet.variable(t, order)
    comps = []
    for i, comp in enumerate(curve.components):
        try:
            comps.append(eval_jet(comp, {"t": tj}))
        except JetError as err:
            err.component = i
            err.t = t
            raise
    return VecJ(comps)


def frame_jets(pjets: VecJ, cfg: ToleranceConfig, t: float = math.nan) -> FrameJets:
    """Jet-valued frame from point jets of order >= 4.

    Orders: T at K-1, N and B at K-2, speed at K-1.
    """
    K = pjets.order
    if K < 4:
        raise OrderExceeded(f"frame computation needs point jets of order >= 4, got {K}")
    v1 = pjets.d()
    v2 = v1.d()
    v3 = v2.d()
    try:
        speed = v1.norm()
    except ZeroNorm:
        raise ZeroSpeed(t) from None
    T = v1.scale(Jet.constant(1.0, K - 1) / speed)
    c = v1.truncated(K - 2).cross(v2)
    cval = c.value()
    cn_val = fnorm(cval)
    kappa = cn_val / speed.value**3
    if kappa < cfg.kappa_floor or cn_val < SPEED_FLOOR:
        raise DegenerateCurvature(t, kappa, cfg.kappa_floor)
    cn = c.norm()
    B = c.scale(Jet.constant(1.0, K - 2) / cn)
    N = B.cross(T.truncated(K - 2))
    v3val = v3.value()
    tau = sum(a * b for a, b in zip(cval, v3val)) / (cn_val * cn_val)
    return FrameJets(T=T, N=N, B=B, speed=speed, kappa=kappa, tau=tau)


def frenet_apparatus(
    curve: CurveSpec,
    t: float,
    cfg: ToleranceConfig | None = None,
    order: int = DEFAULT_ORDER,
) -> FrenetData:
    """Frame, curvature, torsion and frame-identity residuals at t.

    General-parameter formulas: T = b'/||b'||, kappa = ||b' x b''||/||b'||^3,
    tau = (b' x b'') . b''' / ||b' x b''||^2, B = (b' x b'')/||b' x b''||,
    N = B x T.
    """
    cfg = cfg or ToleranceConfig()
    pjets = curve_point_jets(curve, t, order)
    fj = frame_jets(pjets, cfg, t)
    inv = 1.0 / fj.speed.value
    dT, dN, dB = ([d * inv for d in V.d().value()] for V in (fj.T, fj.N, fj.B))
    T, N, B = fj.T.value(), fj.N.value(), fj.B.value()
    return FrenetData(
        t=t,
        point=pjets.value(),
        speed=fj.speed.value,
        T=T,
        N=N,
        B=B,
        kappa=fj.kappa,
        tau=fj.tau,
        residuals=frame_residuals(dT, dN, dB, T, N, B, fj.kappa, fj.tau),
    )


def speed_check(
    curve: CurveSpec, grid, cfg: ToleranceConfig | None = None
) -> SpeedReport:
    """Max deviation of the speed from 1 over the grid."""
    cfg = cfg or ToleranceConfig()
    grid = list(grid)
    if not grid:
        raise ValueError("speed_check needs a nonempty grid")
    worst = 0.0
    for t in grid:
        v1 = curve_point_jets(curve, t, 1).d()
        worst = max(worst, abs(fnorm(v1.value()) - 1.0))
    return SpeedReport(max_deviation=worst, unit_speed=worst <= cfg.unit_speed_tol)


def generalized_frenet(
    pjets: VecJ, m: int = 3, rank_tol: float = 1e-9
) -> GeneralizedFrame:
    """Gram-Schmidt frame over (b', ..., b^(m)) in jet arithmetic.

    Needs point jets of order >= m + 1 so the frame can be differentiated
    once.  Raises :class:`RankDeficient` with the 0-based index of the first
    derivative that is (numerically) dependent on its predecessors.
    """
    if m < 2:
        raise ValueError("frame size m must be >= 2")
    if m > pjets.dim:
        raise DimensionMismatch(f"frame size {m} exceeds dimension {pjets.dim}")
    L = pjets.order - m
    if L < 1:
        raise OrderExceeded(
            f"point jets of order {pjets.order} cannot support a frame of size {m}"
        )
    derivs = []
    cur = pjets
    for _ in range(m):
        cur = cur.d()
        derivs.append(cur.truncated(L))
    speed_val = fnorm(derivs[0].value())
    if speed_val < SPEED_FLOOR:
        raise ZeroSpeed(math.nan)

    # In R^3 with a full frame the last vector comes from the cross product,
    # which orients the torsion sign; Gram-Schmidt alone would leave it >= 0.
    gs_count = 2 if (pjets.dim == 3 and m == 3) else m
    frame: list[VecJ] = []
    one = Jet.constant(1.0, L)
    for i in range(gs_count):
        u = derivs[i]
        for e in frame:
            u = u - e.scale(u.dot(e))
        res_sq = u.dot(u).value
        ref_sq = derivs[i].dot(derivs[i]).value
        if res_sq < rank_tol * rank_tol * max(1.0, ref_sq):
            raise RankDeficient(i)
        frame.append(u.scale(one / u.norm()))
    if gs_count < m:
        frame.append(frame[0].cross(frame[1]))

    matrix = tuple(
        tuple(
            frame[i].d().dot(frame[j].truncated(L - 1)).value / speed_val
            for j in range(m)
        )
        for i in range(m)
    )
    chis = tuple(matrix[i][i + 1] for i in range(m - 1))
    values = tuple(e.value() for e in frame)
    return GeneralizedFrame(frame=values, chis=chis, matrix=matrix)
