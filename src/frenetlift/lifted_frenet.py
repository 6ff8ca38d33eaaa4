"""Frames, curvature and torsion along lifted curves in R^6.

Frame vectors of the base curve lift pointwise the same way curves do:

    vertical:    V  ->  (0, V)
    complete:    V  ->  (V, dV/dt)
    horizontal:  V  ->  (V, -sum_{b,g} w^b G[a][b][g] V^g)   along the fiber w(t)

The lifted curvature and torsion follow the norm and pairing definitions
kappa = ||dT/ds||, tau = -N . dB/ds, with s the arc length of the lifted
curve itself: vertical and horizontal-flat lifts of unit-speed bases stay
unit speed, complete lifts generically do not, and arc-length derivatives
keep all three cases well-defined.  The frame identities are measured as
residual norms per grid point; an independent generalized Gram-Schmidt
apparatus of the lifted curve is computed alongside so the two routes can
be compared.  The constant-curvature hypothesis is reported as the spread
of kappa over the grid, never enforced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .expr import CurveSpec, eval_float
from .frenet import (
    DEFAULT_ORDER,
    FrameJets,
    ToleranceConfig,
    ZeroSpeed,
    curve_point_jets,
    frame_jets,
    generalized_frenet,
)
from .jets import Jet, RankDeficient, VecJ, ZeroNorm, fnorm, frame_residuals, gram_defect
from .lifts import Connection, LiftKind, lifted_point_jets, transport_grid

__all__ = [
    "LiftedCurve",
    "LiftedApparatus",
    "LiftReport",
]


@dataclass(frozen=True)
class LiftedApparatus:
    """Lifted frame data at one parameter value.

    ``ortho_max`` is the worst deviation of the lifted frame's Gram matrix
    from the identity; for complete lifts it is genuinely nonzero and is
    reported rather than enforced.
    """

    t: float
    point: tuple[float, ...]
    speed: float
    frame: tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...]]
    kappa_lift: float
    tau_lift: float
    ortho_max: float
    residuals: tuple[float, float, float]


@dataclass(frozen=True)
class LiftReport:
    """Grid sweep of a lifted curve: apparatus, residuals and oracle columns."""

    grid: tuple[float, ...]
    points: tuple[tuple[float, ...], ...]
    frames: tuple[tuple[tuple[float, ...], ...], ...]
    kappa_lift: tuple[float, ...]
    tau_lift: tuple[float, ...]
    frame_ortho_max: float
    theorem_residuals: tuple[tuple[float, float, float], ...]
    oracle_kappa: tuple[float, ...]
    oracle_tau: tuple[float, ...]
    max_discrepancy: float
    kappa_spread: float

    @property
    def max_residual(self) -> float:
        return max(max(r) for r in self.theorem_residuals)


class LiftedCurve:
    """A lifted curve with its frame, evaluable anywhere on the base domain."""

    def __init__(
        self,
        base: CurveSpec,
        kind: LiftKind,
        connection: Connection | None = None,
        cfg: ToleranceConfig | None = None,
        order: int = DEFAULT_ORDER,
    ):
        self.base = base
        self.kind = kind
        self.connection = connection or Connection.flat()
        self.cfg = cfg or ToleranceConfig()
        self.order = order
        if kind.kind == "vertical":
            if kind.anchor is not None:
                self.anchor = kind.anchor
            else:
                b = {"t": base.t_min}
                self.anchor = tuple(eval_float(c, b) for c in base.components)
        else:
            self.anchor = None

    @property
    def domain(self) -> tuple[float, float]:
        return self.base.domain

    def _fibers(self, ts) -> dict:
        """Fiber w(t) of a horizontal lift at each t (None for other kinds)."""
        if self.kind.kind != "horizontal":
            return dict.fromkeys(ts)
        if self.connection.is_flat:
            # Zero right-hand side: transport is exactly the identity.
            return dict.fromkeys(ts, self.kind.w0)
        return transport_grid(self.connection, self.base, self.kind.w0, ts)

    def point_jets(self, t: float) -> VecJ:
        pj = curve_point_jets(self.base, t, self.order)
        w = self._fibers([t])[t]
        return lifted_point_jets(pj, self.kind, self.connection, self.anchor, w)

    def frame(self, t: float):
        """The three lifted frame vectors as jet vectors sharing one order."""
        return self._analyze(t, self._fibers([t])[t]).lifted_frame

    def apparatus(self, t: float) -> LiftedApparatus:
        return self._analyze(t, self._fibers([t])[t]).apparatus

    def _analyze(self, t: float, w) -> "_PointAnalysis":
        pj = curve_point_jets(self.base, t, self.order)
        fj = frame_jets(pj, self.cfg, t)
        P = lifted_point_jets(pj, self.kind, self.connection, self.anchor, w)
        Tl, Nl, Bl = self._lift_frame(fj, P)
        try:
            speed = P.d().norm().value
        except ZeroNorm:
            raise ZeroSpeed(t) from None

        Tv, Nv, Bv = Tl.value(), Nl.value(), Bl.value()
        dT, dN, dB = ([c / speed for c in V.d().value()] for V in (Tl, Nl, Bl))
        kappa = fnorm(dT)
        tau = -sum(n * b for n, b in zip(Nv, dB))
        frame_vals = (Tv, Nv, Bv)
        app = LiftedApparatus(
            t=t,
            point=P.value(),
            speed=speed,
            frame=frame_vals,
            kappa_lift=kappa,
            tau_lift=tau,
            ortho_max=gram_defect(frame_vals),
            residuals=frame_residuals(dT, dN, dB, Tv, Nv, Bv, kappa, tau),
        )
        return _PointAnalysis(point_jets=P, lifted_frame=(Tl, Nl, Bl), apparatus=app)

    def _lift_frame(self, fj: FrameJets, P: VecJ):
        kind = self.kind.kind
        if kind == "vertical":
            q = fj.N.order
            zero = Jet.constant(0.0, q)
            return tuple(
                VecJ((zero, zero, zero) + V.truncated(q).entries)
                for V in (fj.T, fj.N, fj.B)
            )
        if kind == "complete":
            q = fj.N.order - 1
            return tuple(
                VecJ(V.truncated(q).entries + V.d().truncated(q).entries)
                for V in (fj.T, fj.N, fj.B)
            )
        # horizontal: use the fiber jets carried by the lifted point.
        q = fj.N.order
        wjets = [e.truncated(q) for e in P.entries[3:6]]
        out = []
        for V in (fj.T, fj.N, fj.B):
            v3 = V.truncated(q)
            fiber = [-u for u in self.connection.contract(wjets, v3.entries)]
            out.append(VecJ(v3.entries + tuple(fiber)))
        return tuple(out)

    def sweep(self, grid) -> LiftReport:
        """Apparatus, frame-identity residuals and oracle columns per point."""
        ts = [float(t) for t in grid]
        fibers = self._fibers(ts)
        points = []
        frames = []
        kappas = []
        taus = []
        residuals = []
        ok = []
        ot = []
        ortho_max = 0.0
        for t in ts:
            analysis = self._analyze(t, fibers[t])
            app = analysis.apparatus
            points.append(app.point)
            frames.append(app.frame)
            kappas.append(app.kappa_lift)
            taus.append(app.tau_lift)
            residuals.append(app.residuals)
            ortho_max = max(ortho_max, app.ortho_max)
            try:
                oracle = generalized_frenet(analysis.point_jets, 3)
                ok.append(oracle.chis[0])
                ot.append(oracle.chis[1])
            except RankDeficient:
                # The derivative flag of the lifted curve degenerates (planar
                # lifts, for instance); the direct apparatus still stands.
                ok.append(math.nan)
                ot.append(math.nan)
        gaps = [abs(a - b) for a, b in zip(kappas, ok) if not math.isnan(b)]
        max_disc = max(gaps) if gaps else math.nan
        return LiftReport(
            grid=tuple(ts),
            points=tuple(points),
            frames=tuple(frames),
            kappa_lift=tuple(kappas),
            tau_lift=tuple(taus),
            frame_ortho_max=ortho_max,
            theorem_residuals=tuple(residuals),
            oracle_kappa=tuple(ok),
            oracle_tau=tuple(ot),
            max_discrepancy=max_disc,
            kappa_spread=max(kappas) - min(kappas),
        )


@dataclass(frozen=True)
class _PointAnalysis:
    point_jets: VecJ
    lifted_frame: tuple[VecJ, VecJ, VecJ]
    apparatus: LiftedApparatus
