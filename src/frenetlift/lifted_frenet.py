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

from .expr import CurveSpec, _per_component, eval_float
from .frenet import (
    FrameJets,
    ToleranceConfig,
    ZeroSpeed,
    curve_point_jets,
    frame_jets,
    generalized_frenet,
)
from .jets import (
    NORM_FLOOR,
    RankDeficient,
    _fdot,
    _padd,
    _pmul,
    fnorm,
    frame_residuals,
    gram_defect,
)
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
    ):
        self.base = base
        self.kind = kind
        self.connection = connection or Connection.flat()
        self.cfg = cfg or ToleranceConfig()
        if kind.kind == "vertical":
            if kind.anchor is not None:
                self.anchor = kind.anchor
            else:
                b = {"t": base.t_min}
                self.anchor = tuple(
                    _per_component(base.components, base.t_min, lambda comp: eval_float(comp, b))
                )
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

    def point_jets(self, t: float) -> tuple[tuple[float, ...], ...]:
        """Taylor coefficients of the lifted point in R^6 at t, one tuple per
        component.

        On a non-flat horizontal lift each call integrates the transport
        again from ``t_min``; for many points use :meth:`sweep`.
        """
        pj = curve_point_jets(self.base, t)
        w = self._fibers([t])[t]
        return lifted_point_jets(pj, self.kind, self.connection, self.anchor, w)

    def frame(self, t: float):
        """The three lifted frame vectors, each six (value, derivative in t)
        float pairs.

        On a non-flat horizontal lift each call integrates the transport
        again from ``t_min``; for many points use :meth:`sweep`.
        """
        return self._analyze(t, self._fibers([t])[t])[1]

    def apparatus(self, t: float) -> LiftedApparatus:
        """Point, frame, curvature and torsion of the lifted curve at t.

        On a non-flat horizontal lift each call integrates the transport
        again from ``t_min``; for many points use :meth:`sweep`.
        """
        return self._analyze(t, self._fibers([t])[t])[2]

    def _analyze(self, t: float, w):
        """(lifted point jets, lifted frame pairs, apparatus) at t."""
        pj = curve_point_jets(self.base, t)
        fj = frame_jets(pj, self.cfg, t)
        P = lifted_point_jets(pj, self.kind, self.connection, self.anchor, w)
        lifted = self._lift_pairs(fj, P)
        vel = [cs[1] for cs in P]
        speed_sq = _fdot(vel, vel)
        if speed_sq < NORM_FLOOR * NORM_FLOOR:
            raise ZeroSpeed(t)
        speed = math.sqrt(speed_sq)

        Tv, Nv, Bv = (tuple([p[0] for p in V]) for V in lifted)
        dT, dN, dB = ([p[1] / speed for p in V] for V in lifted)
        kappa = fnorm(dT)
        tau = -_fdot(Nv, dB)
        frame_vals = (Tv, Nv, Bv)
        app = LiftedApparatus(
            t=t,
            point=tuple([cs[0] for cs in P]),
            speed=speed,
            frame=frame_vals,
            kappa_lift=kappa,
            tau_lift=tau,
            ortho_max=gram_defect(frame_vals),
            residuals=frame_residuals(dT, dN, dB, Tv, Nv, Bv, kappa, tau),
        )
        return P, lifted, app

    def _lift_pairs(self, fj: FrameJets, P):
        """The lifted T, N and B as six (value, slope) float pairs each, from
        the order-2 triples of the base frame, with the bits of the order-1
        jet operations.

        A flat connection contracts to ``-(0.0 * w * V)``, which for finite
        jets is always (-0.0, -0.0): the scaled and convolved coefficients
        sum from +0.0 before the negation.  Otherwise the fiber pairs of P
        contract with each frame vector as :meth:`Connection.contract` does
        on order-1 jets; -0.0 + x is x, so a row sums as contract sums it."""
        frame = [tuple([c[:2] for c in V]) for V in (fj.T, fj.N, fj.B)]
        kind = self.kind.kind
        if kind == "vertical":
            return tuple(((0.0, 0.0),) * 3 + V for V in frame)
        if kind == "complete":
            return tuple(
                V + tuple([(c[1], 2 * c[2]) for c in W])
                for V, W in zip(frame, (fj.T, fj.N, fj.B))
            )
        if self.connection.is_flat:
            return tuple(V + ((-0.0, -0.0),) * 3 for V in frame)
        w = [cs[:2] for cs in P[3:6]]
        out = []
        for V in frame:
            fiber = []
            for row in self.connection._terms:
                # A product with the pair (c, 0.0) has the bits of the jet
                # product with the float c (see Jet._scaled).
                acc = (-0.0, -0.0) if row else _pmul(_pmul(w[0], (0.0, 0.0)), V[0])
                for b, g, coeff in row:
                    acc = _padd(acc, _pmul(_pmul(w[b], V[g]), (coeff, 0.0)))
                fiber.append((-acc[0], -acc[1]))
            out.append(V + tuple(fiber))
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
            P, _, app = self._analyze(t, fibers[t])
            points.append(app.point)
            frames.append(app.frame)
            kappas.append(app.kappa_lift)
            taus.append(app.tau_lift)
            residuals.append(app.residuals)
            ortho_max = max(ortho_max, app.ortho_max)
            try:
                oracle = generalized_frenet(P, 3)
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
