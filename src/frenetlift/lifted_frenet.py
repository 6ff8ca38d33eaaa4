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
from itertools import repeat

from .expr import CurveSpec, _curve_jets, _to_float
from .frenet import (
    DEFAULT_ORDER,
    FrameJets,
    ToleranceConfig,
    ZeroSpeed,
    curve_point_jets,
    frame_jets,
    generalized_frenet,
)
from .jets import (
    NORM_FLOOR,
    JetError,
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
]


@dataclass(frozen=True)
class LiftedApparatus:
    """Lifted frame data at one parameter value.

    ``ortho_max`` is the worst deviation of the lifted frame's Gram matrix
    from the identity; for complete lifts it is genuinely nonzero and is
    reported rather than enforced.  ``oracle_kappa`` and ``oracle_tau`` are
    the generalized Gram-Schmidt curvatures of the lifted curve, NaN where
    its derivative flag degenerates (:class:`RankDeficient`; planar lifts,
    for instance) while the direct apparatus still stands.
    """

    t: float
    point: tuple[float, ...]
    speed: float
    frame: tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...]]
    kappa_lift: float
    tau_lift: float
    ortho_max: float
    residuals: tuple[float, float, float]
    oracle_kappa: float
    oracle_tau: float


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
                # Coefficient 0 of the point jets the sweep's first point
                # reads, so the anchor has their bits and errors.
                self.anchor = tuple(
                    c[0] for c in _curve_jets(base, base.t_min, DEFAULT_ORDER))
        else:
            self.anchor = None

    @property
    def domain(self) -> tuple[float, float]:
        return self.base.domain

    def _fibers(self, ts):
        """Fiber w(t) of a horizontal lift at each t of ts in turn (None for
        other kinds)."""
        if self.kind.kind != "horizontal":
            return repeat(None)
        if self.connection.is_flat:
            # Zero right-hand side: transport is exactly the identity.
            return repeat(self.kind.w0)
        return map(transport_grid(self.connection, self.base, self.kind.w0, ts).__getitem__, ts)

    def point_jets(self, t: float) -> tuple[tuple[float, ...], ...]:
        """Taylor coefficients of the lifted point in R^6 at t, one tuple per
        component.

        On a non-flat horizontal lift each call integrates the transport
        again from ``t_min``; for many points use :meth:`sweep`.
        """
        pj = curve_point_jets(self.base, t)
        w = next(self._fibers([t]))
        return lifted_point_jets(pj, self.kind, self.connection, self.anchor, w)

    def frame(self, t: float):
        """The three lifted frame vectors, each six (value, derivative in t)
        float pairs.

        On a non-flat horizontal lift each call integrates the transport
        again from ``t_min``; for many points use :meth:`sweep`.
        """
        return self._pairs(t, next(self._fibers([t])))[1]

    def apparatus(self, t: float) -> LiftedApparatus:
        """Point, frame, curvature, torsion, residuals and oracle
        curvatures of the lifted curve at t.

        On a non-flat horizontal lift each call integrates the transport
        again from ``t_min``; for many points use :meth:`sweep`.
        """
        return next(self.sweep([t]))

    def _pairs(self, t: float, w):
        """(lifted point jets, lifted frame pairs) at t on fiber w.  An error
        of the frame's lift leaves with ``t`` set, as those of the base
        point and frame do."""
        pj = curve_point_jets(self.base, t)
        fj = frame_jets(pj, self.cfg, t)
        P = lifted_point_jets(pj, self.kind, self.connection, self.anchor, w)
        try:
            return P, self._lift_pairs(fj, P)
        except JetError as err:
            err.t = t
            raise

    def _apparatus(self, t: float, w) -> LiftedApparatus:
        P, lifted = self._pairs(t, w)
        vel = [cs[1] for cs in P]
        speed_sq = _fdot(vel, vel)
        if speed_sq < NORM_FLOOR * NORM_FLOOR:
            raise ZeroSpeed(t)
        speed = math.sqrt(speed_sq)

        Tv, Nv, Bv = (tuple([p[0] for p in V]) for V in lifted)
        dT, dN, dB = ([p[1] / speed for p in V] for V in lifted)
        kappa, tau = fnorm(dT), -_fdot(Nv, dB)
        try:
            oracle = generalized_frenet(P, 3).chis
        except RankDeficient:
            oracle = (math.nan, math.nan)
        except JetError as err:
            err.t = t
            raise
        return LiftedApparatus(
            t=t,
            point=tuple([cs[0] for cs in P]),
            speed=speed,
            frame=(Tv, Nv, Bv),
            kappa_lift=kappa,
            tau_lift=tau,
            ortho_max=gram_defect((Tv, Nv, Bv)),
            residuals=frame_residuals(dT, dN, dB, Tv, Nv, Bv, kappa, tau),
            oracle_kappa=oracle[0],
            oracle_tau=oracle[1],
        )

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

    def sweep(self, grid):
        """One :class:`LiftedApparatus` per grid point, each computed when
        it is asked for.  A non-flat horizontal lift integrates its
        transport once, over the whole grid, before the first point."""
        ts = list(map(_to_float, grid))
        for t, w in zip(ts, self._fibers(ts)):
            yield self._apparatus(t, w)
