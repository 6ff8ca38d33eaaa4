"""Lifted frames, lifted apparatus and the frame-identity residual reports."""

import math

import pytest

from frenetlift import lifted_frenet
from frenetlift.frenet import ZeroSpeed, curve_point_jets, generalized_frenet
from frenetlift.jets import Jet
from frenetlift.lifts import Connection, LiftKind
from frenetlift.lifted_frenet import LiftedCurve
from frenetlift.verify import (
    LIFTED_HELIX_KAPPA,
    LIFTED_HELIX_TAU,
    builtin_curves,
    grid,
)

CURVES = builtin_curves()
HELIX = CURVES["helix345"]
USH = CURVES["unit_helix"]
CIRCLE = CURVES["circle2"]

KAPPA, TAU = 0.12, 0.16


def _values(pairs):
    return tuple(p[0] for p in pairs)


class TestLiftedFrame:
    def test_vertical_tangent(self):
        T, N, B = LiftedCurve(HELIX, LiftKind.vertical((0, 0, 0))).frame(0.0)
        assert _values(T) == pytest.approx((0, 0, 0, 0, 0.6, 0.8), abs=1e-14)
        assert _values(N) == pytest.approx((0, 0, 0, -1, 0, 0), abs=1e-14)

    def test_horizontal_flat_tangent(self):
        T, _, _ = LiftedCurve(HELIX, LiftKind.horizontal((1, 0, 0))).frame(0.0)
        assert _values(T) == pytest.approx((0, 0.6, 0.8, 0, 0, 0), abs=1e-14)

    def test_complete_tangent_fiber_is_curvature_sized(self):
        T, _, _ = LiftedCurve(USH, LiftKind.complete()).frame(0.0)
        fiber = _values(T)[3:]
        assert math.sqrt(sum(x * x for x in fiber)) == pytest.approx(KAPPA, abs=1e-12)


class TestLiftedApparatus:
    def test_vertical_reproduces_base(self):
        for t in grid(HELIX, 10):
            app = LiftedCurve(HELIX, LiftKind.vertical()).apparatus(t)
            assert app.kappa_lift == pytest.approx(KAPPA, abs=1e-12)
            assert app.tau_lift == pytest.approx(TAU, abs=1e-12)
            assert app.ortho_max <= 1e-12

    def test_horizontal_flat_reproduces_base(self):
        for t in grid(HELIX, 10):
            app = LiftedCurve(HELIX, LiftKind.horizontal((1, 0, 0))).apparatus(t)
            assert app.kappa_lift == pytest.approx(KAPPA, abs=1e-12)
            assert app.tau_lift == pytest.approx(TAU, abs=1e-12)

    def test_complete_frame_not_orthonormal(self):
        app = LiftedCurve(USH, LiftKind.complete()).apparatus(1.0)
        # ||T^c||^2 = 1 + kappa^2, reported rather than raised.
        assert app.ortho_max >= 0.01
        lc = LiftedCurve(USH, LiftKind.complete())
        Tc = _values(lc.frame(1.0)[0])
        assert sum(x * x for x in Tc) == pytest.approx(1.0 + KAPPA**2, abs=1e-12)

    def test_complete_apparatus_closed_form(self):
        # For a unit-speed base with constant kappa, tau:
        #   kappa_c = kappa sqrt(1 + kappa^2 + tau^2) / sqrt(1 + kappa^2)
        #   tau_c   = tau (1 + kappa^2 + tau^2) / sqrt(1 + kappa^2)
        s = 1.0 + KAPPA**2 + TAU**2
        r = math.sqrt(1.0 + KAPPA**2)
        app = LiftedCurve(USH, LiftKind.complete()).apparatus(2.0)
        assert app.kappa_lift == pytest.approx(KAPPA * math.sqrt(s) / r, abs=1e-12)
        assert app.tau_lift == pytest.approx(TAU * s / r, abs=1e-12)

    def test_lifted_speed(self):
        app = LiftedCurve(USH, LiftKind.complete()).apparatus(0.5)
        assert app.speed == pytest.approx(math.sqrt(1.0 + KAPPA**2), abs=1e-12)
        app_v = LiftedCurve(HELIX, LiftKind.vertical()).apparatus(0.5)
        assert app_v.speed == pytest.approx(5.0)


    @pytest.mark.parametrize("speed, stalls", [(0.9e-12, True), (1.1e-12, False)])
    def test_lifted_speed_floor(self, monkeypatch, speed, stalls):
        # A lifted curve is never slower than its base, so only substituted
        # point jets can creep below the floor while the base curve moves.
        def creeping(pj, *args):
            K = len(pj[0]) - 1
            jets = [Jet.variable(0.0, K) * speed] + [Jet.constant(1.0, K)] * 5
            return tuple(e.coeffs for e in jets)

        monkeypatch.setattr(lifted_frenet, "lifted_point_jets", creeping)
        lifted = LiftedCurve(USH, LiftKind.complete())
        if stalls:
            with pytest.raises(ZeroSpeed) as exc:
                lifted.apparatus(1.5)
            assert exc.value.t == 1.5
        else:
            assert lifted.apparatus(1.5).speed == pytest.approx(speed, rel=1e-15)


def _max_residual(records):
    return max(max(r.residuals) for r in records)


class TestTheoremResiduals:
    def test_vertical_sweep(self):
        records = list(LiftedCurve(USH, LiftKind.vertical()).sweep(grid(USH, 100)))
        assert _max_residual(records) <= 1e-9
        assert max(r.ortho_max for r in records) <= 1e-12
        kappas = [r.kappa_lift for r in records]
        assert max(kappas) - min(kappas) <= 1e-10
        for r in records:
            assert abs(r.kappa_lift - r.oracle_kappa) <= 1e-9

    def test_horizontal_flat_sweep(self):
        records = list(LiftedCurve(HELIX, LiftKind.horizontal((0.3, -1.0, 2.0))).sweep(
            grid(HELIX, 100)
        ))
        assert _max_residual(records) <= 1e-9
        for r in records:
            assert abs(r.kappa_lift - r.oracle_kappa) <= 1e-9

    def test_complete_sweep_reports_oracle(self):
        records = list(LiftedCurve(USH, LiftKind.complete()).sweep(grid(USH, 50)))
        for r in records:
            assert r.oracle_kappa == pytest.approx(LIFTED_HELIX_KAPPA, abs=1e-9)
            assert r.oracle_tau == pytest.approx(LIFTED_HELIX_TAU, abs=1e-9)
        # The residuals are measured, nonzero quantities here.
        assert _max_residual(records) > 1e-4
        assert max(abs(r.kappa_lift - r.oracle_kappa) for r in records) > 1e-4

    def test_anchor_independence(self):
        ts = grid(USH, 25)
        a = LiftedCurve(USH, LiftKind.vertical((0, 0, 0))).sweep(ts)
        b = LiftedCurve(USH, LiftKind.vertical((5, -2, 7))).sweep(ts)
        for x, y in zip(a, b):
            assert abs(x.kappa_lift - y.kappa_lift) <= 1e-12
            assert abs(x.tau_lift - y.tau_lift) <= 1e-12

    def test_w0_independence_flat(self):
        ts = grid(HELIX, 25)
        a = LiftedCurve(HELIX, LiftKind.horizontal((1, 0, 0))).sweep(ts)
        b = LiftedCurve(HELIX, LiftKind.horizontal((0, 2, -1))).sweep(ts)
        for x, y in zip(a, b):
            assert abs(x.kappa_lift - y.kappa_lift) <= 1e-12

    def test_planar_lift_oracle_degenerates_to_nan(self):
        for r in LiftedCurve(CIRCLE, LiftKind.vertical()).sweep(grid(CIRCLE, 10)):
            assert math.isnan(r.oracle_kappa) and math.isnan(r.oracle_tau)
            assert r.kappa_lift == pytest.approx(0.5, abs=1e-12)
            assert r.tau_lift == pytest.approx(0.0, abs=1e-12)

    def test_horizontal_nonflat_sweep_runs(self):
        G = Connection.from_entries({(1, 1, 1): 0.2, (2, 3, 2): -0.1})
        records = list(LiftedCurve(HELIX, LiftKind.horizontal((1.0, 0.5, -0.5)), G).sweep(
            grid(HELIX, 20)
        ))
        assert len(records) == 20
        assert all(math.isfinite(r.kappa_lift) for r in records)

    @pytest.mark.parametrize("t", [0.0, 0.3, 1.7])
    def test_horizontal_nonflat_point_matches_sweep(self, t):
        # The single-point fiber comes from the same transport as the sweep,
        # so apparatus(t) equals the sweep record at t to the last bit.
        G = Connection.from_entries({(1, 1, 1): 0.2, (2, 3, 2): -0.1})
        lc = LiftedCurve(HELIX, LiftKind.horizontal((1.0, 0.5, -0.5)), G)
        record = list(lc.sweep([HELIX.t_min, t]))[-1]
        app = lc.apparatus(t)
        assert app == record
        assert _values(lc.point_jets(t)) == app.point

    @pytest.mark.parametrize("kind", [LiftKind.vertical(), LiftKind.complete(),
                                      LiftKind.horizontal((1.0, 0.5, -0.5))],
                             ids=["v", "c", "h"])
    def test_oracle_fields_are_gram_schmidt_curvatures(self, kind):
        lc = LiftedCurve(HELIX, kind)
        for r in lc.sweep(grid(HELIX, 5)):
            chis = generalized_frenet(lc.point_jets(r.t), 3).chis
            assert (r.oracle_kappa, r.oracle_tau) == chis[:2]

    def test_sweep_computes_each_point_when_asked(self, monkeypatch):
        calls = []

        def counted(curve, t, *args):
            calls.append(t)
            return curve_point_jets(curve, t, *args)

        monkeypatch.setattr(lifted_frenet, "curve_point_jets", counted)
        records = LiftedCurve(USH, LiftKind.complete()).sweep(grid(USH, 1000))
        assert calls == []
        assert next(records).t == USH.t_min
        assert calls == [USH.t_min]

    def test_default_anchor_is_domain_start(self):
        lc = LiftedCurve(USH, LiftKind.vertical())
        assert lc.anchor == pytest.approx((3.0, 0.0, 0.0))
