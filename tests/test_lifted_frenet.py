"""Lifted frames, lifted apparatus and the frame-identity residual reports."""

import math

import pytest

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


class TestLiftedFrame:
    def test_vertical_tangent(self):
        T, N, B = LiftedCurve(HELIX, LiftKind.vertical((0, 0, 0))).frame(0.0)
        assert T.value() == pytest.approx((0, 0, 0, 0, 0.6, 0.8), abs=1e-14)
        assert N.value() == pytest.approx((0, 0, 0, -1, 0, 0), abs=1e-14)

    def test_horizontal_flat_tangent(self):
        T, _, _ = LiftedCurve(HELIX, LiftKind.horizontal((1, 0, 0))).frame(0.0)
        assert T.value() == pytest.approx((0, 0.6, 0.8, 0, 0, 0), abs=1e-14)

    def test_complete_tangent_fiber_is_curvature_sized(self):
        T, _, _ = LiftedCurve(USH, LiftKind.complete()).frame(0.0)
        fiber = T.value()[3:]
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
        Tc = lc.frame(1.0)[0].value()
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


class TestTheoremResiduals:
    def test_vertical_sweep(self):
        report = LiftedCurve(USH, LiftKind.vertical()).sweep(grid(USH, 100))
        assert report.max_residual <= 1e-9
        assert report.frame_ortho_max <= 1e-12
        assert report.max_discrepancy <= 1e-9
        assert report.kappa_spread <= 1e-10
        for k, o in zip(report.kappa_lift, report.oracle_kappa):
            assert abs(k - o) <= 1e-9

    def test_horizontal_flat_sweep(self):
        report = LiftedCurve(HELIX, LiftKind.horizontal((0.3, -1.0, 2.0))).sweep(
            grid(HELIX, 100)
        )
        assert report.max_residual <= 1e-9
        assert report.max_discrepancy <= 1e-9

    def test_complete_sweep_reports_oracle(self):
        report = LiftedCurve(USH, LiftKind.complete()).sweep(grid(USH, 50))
        for o in report.oracle_kappa:
            assert o == pytest.approx(LIFTED_HELIX_KAPPA, abs=1e-9)
        for o in report.oracle_tau:
            assert o == pytest.approx(LIFTED_HELIX_TAU, abs=1e-9)
        # The residuals are measured, nonzero quantities here.
        assert report.max_residual > 1e-4
        assert report.max_discrepancy > 1e-4

    def test_anchor_independence(self):
        ts = grid(USH, 25)
        a = LiftedCurve(USH, LiftKind.vertical((0, 0, 0))).sweep(ts)
        b = LiftedCurve(USH, LiftKind.vertical((5, -2, 7))).sweep(ts)
        for x, y in zip(a.kappa_lift, b.kappa_lift):
            assert abs(x - y) <= 1e-12
        for x, y in zip(a.tau_lift, b.tau_lift):
            assert abs(x - y) <= 1e-12

    def test_w0_independence_flat(self):
        ts = grid(HELIX, 25)
        a = LiftedCurve(HELIX, LiftKind.horizontal((1, 0, 0))).sweep(ts)
        b = LiftedCurve(HELIX, LiftKind.horizontal((0, 2, -1))).sweep(ts)
        for x, y in zip(a.kappa_lift, b.kappa_lift):
            assert abs(x - y) <= 1e-12

    def test_planar_lift_oracle_degenerates_to_nan(self):
        report = LiftedCurve(CIRCLE, LiftKind.vertical()).sweep(grid(CIRCLE, 10))
        assert all(math.isnan(o) for o in report.oracle_kappa)
        assert math.isnan(report.max_discrepancy)
        for k in report.kappa_lift:
            assert k == pytest.approx(0.5, abs=1e-12)
        for t in report.tau_lift:
            assert t == pytest.approx(0.0, abs=1e-12)

    def test_horizontal_nonflat_sweep_runs(self):
        G = Connection.from_entries({(1, 1, 1): 0.2, (2, 3, 2): -0.1})
        report = LiftedCurve(HELIX, LiftKind.horizontal((1.0, 0.5, -0.5)), G).sweep(
            grid(HELIX, 20)
        )
        assert len(report.kappa_lift) == 20
        assert all(math.isfinite(k) for k in report.kappa_lift)

    @pytest.mark.parametrize("t", [0.0, 0.3, 1.7])
    def test_horizontal_nonflat_point_matches_sweep(self, t):
        # The single-point fiber comes from the same transport as the sweep,
        # so apparatus(t) equals the sweep row at t to the last bit.
        G = Connection.from_entries({(1, 1, 1): 0.2, (2, 3, 2): -0.1})
        lc = LiftedCurve(HELIX, LiftKind.horizontal((1.0, 0.5, -0.5)), G)
        report = lc.sweep([HELIX.t_min, t])
        app = lc.apparatus(t)
        assert app.point == report.points[-1]
        assert app.frame == report.frames[-1]
        assert (app.kappa_lift, app.tau_lift) == (report.kappa_lift[-1], report.tau_lift[-1])
        assert app.residuals == report.theorem_residuals[-1]
        assert lc.point_jets(t).value() == app.point

    def test_default_anchor_is_domain_start(self):
        lc = LiftedCurve(USH, LiftKind.vertical())
        assert lc.anchor == pytest.approx((3.0, 0.0, 0.0))
