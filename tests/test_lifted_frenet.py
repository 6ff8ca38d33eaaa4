"""Lifted frames, lifted apparatus and the frame-identity residual reports."""

import math

import pytest

from frenetlift import lifted_frenet
from frenetlift.expr import CurveSpec, parse_curve_file
from frenetlift.frenet import (
    ToleranceConfig,
    ZeroSpeed,
    curve_point_jets,
    frame_jets,
    generalized_frenet,
)
from frenetlift.jets import Jet, JetError
from frenetlift.lifts import Connection, LiftKind
from frenetlift.lifted_frenet import LiftedCurve
from frenetlift.verify import (
    LIFTED_HELIX_KAPPA,
    LIFTED_HELIX_TAU,
    builtin_curves,
    grid,
)

from golden_cases import CURVES as GOLDEN_CURVES

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

    def test_default_anchor_is_the_first_points_jet_value(self):
        # libm tan and pow differ from the jet kernel's sin/cos quotient and
        # exp(r log u) in the last bit at t_min = 0.7.
        curve = CurveSpec.from_strings("tan(t)", "t^2.5", "(1+t)^-3", 0.7, 1.4)
        anchor = LiftedCurve(curve, LiftKind.vertical()).anchor
        first = tuple(c[0] for c in curve_point_jets(curve, curve.t_min))
        assert tuple(map(float.hex, anchor)) == tuple(map(float.hex, first))

    def test_default_anchor_error_is_the_first_points(self):
        # eval_float takes sqrt(0.0); the order-5 jets at t = 0 do not.
        curve = CurveSpec.from_strings("t", "sqrt(t)", "1", 0.0, 1.0)
        with pytest.raises(JetError) as sweep:
            next(LiftedCurve(curve, LiftKind.complete()).sweep([0.0]))
        with pytest.raises(JetError) as anchor:
            LiftedCurve(curve, LiftKind.vertical())
        got, want = anchor.value, sweep.value
        assert (type(got), got.args, got.span, got.component, got.t) == \
            (type(want), want.args, want.span, want.component, want.t)


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


class TestLiftedFrenetFormulas:
    """The paper's lifted Frenet formulas along curves of non-constant
    speed v, in t.  With (vX)^v = v X^v and (vX)^c = v' X^v + v X^c, the
    complete lift turns T' = (v kappa) N, N' = -(v kappa) T + (v tau) B and
    B' = -(v tau) N into

        (T^c)' = (v kappa)' N^v + (v kappa) N^c
        (N^c)' = -(v kappa)' T^v - (v kappa) T^c + (v tau)' B^v + (v tau) B^c
        (B^c)' = -(v tau)' N^v - (v tau) N^c

    where V^v = (0, V) and V^c = (V, V').  The vertical and flat horizontal
    lifts keep the base formulas on the lifted frame.  (v kappa)' and
    (v tau)' come from the base frame's order-2 coefficients, the left
    sides from the slopes of :meth:`LiftedCurve.frame`."""

    CURVES = {name: parse_curve_file(GOLDEN_CURVES[name]) for name in ("torus", "poly")}

    @staticmethod
    def _rates(curve, t):
        """v kappa, v tau and their derivatives in t at t."""
        fj = frame_jets(curve_point_jets(curve, t), ToleranceConfig(), t)
        T, N, B = ([[c[k] for c in V] for k in range(3)] for V in (fj.T, fj.N, fj.B))
        v = fj.speed[0]
        return (v * fj.kappa, v * fj.tau,
                2 * _dot(T[2], N[0]) + _dot(T[1], N[1]), 2 * _dot(N[2], B[0]) + _dot(N[1], B[1]))

    @classmethod
    def _worst(cls, curve, kind, rhs):
        """The largest gap over the 19 interior points of a 21-point grid
        between the lifted frame's slopes and ``rhs`` of the rates and the
        lifted frame's values."""
        lc = LiftedCurve(curve, kind)
        worst = 0.0
        for i in range(1, 20):
            t = curve.t_min + (curve.t_max - curve.t_min) * i / 20
            frame = lc.frame(t)
            want = rhs(*cls._rates(curve, t), *map(_values, frame))
            for V, W in zip(frame, want):
                worst = max(worst, *(abs(p[1] - w) for p, w in zip(V, W)))
        return worst

    @pytest.mark.parametrize("name", CURVES)
    def test_complete_lift(self, name):
        # Measured: 3.1e-15, 5.7e-14, 4.3e-14 (torus knot) and 3.8e-15,
        # 4.4e-15, 1.8e-15 (poly) for T, N and B.
        def rhs(vk, vt, dvk, dvt, Tc, Nc, Bc):
            Tv, Nv, Bv = ((0.0,) * 3 + V[:3] for V in (Tc, Nc, Bc))
            return ([dvk * a + vk * b for a, b in zip(Nv, Nc)],
                    [-dvk * a - vk * b + dvt * c + vt * d
                     for a, b, c, d in zip(Tv, Tc, Bv, Bc)],
                    [-dvt * a - vt * b for a, b in zip(Nv, Nc)])

        assert self._worst(self.CURVES[name], LiftKind.complete(), rhs) <= 5e-13

    @pytest.mark.parametrize("kind", [LiftKind.vertical(), LiftKind.horizontal((1, -0.5, 0.75))],
                             ids=["vertical", "flat-horizontal"])
    @pytest.mark.parametrize("name", CURVES)
    def test_base_formulas_on_the_lifted_frame(self, name, kind):
        # Measured at most 5.3e-15 (torus knot, B) over both lifts.
        def rhs(vk, vt, dvk, dvt, T, N, B):
            return ([vk * b for b in N], [-vk * a + vt * b for a, b in zip(T, B)],
                    [-vt * b for b in N])

        assert self._worst(self.CURVES[name], kind, rhs) <= 5e-13
