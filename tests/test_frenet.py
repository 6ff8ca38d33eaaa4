"""Frenet apparatus, residuals, speed reports, generalized frames."""

import math
import struct

import pytest

from frenetlift.expr import CurveSpec
from frenetlift.frenet import (
    DegenerateCurvature,
    DomainIntervalError,
    ToleranceConfig,
    curve_point_jets,
    frenet_apparatus,
    generalized_frenet,
    speed_check,
    uniform_grid,
)
from frenetlift.jets import Jet, RankDeficient, VecJ, fd_oracle, fnorm
from frenetlift.lifts import Connection, LiftKind, lifted_point_jets
from frenetlift.verify import builtin_curves, grid, LIFTED_HELIX_KAPPA, LIFTED_HELIX_TAU

CURVES = builtin_curves()
HELIX = CURVES["helix345"]
USH = CURVES["unit_helix"]
CIRCLE = CURVES["circle2"]
LINE = CURVES["line"]
TORUS_KNOT = CurveSpec.from_strings(
    "(2 + 0.5*cos(3*t))*cos(2*t)", "(2 + 0.5*cos(3*t))*sin(2*t)", "0.5*sin(3*t)",
    0.0, 2.0 * math.pi, "torus_knot",
)


def embed_r6(pjets: VecJ) -> VecJ:
    zero = Jet.constant(0.0, pjets.order)
    return VecJ(pjets.entries + (zero, zero, zero))


class TestPointJets:
    def test_helix_values(self):
        pj = curve_point_jets(HELIX, 0.0, 2)
        assert pj.value() == pytest.approx((3, 0, 0))

    def test_helix_first_derivatives(self):
        pj = curve_point_jets(HELIX, 0.0, 2)
        assert pj.d().value() == pytest.approx((0, 3, 4))

    def test_out_of_domain(self):
        with pytest.raises(DomainIntervalError):
            curve_point_jets(HELIX, -0.5, 2)

    def test_evaluation_error_names_component(self):
        from frenetlift.jets import DomainError

        curve = CurveSpec.from_strings("t", "log(t)", "t", -1.0, 1.0)
        with pytest.raises(DomainError) as exc:
            curve_point_jets(curve, -0.5, 2)
        assert exc.value.component == 1


class TestApparatus:
    def test_helix_frame(self):
        app = frenet_apparatus(HELIX, 0.0)
        assert app.T == pytest.approx((0, 0.6, 0.8), abs=1e-14)
        assert app.N == pytest.approx((-1, 0, 0), abs=1e-14)
        assert app.B == pytest.approx((0, -0.8, 0.6), abs=1e-14)
        assert app.kappa == pytest.approx(0.12, abs=1e-14)
        assert app.tau == pytest.approx(0.16, abs=1e-14)
        assert app.speed == pytest.approx(5.0)

    def test_circle(self):
        app = frenet_apparatus(CIRCLE, 1.0)
        assert app.kappa == pytest.approx(0.5, abs=1e-13)
        assert app.tau == pytest.approx(0.0, abs=1e-13)

    def test_line_degenerates(self):
        with pytest.raises(DegenerateCurvature) as exc:
            frenet_apparatus(LINE, 0.5)
        assert "t=0.5" in str(exc.value)

    def test_frame_orthonormal(self):
        for t in grid(HELIX, 20):
            app = frenet_apparatus(HELIX, t)
            frame = (app.T, app.N, app.B)
            for i, a in enumerate(frame):
                for j, b in enumerate(frame):
                    want = 1.0 if i == j else 0.0
                    got = sum(x * y for x, y in zip(a, b))
                    assert abs(got - want) <= 1e-12

    def test_kappa_tau_constant_on_grid(self):
        for t in grid(HELIX, 50):
            app = frenet_apparatus(HELIX, t)
            assert abs(app.kappa - 0.12) <= 1e-12
            assert abs(app.tau - 0.16) <= 1e-12

    def test_fd_cross_check(self):
        # Derivative route fully independent of jets: plain float stencils.
        from frenetlift.expr import eval_float

        t0 = 1.234

        def comp(i):
            return lambda u: eval_float(HELIX.components[i], {"t": u})

        d1 = [fd_oracle(comp(i), t0, 1, 1e-5) for i in range(3)]
        d2 = [fd_oracle(comp(i), t0, 2, 1e-4) for i in range(3)]
        cross = (
            d1[1] * d2[2] - d1[2] * d2[1],
            d1[2] * d2[0] - d1[0] * d2[2],
            d1[0] * d2[1] - d1[1] * d2[0],
        )
        speed = math.sqrt(sum(x * x for x in d1))
        kappa_fd = math.sqrt(sum(x * x for x in cross)) / speed**3
        app = frenet_apparatus(HELIX, t0)
        assert abs(app.kappa - kappa_fd) <= 1e-6


class TestResiduals:
    @pytest.mark.parametrize("curve", [HELIX, USH, CIRCLE], ids=lambda c: c.name)
    def test_frame_identities(self, curve):
        for t in grid(curve, 100):
            assert max(frenet_apparatus(curve, t).residuals) <= 1e-10

    def test_residuals_in_apparatus(self):
        app = frenet_apparatus(HELIX, 0.3)
        assert app.residuals == frenet_apparatus(HELIX, 0.3).residuals


class TestSpeedCheck:
    def test_unit_speed_helix(self):
        report = speed_check(USH, grid(USH, 50))
        assert report.unit_speed
        assert report.max_deviation <= 1e-12

    def test_helix345_speed_five(self):
        report = speed_check(HELIX, grid(HELIX, 20))
        assert not report.unit_speed
        assert report.max_deviation == pytest.approx(4.0, abs=1e-12)

    def test_circle_speed_two(self):
        report = speed_check(CIRCLE, grid(CIRCLE, 20))
        assert report.max_deviation == pytest.approx(1.0, abs=1e-12)


class TestGeneralizedFrenet:
    def test_helix_embedded_in_r6(self):
        pj = embed_r6(curve_point_jets(HELIX, 0.7))
        gen = generalized_frenet(pj, 3)
        assert gen.chis[0] == pytest.approx(0.12, abs=1e-12)
        assert gen.chis[1] == pytest.approx(0.16, abs=1e-12)

    def test_line_in_r6_rank_deficient(self):
        pj = embed_r6(curve_point_jets(LINE, 0.5))
        with pytest.raises(RankDeficient) as exc:
            generalized_frenet(pj, 3)
        assert exc.value.index == 1

    def test_natural_lift_closed_form(self):
        # (beta, beta') of the unit-speed helix is a circular helix in R^6.
        pj = curve_point_jets(USH, 2.0)
        lifted = VecJ(pj.truncated(4).entries + pj.d().entries)
        gen = generalized_frenet(lifted, 3)
        assert gen.chis[0] == pytest.approx(LIFTED_HELIX_KAPPA, abs=1e-9)
        assert gen.chis[1] == pytest.approx(LIFTED_HELIX_TAU, abs=1e-9)

    def test_matches_apparatus_in_r3(self):
        for curve in (HELIX, USH, CIRCLE):
            for t in grid(curve, 25):
                app = frenet_apparatus(curve, t)
                gen = generalized_frenet(curve_point_jets(curve, t), 3)
                assert abs(gen.chis[0] - app.kappa) <= 1e-9
                assert abs(gen.chis[1] - app.tau) <= 1e-9

    def test_left_handed_helix_keeps_torsion_sign(self):
        left = CurveSpec.from_strings(
            "3*cos(t)", "3*sin(t)", "-4*t", 0.0, 2.0 * math.pi, "left_helix"
        )
        app = frenet_apparatus(left, 1.0)
        assert app.tau == pytest.approx(-0.16, abs=1e-13)
        gen = generalized_frenet(curve_point_jets(left, 1.0), 3)
        assert gen.chis[1] == pytest.approx(-0.16, abs=1e-12)

    def test_skew_symmetry_and_tridiagonal(self):
        for curve in (HELIX, USH):
            for t in grid(curve, 15):
                A = generalized_frenet(curve_point_jets(curve, t), 3).matrix
                for i in range(3):
                    for j in range(3):
                        assert abs(A[i][j] + A[j][i]) <= 1e-9
                assert abs(A[0][2]) <= 1e-9

    @pytest.mark.parametrize("kind", ["base", "v", "c", "h"])
    @pytest.mark.parametrize("curve", [HELIX, TORUS_KNOT], ids=["helix", "torus_knot"])
    def test_matrix_matches_full_order_jet_route(self, curve, kind):
        G = Connection.from_entries({(1, 2, 3): 0.3, (3, 2, 1): -0.3, (2, 1, 1): 0.2})
        lifts = {
            "v": (LiftKind.vertical((1.0, -2.0, 0.5)), (1.0, -2.0, 0.5), None),
            "c": (LiftKind.complete(), None, None),
            "h": (LiftKind.horizontal((1.0, -0.5, 0.75)), None, (0.9, -0.4, 0.8)),
        }
        for t in grid(curve, 9):
            pj = curve_point_jets(curve, t)
            if kind != "base":
                lk, anchor, w = lifts[kind]
                pj = lifted_point_jets(pj, lk, G, anchor, w)
            got = generalized_frenet(pj, 3).matrix
            want = _full_order_matrix(pj)
            assert [_bits(row) for row in got] == [_bits(row) for row in want]

    def test_frame_size_validation(self):
        pj = curve_point_jets(HELIX, 0.5, 3)
        with pytest.raises(Exception):
            generalized_frenet(pj, 4)


def _bits(values):
    return [struct.pack("<d", v) for v in values]


def _full_order_matrix(pjets: VecJ, m: int = 3):
    """(dE_i/ds) . E_j through jet products on frame jets of order L = K - m."""
    L = pjets.order - m
    derivs = []
    cur = pjets
    for _ in range(m):
        cur = cur.d()
        derivs.append(cur.truncated(L))
    speed = fnorm(derivs[0].value())
    frame = []
    for i in range(2):
        u = derivs[i]
        for e in frame:
            u = u - e.scale(u.dot(e))
        frame.append(u.scale(Jet.constant(1.0, L) / u.norm()))
    if pjets.dim == 3:
        frame.append(frame[0].cross(frame[1]))
    else:
        u = derivs[2]
        for e in frame:
            u = u - e.scale(u.dot(e))
        frame.append(u.scale(Jet.constant(1.0, L) / u.norm()))
    return tuple(
        tuple(frame[i].d().dot(frame[j].truncated(L - 1)).value / speed for j in range(m))
        for i in range(m)
    )


class TestUniformGrid:
    def test_endpoints_exact(self):
        # Accumulated steps can overshoot the top endpoint by one ulp; the
        # grid must pin both ends so closed-domain checks never trip.
        for n in (2, 3, 60, 119, 120, 1000):
            g = uniform_grid(USH.t_min, USH.t_max, n)
            assert g[0] == USH.t_min
            assert g[-1] == USH.t_max
            assert len(g) == n
            assert all(USH.t_min <= t <= USH.t_max for t in g)
            assert all(a < b for a, b in zip(g, g[1:]))

    def test_sweep_at_awkward_sample_count(self):
        for t in uniform_grid(USH.t_min, USH.t_max, 120):
            frenet_apparatus(USH, t)

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            uniform_grid(0.0, 1.0, 1)


class TestToleranceConfig:
    def test_defaults(self):
        cfg = ToleranceConfig()
        assert cfg.kappa_floor == 1e-9
        assert cfg.ortho_tol == 1e-12
        assert cfg.residual_tol == 1e-9
        assert cfg.unit_speed_tol == 1e-8

    def test_positive_required(self):
        with pytest.raises(ValueError):
            ToleranceConfig(kappa_floor=0.0)

    def test_replace(self):
        cfg = ToleranceConfig().replace(residual_tol=1e-16)
        assert cfg.residual_tol == 1e-16
        assert cfg.ortho_tol == 1e-12
