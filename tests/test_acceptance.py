"""Acceptance criteria, one test per criterion, each at its stated tolerance.

Every test prints a single PASS/FAIL line with the measured value (visible
with ``pytest tests/test_acceptance.py -s``); the ``frenetlift verify``
subcommand prints the same underlying invariant suite.
"""

import math
import random

from frenetlift.cli import EXIT_DEGENERATE, main
from frenetlift.expr import eval_float, parse_expr, pretty_print
from frenetlift.frenet import (
    curve_point_jets,
    frenet_apparatus,
    generalized_frenet,
)
from frenetlift.jets import fd_oracle
from frenetlift.lifts import Connection, LiftKind, parallel_transport, prop21_check
from frenetlift.lifted_frenet import LiftedCurve
from frenetlift.verify import (
    LIFTED_HELIX_KAPPA,
    LIFTED_HELIX_TAU,
    builtin_curves,
    grid,
    random_ast,
    random_connection,
    random_expression_sample,
    random_quadruple,
    random_tangent_point,
)

CURVES = builtin_curves()
HELIX = CURVES["helix345"]
USH = CURVES["unit_helix"]
CIRCLE = CURVES["circle2"]

LINE_FILE = "name = line\nx1 = t\nx2 = 2*t\nx3 = 2*t\nt_min = 0\nt_max = 1\n"
HELIX_FILE = (
    "name = helix345\nx1 = 3*cos(t)\nx2 = 3*sin(t)\nx3 = 4*t\n"
    "t_min = 0\nt_max = 6.283185307\n"
)


def report(num, name, ok, detail):
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def test_criterion_1_helix_apparatus():
    worst = 0.0
    for t in grid(HELIX, 1000):
        app = frenet_apparatus(HELIX, t)
        worst = max(worst, abs(app.kappa - 0.12), abs(app.tau - 0.16))
    # Independent cross-check: curvature and torsion from plain-float
    # finite-difference derivatives of the component expressions.
    worst_fd = 0.0
    for t0 in grid(HELIX, 10)[1:-1]:
        d = [
            [fd_oracle(lambda u, i=i: eval_float(HELIX.components[i], {"t": u}), t0, k, h)
             for i in range(3)]
            for k, h in ((1, 1e-5), (2, 1e-4), (3, 1e-3))
        ]
        c = (
            d[0][1] * d[1][2] - d[0][2] * d[1][1],
            d[0][2] * d[1][0] - d[0][0] * d[1][2],
            d[0][0] * d[1][1] - d[0][1] * d[1][0],
        )
        speed = math.sqrt(sum(x * x for x in d[0]))
        cn2 = sum(x * x for x in c)
        kappa_fd = math.sqrt(cn2) / speed**3
        tau_fd = sum(a * b for a, b in zip(c, d[2])) / cn2
        worst_fd = max(worst_fd, abs(kappa_fd - 0.12), abs(tau_fd - 0.16))
    ok = worst <= 1e-10 and worst_fd <= 1e-6
    report(1, "helix-apparatus", ok,
           f"max_closed_form_err={worst:.3e} bound=1e-10, fd_err={worst_fd:.3e} bound=1e-6")


def test_criterion_2_frenet_identities():
    worst = 0.0
    for curve in (HELIX, USH, CIRCLE):
        for t in grid(curve, 1000):
            worst = max(worst, *frenet_apparatus(curve, t).residuals)
    report(2, "frenet-identities", worst <= 1e-9, f"max_residual={worst:.3e} bound=1e-9")


def test_criterion_3_vertical_lift():
    ts = grid(USH, 1000)
    rep = LiftedCurve(USH, LiftKind.vertical()).sweep(ts)
    base = [frenet_apparatus(USH, t) for t in ts]
    worst_app = max(
        max(abs(k - a.kappa) for k, a in zip(rep.kappa_lift, base)),
        max(abs(x - a.tau) for x, a in zip(rep.tau_lift, base)),
    )
    sub = grid(USH, 200)
    a = LiftedCurve(USH, LiftKind.vertical((0.0, 0.0, 0.0))).sweep(sub)
    b = LiftedCurve(USH, LiftKind.vertical((5.0, -2.0, 7.0))).sweep(sub)
    anchor_dev = max(
        max(abs(x - y) for x, y in zip(a.kappa_lift, b.kappa_lift)),
        max(abs(x - y) for x, y in zip(a.tau_lift, b.tau_lift)),
    )
    ok = rep.max_residual <= 1e-9 and worst_app <= 1e-10 and anchor_dev <= 1e-12
    report(3, "vertical-lift", ok,
           f"max_residual={rep.max_residual:.3e} bound=1e-9, "
           f"apparatus_err={worst_app:.3e} bound=1e-10, "
           f"anchor_dev={anchor_dev:.3e} bound=1e-12")


def test_criterion_4_horizontal_lift_flat():
    ts = grid(HELIX, 1000)
    base = [frenet_apparatus(HELIX, t) for t in ts]
    worst_res = 0.0
    worst_app = 0.0
    for w0 in ((1.0, 0.0, 0.0), (0.3, -1.0, 2.0)):
        rep = LiftedCurve(HELIX, LiftKind.horizontal(w0)).sweep(ts)
        worst_res = max(worst_res, rep.max_residual)
        worst_app = max(
            worst_app,
            max(abs(k - a.kappa) for k, a in zip(rep.kappa_lift, base)),
            max(abs(x - a.tau) for x, a in zip(rep.tau_lift, base)),
        )
    ok = worst_res <= 1e-9 and worst_app <= 1e-10
    report(4, "horizontal-lift-flat", ok,
           f"max_residual={worst_res:.3e} bound=1e-9, apparatus_err={worst_app:.3e} bound=1e-10")


def test_criterion_5_complete_lift_oracle():
    ts = grid(USH, 500)
    rep = LiftedCurve(USH, LiftKind.complete()).sweep(ts)
    worst_oracle = max(
        max(abs(o - LIFTED_HELIX_KAPPA) for o in rep.oracle_kappa),
        max(abs(o - LIFTED_HELIX_TAU) for o in rep.oracle_tau),
    )
    lc = LiftedCurve(USH, LiftKind.complete())
    worst_norm = 0.0
    for t in grid(USH, 100):
        Tc = [p[0] for p in lc.frame(t)[0]]
        kappa = frenet_apparatus(USH, t).kappa
        worst_norm = max(worst_norm, abs(sum(x * x for x in Tc) - (1.0 + kappa**2)))
    ok = worst_oracle <= 1e-9 and worst_norm <= 1e-12
    report(5, "complete-lift-oracle", ok,
           f"oracle_err={worst_oracle:.3e} bound=1e-9, "
           f"tangent_norm_err={worst_norm:.3e} bound=1e-12, "
           f"frame_identity_residual={rep.max_residual:.6e} (measured, no bound)")


def test_criterion_6_lift_identity_suite():
    rng = random.Random(60318)
    worst = 0.0
    for _ in range(20):
        quad = random_quadruple(rng)
        conns = (Connection.flat(), random_connection(rng))
        for _ in range(100):
            p = random_tangent_point(rng)
            for G in conns:
                worst = max(worst, prop21_check(*quad, G, p).max_residual)
    report(6, "lift-identity-suite", worst <= 1e-10, f"max_residual={worst:.3e} bound=1e-10")


def test_criterion_7_parallel_transport():
    line = CURVES["line"]
    flat_dev = 0.0
    for t in (0.3, 0.8, 1.0):
        w = parallel_transport(Connection.flat(), line, (1.0, 2.0, 3.0), t, 64)
        flat_dev = max(flat_dev, max(abs(a - b) for a, b in zip(w, (1.0, 2.0, 3.0))))
    G = Connection.from_entries({(1, 1, 1): 1.0})
    e100 = abs(parallel_transport(G, line, (1, 0, 0), 1.0, 100)[0] - math.exp(-1))
    e200 = abs(parallel_transport(G, line, (1, 0, 0), 1.0, 200)[0] - math.exp(-1))
    ratio = e100 / e200 if e200 > 0 else math.inf
    ok = flat_dev == 0.0 and e100 <= 1e-9 and ratio >= 12.0
    report(7, "parallel-transport", ok,
           f"flat_dev={flat_dev:.1e} (exact), exp_err={e100:.3e} bound=1e-9, "
           f"step_ratio={ratio:.1f} bound>=12")


def test_criterion_8_autodiff_soundness():
    rng = random.Random(80801)
    steps = {1: 1e-5, 2: 1e-3, 3: 1e-2}
    worst = 0.0
    for ast, t0, jet in random_expression_sample(rng, 1000):
        def f(u, _ast=ast):
            return eval_float(_ast, {"t": u})

        for k in (1, 2, 3):
            djet = jet.derivative(k)
            dfd = fd_oracle(f, t0, k, steps[k])
            worst = max(worst, abs(djet - dfd) / max(1.0, abs(djet)))
    report(8, "autodiff-soundness", worst <= 1e-6, f"max_rel_err={worst:.3e} bound=1e-6")


def test_criterion_9_frame_structure(tmp_path):
    worst_ortho = 0.0
    worst_skew = 0.0
    for curve in (HELIX, USH, CIRCLE):
        for t in grid(curve, 200):
            app = frenet_apparatus(curve, t)
            frame = (app.T, app.N, app.B)
            for i in range(3):
                for j in range(3):
                    gram = sum(a * b for a, b in zip(frame[i], frame[j]))
                    worst_ortho = max(worst_ortho, abs(gram - (1.0 if i == j else 0.0)))
            A = generalized_frenet(curve_point_jets(curve, t), 3).matrix
            for i in range(3):
                for j in range(3):
                    worst_skew = max(worst_skew, abs(A[i][j] + A[j][i]))
    for curve, kind in ((USH, LiftKind.vertical()), (HELIX, LiftKind.horizontal((1, 0, 0)))):
        lc = LiftedCurve(curve, kind)
        rep = lc.sweep(grid(curve, 200))
        worst_ortho = max(worst_ortho, rep.frame_ortho_max)
        for t in grid(curve, 40):
            A = generalized_frenet(lc.point_jets(t), 3).matrix
            for i in range(3):
                for j in range(3):
                    worst_skew = max(worst_skew, abs(A[i][j] + A[j][i]))
    line_path = tmp_path / "line.curve"
    line_path.write_text(LINE_FILE)
    exit_code = main(["frenet", "--curve", str(line_path), "--samples", "5"])
    ok = worst_ortho <= 1e-12 and worst_skew <= 1e-9 and exit_code == EXIT_DEGENERATE
    report(9, "frame-structure", ok,
           f"ortho={worst_ortho:.3e} bound=1e-12, skew={worst_skew:.3e} bound=1e-9, "
           f"degenerate_exit={exit_code} (want {EXIT_DEGENERATE})")


def test_criterion_10_parser_and_golden_output(tmp_path):
    rng = random.Random(101010)
    failures = sum(
        1
        for _ in range(500)
        if parse_expr(pretty_print(ast := random_ast(rng, 6)), {"t"}) != ast
    )
    helix_path = tmp_path / "helix.curve"
    helix_path.write_text(HELIX_FILE)
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    for out in (out_a, out_b):
        assert main(["frenet", "--curve", str(helix_path), "--samples", "100",
                     "--out", str(out)]) == 0
    identical = out_a.read_bytes() == out_b.read_bytes()
    ok = failures == 0 and identical
    report(10, "parser-and-golden-output", ok,
           f"roundtrip_failures={failures} bound=0, golden_byte_identical={identical}")
