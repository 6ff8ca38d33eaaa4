"""Layer microbenchmarks: the per-operation timings of the layer table.

Inputs are fixed (the unit-speed helix ``3*cos(t/5), 3*sin(t/5), 4*t/5`` at
jet order K=5, as in the ROADMAP baseline) so the numbers compare across
seeds and commits.  Each value is the mean time per operation over about
0.25 s of repeats, in microseconds, with tracing off, rescaled to the
reference machine speed (see ``speed.py``).
"""

from __future__ import annotations

import timeit

import speed

REPEATS = 7
TARGET_S = 0.035  # least wall time of one repeat


def _time_us(stmt: str, env: dict, meter: speed.Meter) -> float:
    timer = timeit.Timer(stmt, globals=env)
    number = 1
    while timer.timeit(number) < TARGET_S:
        number *= 2
    timing = meter.timed(lambda: timer.timeit(number * REPEATS))[1]
    return meter.rescaled(timing) / (number * REPEATS) * 1e6


def run(meter: speed.Meter) -> dict[str, float]:
    from frenetlift.expr import CurveSpec, eval_jet, parse_expr, scalar_field, vector_field
    from frenetlift.frenet import ToleranceConfig, curve_point_jets, frame_jets, generalized_frenet
    from frenetlift.jets import Jet
    from frenetlift.lifted_frenet import LiftedCurve
    from frenetlift.lifts import (
        Connection, LiftKind, TangentPoint, lifted_point_jets, parallel_transport, prop21_check,
    )

    helix = CurveSpec.from_strings("3*cos(t/5)", "3*sin(t/5)", "4*t/5", 0.0, 31.41592653589793)
    t = 1.3
    pj = curve_point_jets(helix, t, 5)
    lifted = lifted_point_jets(pj, LiftKind.complete(), Connection.flat())

    entries = {(a, b, c): 0.1 * ((a * 7 + b * 3 + c) % 9 - 4)
               for a in (1, 2, 3) for b in (1, 2, 3) for c in (1, 2, 3)}
    env = {
        "a": Jet([0.3, -1.1, 0.7, 0.25, -0.4, 0.9]),
        "b": Jet([1.2, 0.5, -0.8, 0.6, 0.1, -0.3]),
        "coeffs": (0.3, -1.1, 0.7, 0.25, -0.4, 0.9),
        "Jet": Jet,
        "ast": parse_expr("3*cos(t/5)", {"t"}),
        "bind": {"t": Jet.variable(t, 5)},
        "eval_jet": eval_jet,
        "curve_point_jets": curve_point_jets,
        "frame_jets": frame_jets,
        "generalized_frenet": generalized_frenet,
        "helix": helix,
        "t": t,
        "pj": pj,
        "lifted": lifted,
        "cfg": ToleranceConfig(),
        "prop21_check": prop21_check,
        "quad": (
            vector_field("0.3*x1*x2 + 0.2*x3", "0.1*x2*x2 - 0.4*x1", "0.25*x1*x3 + 0.05"),
            vector_field("-0.2*x3*x1 + 0.1*x2", "0.35*x1 + 0.15*x2*x3", "0.45*x2 - 0.3*x1*x1"),
            scalar_field("0.2*x1*x2 + 0.1*x3*x3"),
            scalar_field("-0.3*x2*x3 + 0.4*x1"),
        ),
        "G": Connection.from_entries(entries),
        "p": TangentPoint((0.7, -1.2, 0.4), (1.1, 0.3, -0.8)),
        "parallel_transport": parallel_transport,
        "w0": (1.0, -0.5, 0.25),
        "lc": LiftedCurve(helix, LiftKind.complete()),
    }
    cases = {
        "jets.mul_us": "a * b",
        "jets.mul_const_us": "a * 2.5",
        "jets.new_us": "Jet(coeffs)",
        "expr.eval_jet_k5_us": "eval_jet(ast, bind)",
        "frenet.curve_point_jets_us": "curve_point_jets(helix, t, 5)",
        "frenet.frame_jets_us": "frame_jets(pj, cfg, t)",
        "frenet.generalized_frenet_us": "generalized_frenet(lifted, 3)",
        "lifts.prop21_check_us": "prop21_check(*quad, G, p)",
        "lifts.rk4_step_us": "parallel_transport(G, helix, w0, 0.01, 1)",
        "lifted_frenet.apparatus_us": "lc.apparatus(t)",
    }
    return {name: _time_us(stmt, env, meter) for name, stmt in cases.items()}
