"""frenetlift still meets what the traced benchmark run expects of it.

The tracer patches every name it lists when a traced benchmark run starts;
a name that is gone crashes that run.  The run then compares call counts
with counts perfbench/run.py predicts from per-point and per-step constants;
a count that drifts fails that run, and so does a layer microbenchmark
statement of perfbench/micro.py that raises.  These tests read the tracer's
tables, run.py's constants and its count prediction, and run micro.py's
statements once (all three files are read by path and not changed), and
fail first.
"""

import ast
import importlib
import importlib.util
import inspect
import math
import sys
import types
from pathlib import Path

import pytest

from frenetlift import cli, lifts
from frenetlift.expr import CurveSpec
from frenetlift.jets import Jet
from frenetlift.lifts import Connection

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load("perfbench_tracer", TRACER)


@pytest.mark.parametrize("layer, cls_name, attr", sorted(tracer.METHODS))
def test_traced_method_exists(layer, cls_name, attr):
    cls = getattr(importlib.import_module(f"frenetlift.{layer}"), cls_name)
    assert inspect.isfunction(getattr(cls, attr))


@pytest.mark.parametrize("name", sorted(tracer.COUNTERS))
def test_counted_attributes_are_jets_own(name):
    for attr in tracer.COUNTERS[name]:
        assert attr in vars(Jet), f"{name}: Jet defines no {attr}"


@pytest.mark.parametrize("layer", tracer.LAYERS)
def test_layer_exports_resolve(layer):
    module = importlib.import_module(f"frenetlift.{layer}")
    assert isinstance(module.__all__, list)
    for name in module.__all__:
        assert hasattr(module, name), f"frenetlift.{layer}.__all__ names missing {name!r}"


def _run_constants(*names):
    """Values of top-level constants of perfbench/run.py, evaluated from the
    file's syntax tree without importing the module."""
    tree = ast.parse((PERFBENCH / "run.py").read_text(encoding="utf-8"))
    values = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in names:
                values[target.id] = eval(compile(ast.Expression(node.value), "run.py", "eval"), {})
    assert sorted(values) == sorted(names)
    return values


def _traced(call):
    """The tracer's per-span summary of one call, which must reach frenetlift
    through module attributes, as the benchmark's calls do."""
    t = tracer.Tracer()
    t.install()
    try:
        call()
    finally:
        t.uninstall()
    return t.summary()


def test_fields_point_calls_match_prediction(tmp_path):
    want = _run_constants("AT_PER_POINT", "APPLY_PER_POINT")
    files = {"X.field": "X1 = x1*x2\nX2 = sin(x3)\nX3 = x1 - x2\n",
             "Y.field": "X1 = x3\nX2 = x1*x1\nX3 = 2*x2\n",
             "f.field": "f = x1*x2 + x3\n",
             "g.field": "f = cos(x1)*x3\n",
             "G.conn": "gamma 1 2 3 = 0.3\ngamma 3 1 1 = -0.2\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = ["fields", "--field", str(tmp_path / "X.field"), "--field", str(tmp_path / "Y.field"),
            "--scalar", str(tmp_path / "f.field"), "--scalar", str(tmp_path / "g.field"),
            "--connection", str(tmp_path / "G.conn"), "--point=0.5,-1,2,1,0.25,-3",
            "--out", str(tmp_path / "out.csv")]
    summary = _traced(lambda: cli.main(argv))
    assert summary["lifts.prop21_check"]["calls"] == 1
    assert summary["lifts.LiftedField.at"]["calls"] == want["AT_PER_POINT"]
    assert summary["lifts.apply_field"]["calls"] == want["APPLY_PER_POINT"]


def test_rk4_step_curve_evaluations_match_prediction():
    want = _run_constants("EVALS_PER_RK4_STEP")["EVALS_PER_RK4_STEP"]
    curve = CurveSpec.from_strings("cos(t)", "sin(t)", "t/2", 0.0, 1.0)
    G = Connection.from_entries({(1, 2, 3): 0.3})
    steps = 7
    summary = _traced(lambda: lifts.parallel_transport(G, curve, (1.0, 0.0, 0.0), 1.0, steps))
    assert summary["lifts.parallel_transport"]["calls"] == 1
    assert summary["expr.eval_jet"]["calls"] == want * steps


def test_transport_grid_curve_evaluations_match_prediction():
    # The count the traced transport workload checks: every grid interval
    # [a, b] takes ceil(1000 * (b - a)) RK4 steps of EVALS_PER_RK4_STEP curve
    # evaluations each, none shared between stages.
    want = _run_constants("EVALS_PER_RK4_STEP")["EVALS_PER_RK4_STEP"]
    curve = CurveSpec.from_strings("(2 + cos(3*t))*cos(2*t)", "sin(3*t)", "t/2", 0.25, 1.0)
    G = Connection.from_entries({(1, 2, 3): 0.3, (3, 3, 2): 0.15})
    grid = [0.25, 0.2537, 0.26, 0.2651, 0.281]
    steps = sum(max(1, math.ceil(1000 * (b - a))) for a, b in zip(grid, grid[1:]))
    summary = _traced(lambda: lifts.transport_grid(G, curve, (1.0, -0.5, 0.75), grid))
    assert summary["lifts.transport_grid"]["calls"] == 1
    assert summary["lifts.transport_grid"]["curve_evals"] == want * steps
    assert summary["expr.eval_jet"]["calls"] == want * steps


@pytest.fixture
def predicted(monkeypatch):
    """perfbench/run.py's _predicted, with run.py and the benchmark modules it
    imports loaded from perfbench/ and dropped again afterwards."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    loaded = set(sys.modules)
    yield _load("perfbench_run", PERFBENCH / "run.py")._predicted
    for name in set(sys.modules) - loaded:
        del sys.modules[name]


def test_sweep_calls_match_prediction(predicted, tmp_path):
    # One traced frenet call and one traced lift call per sweep kind, as
    # the traced sweep workload makes them: every per-point layer runs once
    # per sample.
    samples = 5
    curve = tmp_path / "knot.curve"
    curve.write_text("x1 = (2 + 0.5*cos(3*t))*cos(2*t)\nx2 = (2 + 0.5*cos(3*t))*sin(2*t)\n"
                     "x3 = 0.5*sin(3*t)\nt_min = 0.25\nt_max = 1.25\n")
    argvs = {"frenet": ["frenet"], "lift-v": ["lift", "--kind", "v"],
             "lift-c": ["lift", "--kind", "c"], "lift-h": ["lift", "--kind", "h", "--w0=1,-0.5,2"]}
    calls = [types.SimpleNamespace(command=command, units=samples, rk4_steps=0)
             for command in argvs]
    out = str(tmp_path / "out.csv")

    def run_all():
        for argv in argvs.values():
            assert cli.main(argv + ["--curve", str(curve), "--samples", str(samples),
                                    "--out", out]) == cli.EXIT_OK

    summary = _traced(run_all)
    want = predicted(None, calls)
    assert {f"{name}.calls" for name in (
        "frenet.curve_point_jets", "frenet.frame_jets", "frenet.frenet_apparatus",
        "frenet.generalized_frenet", "lifts.lifted_point_jets")} <= set(want)
    assert want["frenet.curve_point_jets.calls"] == 4 * samples
    for key, count in want.items():
        span, field = key.rsplit(".", 1)
        assert summary.get(span, {}).get(field, 0) == count, key


def test_micro_statements_run(monkeypatch):
    # The layer microbenchmarks feed curve_point_jets into frame_jets and
    # lifted_point_jets into generalized_frenet; a type mismatch there would
    # crash a traced run.  Each case statement runs once, untimed.
    monkeypatch.setitem(sys.modules, "speed", types.ModuleType("speed"))
    micro = _load("perfbench_micro", PERFBENCH / "micro.py")
    ran = []

    def once(stmt, env, meter):
        exec(stmt, env)
        ran.append(stmt)
        return 0.0

    monkeypatch.setattr(micro, "_time_us", once)
    timings = micro.run(None)
    assert len(ran) == len(timings) > 0
