"""The runnable scripts still import and run against the current API."""

import importlib.util
import math
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_helix_lift_report(tmp_path, capsys):
    load("helix_lift_report").run(8, tmp_path)
    csvs = sorted(p.name for p in tmp_path.glob("*.csv"))
    assert csvs == ["frenet.csv", "lift_c.csv", "lift_h.csv", "lift_v.csv"]
    for name in csvs:
        lines = (tmp_path / name).read_text().splitlines()
        assert len([line for line in lines[1:] if not line.startswith("#")]) == 8
    printed = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in printed[1:4]] == ["vertical", "complete", "horizontal"]


def test_transport_convergence_order(capsys):
    load("transport_convergence").run()
    rows = capsys.readouterr().out.splitlines()[1:]
    orders = [float(row.split()[-1]) for row in rows]
    assert math.isnan(orders[0])
    for order in orders[1:]:
        assert abs(order - 4.0) <= 0.1
