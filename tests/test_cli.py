"""Command line behavior: formats, exit codes, determinism."""

import argparse
import json
import math
import re
import shlex
from pathlib import Path

import pytest

from frenetlift import cli, lifts
from frenetlift.cli import (
    EXIT_DEGENERATE,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    _join_vector_flags,
    build_parser,
    main,
)
from frenetlift.verify import CheckResult

README = Path(__file__).resolve().parents[1] / "README.md"

HELIX_FILE = """\
name = helix345
x1 = 3*cos(t)
x2 = 3*sin(t)
x3 = 4*t
t_min = 0
t_max = 6.283185307
"""

UNIT_HELIX_FILE = """\
name = unit_helix
x1 = 3*cos(t/5)
x2 = 3*sin(t/5)
x3 = 4*t/5
t_min = 0
t_max = 31.41592653589793
"""

LINE_FILE = """\
name = line
x1 = t
x2 = 2*t
x3 = 2*t
t_min = 0
t_max = 1
"""

X_FIELD = "X1 = x2\nX2 = 0\nX3 = 0\n"
F_SCALAR = "f = x1*x2\n"
GAMMA_FILE = "gamma 1 1 1 = 1.0\n"


@pytest.fixture
def helix_path(tmp_path):
    p = tmp_path / "helix.curve"
    p.write_text(HELIX_FILE)
    return str(p)


@pytest.fixture
def line_path(tmp_path):
    p = tmp_path / "line.curve"
    p.write_text(LINE_FILE)
    return str(p)


def _no_constant(name):
    raise AssertionError(f"JSON output holds {name}, which is not valid JSON")


def read_csv(path):
    lines = path.read_text().split("\n")
    assert lines[-1] == ""
    lines = lines[:-1]
    header = lines[0].split(",")
    data = [line for line in lines[1:] if not line.startswith("#")]
    trailer = [line for line in lines[1:] if line.startswith("#")]
    rows = [dict(zip(header, (float(v) for v in line.split(",")))) for line in data]
    return header, rows, trailer


class TestFrenetCommand:
    def test_csv_rows(self, helix_path, tmp_path):
        out = tmp_path / "out.csv"
        code = main(["frenet", "--curve", helix_path, "--samples", "3", "--out", str(out)])
        assert code == EXIT_OK
        header, rows, _ = read_csv(out)
        assert len(rows) == 3
        assert header[:4] == ["t", "x1", "x2", "x3"]
        for row in rows:
            assert row["kappa"] == pytest.approx(0.12, abs=1e-12)
            assert row["tau"] == pytest.approx(0.16, abs=1e-12)
            assert max(row["res_T"], row["res_N"], row["res_B"]) <= 1e-10

    def test_degenerate_curve_exits_3(self, line_path, capsys):
        assert main(["frenet", "--curve", line_path, "--samples", "3"]) == EXIT_DEGENERATE
        assert "t=" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        missing = str(tmp_path / "nope.curve")
        assert main(["frenet", "--curve", missing]) == EXIT_INPUT

    def test_bad_curve_file_exits_2(self, tmp_path, capsys):
        p = tmp_path / "bad.curve"
        p.write_text("x1 = 3*cos(t\nx2 = 0\nx3 = 0\nt_min = 0\nt_max = 1\n")
        assert main(["frenet", "--curve", str(p)]) == EXIT_INPUT
        assert "line 1" in capsys.readouterr().err

    def test_exponent_dividing_below_floor_exits_2(self, tmp_path, capsys):
        p = tmp_path / "tiny.curve"
        p.write_text("x1 = t\nx2 = t^2\nx3 = t^(1/1e-301)\nt_min = 0\nt_max = 1\n")
        assert main(["frenet", "--curve", str(p)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "line 3" in err and "foldable constant exponent" in err

    def test_json_format(self, helix_path, tmp_path):
        out = tmp_path / "out.json"
        code = main(["frenet", "--curve", helix_path, "--samples", "2",
                     "--format", "json", "--out", str(out)])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert len(payload["rows"]) == 2
        assert payload["rows"][0]["kappa"] == pytest.approx(0.12)

    def test_too_few_samples(self, helix_path):
        assert main(["frenet", "--curve", helix_path, "--samples", "1"]) == EXIT_INPUT

    def test_non_finite_kappa_floor_exits_2(self, tmp_path, capsys):
        # Curvature 1.8e-13 at speed 10: below the default floor, and its
        # cross-product norm 1.8e-10 clears the norm floor.
        p = tmp_path / "flat.curve"
        p.write_text("x1 = 10*t\nx2 = 9e-12*t^2\nx3 = 0\nt_min = 0\nt_max = 1\n")
        assert main(["frenet", "--curve", str(p), "--samples", "3"]) == EXIT_DEGENERATE
        for value in ("nan", "inf"):
            argv = ["frenet", "--curve", str(p), "--samples", "3", "--tol", f"kappa_floor={value}"]
            assert main(argv) == EXIT_INPUT
            assert "kappa_floor must be positive and finite" in capsys.readouterr().err

    def test_overflowing_domain_exits_2(self, tmp_path, capsys):
        p = tmp_path / "wide.curve"
        p.write_text("x1 = t\nx2 = t^2\nx3 = t^3\nt_min = -1e308\nt_max = 1e308\n")
        assert main(["frenet", "--curve", str(p), "--samples", "3"]) == EXIT_INPUT
        assert "domain [-1e+308, 1e+308]" in capsys.readouterr().err


class TestLiftCommand:
    def test_vertical_csv(self, helix_path, tmp_path):
        out = tmp_path / "lift.csv"
        code = main(["lift", "--curve", helix_path, "--kind", "v",
                     "--samples", "5", "--out", str(out)])
        assert code == EXIT_OK
        header, rows, trailer = read_csv(out)
        assert len(rows) == 5
        for row in rows:
            assert row["kappa_lift"] == pytest.approx(0.12, abs=1e-12)
            assert row["tau_lift"] == pytest.approx(0.16, abs=1e-12)
        assert len(trailer) == 1
        assert "max_residual=" in trailer[0]
        max_res = float(trailer[0].split("max_residual=")[1].split()[0])
        assert max_res <= 1e-9

    def test_horizontal_without_w0_flat_defaults(self, helix_path, tmp_path):
        out = tmp_path / "lift.csv"
        code = main(["lift", "--curve", helix_path, "--kind", "h",
                     "--samples", "3", "--out", str(out)])
        assert code == EXIT_OK
        _, rows, _ = read_csv(out)
        assert rows[0]["p4"] == rows[0]["p5"] == rows[0]["p6"] == 0.0

    def test_horizontal_without_w0_nonflat_exits_2(self, helix_path, tmp_path, capsys):
        gpath = tmp_path / "g.conn"
        gpath.write_text(GAMMA_FILE)
        code = main(["lift", "--curve", helix_path, "--kind", "h",
                     "--connection", str(gpath), "--samples", "3"])
        assert code == EXIT_INPUT
        assert "w0 required" in capsys.readouterr().err

    def test_json_summary(self, helix_path, tmp_path):
        out = tmp_path / "lift.json"
        code = main(["lift", "--curve", helix_path, "--kind", "v",
                     "--samples", "3", "--format", "json", "--out", str(out)])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert set(payload["summary"]) == {
            "max_residual", "max_discrepancy", "frame_ortho_max", "kappa_spread",
        }
        assert payload["summary"]["max_residual"] <= 1e-9

    def test_json_writes_null_for_non_finite(self, tmp_path):
        # A planar circle has no torsion oracle: its oracle columns and the
        # discrepancy are NaN, which JSON cannot hold.
        curve = tmp_path / "circle.curve"
        curve.write_text("x1 = cos(t)\nx2 = sin(t)\nx3 = 0\nt_min = 0\nt_max = 1\n")
        out = tmp_path / "lift.json"
        code = main(["lift", "--curve", str(curve), "--kind", "c",
                     "--samples", "3", "--format", "json", "--out", str(out)])
        assert code == EXIT_OK
        payload = json.loads(out.read_text(), parse_constant=_no_constant)
        assert payload["rows"][0]["oracle_kappa"] is None
        assert payload["summary"]["max_discrepancy"] is None

    def test_kind_required(self, helix_path):
        assert main(["lift", "--curve", helix_path, "--samples", "3"]) == EXIT_INPUT

    def test_complete_lift_oracle_column(self, tmp_path):
        curve = tmp_path / "ush.curve"
        curve.write_text(UNIT_HELIX_FILE)
        out = tmp_path / "lift.csv"
        code = main(["lift", "--curve", str(curve), "--kind", "c",
                     "--samples", "4", "--out", str(out)])
        assert code == EXIT_OK
        _, rows, _ = read_csv(out)
        for row in rows:
            assert row["oracle_kappa"] == pytest.approx(0.12063926, abs=1e-7)
            assert row["oracle_tau"] == pytest.approx(0.15772871, abs=1e-7)

    def test_vertical_anchor_flag(self, helix_path, tmp_path):
        out = tmp_path / "lift.csv"
        code = main(["lift", "--curve", helix_path, "--kind", "v",
                     "--anchor", "1,2,3", "--samples", "3", "--out", str(out)])
        assert code == EXIT_OK
        _, rows, _ = read_csv(out)
        assert (rows[0]["p1"], rows[0]["p2"], rows[0]["p3"]) == (1.0, 2.0, 3.0)

    def test_horizontal_nonflat_with_w0(self, helix_path, tmp_path):
        gpath = tmp_path / "g.conn"
        gpath.write_text(GAMMA_FILE)
        out = tmp_path / "lift.csv"
        code = main(["lift", "--curve", helix_path, "--kind", "h",
                     "--connection", str(gpath), "--w0", "1,0,0",
                     "--samples", "4", "--out", str(out)])
        assert code == EXIT_OK
        _, rows, _ = read_csv(out)
        assert len(rows) == 4
        # Transported fiber drifts away from w0 under the nonzero symbols.
        assert rows[-1]["p4"] != rows[0]["p4"]


class TestFieldsCommand:
    def test_row_contents(self, tmp_path):
        fx = tmp_path / "X.field"
        fx.write_text(X_FIELD)
        fs = tmp_path / "f.field"
        fs.write_text(F_SCALAR)
        out = tmp_path / "fields.csv"
        code = main(["fields", "--field", str(fx), "--scalar", str(fs),
                     "--point", "1,2,3,0,0,0", "--out", str(out)])
        assert code == EXIT_OK
        header, rows, _ = read_csv(out)
        row = rows[0]
        assert (row["v4"], row["v5"], row["v6"]) == (2.0, 0.0, 0.0)
        assert (row["v1"], row["v2"], row["v3"]) == (0.0, 0.0, 0.0)
        residual_cols = [h for h in header if h.startswith("res_")]
        assert len(residual_cols) >= 12
        assert max(abs(row[c]) for c in residual_cols) <= 1e-10

    def test_point_arity_exits_2(self, tmp_path, capsys):
        fx = tmp_path / "X.field"
        fx.write_text(X_FIELD)
        fs = tmp_path / "f.field"
        fs.write_text(F_SCALAR)
        code = main(["fields", "--field", str(fx), "--scalar", str(fs),
                     "--point", "1,2,3,0,0"])
        assert code == EXIT_INPUT
        assert "6 comma-separated" in capsys.readouterr().err

    def test_requires_field_and_scalar(self, tmp_path):
        fx = tmp_path / "X.field"
        fx.write_text(X_FIELD)
        assert main(["fields", "--field", str(fx), "--point", "1,2,3,0,0,0"]) == EXIT_INPUT


class TestVerifyCommand:
    def test_default_run_passes(self, tmp_path, capsys):
        code = main(["verify", "--samples", "60"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        pass_lines = [line for line in out.splitlines() if line.startswith("PASS")]
        assert len(pass_lines) >= 12
        assert not any(line.startswith("FAIL") for line in out.splitlines())

    def test_unreachable_tolerance_fails(self, capsys):
        code = main(["verify", "--samples", "60", "--tol", "residual_tol=1e-16"])
        out = capsys.readouterr().out
        assert code == EXIT_VERIFY_FAILED
        assert any(line.startswith("FAIL") for line in out.splitlines())

    def test_json_mode(self, tmp_path):
        out = tmp_path / "verify.json"
        code = main(["verify", "--samples", "60", "--format", "json", "--out", str(out)])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert isinstance(payload, list)
        for item in payload:
            assert set(item) == {"name", "value", "bound", "pass"}
        assert all(item["pass"] for item in payload)

    def test_json_writes_null_for_non_finite(self, tmp_path, monkeypatch):
        results = [CheckResult("nan_value", math.nan, 1.0, "<=", False),
                   CheckResult("inf_bound", 0.5, math.inf, "<=", True)]
        monkeypatch.setattr(cli, "run_checks", lambda *args, **kwargs: results)
        out = tmp_path / "verify.json"
        code = main(["verify", "--samples", "2", "--format", "json", "--out", str(out)])
        assert code == EXIT_VERIFY_FAILED
        payload = json.loads(out.read_text(), parse_constant=_no_constant)
        assert [(item["value"], item["bound"]) for item in payload] == [(None, 1.0), (0.5, None)]

    def test_unknown_tolerance_exits_2(self):
        assert main(["verify", "--tol", "bogus=1"]) == EXIT_INPUT

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_tolerance_exits_2(self, value):
        argv = ["verify", "--samples", "2", "--tol", f"residual_tol={value}"]
        assert main(argv) == EXIT_INPUT


class TestNegativeVectorFlags:
    @pytest.mark.parametrize(
        "argv, flag, value",
        [
            (["lift", "--kind", "h"], "--w0", "-1,0,0"),
            (["lift", "--kind", "v"], "--anchor", "-2.5,1,-0.5"),
            (["fields", "--field", "{X}", "--scalar", "{f}"], "--point", "-1,2,-3,0.5,-0.25,1"),
        ],
        ids=["w0", "anchor", "point"],
    )
    def test_space_and_equals_forms_agree(self, argv, flag, value, helix_path, tmp_path):
        (tmp_path / "X.field").write_text(X_FIELD)
        (tmp_path / "f.field").write_text(F_SCALAR)
        base = [a.format(X=tmp_path / "X.field", f=tmp_path / "f.field") for a in argv]
        if argv[0] == "lift":
            base += ["--curve", helix_path, "--samples", "5"]
        spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
        assert main(base + [flag, value, "--out", str(spaced)]) == EXIT_OK
        assert main(base + [f"{flag}={value}", "--out", str(joined)]) == EXIT_OK
        assert spaced.read_bytes() == joined.read_bytes()

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "argv, flag, value",
        [
            (["lift", "--kind", "h"], "--w0", "1,{bad},0"),
            (["lift", "--kind", "v"], "--anchor", "{bad},1,-0.5"),
            (["fields", "--field", "{X}", "--scalar", "{f}"], "--point", "1,2,3,0,0,{bad}"),
        ],
        ids=["w0", "anchor", "point"],
    )
    def test_non_finite_value_names_flag(self, argv, flag, value, bad, helix_path,
                                         tmp_path, capsys):
        (tmp_path / "X.field").write_text(X_FIELD)
        (tmp_path / "f.field").write_text(F_SCALAR)
        base = [a.format(X=tmp_path / "X.field", f=tmp_path / "f.field") for a in argv]
        if argv[0] == "lift":
            base += ["--curve", helix_path, "--samples", "5"]
        text = value.format(bad=bad)
        assert main(base + [f"{flag}={text}"]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"argument {flag}: needs finite numbers, got {text!r}" in err


# Flags each command reads.  Every command used to accept all eleven flags of
# ALL_FLAGS and ignore the ones outside its row.
READS = {
    "frenet": ("curve", "samples", "tol", "format", "out"),
    "lift": ("curve", "kind", "anchor", "w0", "connection", "samples", "tol", "format", "out"),
    "fields": ("field", "scalar", "point", "connection", "format", "out"),
    "verify": ("samples", "tol", "format", "out"),
}
ALL_FLAGS = ("curve", "field", "scalar", "connection", "kind", "anchor", "w0", "samples",
             "format", "out", "tol")
FLAG_VALUES = {
    "curve": "{curve}", "field": "{X}", "scalar": "{f}", "connection": "{conn}", "kind": "v",
    "anchor": "1,2,3", "w0": "1,0,0", "samples": "5", "tol": "kappa_floor=1e-9",
}
BASE = {
    "frenet": ["frenet", "--curve", "{curve}", "--samples", "3"],
    "lift": ["lift", "--curve", "{curve}", "--kind", "{kind}", "--samples", "3"],
    "fields": ["fields", "--field", "{X}", "--scalar", "{f}", "--point", "1,2,3,0,0,0"],
    "verify": ["verify", "--samples", "2"],
}
UNREAD = [(cmd, flag) for cmd in READS for flag in ALL_FLAGS if flag not in READS[cmd]]


@pytest.fixture
def paths(helix_path, tmp_path):
    (tmp_path / "X.field").write_text(X_FIELD)
    (tmp_path / "f.field").write_text(F_SCALAR)
    (tmp_path / "g.conn").write_text(GAMMA_FILE)
    return {"curve": helix_path, "X": str(tmp_path / "X.field"), "f": str(tmp_path / "f.field"),
            "conn": str(tmp_path / "g.conn"), "out": str(tmp_path / "out"), "kind": "v"}


def fill(argv, paths, **extra):
    return [a.format(**{**paths, **extra}) for a in argv]


class TestFlagsPerCommand:
    @pytest.mark.parametrize("command", ["frenet", "lift", "fields"])
    def test_base_invocation_runs(self, command, paths):
        assert main(fill(BASE[command] + ["--out", "{out}"], paths)) == EXIT_OK

    @pytest.mark.parametrize("command, flag", UNREAD, ids=[f"{c}-{f}" for c, f in UNREAD])
    def test_unread_flag_exits_2(self, command, flag, paths, capsys):
        argv = fill(BASE[command] + [f"--{flag}", FLAG_VALUES[flag]], paths)
        assert main(argv) == EXIT_INPUT
        assert f"unrecognized arguments: --{flag}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, flag, value",
        [("c", "--anchor", "1,2,3"), ("h", "--anchor", "1,2,3"), ("v", "--w0", "1,0,0"),
         ("c", "--w0", "1,0,0"), ("v", "--connection", "{conn}"), ("c", "--connection", "{conn}")],
    )
    def test_lift_flag_of_other_kind_exits_2(self, kind, flag, value, paths, capsys):
        argv = fill(BASE["lift"] + [flag, value], paths, kind=kind)
        assert main(argv) == EXIT_INPUT
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("flag, key", [("--field", "X"), ("--scalar", "f")])
    def test_third_field_file_exits_2(self, flag, key, paths, capsys):
        argv = fill(BASE["fields"] + [flag, "{%s}" % key, flag, "{%s}" % key], paths)
        assert main(argv) == EXIT_INPUT
        assert f"{flag} takes at most 2 files" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["frenet", "lift"])
    @pytest.mark.parametrize("name", ["ortho_tol", "residual_tol", "unit_speed_tol"])
    def test_tolerance_not_read_exits_2(self, command, name, paths, capsys):
        argv = fill(BASE[command] + ["--tol", f"{name}=1e-300"], paths)
        assert main(argv) == EXIT_INPUT
        assert "argument --tol" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["frenet", "lift"])
    def test_kappa_floor_is_read(self, command, paths):
        # The helix has kappa = 0.12, so a floor above it makes the frame degenerate.
        assert main(fill(BASE[command] + ["--tol", "kappa_floor=0.2"], paths)) == EXIT_DEGENERATE

    def test_verify_takes_every_tolerance(self):
        names = ("kappa_floor", "ortho_tol", "residual_tol", "unit_speed_tol")
        argv = ["verify"] + [a for name in names for a in ("--tol", f"{name}=0.5")]
        assert build_parser().parse_args(argv).tol == [(name, 0.5) for name in names]


class TestDiagnostics:
    def test_deep_nesting_exits_2(self, tmp_path, capsys):
        p = tmp_path / "deep.curve"
        p.write_text("x1 = " + "(" * 3000 + "t" + ")" * 3000 + "\nx2 = t\nx3 = t\n"
                     "t_min = 0\nt_max = 1\n")
        assert main(["frenet", "--curve", str(p), "--samples", "3"]) == EXIT_INPUT
        assert "nested" in capsys.readouterr().err

    def test_long_flat_chain_exits_2(self, tmp_path, capsys):
        p = tmp_path / "long.curve"
        p.write_text("x1 = " + "+".join(["t"] * 3000) + "\nx2 = t\nx3 = t^2\n"
                     "t_min = 0\nt_max = 1\n")
        assert main(["frenet", "--curve", str(p), "--samples", "3"]) == EXIT_INPUT
        assert "deep" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["lift", "--kind", "v"],
        ["lift", "--kind", "h", "--w0", "1,0,0", "--connection", "{conn}"],
    ], ids=["default-anchor", "transport"])
    def test_lift_evaluation_error_names_component_and_t(self, tmp_path, capsys, argv):
        p = tmp_path / "log.curve"
        p.write_text("x1 = t\nx2 = log(t)\nx3 = t^2\nt_min = 0\nt_max = 1\n")
        conn = tmp_path / "g.conn"
        conn.write_text("gamma 1 2 3 = 0.3\n")
        argv = [a.format(conn=conn) for a in argv] + ["--curve", str(p), "--samples", "3"]
        assert main(argv) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "x2" in err and "t=0" in err

    @pytest.mark.parametrize("X, f", [
        ("X1 = x1^-1\nX2 = x2\nX3 = x3\n", F_SCALAR),
        (X_FIELD, "f = x1^-1\n"),
    ], ids=["vector", "scalar"])
    def test_fields_power_of_zero_exits_2(self, tmp_path, capsys, X, f):
        (tmp_path / "X.field").write_text(X)
        (tmp_path / "f.field").write_text(f)
        argv = ["fields", "--field", str(tmp_path / "X.field"),
                "--scalar", str(tmp_path / "f.field"), "--point=0,1,1,1,1,1"]
        assert main(argv) == EXIT_INPUT
        assert "pow undefined at 0.0" in capsys.readouterr().err

    def test_frenet_power_of_zero_names_component_and_t(self, tmp_path, capsys):
        p = tmp_path / "inv.curve"
        p.write_text("x1 = t^-1\nx2 = t\nx3 = t^2\nt_min = 0\nt_max = 1\n")
        assert main(["frenet", "--curve", str(p), "--samples", "3"]) == EXIT_INPUT
        assert "x1 at t=0.0, chars 0-4: pow undefined at 0.0" in capsys.readouterr().err

    def test_lift_power_of_zero_names_component_and_t(self, tmp_path, capsys):
        p = tmp_path / "inv.curve"
        p.write_text("x1 = t^-1\nx2 = t\nx3 = t^2\nt_min = 0\nt_max = 1\n")
        assert main(["lift", "--kind", "v", "--curve", str(p), "--samples", "3"]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "x1 at t=0.0, chars 0-4: pow undefined at 0.0" in err

    @pytest.mark.parametrize("func", ["sin", "cos", "tan"])
    @pytest.mark.parametrize("argv", [
        ["frenet"],
        ["lift", "--kind", "v"],
        ["lift", "--kind", "c"],
        ["lift", "--kind", "h", "--w0=1,0,0"],
        ["lift", "--kind", "h", "--w0=1,0,0", "--connection", "{conn}"],
    ], ids=["frenet", "lift-v", "lift-c", "lift-h", "lift-h-transport"])
    def test_infinite_argument_names_component_and_t(self, tmp_path, capsys, argv, func):
        curve, conn = tmp_path / "inf.curve", tmp_path / "g.conn"
        curve.write_text(f"x1 = t + {func}(1e999)\nx2 = t\nx3 = t^2\nt_min = 0\nt_max = 1\n")
        conn.write_text("gamma 1 2 3 = 0.3\n")
        argv = [a.format(conn=conn) for a in argv] + ["--curve", str(curve), "--samples", "3"]
        assert main(argv) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: x1 at t=0.0, chars 4-14: {func} undefined at inf\n")

    @pytest.mark.parametrize("func", ["sin", "cos", "tan"])
    @pytest.mark.parametrize("X, f, bad, key", [
        ("X1 = {func}(1e999) + x1\nX2 = x2\nX3 = x3\n", F_SCALAR, "X.field", "X1"),
        (X_FIELD, "f = {func}(1e999) + x1\n", "f.field", "f"),
    ], ids=["vector", "scalar"])
    def test_fields_infinite_argument_names_key(self, tmp_path, capsys, func, X, f, bad, key):
        (tmp_path / "X.field").write_text(X.format(func=func))
        (tmp_path / "f.field").write_text(f.format(func=func))
        argv = ["fields", "--field", str(tmp_path / "X.field"),
                "--scalar", str(tmp_path / "f.field"), "--point=1,1,1,1,1,1"]
        assert main(argv) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: chars 0-10: {func} undefined at inf "
            f"({tmp_path / bad} {key} at point=(1.0, 1.0, 1.0, 1.0, 1.0, 1.0))\n")

    def test_transport_stage_failure_names_component_and_t(self, tmp_path, capsys):
        # Every grid point is fine; only the first RK4 step's midpoint stages
        # (t = 0.0005) divide by zero.
        curve, conn = tmp_path / "pole.curve", tmp_path / "g.conn"
        curve.write_text("x1 = t\nx2 = 1/(t - 0.0005)\nx3 = t^2\nt_min = 0\nt_max = 1\n")
        conn.write_text("gamma 1 2 3 = 0.3\n")
        argv = ["lift", "--kind", "h", "--curve", str(curve), "--connection", str(conn),
                "--w0=1,0,0", "--samples", "3"]
        assert main(argv) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "x2 at t=0.0005, chars 0-14: denominator constant term 0.0" in err

    def test_complex_constant_exponent_exits_2(self, tmp_path, capsys):
        p = tmp_path / "fold.curve"
        p.write_text("x1 = t^((-8)^0.5)\nx2 = t\nx3 = t^2\nt_min = 1\nt_max = 2\n")
        assert main(["frenet", "--curve", str(p), "--samples", "3"]) == EXIT_INPUT
        assert "a foldable constant exponent" in capsys.readouterr().err

    @pytest.mark.parametrize("X, f, span", [
        ("X1 = x1*1e308*10\nX2 = x2\nX3 = x3\n", F_SCALAR, "chars 0-8"),
        (X_FIELD, "f = x2 + 1e999*x1\n", "chars 5-13"),
        (X_FIELD, "f = 1e308*sin(x1) + 1e308*sin(x1)\n", "chars 0-29"),
        ("X1 = x1\nX2 = x2*x1*1e200*1e200\nX3 = x3\n", F_SCALAR, "chars 0-17"),
    ], ids=["product", "number-product", "scalar-sum", "later-product"])
    def test_fields_nonfinite_error_names_span(self, tmp_path, capsys, X, f, span):
        (tmp_path / "X.field").write_text(X)
        (tmp_path / "f.field").write_text(f)
        argv = ["fields", "--field", str(tmp_path / "X.field"),
                "--scalar", str(tmp_path / "f.field"), "--point=1,1,1,1,1,1"]
        assert main(argv) == EXIT_INPUT
        assert f"error: {span}: " in capsys.readouterr().err

    def test_nonflat_transport_over_cap_exits_2(self, tmp_path, capsys, monkeypatch):
        def no_steps(*args):
            raise AssertionError("transport started")

        monkeypatch.setattr(lifts, "_rk4_segment", no_steps)
        p = tmp_path / "far.curve"
        p.write_text("x1 = cos(t)\nx2 = sin(t)\nx3 = t\nt_min = 0\nt_max = 1e300\n")
        conn = tmp_path / "g.conn"
        conn.write_text("gamma 1 2 3 = 0.3\n")
        argv = ["lift", "--curve", str(p), "--kind", "h", "--w0", "1,0,0",
                "--connection", str(conn), "--samples", "3"]
        assert main(argv) == EXIT_INPUT
        assert "MAX_TRANSPORT_STEPS" in capsys.readouterr().err

    def test_samples_cap(self, helix_path, capsys, monkeypatch):
        def no_grid(*args):
            raise AssertionError("sweep started")

        monkeypatch.setattr(cli, "uniform_grid", no_grid)
        for command in (["frenet", "--curve", helix_path], ["verify"]):
            assert main(command + ["--samples", str(cli.MAX_SAMPLES + 1)]) == EXIT_INPUT
            assert "MAX_SAMPLES" in capsys.readouterr().err
        argv = ["frenet", "--curve", "c", "--samples", str(cli.MAX_SAMPLES)]
        assert build_parser().parse_args(argv).samples == cli.MAX_SAMPLES

    def test_evaluation_error_names_component_and_t(self, tmp_path, capsys):
        p = tmp_path / "log.curve"
        p.write_text("x1 = t\nx2 = log(t)\nx3 = t^2\nt_min = 0\nt_max = 1\n")
        assert main(["frenet", "--curve", str(p), "--samples", "3"]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "x2" in err and "t=0" in err and "chars 0-6" in err

    @pytest.mark.parametrize("argv", [
        ["frenet"], ["lift", "--kind", "c"], ["lift", "--kind", "h"],
    ], ids=["frenet", "lift-c", "lift-h"])
    def test_curvature_overflow_exits_2(self, tmp_path, capsys, argv):
        # |b'|^3 overflows while every jet coefficient stays finite.
        p = tmp_path / "big.curve"
        p.write_text("x1 = 1e103*t\nx2 = t^2\nx3 = t^3\nt_min = 0.5\nt_max = 1\n")
        assert main(argv + ["--curve", str(p), "--samples", "3"]) == EXIT_INPUT
        assert "error: curvature overflows at t=0.5" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["frenet"], ["lift", "--kind", "v"], ["lift", "--kind", "c"], ["lift", "--kind", "h"],
    ], ids=["frenet", "lift-v", "lift-c", "lift-h"])
    def test_frame_overflow_names_t(self, tmp_path, capsys, argv):
        # The jets stay finite, but |b'|^2 in the frame's speed overflows.
        p = tmp_path / "big.curve"
        p.write_text("x1 = 1e200*cos(t)\nx2 = 1e200*sin(t)\nx3 = t\nt_min = 0\nt_max = 1\n")
        assert main(argv + ["--curve", str(p), "--samples", "3"]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            "error: at t=0.0: multiplication produced non-finite coefficients\n")

    @pytest.mark.parametrize("flag, text, message", [
        ("curve", "x1 = t\nx2 = t^2\nt_min = 0\nt_max = 1\n", "missing key 'x3'"),
        ("curve", "x1 = t\nx2 = t^2 +\nx3 = t\nt_min = 0\nt_max = 1\n", "line 2: x2: "),
        ("field", "X1 = x2\nX2 = 0\n",
         "expected either key 'f' or keys 'X1', 'X2', 'X3'"),
        ("field", "X1 = x2\nX2 = 0\nX3 = x9\n", "line 3: X3: "),
        ("scalar", "f = 1\nf = 2\n", "line 2: duplicate key 'f'"),
        ("connection", "flat = true\ngamma 1 1 1 = 1\n",
         "'flat = true' excludes explicit gamma entries"),
        ("connection", "gamma 1 2 3 = nan\n",
         "line 1: gamma value must be a finite number, got 'nan'"),
        ("connection", "gamma 1 2 3 = 1e400\n",
         "line 1: gamma value must be a finite number, got '1e400'"),
    ], ids=["curve-missing-key", "curve-line", "field-keys", "field-line", "scalar-line",
            "connection", "connection-nan", "connection-overflow"])
    def test_format_error_names_file(self, tmp_path, capsys, flag, text, message):
        files = {"curve": HELIX_FILE, "field": X_FIELD, "scalar": F_SCALAR,
                 "connection": GAMMA_FILE, flag: text}
        paths = {}
        for key, body in files.items():
            paths[key] = tmp_path / f"{key}.in"
            paths[key].write_text(body)
        if flag in ("field", "scalar"):
            argv = ["fields", "--field", str(paths["field"]), "--scalar", str(paths["scalar"]),
                    "--point=1,1,1,1,1,1"]
        else:
            argv = ["lift", "--kind", "h", "--w0=1,0,0", "--curve", str(paths["curve"]),
                    "--connection", str(paths["connection"]), "--samples", "3"]
        assert main(argv) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"error: {paths[flag]}: {message}" in err
        assert "line 0" not in err


def _readme_cli_section() -> str:
    return README.read_text().split("## CLI\n", 1)[1].split("\n## ", 1)[0]


class TestReadme:
    def test_cli_examples_parse(self):
        block = _readme_cli_section().split("```\n")[1]
        lines = [line for line in block.splitlines() if line.startswith("frenetlift ")]
        assert len(lines) >= 8
        for line in lines:
            argv = _join_vector_flags(shlex.split(line, comments=True)[1:])
            try:
                build_parser().parse_args(argv)
            except SystemExit:
                pytest.fail(f"README example does not parse: {line}")

    def test_flag_table_matches_parser(self):
        rows = re.findall(r"^\| `(\w+)` \| (.+) \|$", _readme_cli_section(), re.M)
        table = {cmd: re.findall(r"`(--\w+)`", flags) for cmd, flags in rows}
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        parsed = {
            name: [a.option_strings[0] for a in p._actions if a.dest != "help"]
            for name, p in sub.choices.items()
        }
        assert table == parsed


def _per_value_csv(header, rows, summary):
    """CSV as a '%.17g' join over each value: the reference for the row
    template of cli._emit_rows."""
    lines = [",".join(header)] + [",".join("%.17g" % v for v in row) for row in rows]
    if summary is not None:
        lines.append("# " + " ".join(f"{k}={'%.17g' % v}" for k, v in summary.items()))
    return "\n".join(lines) + "\n"


class TestEmitRows:
    HEADER = ["a", "b", "c", "d", "e", "f", "g"]
    ROWS = [
        [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308, 3],
        [0.1, -2, 0.0, 1 / 3, -5e-324, -1.7976931348623157e308, 12345678901234567890],
    ]

    @pytest.mark.parametrize("summary", [None, {"max_residual": 1e-17, "kappa_spread": -0.0}],
                             ids=["plain", "trailer"])
    def test_csv_matches_per_value_format(self, tmp_path, summary):
        out = tmp_path / "out.csv"
        args = argparse.Namespace(format="csv", out=str(out))
        cli._emit_rows(args, self.HEADER, self.ROWS, summary)
        assert out.read_bytes() == _per_value_csv(self.HEADER, self.ROWS, summary).encode()

    def test_json_unchanged(self, tmp_path):
        out = tmp_path / "out.json"
        args = argparse.Namespace(format="json", out=str(out))
        cli._emit_rows(args, self.HEADER, self.ROWS[1:], {"s": math.nan})
        row = dict(zip(self.HEADER, self.ROWS[1]))
        want = {"rows": [row], "summary": {"s": None}}
        assert out.read_text() == json.dumps(want, indent=2, allow_nan=False) + "\n"


class TestDeterminism:
    def test_csv_byte_identical(self, helix_path, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            code = main(["frenet", "--curve", helix_path, "--samples", "50",
                         "--out", str(out)])
            assert code == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_17_digit_roundtrip(self, helix_path, tmp_path):
        out = tmp_path / "o.csv"
        main(["frenet", "--curve", helix_path, "--samples", "4", "--out", str(out)])
        _, rows, _ = read_csv(out)
        # Parsing the text back must reproduce the doubles exactly.
        from frenetlift.frenet import frenet_apparatus
        from frenetlift.expr import parse_curve_file
        curve = parse_curve_file(HELIX_FILE)
        app = frenet_apparatus(curve, rows[2]["t"])
        assert rows[2]["kappa"] == app.kappa
        assert rows[2]["T1"] == app.T[0]

    def test_unknown_subcommand_exits_2(self):
        assert main(["frobnicate"]) == EXIT_INPUT


class TestFieldsErrorOrigin:
    """A fields evaluation error names the tangent point and the first file
    and key whose own forward pass there raises the printed error, whichever
    order the files come in."""

    @pytest.mark.parametrize("bad_first", [True, False], ids=["bad-first", "bad-second"])
    def test_vector_file_and_key(self, tmp_path, capsys, bad_first):
        bad, good = tmp_path / "bad.field", tmp_path / "X.field"
        bad.write_text("X1 = x2\nX2 = 1/(x1-x1)\nX3 = x3\n")
        good.write_text(X_FIELD)
        (tmp_path / "f.field").write_text(F_SCALAR)
        files = [bad, good] if bad_first else [good, bad]
        argv = ["fields", "--field", str(files[0]), "--field", str(files[1]),
                "--scalar", str(tmp_path / "f.field"), "--point=1,2,3,0.5,0,-1"]
        assert main(argv) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err == (f"error: chars 0-9: denominator constant term 0.0 "
                       f"({bad} X2 at point=(1.0, 2.0, 3.0, 0.5, 0.0, -1.0))\n")

    @pytest.mark.parametrize("bad_first", [True, False], ids=["bad-first", "bad-second"])
    def test_scalar_file_and_key(self, tmp_path, capsys, bad_first):
        bad, good = tmp_path / "log.field", tmp_path / "f.field"
        bad.write_text("f = log(x1)\n")
        good.write_text(F_SCALAR)
        (tmp_path / "X.field").write_text(X_FIELD)
        files = [bad, good] if bad_first else [good, bad]
        argv = ["fields", "--field", str(tmp_path / "X.field"), "--scalar", str(files[0]),
                "--scalar", str(files[1]), "--point=-1,1,1,1,1,1"]
        assert main(argv) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err == (f"error: chars 0-7: log undefined at -1.0 "
                       f"({bad} f at point=(-1.0, 1.0, 1.0, 1.0, 1.0, 1.0))\n")

    def test_overflowing_value_names_key(self, tmp_path, capsys):
        (tmp_path / "X.field").write_text("X1 = x1\nX2 = x2\nX3 = x3*1e308*10\n")
        (tmp_path / "f.field").write_text(F_SCALAR)
        argv = ["fields", "--field", str(tmp_path / "X.field"),
                "--scalar", str(tmp_path / "f.field"), "--point=1,1,1,1,1,1"]
        assert main(argv) == EXIT_INPUT
        assert f"({tmp_path / 'X.field'} X3 at point=" in capsys.readouterr().err

    def test_derivative_only_failure_names_point(self, tmp_path, capsys):
        # sqrt(0.0) is a float but no jet: no file fails in plain floats, so
        # the forward pass of each component finds the key.
        (tmp_path / "X.field").write_text("X1 = sqrt(x1)\nX2 = x2\nX3 = x3\n")
        (tmp_path / "f.field").write_text(F_SCALAR)
        argv = ["fields", "--field", str(tmp_path / "X.field"),
                "--scalar", str(tmp_path / "f.field"), "--point=0,1,1,1,1,1"]
        assert main(argv) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: chars 0-8: sqrt undefined at 0.0 "
            f"({tmp_path / 'X.field'} X1 at point=(0.0, 1.0, 1.0, 1.0, 1.0, 1.0))\n")

    def test_derivative_only_failure_names_scalar_key(self, tmp_path, capsys):
        (tmp_path / "X.field").write_text(X_FIELD)
        (tmp_path / "f.field").write_text("f = sqrt(x1)\n")
        argv = ["fields", "--field", str(tmp_path / "X.field"),
                "--scalar", str(tmp_path / "f.field"), "--point=0,1,1,1,1,1"]
        assert main(argv) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: chars 0-8: sqrt undefined at 0.0 "
            f"({tmp_path / 'f.field'} f at point=(0.0, 1.0, 1.0, 1.0, 1.0, 1.0))\n")

    @pytest.mark.parametrize("other, files", [
        ("X1 = x2\nX2 = 1/x1\nX3 = x3\n", ["--field", "X", "--field", "other", "--scalar", "f"]),
        ("f = 1/x1\n", ["--field", "X", "--scalar", "other", "--scalar", "f"]),
    ], ids=["vector", "scalar"])
    def test_names_the_file_that_raised_the_printed_error(self, tmp_path, capsys, other, files):
        # X's partials fail first; a later file that also fails at the point,
        # with another error, is not the one named.
        (tmp_path / "X.field").write_text("X1 = sqrt(x1)\nX2 = x2\nX3 = x3\n")
        (tmp_path / "other.field").write_text(other)
        (tmp_path / "f.field").write_text(F_SCALAR)
        argv = ["fields", *[a if a.startswith("--") else str(tmp_path / f"{a}.field")
                            for a in files], "--point=0,1,1,1,1,1"]
        assert main(argv) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: chars 0-8: sqrt undefined at 0.0 "
            f"({tmp_path / 'X.field'} X1 at point=(0.0, 1.0, 1.0, 1.0, 1.0, 1.0))\n")

    def _root_overflow(self, tmp_path, capsys, fields, f):
        argv = ["fields"]
        for i, text in enumerate(fields):
            (tmp_path / f"X{i}.field").write_text(text)
            argv += ["--field", str(tmp_path / f"X{i}.field")]
        (tmp_path / "f.field").write_text(f)
        argv += ["--scalar", str(tmp_path / "f.field"), "--point=1,1,1,1,1,1"]
        assert main(argv) == EXIT_INPUT
        return capsys.readouterr().err

    def test_error_no_single_component_meets_names_only_the_point(self, tmp_path, capsys):
        # fX overflows in its root product where neither f nor X does; the
        # root's own test fails, before any lifted fiber is formed.
        err = self._root_overflow(
            tmp_path, capsys, ["X1 = x1*1e200\nX2 = x2\nX3 = x3\n"], "f = x1*1e200\n")
        assert err == ("error: chars 0-0: multiplication produced non-finite coefficients "
                       "(at point=(1.0, 1.0, 1.0, 1.0, 1.0, 1.0))\n")

    def test_sum_overflow_names_only_the_point(self, tmp_path, capsys):
        # X+Y overflows in its root sum where neither X nor Y does.
        err = self._root_overflow(
            tmp_path, capsys, ["X1 = 1e308 + x1\nX2 = x2\nX3 = x3\n",
                               "X1 = 1e308 - x2\nX2 = x3\nX3 = x1\n"], "f = x1*x2\n")
        assert err == ("error: chars 0-0: addition produced non-finite coefficients "
                       "(at point=(1.0, 1.0, 1.0, 1.0, 1.0, 1.0))\n")

    def test_success_evaluates_no_file_again(self, tmp_path, monkeypatch):
        (tmp_path / "X.field").write_text(X_FIELD)
        (tmp_path / "f.field").write_text(F_SCALAR)

        def no_search(*args):
            raise AssertionError("error path taken")

        monkeypatch.setattr(cli, "_first_failing_key", no_search)
        argv = ["fields", "--field", str(tmp_path / "X.field"), "--scalar",
                str(tmp_path / "f.field"), "--point=1,2,3,0,0,0", "--out", str(tmp_path / "o.csv")]
        assert main(argv) == EXIT_OK
