"""Command line behavior: formats, exit codes, determinism."""

import argparse
import json
import re
import shlex
from pathlib import Path

import pytest

from frenetlift.cli import (
    EXIT_DEGENERATE,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    _join_vector_flags,
    build_parser,
    main,
)

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

    def test_unknown_tolerance_exits_2(self):
        assert main(["verify", "--tol", "bogus=1"]) == EXIT_INPUT


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

    def test_evaluation_error_names_component_and_t(self, tmp_path, capsys):
        p = tmp_path / "log.curve"
        p.write_text("x1 = t\nx2 = log(t)\nx3 = t^2\nt_min = 0\nt_max = 1\n")
        assert main(["frenet", "--curve", str(p), "--samples", "3"]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "x2" in err and "t=0" in err and "chars 0-6" in err


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
