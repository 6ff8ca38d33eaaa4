"""Command line behavior: formats, exit codes, determinism."""

import argparse
import contextlib
import errno
import io
import json
import math
import os
import re
import shlex
import stat
import struct
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, seed, settings, strategies as st

from frenetlift import cli, lifts, verify
from frenetlift.cli import (
    EXIT_DEGENERATE,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    _join_vector_flags,
    build_parser,
    main,
)
from frenetlift.expr import CurveSpec, Neg, Num, parse_curve_file, parse_expr, parse_number
from frenetlift.lifted_frenet import LiftedCurve
from frenetlift.lifts import parse_connection_file
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

    def test_exponent_folding_to_nan_exits_2(self, tmp_path, capsys):
        p = tmp_path / "nan.curve"
        p.write_text("x1 = t\nx2 = t^2\nx3 = t^(1e999-1e999)\nt_min = 0\nt_max = 1\n")
        assert main(["frenet", "--curve", str(p)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert str(p) in err and "line 3" in err and "foldable constant exponent" in err

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
        for value, message in (("1e999", "kappa_floor must be positive and finite, got inf"),
                               ("nan", "expected a number, got 'nan'"),
                               ("inf", "expected a number, got 'inf'")):
            argv = ["frenet", "--curve", str(p), "--samples", "3", "--tol", f"kappa_floor={value}"]
            assert main(argv) == EXIT_INPUT
            assert message in capsys.readouterr().err

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

    def test_default_anchor_prints_the_first_point(self, tmp_path, capsys):
        # On tan and non-integer powers libm and the jet kernel differ in the
        # last bit; the anchor is the first point's jet value all the same.
        curve = tmp_path / "c.curve"
        curve.write_text("x1 = tan(t)\nx2 = t^2.5\nx3 = (1+t)^-3\nt_min = 0.7\nt_max = 1.4\n")
        assert main(["lift", "--kind", "v", "--curve", str(curve), "--samples", "2"]) == EXIT_OK
        row = capsys.readouterr().out.split("\n")[1].split(",")
        assert row[1:4] == row[4:7]

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

    def test_nan_residual_is_written(self, tmp_path):
        # Component 4 of f^c X^v + f^v X^c is 1e10*1e299 + 10*(-1e308), which
        # is inf - inf: the module_c residual is NaN, not the 0 that max()
        # would keep by dropping it.
        files = {"X.field": "X1 = 1e300/x1\nX2 = x2\nX3 = x3\n",
                 "Y.field": "X1 = x2\nX2 = x3\nX3 = x1\n",
                 "f.field": "f = x1\n", "g.field": "f = x2\n"}
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        argv = ["fields", "--field", str(tmp_path / "X.field"), "--field", str(tmp_path / "Y.field"),
                "--scalar", str(tmp_path / "f.field"), "--scalar", str(tmp_path / "g.field"),
                "--point=10,1,1,1e10,0,0"]
        out = tmp_path / "fields.csv"
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        header, rows, _ = read_csv(out)
        residuals = {h: rows[0][h] for h in header if h.startswith("res_")}
        assert [h for h, v in residuals.items() if math.isnan(v)] == ["res_module_c"]
        assert "nan" in out.read_text().split("\n")[1].split(",")
        out = tmp_path / "fields.json"
        assert main(argv + ["--format", "json", "--out", str(out)]) == EXIT_OK
        row = json.loads(out.read_text(), parse_constant=_no_constant)["rows"][0]
        assert row["res_module_c"] is None
        assert all(row[h] is not None for h in residuals if h != "res_module_c")

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

    @staticmethod
    def _counted(monkeypatch, tmp_path, act):
        """Patch verify's prop21_check to log each call's pid, point and
        connection to a file, so that a forked child's calls count too, then
        call ``act(n, parent, args)`` with the call's number in the suite;
        returns the log's path."""
        log, parent, own = tmp_path / "calls.log", os.getpid(), []

        def suite(*args):
            own.append(None)
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {args[5].x + args[5].y} {args[4].is_flat}\n")
            # A forked child evaluates the second half of the 4000 calls.
            forked = os.getpid() != parent
            return act(len(own) + (2000 if forked else 0), parent, args)

        monkeypatch.setattr(verify, "prop21_check", suite)
        return log

    @staticmethod
    def _pids(log) -> list[int]:
        return [int(line.split(" ", 1)[0]) for line in log.read_text().splitlines()]

    def test_split_evaluates_the_serial_calls(self, monkeypatch, tmp_path):
        # The parent's calls, then the child's, are the serial run's calls.
        zero = lifts.Prop21Result({"module_c": 0.0})
        logs = []
        for fork in (True, False):
            if not fork:
                monkeypatch.delattr(os, "fork")
            run = tmp_path / str(fork)
            run.mkdir()
            logs.append(self._counted(monkeypatch, run, lambda n, parent, args: zero))
            assert main(["verify", "--samples", "7"]) == EXIT_OK
        split, serial = ([line.split(" ", 1) for line in log.read_text().splitlines()]
                         for log in logs)
        assert len(serial) == 4000
        assert ([call for pid, call in split if int(pid) == os.getpid()]
                + [call for pid, call in split if int(pid) != os.getpid()]
                == [call for pid, call in serial])

    @pytest.mark.parametrize("nan_at", [5, 15 * 200 + 7], ids=["parent_share", "child_share"])
    def test_nan_suite_residual_fails(self, capsys, monkeypatch, tmp_path, nan_at):
        # One NaN residual among the suite's points, not the first one,
        # fails prop21_max_residual; a max() fold would drop it.  Call 5 is
        # in quad 0, the parent's share, and call 3007 in quad 15, the
        # child's share.
        log = self._counted(monkeypatch, tmp_path, lambda n, parent, args: lifts.Prop21Result(
            {"module_c": math.nan if n == nan_at else 0.0}))
        assert main(["verify", "--samples", "7"]) == EXIT_VERIFY_FAILED
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if line.startswith("FAIL")] == [
            "FAIL prop21_max_residual: value=nan bound <= 1.000000e-10"]
        pids = self._pids(log)
        assert len(pids) == 4000
        if verify._can_fork():
            assert pids.count(os.getpid()) == 2000

    @pytest.fixture(scope="class")
    def unpatched_lines(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("verify") / "verify.txt"
        assert main(["verify", "--samples", "7", "--out", str(out)]) == EXIT_OK
        return out.read_text().splitlines()

    @pytest.mark.parametrize("how", ["raise", "exit"])
    def test_failing_child_is_redone_in_parent(self, how, monkeypatch, tmp_path,
                                               unpatched_lines):
        # A child that raises or exits non-zero reports nothing; the parent
        # evaluates the child's share itself and prints the serial lines.
        real = verify.prop21_check

        def act(n, parent, args):
            if os.getpid() != parent:
                if how == "exit":
                    os._exit(3)
                raise RuntimeError("child share")
            return real(*args)

        log = self._counted(monkeypatch, tmp_path, act)
        out = tmp_path / "verify.txt"
        assert main(["verify", "--samples", "7", "--out", str(out)]) == EXIT_OK
        assert out.read_text().splitlines() == unpatched_lines
        assert self._pids(log).count(os.getpid()) == 4000
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_parent_error_propagates_and_child_is_reaped(self, error, monkeypatch, tmp_path):
        def act(n, parent, args):
            if os.getpid() == parent and n == 3:
                raise error("parent share")
            return lifts.Prop21Result({"module_c": 0.0})

        self._counted(monkeypatch, tmp_path, act)
        out = tmp_path / "verify.txt"
        with pytest.raises(error, match="^parent share$"):
            main(["verify", "--samples", "7", "--out", str(out)])
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert not out.exists()

    @pytest.mark.parametrize("case", ["no_fork", "one_cpu", "other_thread"])
    def test_serial_suite_without_fork(self, case, monkeypatch, tmp_path, unpatched_lines):
        # The suite forks only with os.fork, a second CPU and no other
        # thread; otherwise this process evaluates both halves in order.
        if case == "no_fork":
            monkeypatch.delattr(os, "fork")
        elif case == "one_cpu":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 1)
        else:
            monkeypatch.setattr(threading, "active_count", lambda: 2)
        real = verify.prop21_check
        log = self._counted(monkeypatch, tmp_path, lambda n, parent, args: real(*args))
        out = tmp_path / "verify.txt"
        assert main(["verify", "--samples", "7", "--out", str(out)]) == EXIT_OK
        assert out.read_text().splitlines() == unpatched_lines
        assert self._pids(log) == [os.getpid()] * 4000

    def test_unknown_tolerance_exits_2(self):
        assert main(["verify", "--tol", "bogus=1"]) == EXIT_INPUT

    @pytest.mark.parametrize("value", ["nan", "inf", "1e999"])
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

    # 1e999 reads as inf, which is refused; the spellings nan and inf are
    # not numbers.
    @pytest.mark.parametrize("bad, reason", [
        ("nan", "needs {n} comma-separated numbers"),
        ("inf", "needs {n} comma-separated numbers"),
        ("-inf", "needs {n} comma-separated numbers"),
        ("1e999", "needs finite numbers"),
        ("-1e999", "needs finite numbers"),
    ], ids=["nan", "inf", "-inf", "1e999", "-1e999"])
    @pytest.mark.parametrize(
        "argv, flag, value, n",
        [
            (["lift", "--kind", "h"], "--w0", "1,{bad},0", 3),
            (["lift", "--kind", "v"], "--anchor", "{bad},1,-0.5", 3),
            (["fields", "--field", "{X}", "--scalar", "{f}"], "--point", "1,2,3,0,0,{bad}", 6),
        ],
        ids=["w0", "anchor", "point"],
    )
    def test_non_finite_value_names_flag(self, argv, flag, value, n, bad, reason, helix_path,
                                         tmp_path, capsys):
        (tmp_path / "X.field").write_text(X_FIELD)
        (tmp_path / "f.field").write_text(F_SCALAR)
        base = [a.format(X=tmp_path / "X.field", f=tmp_path / "f.field") for a in argv]
        if argv[0] == "lift":
            base += ["--curve", helix_path, "--samples", "5"]
        text = value.format(bad=bad)
        assert main(base + [f"{flag}={text}"]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"argument {flag}: {reason.format(n=n)}, got {text!r}" in err


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


class TestRepeatedCalls:
    """``main`` parses every call of a process with one parser; no call may
    see a flag of the call before it."""

    def test_tolerance_does_not_carry_over(self, paths):
        argv = fill(BASE["lift"] + ["--out", "{out}"], paths)
        assert main(argv + ["--tol", "kappa_floor=0.2"]) == EXIT_DEGENERATE
        assert main(argv) == EXIT_OK

    def test_parse_error_leaves_the_next_call_intact(self, paths, capsys):
        argv = fill(BASE["lift"] + ["--out", "{out}"], paths)
        # --tol is taken before --samples fails to parse.
        assert main(argv + ["--tol", "kappa_floor=0.2", "--samples", "1"]) == EXIT_INPUT
        assert "argument --samples" in capsys.readouterr().err
        assert main(argv) == EXIT_OK

    def test_format_does_not_carry_over(self, paths):
        argv = fill(BASE["frenet"] + ["--out", "{out}"], paths)
        out = Path(paths["out"])
        assert main(argv + ["--format", "json"]) == EXIT_OK
        assert len(json.loads(out.read_text())["rows"]) == 3
        assert main(argv) == EXIT_OK
        assert out.read_text().startswith("t,")

    def test_build_parser_returns_a_fresh_parser(self):
        assert build_parser() is not build_parser()


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

    @pytest.mark.parametrize("components, where", [
        (("1/(t - 0.0005)", "t", "t^2"), "x1 at t=0.0005, chars 0-14"),
        (("t", "1/(t - 0.0005)", "t^2"), "x2 at t=0.0005, chars 0-14"),
        (("t", "t^2", "1/(t - 0.0005)"), "x3 at t=0.0005, chars 0-14"),
        (("t", "1/(t - 0.001)", "t^2"), "x2 at t=0.001, chars 0-13"),
    ], ids=["x1-midpoint", "x2-midpoint", "x3-midpoint", "x2-step-end"])
    def test_transport_stage_failure_names_component_and_t(
            self, tmp_path, capsys, components, where):
        # Every grid point is fine; only the first RK4 step's midpoint stages
        # (t = 0.0005), or its last stage (u + h = 0.001), divide by zero.
        curve, conn = tmp_path / "pole.curve", tmp_path / "g.conn"
        curve.write_text("".join(f"x{i} = {c}\n" for i, c in enumerate(components, 1))
                         + "t_min = 0\nt_max = 1\n")
        conn.write_text("gamma 1 2 3 = 0.3\n")
        argv = ["lift", "--kind", "h", "--curve", str(curve), "--connection", str(conn),
                "--w0=1,0,0", "--samples", "3"]
        assert main(argv) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"{where}: denominator constant term 0.0" in err

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

    @pytest.mark.parametrize("gamma, w0", [
        # The oracle's dot products overflow; the frame and its lift do not.
        ("gamma 1 2 3 = 1e200", "1,2,3"),
        # The fiber of the lifted N overflows in the contraction with w.
        ("gamma 1 2 1 = 1e300", "0,1e10,0"),
    ], ids=["oracle", "lifted-frame"])
    def test_horizontal_overflow_names_t(self, tmp_path, capsys, gamma, w0):
        curve, conn = tmp_path / "unit.curve", tmp_path / "big.conn"
        curve.write_text("x1 = cos(t)\nx2 = sin(t)\nx3 = t\nt_min = 0\nt_max = 1\n")
        conn.write_text(gamma + "\n")
        argv = ["lift", "--kind", "h", f"--w0={w0}", "--curve", str(curve),
                "--connection", str(conn), "--samples", "3"]
        assert main(argv) == EXIT_INPUT
        assert capsys.readouterr().err == (
            "error: at t=0.0: multiplication produced non-finite coefficients\n")

    @pytest.mark.parametrize("flag", ["curve", "field", "scalar", "connection"])
    @pytest.mark.parametrize("how, reason", [
        ("undecodable", "'utf-8' codec can't decode byte 0xff"),
        ("missing", "No such file or directory"),
        ("directory", "Is a directory"),
    ], ids=["undecodable", "missing", "directory"])
    def test_unreadable_input_names_file(self, tmp_path, capsys, flag, how, reason):
        files = {"curve": HELIX_FILE, "field": X_FIELD, "scalar": F_SCALAR,
                 "connection": GAMMA_FILE}
        paths = {}
        for key, body in files.items():
            paths[key] = tmp_path / f"{key}.in"
            paths[key].write_text(body)
        bad = paths[flag] = tmp_path / f"bad-{flag}"
        if how == "undecodable":
            bad.write_bytes(b"x1 = t\xff\n")
        elif how == "directory":
            bad.mkdir()
        if flag in ("field", "scalar"):
            argv = ["fields", "--field", str(paths["field"]), "--scalar", str(paths["scalar"]),
                    "--point=1,1,1,1,1,1"]
        else:
            argv = ["lift", "--kind", "h", "--w0=1,0,0", "--curve", str(paths["curve"]),
                    "--connection", str(paths["connection"]), "--samples", "3"]
        assert main(argv) == EXIT_INPUT
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith(f"error: cannot read {bad}: ")
        assert reason in out.err and out.err.count("\n") == 1

    @pytest.mark.parametrize("flag, text, message", [
        ("curve", "x1 = t\nx2 = t^2\nt_min = 0\nt_max = 1\n", "missing key 'x3'"),
        ("curve", "x1 = t\nx2 = t^2 +\nx3 = t\nt_min = 0\nt_max = 1\n",
         "line 2: x2: at offset 5: expected a number, variable, function call, '(' or '-'"),
        ("curve", "x1 = t\nx2 t\nx3 = t\nt_min = 0\nt_max = 1\n",
         "line 2: expected 'key = value', got 'x2 t'"),
        ("curve", "x1 = t\nx2 = t\nx3 = t\nt_min = zero\nt_max = 1\n",
         "line 4: t_min must be a number, got 'zero'"),
        ("curve", "x1 = 1e+*t\nx2 = t\nx3 = t\nt_min = 0\nt_max = 1\n",
         "line 1: x1: at offset 1: expected exponent digits"),
        ("curve", "x1 = 1.5\u00b2*t\nx2 = t\nx3 = t\nt_min = 0\nt_max = 1\n",
         "line 1: x1: at offset 3: expected a token (found '\u00b2')"),
        ("curve", "x1 = t\nx2 = t\nx3 = \u0663*t\nt_min = 0\nt_max = 1\n",
         "line 3: x3: at offset 0: expected a token (found '\u0663')"),
        ("field", "X1 = x2\nX2 = 0\n",
         "expected either key 'f' or keys 'X1', 'X2', 'X3'"),
        ("field", "X1 = x2\nX2 = 0\nX3 = x9\n", "line 3: X3: at offset 0: unknown variable 'x9'"),
        ("scalar", "f = 1\nf = 2\n", "line 2: duplicate key 'f'"),
        ("connection", "flat = true\ngamma 1 1 1 = 1\n",
         "'flat = true' excludes explicit gamma entries"),
        ("connection", "gamma 1 2 3 = nan\n",
         "line 1: gamma value must be a number, got 'nan'"),
        ("connection", "gamma 1 2 3 = -1e999\n",
         "line 1: gamma value must be a finite number, got '-1e999'"),
        ("connection", "gamma 1 2 3 = 1e400\n",
         "line 1: gamma value must be a finite number, got '1e400'"),
        ("connection", "flat = yes\n", "line 1: flat must be true or false, got 'yes'"),
        ("connection", "gamma 1 1 1 = 1\ngamma 1 2 = 0.5\n",
         "line 2: expected 'gamma A B G = value', got 'gamma 1 2 = 0.5'"),
        ("connection", "gamma 1 a 3 = 0.5\n",
         "line 1: gamma indices must each be 1, 2 or 3, got 'gamma 1 a 3'"),
        ("connection", "gamma 1 2 3 = half\n",
         "line 1: gamma value must be a number, got 'half'"),
        ("connection", "gamma 1 2 3 = 0.5\ngamma 1 2 3 = 1\n",
         "line 2: duplicate gamma entry 'gamma 1 2 3'"),
    ], ids=["curve-missing-key", "curve-line", "curve-not-key-value", "curve-t-min",
            "curve-exponent", "curve-superscript-digit", "curve-arabic-digit", "field-keys",
            "field-line", "scalar-line", "connection", "connection-nan", "connection-inf",
            "connection-overflow", "connection-flat-value", "connection-key", "connection-index",
            "connection-value", "connection-duplicate"])
    def test_format_error_names_file(self, tmp_path, capsys, flag, text, message):
        files = {"curve": HELIX_FILE, "field": X_FIELD, "scalar": F_SCALAR,
                 "connection": GAMMA_FILE, flag: text}
        paths = {}
        for key, body in files.items():
            paths[key] = tmp_path / f"{key}.in"
            paths[key].write_text(body, encoding="utf-8")
        if flag in ("field", "scalar"):
            argv = ["fields", "--field", str(paths["field"]), "--scalar", str(paths["scalar"]),
                    "--point=1,1,1,1,1,1"]
        else:
            argv = ["lift", "--kind", "h", "--w0=1,0,0", "--curve", str(paths["curve"]),
                    "--connection", str(paths["connection"]), "--samples", "3"]
        assert main(argv) == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {paths[flag]}: {message}\n"

    @pytest.mark.parametrize("argv, message", [
        (["fields", "--field", "{f}", "--scalar", "{f}", "--point=1,2,3,0,0,0"],
         "error: --field file must define a vector field (X1, X2, X3)"),
        (["lift", "--kind", "h", "--curve", "{curve}", "--w0=a,b,c"],
         "frenetlift lift: error: argument --w0: needs 3 comma-separated numbers, got 'a,b,c'"),
        (["frenet", "--curve", "{curve}", "--samples", "ten"],
         "frenetlift frenet: error: argument --samples: must be an integer from 2 to "
         "1000000 (MAX_SAMPLES), got 'ten'"),
    ], ids=["scalar-as-field", "w0-not-numbers", "samples-not-integer"])
    def test_bad_flag_value_exits_2(self, tmp_path, capsys, argv, message):
        (tmp_path / "f.field").write_text(F_SCALAR)
        (tmp_path / "h.curve").write_text(HELIX_FILE)
        argv = [a.format(f=tmp_path / "f.field", curve=tmp_path / "h.curve") for a in argv]
        assert main(argv) == EXIT_INPUT
        assert capsys.readouterr().err.splitlines()[-1] == message


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
        (math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308, 3),
        (0.1, -2, 0.0, 1 / 3, -5e-324, -1.7976931348623157e308, 12345678901234567890),
    ]

    @pytest.mark.parametrize("summary", [None, {"max_residual": 1e-17, "kappa_spread": -0.0}],
                             ids=["plain", "trailer"])
    def test_csv_matches_per_value_format(self, tmp_path, summary):
        out = tmp_path / "out.csv"
        args = argparse.Namespace(format="csv", out=str(out))
        cli._emit_rows(args, iter([self.HEADER, *self.ROWS]), summary)
        assert out.read_bytes() == _per_value_csv(self.HEADER, self.ROWS, summary).encode()

    def test_json_unchanged(self, tmp_path):
        out = tmp_path / "out.json"
        args = argparse.Namespace(format="json", out=str(out))
        cli._emit_rows(args, iter([self.HEADER, *self.ROWS[1:]]), {"s": math.nan})
        row = dict(zip(self.HEADER, self.ROWS[1]))
        want = {"rows": [row], "summary": {"s": None}}
        assert out.read_text() == json.dumps(want, indent=2, allow_nan=False) + "\n"


# x1 = t, x2 = t^3 has kappa = 0 at t = 0, the middle point of a 3-sample grid.
CUSP_FILE = "x1 = t\nx2 = t^3\nx3 = 0\nt_min = -1\nt_max = 1\n"
FAILING = {"frenet": ["frenet"], "lift": ["lift", "--kind", "c"]}


class TestOutputTarget:
    """Output opens before the first point is computed, CSV rows leave as
    they are computed, and --out replaces its target only on success."""

    @pytest.fixture
    def inputs(self, tmp_path):
        (tmp_path / "X.field").write_text(X_FIELD)
        (tmp_path / "f.field").write_text(F_SCALAR)
        (tmp_path / "h.curve").write_text(HELIX_FILE)
        return tmp_path

    WORK = {
        "frenet": (["frenet", "--curve", "{dir}/h.curve", "--samples", "3"],
                   cli, "frenet_apparatus"),
        "lift": (["lift", "--kind", "c", "--curve", "{dir}/h.curve", "--samples", "3"],
                 cli.LiftedCurve, "_apparatus"),
        "fields": (["fields", "--field", "{dir}/X.field", "--scalar", "{dir}/f.field",
                    "--point=1,2,3,0.5,0,-1"], cli, "lift_field"),
        "verify": (["verify", "--samples", "7"], cli, "run_checks"),
    }

    @pytest.mark.parametrize("target", ["directory", "missing-parent"])
    @pytest.mark.parametrize("command", sorted(WORK))
    def test_unwritable_out_exits_2_before_any_point(self, inputs, command, target,
                                                     capsys, monkeypatch):
        argv, owner, attr = self.WORK[command]

        def no_work(*args, **kwargs):
            raise AssertionError("computation started")

        monkeypatch.setattr(owner, attr, no_work)
        out = str(inputs) if target == "directory" else str(inputs / "missing" / "x.csv")
        before = sorted(p.name for p in inputs.iterdir())
        argv = [a.format(dir=inputs) for a in argv] + ["--out", out]
        assert main(argv) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {out}: ")
        assert captured.out == ""
        assert sorted(p.name for p in inputs.iterdir()) == before

    class FailingStdout(io.StringIO):
        """A stdout whose ``write`` or ``flush`` raises ``error``."""

        def __init__(self, method, error):
            super().__init__()
            self.method, self.error = method, error

        def write(self, text):
            if self.method == "write":
                raise self.error
            return super().write(text)

        def flush(self):
            if self.method == "flush":
                raise self.error

    @pytest.mark.parametrize("error", [OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)),
                                       BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))],
                             ids=["ENOSPC", "EPIPE"])
    @pytest.mark.parametrize("method", ["write", "flush"])
    @pytest.mark.parametrize("command", sorted(WORK))
    def test_unwritable_stdout_exits_2(self, inputs, command, method, error, capsys,
                                       monkeypatch):
        monkeypatch.setattr(sys, "stdout", self.FailingStdout(method, error))
        argv = [a.format(dir=inputs) for a in self.WORK[command][0]]
        assert main(argv) == EXIT_INPUT
        assert capsys.readouterr().err == f"error: cannot write stdout: {error.strerror}\n"

    @pytest.mark.parametrize("error", [OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)),
                                       BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))],
                             ids=["ENOSPC", "EPIPE"])
    @pytest.mark.parametrize("curve, code", [(None, EXIT_INPUT), (LINE_FILE, EXIT_DEGENERATE)],
                             ids=["missing-curve", "straight-line"])
    def test_unwritable_stderr_keeps_the_exit_code(self, tmp_path, curve, code, error,
                                                   monkeypatch):
        # The error line is lost, but the code is still the error's, not 1.
        path = tmp_path / "c.curve"
        if curve is not None:
            path.write_text(curve)
        monkeypatch.setattr(sys, "stderr", self.FailingStdout("write", error))
        assert main(["frenet", "--curve", str(path), "--samples", "3"]) == code

    def test_closed_pipe_exits_2_without_traceback(self, helix_path):
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        argv = ["lift", "--kind", "c", "--curve", helix_path, "--samples", "3000"]
        with subprocess.Popen([sys.executable, "-m", "frenetlift.cli", *argv], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert proc.stdout.readline().startswith(b"t,p1,")
            proc.stdout.close()
            err = proc.stderr.read().decode()
            assert proc.wait(60) == EXIT_INPUT
        assert err == "error: cannot write stdout: Broken pipe\n"

    def test_out_through_a_symlink_replaces_the_file_it_names(self, helix_path, tmp_path):
        real = tmp_path / "real.csv"
        real.write_text("earlier output\n")
        link = tmp_path / "link.csv"
        link.symlink_to(real)
        argv = ["frenet", "--curve", helix_path, "--samples", "3"]
        assert main(argv + ["--out", str(link)]) == EXIT_OK
        assert link.is_symlink()
        assert main(argv + ["--out", str(tmp_path / "plain.csv")]) == EXIT_OK
        assert real.read_bytes() == (tmp_path / "plain.csv").read_bytes()

    def test_out_to_a_pipe_is_written_in_place(self, helix_path, tmp_path):
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        got = []
        reader = threading.Thread(target=lambda: got.append(pipe.read_bytes()), daemon=True)
        reader.start()
        assert main(["frenet", "--curve", helix_path, "--samples", "3",
                     "--out", str(pipe)]) == EXIT_OK
        reader.join(10)
        assert pipe.is_fifo()
        assert got and got[0].startswith(b"t,x1,x2,x3,")

    def test_out_keeps_the_replaced_file_mode(self, helix_path, tmp_path):
        argv = ["frenet", "--curve", helix_path, "--samples", "3", "--out"]
        old = tmp_path / "old.csv"
        old.write_text("earlier output\n")
        old.chmod(0o640)
        assert main(argv + [str(old)]) == EXIT_OK
        assert stat.S_IMODE(old.stat().st_mode) == 0o640
        umask = os.umask(0o022)
        os.umask(umask)
        assert main(argv + [str(tmp_path / "new.csv")]) == EXIT_OK
        assert stat.S_IMODE((tmp_path / "new.csv").stat().st_mode) == 0o666 & ~umask

    def test_leftover_temporary_file_does_not_block_out(self, helix_path, tmp_path):
        # A killed run leaves its temporary file behind; a later run, even
        # one with the same process id, still writes its target.
        stale = tmp_path / f"out.csv.{os.getpid()}.tmp"
        stale.write_text("partial\n")
        out = tmp_path / "out.csv"
        assert main(["frenet", "--curve", helix_path, "--samples", "3",
                     "--out", str(out)]) == EXIT_OK
        assert out.read_text().startswith("t,x1,x2,x3,")
        assert stale.read_text() == "partial\n"

    def test_read_only_out_is_refused(self, helix_path, tmp_path, monkeypatch, capsys):
        out = tmp_path / "out.csv"
        out.write_text("earlier output\n")
        out.chmod(0o444)
        if os.geteuid() == 0:
            # Root may write any file; answer as the file's mode does for others.
            monkeypatch.setattr(os, "access", lambda path, mode: False)
        before = sorted(p.name for p in tmp_path.iterdir())
        assert main(["frenet", "--curve", helix_path, "--samples", "3",
                     "--out", str(out)]) == EXIT_INPUT
        assert capsys.readouterr().err == f"error: cannot write {out}: Permission denied\n"
        assert out.read_text() == "earlier output\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("existed", [True, False], ids=["existing", "new"])
    @pytest.mark.parametrize("command", sorted(FAILING))
    def test_failed_run_leaves_out_untouched(self, tmp_path, command, existed, fmt):
        (tmp_path / "cusp.curve").write_text(CUSP_FILE)
        out = tmp_path / "out.txt"
        if existed:
            out.write_bytes(b"earlier output\n")
        before = sorted(p.name for p in tmp_path.iterdir())
        argv = FAILING[command] + ["--curve", str(tmp_path / "cusp.curve"), "--samples", "3",
                                   "--format", fmt, "--out", str(out)]
        assert main(argv) == EXIT_DEGENERATE
        assert sorted(p.name for p in tmp_path.iterdir()) == before
        if existed:
            assert out.read_bytes() == b"earlier output\n"

    @pytest.mark.parametrize("command", sorted(FAILING))
    def test_failed_run_keeps_rows_before_it_on_stdout(self, tmp_path, command, capsys):
        curve = tmp_path / "cusp.curve"
        argv = FAILING[command] + ["--curve", str(curve), "--samples", "3"]
        curve.write_text(CUSP_FILE)
        assert main(argv) == EXIT_DEGENERATE
        failed = capsys.readouterr()
        assert "t=0.0" in failed.err
        # Over [-1, -0.5] the same first row is computed and the run succeeds;
        # the failed run wrote its header and that row, and no trailer.
        curve.write_text(CUSP_FILE.replace("t_max = 1", "t_max = -0.5"))
        assert main(argv) == EXIT_OK
        whole = capsys.readouterr().out.split("\n")
        assert failed.out.split("\n") == whole[:2] + [""]


def test_lift_memory_does_not_grow_with_samples(helix_path, tmp_path):
    # Rows are written as they are computed, not kept: only the grid grows
    # with --samples, by about 40 bytes a sample.  Keeping every row took
    # about 3.4 KB a sample.
    def peak(samples):
        tracemalloc.start()
        try:
            argv = ["lift", "--kind", "c", "--curve", helix_path, "--samples", str(samples),
                    "--out", str(tmp_path / "out.csv")]
            assert main(argv) == EXIT_OK
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2)  # first-call allocations that do not recur
    small, large = peak(100), peak(500)
    assert (large - small) / 400 < 400


def _record(kappa, oracle, residuals, ortho):
    return SimpleNamespace(t=0.0, point=(0.0,) * 6, frame=((0.0,) * 6,) * 3, kappa_lift=kappa,
                           tau_lift=0.0, residuals=residuals, ortho_max=ortho,
                           oracle_kappa=oracle, oracle_tau=0.0)


RECORDS = pytest.mark.parametrize("records", [
    [_record(1.0, 1.5, (1e-17, 2e-17, 0.0), 1e-16), _record(2.0, 2.25, (3e-17, 0.0, 0.0), 0.0)],
    [_record(math.nan, math.nan, (math.nan, 1.0, 0.0), math.nan),
     _record(0.0, math.nan, (2.0, 0.0, 0.0), 1e-3)],
    [_record(0.0, 0.0, (0.0, 5.0, 0.0), -0.0), _record(math.nan, -0.0, (-0.0, 0.0, 0.0), 2.0),
     _record(-0.0, 1.0, (1.0, math.nan, 7.0), 1.0)],
    [_record(1.0, math.nan, (0.0, 0.0, 0.0), 0.0), _record(3.0, 2.5, (0.0, 0.0, 0.0), 0.0)],
], ids=["finite", "nan-first", "nan-later", "nan-oracle-first"])


@RECORDS
def test_lift_trailer_is_the_column_statistic(records):
    # The running trailer has the bits of builtin max and min over whole
    # columns, NaN and signed zeros included.
    summary = {}
    rows = list(cli._lift_rows(iter(records), summary))
    assert len(rows) == 1 + len(records)
    kappas = [r.kappa_lift for r in records]
    gaps = [abs(r.kappa_lift - r.oracle_kappa) for r in records if not math.isnan(r.oracle_kappa)]
    want = {
        "max_residual": max(max(r.residuals) for r in records),
        "max_discrepancy": max(gaps) if gaps else math.nan,
        "frame_ortho_max": max(0.0, *(r.ortho_max for r in records)),
        "kappa_spread": max(kappas) - min(kappas),
    }
    assert {k: repr(v) for k, v in summary.items()} == {k: repr(v) for k, v in want.items()}


@RECORDS
@pytest.mark.parametrize("ortho", [0.0, 0.5])
def test_verify_sweep_folds_are_the_list_maxima(records, ortho):
    # verify folds each lifted sweep as it streams; the values keep the
    # bits of builtin max over whole lists, NaN and signed zeros included.
    pairs = [(0.5, math.nan if i == 1 else -0.0) for i in range(len(records))]
    both = list(zip(records, pairs))
    want = (
        max(max(abs(r.kappa_lift - k) for r, (k, _) in both),
            max(abs(r.tau_lift - t) for r, (_, t) in both)),
        max(max(abs(r.kappa_lift - r.oracle_kappa) for r in records),
            max(abs(r.tau_lift - r.oracle_tau) for r in records)),
        max(max(r.residuals) for r in records),
        max(ortho, *(r.ortho_max for r in records)),
    )
    got = verify._lifted_maxes(iter(records), pairs, ortho)
    assert list(map(repr, got)) == list(map(repr, want))


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


# --- hostile fields input ---------------------------------------------------------

# Field texts that overflow, leave the domain of sqrt or log, divide by a
# vanishing x term or hold a digit outside ASCII, and points with signed
# zeros and huge coordinates.
_SIGN = st.sampled_from(["", "-"])
_HOSTILE_EXPR = st.recursive(
    st.sampled_from(["x1", "x2", "x3", "x1", "x2", "x3", "0.5", "-0.0", "0", "1e999", "1e308",
                     "\u00b2", "\u0663"]),
    lambda inner: st.one_of(
        st.builds("sqrt({}({}))".format, _SIGN, inner),
        st.builds("log({}({}))".format, _SIGN, inner),
        st.builds("({}) / (x{} - {})".format, inner, st.sampled_from("123"),
                  st.sampled_from(["0", "1", "-0.0"])),
        st.builds("({}) {} ({})".format, inner, st.sampled_from("+-*"), inner),
        st.builds("({}) {} ({})".format, inner, st.sampled_from("+-*"), inner),
    ),
    max_leaves=4,
)
_HOSTILE_COORD = st.sampled_from([0.0, -0.0, 1.0, -2.5, 0.75, 1e-300, 1e300, -1e308])
# The other field texts, which fail at a point only through huge coordinates.
_PLAIN_TEXTS = ("x1*x2", "x3 - x1", "sin(x2)", "1", "x2*x3", "x1 + 2*x3", "cos(x1)*x2", "x3")


@seed(20261019)
@settings(max_examples=80, deadline=None, database=None)
@given(hostile=st.lists(st.tuples(st.integers(0, 7), _HOSTILE_EXPR), min_size=1, max_size=3),
       points=st.lists(st.lists(_HOSTILE_COORD, min_size=6, max_size=6), min_size=1, max_size=3),
       curved=st.booleans())
def test_hostile_fields_input_exits_with_a_documented_code(hostile, points, curved):
    texts = list(_PLAIN_TEXTS)
    for k, text in hostile:
        texts[k] = text
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        (d / "X.field").write_text("X1 = {}\nX2 = {}\nX3 = {}\n".format(*texts[:3]),
                                   encoding="utf-8")
        (d / "Y.field").write_text("X1 = {}\nX2 = {}\nX3 = {}\n".format(*texts[3:6]),
                                   encoding="utf-8")
        (d / "f.field").write_text(f"f = {texts[6]}\n", encoding="utf-8")
        (d / "g.field").write_text(f"f = {texts[7]}\n", encoding="utf-8")
        (d / "g.conn").write_text("gamma 1 2 3 = 0.3\ngamma 2 1 1 = -0.2\n")
        argv = ["fields", "--field", str(d / "X.field"), "--field", str(d / "Y.field"),
                "--scalar", str(d / "f.field"), "--scalar", str(d / "g.field"),
                *["--point=" + ",".join(map(repr, p)) for p in points],
                "--out", str(d / "out.csv")]
        if curved:
            argv += ["--connection", str(d / "g.conn")]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv)
        out = (d / "out.csv").read_text() if code == EXIT_OK else None
    assert code in (EXIT_OK, EXIT_INPUT, EXIT_DEGENERATE)
    if code == EXIT_OK:
        assert err.getvalue() == ""
        assert len(out.splitlines()) == 1 + len(points)
    else:
        # One error line, no traceback.
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


# --- number readers ------------------------------------------------------------------

# Spellings that float() or int() read and the expression grammar does not.
NOT_LITERALS = ["\u0661", "\u0663", "1_0", "inf", "nan", "+1", ".5", "1."]
_CURVE = "x1 = 3*cos(t)\nx2 = 3*sin(t)\nx3 = 4*t\nt_min = {lo}\nt_max = {hi}\n"


class TestNumberReaders:
    # reader: (argv, file text or None, the error line)
    READERS = {
        "t_min": (["frenet", "--curve={file}", "--samples=3"], _CURVE.format(lo="{v}", hi="20"),
                  "error: {file}: line 4: t_min must be a number, got {v!r}"),
        "t_max": (["frenet", "--curve={file}", "--samples=3"], _CURVE.format(lo="0", hi="{v}"),
                  "error: {file}: line 5: t_max must be a number, got {v!r}"),
        "gamma-value": (["lift", "--kind=h", "--w0=1,0,0", "--curve={curve}",
                         "--connection={file}", "--samples=3"], "gamma 1 2 3 = {v}\n",
                        "error: {file}: line 1: gamma value must be a number, got {v!r}"),
        "gamma-index": (["lift", "--kind=h", "--w0=1,0,0", "--curve={curve}",
                         "--connection={file}", "--samples=3"],
                        "gamma 1 2 3 = 0.5\ngamma {v} 2 3 = 0.5\n",
                        "error: {file}: line 2: gamma indices must each be 1, 2 or 3, "
                        "got 'gamma {v} 2 3'"),
        "anchor": (["lift", "--kind=v", "--curve={curve}", "--anchor={v},0,0", "--samples=3"],
                   None,
                   "frenetlift lift: error: argument --anchor: needs 3 comma-separated "
                   "numbers, got '{v},0,0'"),
        "w0": (["lift", "--kind=h", "--curve={curve}", "--w0=0,{v},0", "--samples=3"], None,
               "frenetlift lift: error: argument --w0: needs 3 comma-separated numbers, "
               "got '0,{v},0'"),
        "point": (["fields", "--field={X}", "--scalar={f}", "--point=1,2,3,0,0,{v}"], None,
                  "frenetlift fields: error: argument --point: needs 6 comma-separated "
                  "numbers, got '1,2,3,0,0,{v}'"),
        "tol": (["frenet", "--curve={curve}", "--tol=kappa_floor={v}", "--samples=3"], None,
                "frenetlift frenet: error: argument --tol: 'kappa_floor={v}': {why}"),
        "samples": (["frenet", "--curve={curve}", "--samples={v}"], None,
                    "frenetlift frenet: error: argument --samples: must be an integer from 2 "
                    "to 1000000 (MAX_SAMPLES), got {v!r}"),
    }

    def run(self, tmp_path, reader, v):
        argv, text, message = self.READERS[reader]
        paths = {"curve": tmp_path / "h.curve", "X": tmp_path / "X.field",
                 "f": tmp_path / "f.field", "file": tmp_path / "in.txt"}
        paths["curve"].write_text(HELIX_FILE)
        paths["X"].write_text(X_FIELD)
        paths["f"].write_text(F_SCALAR)
        if text is not None:
            paths["file"].write_text(text.format(v=v), encoding="utf-8")
        return [a.format(v=v, **paths) for a in argv], paths, message

    @pytest.mark.parametrize("v", NOT_LITERALS)
    @pytest.mark.parametrize("reader", list(READERS))
    def test_refuses_what_expressions_refuse(self, tmp_path, capsys, reader, v):
        argv, paths, message = self.run(tmp_path, reader, v)
        assert main(argv) == EXIT_INPUT
        why = ("at offset 2: expected digits after decimal point" if v == "1."
               else f"expected a number, got {v!r}")
        assert capsys.readouterr().err.splitlines()[-1] == message.format(
            v=v, why=why, file=paths["file"])

    @pytest.mark.parametrize("reader, v, same", [
        ("t_min", "-5e-1", "-0.5"), ("t_max", "15e-1", "1.5"), ("gamma-value", "25E-2", "0.25"),
        ("anchor", "-2.5e0", "-2.5"), ("w0", "1e-0", "1"), ("point", "5E-1", "0.5"),
        ("tol", "2E-9", "0.000000002"), ("samples", "3e0", "3"),
    ])
    def test_two_spellings_of_one_number_read_alike(self, tmp_path, reader, v, same):
        outputs = []
        for text in (v, same):
            argv, _, _ = self.run(tmp_path, reader, text)
            out = tmp_path / f"{text}.csv"
            assert main(argv + ["--out", str(out)]) == EXIT_OK
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


# Each reader of one number: the value it reads from a text, and its own
# check of a value that parse_number gives.
_NUMBER_READERS = {
    "t_min": (lambda s: parse_curve_file(_CURVE.format(lo=s, hi="1e300")).t_min,
              lambda v: math.isfinite(v) and v < 1e300 and math.isfinite(1e300 - v)),
    "t_max": (lambda s: parse_curve_file(_CURVE.format(lo="-1e300", hi=s)).t_max,
              lambda v: math.isfinite(v) and v > -1e300 and math.isfinite(v + 1e300)),
    "gamma": (lambda s: parse_connection_file(f"gamma 1 2 3 = {s}\n").gamma[0][1][2],
              math.isfinite),
    "anchor/w0": (lambda s: cli._floats(3)(f"0,{s},0")[1], math.isfinite),
    "point": (lambda s: cli._floats(6)(f"0,0,0,0,0,{s}")[5], math.isfinite),
    "tol": (lambda s: cli._tolerance(("kappa_floor",))(f"kappa_floor={s}")[1],
            lambda v: 0.0 < v < math.inf),
    "samples": (cli._samples, lambda v: 2 <= v <= cli.MAX_SAMPLES and v == int(v)),
    # Library constructors given text.
    "TangentPoint x": (lambda s: lifts.TangentPoint((0, s, 0), (0, 0, 0)).x[1], math.isfinite),
    "TangentPoint y": (lambda s: lifts.TangentPoint((0, 0, 0), (0, 0, s)).y[2], math.isfinite),
    "LiftKind.vertical": (lambda s: lifts.LiftKind.vertical((s, 0, 0)).anchor[0],
                          math.isfinite),
    "LiftKind.horizontal": (lambda s: lifts.LiftKind.horizontal((0, s, 0)).w0[1],
                            math.isfinite),
    "Connection.from_entries": (
        lambda s: lifts.Connection.from_entries({(1, 2, 3): s}).gamma[0][1][2], math.isfinite),
    "CurveSpec.from_strings t_min": (
        lambda s: CurveSpec.from_strings("t", "t", "t", s, "1e300").t_min,
        lambda v: math.isfinite(v) and v < 1e300 and math.isfinite(1e300 - v)),
    "CurveSpec.from_strings t_max": (
        lambda s: CurveSpec.from_strings("t", "t", "t", "-1e300", s).t_max,
        lambda v: math.isfinite(v) and v > -1e300 and math.isfinite(v + 1e300)),
    "transport w0": (
        lambda s: lifts._transport_start(CurveSpec.from_strings("t", "t", "t", 0, 1),
                                         (0, 0, s), ())[2], math.isfinite),
    # Grids given as text, each read over a curve domain it must lie in.
    "transport_grid": (
        lambda s: next(iter(lifts.transport_grid(
            lifts.Connection.flat(), CurveSpec.from_strings("t", "t", "t", 0, 1), (0, 0, 0), [s]))),
        lambda v: 0.0 <= v <= 1.0),
    "LiftedCurve.sweep": (
        lambda s: next(LiftedCurve(CurveSpec.from_strings("3*cos(t)", "3*sin(t)", "4*t", -100, 100),
                                   lifts.LiftKind.complete()).sweep([s])).t,
        lambda v: -100.0 <= v <= 100.0),
}
_NUMBER_PIECES = [*"0123456789.e+-_ ", "\u00b2", "\u0663", "inf", "nan"]


@seed(20261020)
@settings(max_examples=400, deadline=None, database=None)
@given(text=st.lists(st.sampled_from(_NUMBER_PIECES), max_size=8).map("".join))
def test_number_readers_agree_with_parse_number(text):
    try:
        value = parse_number(text)
    except ValueError:
        value = None
    # parse_number reads what parse_expr reads as a literal, or as the
    # negation of a literal written right after its '-'.
    try:
        node = parse_expr(text, ())
    except ValueError:
        node = None
    if isinstance(node, Num):
        assert _bits(value) == _bits(node.value)
    elif (isinstance(node, Neg) and isinstance(node.child, Num)
          and node.child.span[0] == node.span[0] + 1):
        assert _bits(value) == _bits(-node.child.value)
    else:
        assert value is None
    for name, (read, check) in _NUMBER_READERS.items():
        try:
            got = read(text)
        except (ValueError, argparse.ArgumentTypeError):
            assert value is None or not check(value), name
        else:
            assert value is not None and check(value), name
            assert _bits(float(got)) == _bits(value), name
    try:
        G = parse_connection_file(f"gamma 1 {text} 3 = 1\n")
    except ValueError:
        G = None
    assert (G is not None) == (text.strip() in ("1", "2", "3"))
    if G is not None:
        assert G.gamma[0][int(text) - 1][2] == 1.0
