"""frenetlift benchmark: end-to-end CLI workloads and a traced per-layer run.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Drives ``frenetlift.cli.main`` in-process, one call at a time, on inputs
generated from ``--seed``; checks every output against the benchmark's own
references (see ``workloads.py``).  With ``--trace 0`` it repeats whole
rounds of the workload's calls until ``--seconds`` of call time has been
measured and reports the end-to-end metrics.  With ``--trace 1`` it runs a
fixed number of rounds once untraced and once with every public function
wrapped (see ``tracer.py``), so exact counts repeat run to run, then the
layer microbenchmarks; it reports the per-layer metrics.  Times are rescaled
to a reference machine speed sampled during the calls (see ``speed.py``).  The
last line of standard output is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
from pathlib import Path

import micro
import speed
import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"

SETUP_REPS = 9
# Tail percentiles, highest first.  p90 is the highest that every workload
# but verify keeps ten calls beyond in a 20 s run; stopping there keeps one
# percentile per workload from run to run, so runs compare.
TAIL_PERCENTILES = (90, 75, 50)
# Calls of LiftedField.at and apply_field per prop21_check, from the identity
# list in its docstring: additivity 3 kinds x 3 lifts, module rules 3 + 3,
# pairings 5 per scalar x 2 scalars (each apply_field evaluates once); the
# fields command adds one .at per lift kind per point.
AT_PER_POINT = 9 + 6 + 10 + 3
APPLY_PER_POINT = 10
# frenetlift's _curve_velocity: 4 RK4 stages x 3 components per step.
EVALS_PER_RK4_STEP = 12


class Session:
    """Call counts, failures and the speed meter shared by one run."""

    def __init__(self, meter: speed.Meter):
        self.meter = meter
        self.attempted = 0
        self.failed = 0
        self.bytes_out = 0

    def fail(self, call, message: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"FAILED {' '.join(call.argv[:5])} ...: {message}", file=sys.stderr)


def run_call(cli, call, session: Session) -> tuple[speed.Timing, int]:
    """Time one cli.main call, then check its output.

    Returns the timing and the units of work done correctly.
    """
    def invoke():
        try:
            return cli.main(call.argv)
        except Exception as exc:  # an uncaught program error is a failed call
            return exc

    call.out.unlink(missing_ok=True)
    session.attempted += 1
    rc, timing = session.meter.timed(invoke)
    if isinstance(rc, Exception):
        session.fail(call, f"raised {type(rc).__name__}: {rc}")
        return timing, 0
    if rc != 0:
        session.fail(call, f"exit code {rc}")
        return timing, 0
    try:
        text = call.out.read_text(encoding="utf-8")
        session.bytes_out += len(text.encode("utf-8"))
        counted = call.check(text)
    except (workloads.CheckFailed, OSError, ValueError, KeyError, IndexError) as exc:
        session.fail(call, f"{type(exc).__name__}: {exc}")
        return timing, 0
    return timing, counted if counted is not None else call.units


def _purge_program() -> None:
    for name in [n for n in sys.modules if n == "frenetlift" or n.startswith("frenetlift.")]:
        del sys.modules[name]


def set_up(wl, session: Session):
    """Import frenetlift anew, then make the warm-up calls; returns (timings, cli).

    Only frenetlift's own modules are purged; the stdlib modules it imports
    stay loaded, as they would for any caller that imports it twice."""
    _purge_program()
    cli, timing = session.meter.timed(lambda: importlib.import_module("frenetlift.cli"))
    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"frenetlift imported from {cli.__file__}, not from {SRC}")
    return [timing] + [run_call(cli, call, session)[0] for call in wl.warmup], cli


def tail_percentile(values: list[float]) -> tuple[int, float, int]:
    """Highest listed percentile with at least ten samples beyond it (nearest rank).

    Returns (percentile, value, samples beyond); (100, max, 0) when fewer than
    twenty samples leave no such percentile.
    """
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = -(-p * n // 100)  # ceil(p n / 100), 1-based
        if n - rank >= 10:
            return p, ordered[rank - 1], n - rank
    return 100, ordered[-1], 0


def machine() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu}


def _line(name: str, value, unit: str, note: str = "") -> None:
    print(f"  {name:34s} {value!r:>24} {unit:6s} {note}".rstrip())


# --- end-to-end run -----------------------------------------------------------------


def end_to_end(wl, seconds: float, session: Session) -> dict:
    """End-to-end metrics; times are rescaled, with the raw figure in the note."""
    meter = session.meter
    setup_timings = []
    for _ in range(SETUP_REPS):
        timings, cli = set_up(wl, session)
        setup_timings.append(timings)
    gc.collect()
    runs: list[tuple[speed.Timing, int]] = []
    busy = 0.0
    while busy < seconds:
        round_ = [run_call(cli, call, session) for call in wl.calls]
        runs += round_
        busy += sum(timing.raw for timing, _ in round_)
    raw = [timing.raw for timing, _ in runs]
    scaled = [meter.rescaled(timing) for timing, _ in runs]
    units = sum(n for _, n in runs)
    raw_setup = [sum(t.raw for t in ts) for ts in setup_timings]
    setups = [sum(meter.rescaled(t) for t in ts) for ts in setup_timings]
    n = len(runs)
    p, tail, beyond = tail_percentile(scaled)
    tail_note = (f"p{p}, n={n}, {beyond} beyond" if p < 100
                 else f"max: n={n} leaves no percentile with 10 beyond")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (statistics.median(setups), "s",
                    f"median of {SETUP_REPS} imports + warm-ups; raw {statistics.median(raw_setup):.4f}"),
        "units_per_s": (units / sum(scaled), "1/s",
                        f"{wl.unit} per call second; raw {units / busy:.4g}"),
        "call_s.p50": (statistics.median(scaled), "s",
                       f"n={n}; raw {statistics.median(raw):.4f}"),
        "call_s.tail": (tail, "s", f"{tail_note}; raw {tail_percentile(raw)[1]:.4f}"),
        "peak_rss_mb": (rss_mb, "MB", "ru_maxrss of the benchmark process"),
    }


# --- traced run ---------------------------------------------------------------------


def _predicted(wl, calls) -> dict[str, int]:
    """Exact counts the traced round must reproduce, from the inputs alone."""
    def units(*commands):
        return sum(c.units for c in calls if c.command in commands)

    def number(*commands):
        return sum(1 for c in calls if c.command in commands)

    lifts = ("lift-v", "lift-c", "lift-h", "transport")
    pred = {"cli.main.calls": len(calls), "verify.run_checks.calls": number("verify")}
    if number("verify"):
        return pred  # run_checks drives every layer with its own internal inputs
    pred.update({
        "frenet.curve_point_jets.calls": units("frenet", *lifts),
        "frenet.frame_jets.calls": units("frenet", *lifts),
        "frenet.frenet_apparatus.calls": units("frenet"),
        "frenet.generalized_frenet.calls": units(*lifts),
        "lifts.lifted_point_jets.calls": units(*lifts),
        "lifted_frenet.sweep.calls": number(*lifts),
        "lifts.transport_grid.calls": number("transport"),
        "lifts.transport_grid.curve_evals":
            EVALS_PER_RK4_STEP * sum(c.rk4_steps for c in calls),
        "lifts.prop21_check.calls": units("fields"),
        "lifts.LiftedField.at.calls": AT_PER_POINT * units("fields"),
        "lifts.apply_field.calls": APPLY_PER_POINT * units("fields"),
        "lifts.parallel_transport.calls": 0,
    })
    return pred


def _layer_metrics(summary, counts, bytes_out, verify_lines, overhead, us) -> dict:
    def get(name, key="calls"):
        rec = summary.get(name)
        return rec[key] if rec else (0 if key in ("calls", "curve_evals") else 0.0)

    m = {
        "jets.Jet.mul.calls": counts.get("jets.Jet.mul", 0),
        "jets.Jet.new.calls": counts.get("jets.Jet.new", 0),
        "expr.parse.busy_s": sum(
            get(n, "busy_s") for n in
            ("expr.parse_curve_file", "expr.parse_field_file", "lifts.parse_connection_file")
        ),
    }
    spans = {
        "expr.eval_jet": ("calls", "busy_s"),
        "expr.eval_float": ("calls", "busy_s"),
        "frenet.curve_point_jets": ("calls", "busy_s"),
        "frenet.frame_jets": ("calls", "busy_s"),
        "frenet.frenet_apparatus": ("calls", "busy_s"),
        "frenet.generalized_frenet": ("calls", "busy_s"),
        "lifts.transport_grid": ("calls", "busy_s", "curve_evals"),
        "lifts.lifted_point_jets": ("calls", "busy_s"),
        "lifts.prop21_check": ("calls", "busy_s"),
        "lifts.LiftedField.at": ("calls", "busy_s"),
        "lifts.apply_field": ("calls", "busy_s"),
        "lifts.parallel_transport": ("calls", "busy_s"),
        "lifted_frenet.sweep": ("calls", "busy_s", "self_s"),
        "verify.run_checks": ("busy_s", "self_s"),
        "cli.main": ("calls", "self_s"),
    }
    for name, keys in spans.items():
        for key in keys:
            m[f"{name}.{key}"] = get(name, key)
    gen = summary.get("frenet.generalized_frenet")
    m["frenet.generalized_frenet.rank_deficient"] = gen["raised"].get("RankDeficient", 0) if gen else 0
    m["verify.checks"] = verify_lines[0]
    m["verify.failed"] = verify_lines[1]
    m["cli.bytes_out"] = bytes_out
    m["trace.overhead"] = overhead
    m.update(us)
    return m


def _unit(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name == "cli.bytes_out":
        return "bytes"
    if name == "trace.overhead":
        return "ratio"
    return "count"


def traced(wl, name: str, seed: int, session: Session, info: dict) -> tuple[dict, bool]:
    meter = session.meter
    cli = set_up(wl, session)[1]
    calls = wl.calls * wl.trace_rounds
    gc.collect()
    plain_runs = [run_call(cli, c, session)[0] for c in calls]

    verify_out = [c.out for c in calls if c.command == "verify"]
    tracer = Tracer()
    tracer.install()
    before = session.bytes_out
    failed_before = session.failed
    try:
        runs = [run_call(cli, c, session)[0] for c in calls]
    finally:
        tracer.uninstall()
    us = micro.run(meter)
    plain = sum(meter.rescaled(t) for t in plain_runs)
    traced_s = sum(meter.rescaled(t) for t in runs)
    # Span times are raw; rescale them by the traced pass's overall speed.
    factor = traced_s / sum(t.raw for t in runs)
    bytes_out = session.bytes_out - before
    verify_lines = [0, 0]
    if verify_out and session.failed == failed_before:
        lines = [ln for ln in verify_out[-1].read_text(encoding="utf-8").split("\n") if ln]
        verify_lines = [len(lines), sum(1 for ln in lines if not ln.startswith("PASS "))]

    summary = tracer.summary()
    for rec in summary.values():
        rec["busy_s"] *= factor
        rec["self_s"] *= factor
    metrics = _layer_metrics(summary, tracer.counts, bytes_out, verify_lines,
                             traced_s / plain, us)
    ok = True
    for key, want in _predicted(wl, calls).items():
        got = metrics.get(key)
        if got is None:
            span, field = key.rsplit(".", 1)
            got = summary.get(span, {}).get(field, 0)
        if got != want:
            ok = False
            print(f"TRACE COUNT MISMATCH {key}: traced {got}, predicted {want}", file=sys.stderr)
    tracer.write(RUN_DIR / f"trace-{name}-seed{seed}.jsonl.gz",
                 {"workload": name, "seed": seed, "machine": info, "plain_s": plain,
                  "traced_s": traced_s})
    return metrics, ok


# --- entry point -------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "frenetlift" / "cli.py").is_file():
        print(f"error: frenetlift sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    info = machine()
    workdir = RUN_DIR / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        rng = random.Random(f"frenetlift-bench:{args.workload}:{args.seed}")
        wl = workloads.BUILDERS[args.workload](rng, workdir)
        print(f"perfbench workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        print(f"  machine: python {info['python']}, nproc {info['nproc']}, cpu {info['cpu']}")
        print(f"  inputs: {wl.describe}; {len(wl.calls)} calls per round")
        with speed.Meter() as meter:
            session = Session(meter)
            if args.trace:
                values, counts_ok = traced(wl, args.workload, args.seed, session, info)
                metrics = {k: (v, _unit(k), "") for k, v in values.items()}
            else:
                metrics = end_to_end(wl, args.seconds, session)
                counts_ok = True
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for key, (value, unit, note) in metrics.items():
        _line(key, value, unit, note)
    fail_ratio = session.failed / session.attempted if session.attempted else 1.0
    _line("fail_ratio", fail_ratio, "", f"{session.failed} of {session.attempted} invocations")
    print(json.dumps({
        "correct": session.failed == 0 and counts_ok and session.attempted > 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
