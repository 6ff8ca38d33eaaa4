"""Spans and counters around frenetlift's public functions, from outside.

The package imports functions by name (``lifted_frenet.curve_point_jets``,
``verify.prop21_check``, ``cli.frenet_apparatus``...), so each wrapper is
installed at every module attribute that holds the original function.  A
missed site shows up as a traced count that disagrees with the count the
benchmark predicts from its inputs.

Spans are kept in memory as parallel lists and written out once at the end.
A function re-entered while its own span is open (``eval_float`` recurses
through its module global) records only the outermost call, so ``calls``
counts top-level invocations and ``busy_s`` never counts a second time.
``Jet`` construction and multiplication run millions of times; they get
exact counters instead of spans.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
import time
from pathlib import Path

LAYERS = ("jets", "expr", "frenet", "lifts", "lifted_frenet", "verify", "cli")

# Public methods traced as spans, by (module, class, attribute) -> span name.
METHODS = {
    ("lifts", "LiftedField", "at"): "lifts.LiftedField.at",
    ("lifted_frenet", "LiftedCurve", "sweep"): "lifted_frenet.sweep",
    ("lifted_frenet", "LiftedCurve", "apparatus"): "lifted_frenet.apparatus",
    ("lifted_frenet", "LiftedCurve", "frame"): "lifted_frenet.frame",
    ("lifted_frenet", "LiftedCurve", "point_jets"): "lifted_frenet.point_jets",
}

# Exact counters: counter name -> (class attributes counted under it).
COUNTERS = {
    "jets.Jet.new": ("__init__",),
    "jets.Jet.mul": ("__mul__", "__rmul__"),
}

TRANSPORT_SPAN = "lifts.transport_grid"
EVAL_JET_SPAN = "expr.eval_jet"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._open: list[int] = []       # per name: 1 while a span of it is open
        self.s_name: list[int] = []
        self.s_parent: list[int] = []
        self.s_start: list[float] = []
        self.s_end: list[float] = []
        self.s_raised: list[str | None] = []
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    # --- wrappers -------------------------------------------------------------

    def _span(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        self._open.append(0)
        is_open, stack = self._open, self._stack
        s_name, s_parent, s_start, s_end, s_raised = (
            self.s_name, self.s_parent, self.s_start, self.s_end, self.s_raised
        )
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if is_open[nid]:
                return fn(*args, **kwargs)
            is_open[nid] = 1
            i = len(s_start)
            s_name.append(nid)
            s_parent.append(stack[-1] if stack else -1)
            s_raised.append(None)
            s_end.append(0.0)
            stack.append(i)
            s_start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                s_raised[i] = type(exc).__name__
                raise
            finally:
                s_end[i] = clock()
                stack.pop()
                is_open[nid] = 0

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every public function of every layer at every import site."""
        modules = {
            name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == "frenetlift" or name.startswith("frenetlift."))
        }
        wrapped = {}
        for layer in LAYERS:
            mod = modules[f"frenetlift.{layer}"]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not inspect.isgeneratorfunction(fn)):
                    wrapped[fn] = self._span(f"{layer}.{attr}", fn)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._patch(mod, attr, wrapped[value])
        for (layer, cls_name, attr), name in METHODS.items():
            cls = getattr(modules[f"frenetlift.{layer}"], cls_name)
            self._patch(cls, attr, self._span(name, getattr(cls, attr)))
        jet = modules["frenetlift.jets"].Jet
        for name, attrs in COUNTERS.items():
            for attr in attrs:
                self._patch(jet, attr, self._counter(name, getattr(jet, attr)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- results ----------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy_s, self_s and raised-exception counts.

        Self time is a span's duration minus the durations of its direct
        children; spans of one thread never overlap their siblings.
        """
        n = len(self.s_start)
        dur = [self.s_end[i] - self.s_start[i] for i in range(n)]
        child = [0.0] * n
        under_transport = [False] * n
        transport_id = self.names.index(TRANSPORT_SPAN) if TRANSPORT_SPAN in self.names else -2
        for i in range(n):
            p = self.s_parent[i]
            if p >= 0:
                child[p] += dur[i]
                under_transport[i] = under_transport[p] or self.s_name[p] == transport_id
        out = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "raised": {}} for name in self.names}
        curve_evals = 0
        for i in range(n):
            name = self.names[self.s_name[i]]
            rec = out[name]
            rec["calls"] += 1
            rec["busy_s"] += dur[i]
            rec["self_s"] += dur[i] - child[i]
            if self.s_raised[i] is not None:
                rec["raised"][self.s_raised[i]] = rec["raised"].get(self.s_raised[i], 0) + 1
            if under_transport[i] and name == EVAL_JET_SPAN:
                curve_evals += 1
        if TRANSPORT_SPAN in out:
            out[TRANSPORT_SPAN]["curve_evals"] = curve_evals
        return out

    def write(self, path: Path, header: dict) -> None:
        """Spans as gzip JSON lines: a header, then [name, parent, start_s, end_s]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.s_start[0] if self.s_start else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({**header, "names": self.names, "counts": self.counts}) + "\n")
            for i in range(len(self.s_start)):
                fh.write("[%d,%d,%.9f,%.9f]\n" % (
                    self.s_name[i], self.s_parent[i],
                    self.s_start[i] - t0, self.s_end[i] - t0,
                ))
