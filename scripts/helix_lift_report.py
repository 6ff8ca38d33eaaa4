#!/usr/bin/env python3
"""Sweep a helix and its three lifts; write CSV reports and print a summary.

Usage:
  python scripts/helix_lift_report.py [--samples N] [--outdir DIR]

Writes frenet/vertical/complete/horizontal CSVs for the unit-speed helix
and prints the measured apparatus of each lift next to the Gram-Schmidt
oracle of the lifted curve.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from frenetlift.cli import main as cli_main
from frenetlift.frenet import frenet_apparatus
from frenetlift.lifts import LiftKind
from frenetlift.lifted_frenet import LiftedCurve
from frenetlift.verify import builtin_curves, grid

UNIT_HELIX_FILE = """\
name = unit_helix
x1 = 3*cos(t/5)
x2 = 3*sin(t/5)
x3 = 4*t/5
t_min = 0
t_max = 31.41592653589793
"""


def run(samples: int, outdir: Path) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    curve_path = outdir / "unit_helix.curve"
    curve_path.write_text(UNIT_HELIX_FILE)

    cli_main(["frenet", "--curve", str(curve_path), "--samples", str(samples),
              "--out", str(outdir / "frenet.csv")])
    for kind, extra in (("v", []), ("c", []), ("h", ["--w0", "1,0,0"])):
        cli_main(["lift", "--curve", str(curve_path), "--kind", kind, *extra,
                  "--samples", str(samples), "--out", str(outdir / f"lift_{kind}.csv")])

    ush = builtin_curves()["unit_helix"]
    ts = grid(ush, samples)
    base = frenet_apparatus(ush, ts[len(ts) // 2])
    print(f"base apparatus:      kappa={base.kappa:.9f}  tau={base.tau:.9f}")
    for label, kind in (
        ("vertical", LiftKind.vertical()),
        ("complete", LiftKind.complete()),
        ("horizontal", LiftKind.horizontal((1.0, 0.0, 0.0))),
    ):
        rep = LiftedCurve(ush, kind).sweep(ts)
        mid = len(ts) // 2
        print(
            f"{label:<11} lift:    kappa={rep.kappa_lift[mid]:.9f}  "
            f"tau={rep.tau_lift[mid]:.9f}  oracle=({rep.oracle_kappa[mid]:.9f}, "
            f"{rep.oracle_tau[mid]:.9f})  max_residual={rep.max_residual:.3e}"
        )
    print(f"reports written to {outdir}/")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=400)
    ap.add_argument("--outdir", type=Path, default=Path("out"))
    ns = ap.parse_args()
    run(ns.samples, ns.outdir)
