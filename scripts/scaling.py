"""Scaling baseline: best-of-k compile, audit and scoring wall times on a fixed grid.

    python3 scripts/scaling.py --label after      # into BENCH_scaling.json
    python3 scripts/scaling.py --label before -o /path/to/BENCH_scaling.json
    python3 scripts/scaling.py --label low-fill --grid low-fill

The program is imported from the ``src/`` next to this script.  Each grid
point generates one seeded circuit (seed 0) on d x d SLM and AOD arrays.
On the default grid d = max(10, ceil(sqrt(n / 3))): from 300 qubits up the
arrays are 89-100% full, a corner where few gates fit in one stage.  The low-fill grid puts
its circuits on 32 x 32 arrays (10% full at 300 qubits, 33% at 1000).
Each point times ``compile_circuit``, then
``schedule_from_dict(json.loads(text))`` of the schedule's JSON text
(loading, as ``atomique audit`` does), ``audit_schedule``,
``apply_schedule`` of one point (scoring) and of 12 ``T_per_move`` points
from 100 to 500 us in one call (what ``atomique sweep`` does) on the
compiled schedule (each scoring time includes the separation scan of every
stage, since scoring is the audit of a routed schedule; the compile time
includes it once, through its own scoring), k times each (k = 3 up to 300 qubits, 1 above), keeping
the fastest.  It records the fill, the stage count, ``two_qubit_depth``,
the routed circuit's CZ-depth (its lower bound) and the CZs that synthesis
popped from selection (``stats["deferrals"]["popped"]``).  Every compile
must give the same schedule and stats.  The sha256 of the schedule (its
sorted-key JSON: the bytes of ``schedule.json`` less the final newline)
and of the stats (their indent-2 sorted-key JSON, as in ``stats.json``,
without ``compile_wall_time_s``) are recorded with the audit's finding
count, so runs of two versions can be checked for equal output.  The process pins
itself to one CPU, the highest-numbered one it may use.

The run is stored under ``runs[<label>]`` of the output file; other labels
already in the file are kept, so one file holds a before/after pair.

The timings have no CPU-speed correction: back-to-back runs of identical
code have differed by up to 40% per point on a shared 2-CPU VM.  So the
file shows trends and, through the hashes, equal output; a claimed speed
gain needs the paired, probe-rescaled runs of ``perfbench/run.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from atomique.arch import ArchConfig, HardwareParams  # noqa: E402
from atomique.fidelity import apply_schedule  # noqa: E402
from atomique.pipeline import compile_circuit  # noqa: E402
from atomique.stage_router import (  # noqa: E402
    audit_schedule,
    schedule_from_dict,
    schedule_to_dict,
)
from atomique.workloads import WorkloadSpec  # noqa: E402

# grid name -> (family, generator keywords, qubit counts, array side, or
# None for the smallest side of at least 10 that holds n qubits)
GRIDS = {
    "default": [
        ("qaoa-regular", {"d": 3}, (40, 100, 300, 600, 1000), None),
        ("bv", {}, (40, 100, 300, 600, 1000), None),
        ("qsim-rand", {}, (40, 100, 300), None),
        ("qaoa-rand", {"p": 0.5}, (40, 100), None),
    ],
    "low-fill": [
        ("qaoa-regular", {"d": 3}, (300, 1000), 32),
    ],
}
# the T_per_move points of the batch scoring
SWEEP = [100e-6 + 400e-6 * i / 11 for i in range(12)]


def best_of(k: int, fn):
    """(fastest wall time in s, list of the k results)."""
    times, results = [], []
    for _ in range(k):
        t0 = time.perf_counter()
        results.append(fn())
        times.append(time.perf_counter() - t0)
    return min(times), results


def sha256_json(payload, **dumps) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True, **dumps).encode()).hexdigest()


def run_point(family: str, kwargs: dict, n: int, side: int | None) -> dict:
    d = side or max(10, math.ceil(math.sqrt(n / 3)))
    config = ArchConfig(slm_rows=d, slm_cols=d, aod_rows=(d, d), aod_cols=(d, d))
    params = HardwareParams()
    circuit = WorkloadSpec(family, n, seed=0, **kwargs).generate()
    k = 3 if n <= 300 else 1
    compile_s, compiled = best_of(k, lambda: compile_circuit(circuit, config, params, seed=0))
    texts = {json.dumps(schedule_to_dict(r.schedule), sort_keys=True) for r in compiled}
    hashes = {hashlib.sha256(text.encode()).hexdigest() for text in texts}
    # the bytes `atomique compile` writes to stats.json, less the wall time
    stats_hashes = {sha256_json({key: v for key, v in r.stats.items()
                                 if key != "compile_wall_time_s"}, indent=2)
                    for r in compiled}
    if len(hashes) != 1 or len(stats_hashes) != 1:
        raise RuntimeError(f"{family} n={n}: repeated compiles gave different outputs")
    schedule, stats, text = compiled[0].schedule, compiled[0].stats, texts.pop()
    load_s, _ = best_of(k, lambda: schedule_from_dict(json.loads(text)))
    audit_s, audits = best_of(k, lambda: audit_schedule(schedule))
    score_s, _ = best_of(k, lambda: apply_schedule(schedule, [(params, None)]))
    sweep_s, _ = best_of(k, lambda: apply_schedule(schedule, [(params, t) for t in SWEEP]))
    return {
        "family": family, **kwargs, "n": n, "array_side": d,
        "fill": round(n / (3 * d * d), 4), "k": k,
        "compile_s": round(compile_s, 4), "load_s": round(load_s, 4),
        "audit_s": round(audit_s, 4),
        "score_s": round(score_s, 4), "score_sweep12_s": round(sweep_s, 4),
        "stages": len(schedule.stages), "two_qubit_depth": stats["two_qubit_depth"],
        "cz_depth_routed": stats["cz_depth"]["routed"],
        "synth_pops": stats["deferrals"]["popped"], "audit_findings": len(audits[0]),
        "schedule_sha256": hashes.pop(), "stats_sha256": stats_hashes.pop(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="key of this run in the output file")
    ap.add_argument("-o", "--output", default=str(ROOT / "BENCH_scaling.json"))
    ap.add_argument("--grid", default="default", choices=GRIDS)
    args = ap.parse_args(argv)
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    points = []
    for family, kwargs, sizes, side in GRIDS[args.grid]:
        for n in sizes:
            points.append(run_point(family, kwargs, n, side))
            p = points[-1]
            print(f"{family:13s} n={n:5d} d={p['array_side']:3d} k={p['k']} "
                  f"stages {p['stages']:5d} depth {p['two_qubit_depth']:5d} "
                  f"(bound {p['cz_depth_routed']:4d}) pops {p['synth_pops']:5d}  "
                  f"compile {p['compile_s']:9.3f} s  load {p['load_s']:8.3f} s  "
                  f"audit {p['audit_s']:8.3f} s  "
                  f"score {p['score_s']:8.3f} s  sweep12 {p['score_sweep12_s']:8.3f} s  "
                  f"{p['schedule_sha256'][:12]} "
                  f"{p['stats_sha256'][:12]}", flush=True)
    out = Path(args.output)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc.setdefault("runs", {})[args.label] = {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "grid": args.grid,
        "pinned_cpus": 1,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "points": points,
    }
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out} [runs.{args.label}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
