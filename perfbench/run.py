"""Benchmark of atomique's compile, audit and sweep commands.

    python3 perfbench/run.py --workload wide-qaoa --seed 1 --seconds 30 --trace 0

Run from a checkout: the program is imported from the checkout's own
``src/`` and driven only through ``atomique.cli.main``, one command at a
time.  A round compiles every circuit of the workload with --emit-qasm,
audits every emitted schedule and runs one T_per_move sweep; rounds repeat
until --seconds have passed, and each timing is the median over rounds.
Outputs are then checked against computations made apart from the program
(see checks.py), outside the timed region.

On a shared host a CPU's speed can change by up to half from one second to
the next (seen on a 2-CPU Xeon virtual machine at 2.1 GHz), so every timed
step is bracketed by a ~2 ms speed probe of fixed interpreter and numpy
work, and its wall time is reported rescaled to the speed at which the probe
takes PROBE_REF_S: the seconds the step would take on an uncontended core.
Raw wall times are printed alongside and kept in result.json.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
rounds with rounds traced by tracing.py and prints the per-layer metrics
and the tracing overhead instead.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  Outputs and a
fuller result.json go to .perfbench_out/<workload>/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 7
PROBE_REF_S = 0.002  # the probe's time on an uncontended core of a 2.1 GHz Xeon

_PROBE_POS = np.random.default_rng(0).random((200, 2))
_PROBE_I, _PROBE_J = np.triu_indices(200, 1)


def probe() -> float:
    """Seconds for a fixed mix of dict updates and a numpy pair scan, the
    two kinds of work the program does; the faster of two tries."""
    best = math.inf
    for _ in range(2):
        t0 = time.perf_counter()
        d: dict[int, int] = {}
        for i in range(2000):
            d[i % 97] = d.get(i % 97, 0) + i
        for _ in range(2):
            diff = _PROBE_POS[_PROBE_I] - _PROBE_POS[_PROBE_J]
            (diff * diff).sum(axis=1)
        best = min(best, time.perf_counter() - t0)
    return best


def timed(fn):
    """(fn's result, wall s, wall s rescaled to the reference speed)."""
    before = probe()
    t0 = time.perf_counter()
    out = fn()
    wall = time.perf_counter() - t0
    return out, wall, wall * PROBE_REF_S / ((before + probe()) / 2)


def measure_setup() -> tuple[float, float]:
    """Median (rescaled, raw) wall time of a fresh interpreter importing
    atomique.cli."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    cmd = [sys.executable, "-c", "import atomique.cli"]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)  # bytecode cache, untimed
    runs = [timed(lambda: subprocess.run(cmd, env=env, cwd=ROOT, check=True))[1:]
            for _ in range(SETUP_REPEATS)]
    return (statistics.median(r[1] for r in runs), statistics.median(r[0] for r in runs))


def cli(argv: list[str], tracer=None) -> tuple[float, float, int, str]:
    """Run one atomique command in-process:
    (rescaled wall s, raw wall s, exit code, output)."""
    import atomique.cli

    def run() -> int:
        span = tracer.begin("main") if tracer is not None else None
        try:
            return atomique.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            return exc.code if isinstance(exc.code, int) else 1
        finally:
            if span is not None:
                tracer.end(span)

    buf = io.StringIO()
    if tracer is not None:
        tracer.command = argv[0]
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        rc, wall, scaled = timed(run)
    return scaled, wall, rc, buf.getvalue()


class Bench:
    def __init__(self, workload: str, seed: int):
        self.seed = seed
        self.wl = inputs.make_workload(workload, seed)
        self.dir = OUT / workload
        shutil.rmtree(self.dir, ignore_errors=True)
        self.input_hashes = inputs.write_inputs(self.wl, self.dir / "inputs")
        self.cfg = str(self.dir / "inputs" / "config.json")
        self.circuits = {c.name: c for c in self.wl.circuits}
        self.csv = str(self.dir / "sweep.csv")
        self.failures: list[str] = []

    def qasm(self, circuit: str) -> str:
        return str(self.dir / "inputs" / f"{circuit}.qasm")

    def out(self, job) -> Path:
        return self.dir / job.name

    def sweep_argv(self) -> list[str]:
        values = ",".join(repr(v) for v in self.wl.sweep_values())
        return ["sweep", "--param", "T_per_move", "--values", values,
                "--config", self.cfg, *self.wl.sweep_spec, "--seed", str(self.seed),
                "-o", self.csv]

    def warm_up(self) -> None:
        """One small compile, audit and sweep, so lazy set-up in the
        process is done before timing."""
        tiny = self.dir / "warmup"
        tiny.mkdir()
        rng = np.random.default_rng([self.seed, 99])
        (tiny / "in.qasm").write_text(inputs.to_qasm(6, inputs.random_pairs(6, 4, rng)))
        for argv in (["compile", str(tiny / "in.qasm"), "-o", str(tiny), "--emit-qasm",
                      "--config", self.cfg],
                     ["audit", str(tiny / "schedule.json")],
                     ["sweep", "--param", "T_per_move", "--values", "1e-4,2e-4",
                      "--config", self.cfg, "--family", "random-pairs", "--n", "6",
                      "-o", str(tiny / "sweep.csv")]):
            _, _, rc, text = cli(argv)
            if rc:
                raise RuntimeError(f"warm-up {argv[0]} failed: {text}")

    def round(self, tracer=None) -> dict:
        """One round of every command; returns wall times and digests."""
        r = {f"{cmd}{kind}": 0.0 for cmd in ("compile", "audit", "sweep")
             for kind in ("_s", "_wall_s")}
        r |= {"attempted": 0, "failed": 0, "digest": {}}

        def add(cmd, scaled, wall):
            r[f"{cmd}_s"] += scaled
            r[f"{cmd}_wall_s"] += wall
            r["attempted"] += 1

        done = []
        for job in self.wl.jobs:
            scaled, wall, rc, text = cli(
                ["compile", self.qasm(job.circuit), "-o", str(self.out(job)), "--emit-qasm",
                 "--config", self.cfg, "--seed", str(self.seed), *job.flags], tracer)
            add("compile", scaled, wall)
            if rc:
                r["failed"] += 1
                self.failures.append(f"compile {job.name}: {text.strip()}")
            else:
                done.append(job)
        for job in done:
            scaled, wall, rc, text = cli(["audit", str(self.out(job) / "schedule.json")], tracer)
            add("audit", scaled, wall)
            r["digest"][f"{job.name}/audit"] = text
            if rc:
                r["failed"] += 1
                self.failures.append(f"audit {job.name}: {text.strip()}")
        scaled, wall, sweep_rc, text = cli(self.sweep_argv(), tracer)
        add("sweep", scaled, wall)
        if sweep_rc:
            r["failed"] += 1
            self.failures.append(f"sweep: {text.strip()}")
        # untimed: digests to confirm every round wrote the same outputs
        for job in done:
            out = self.out(job)
            stats = json.loads((out / "stats.json").read_text())
            stats.pop("compile_wall_time_s", None)
            r["digest"][job.name] = _sha((out / "schedule.json").read_bytes()
                                         + (out / "routed.qasm").read_bytes()
                                         + json.dumps(stats, sort_keys=True).encode())
        if not sweep_rc:
            r["digest"]["sweep.csv"] = _sha(Path(self.csv).read_bytes())
        r["round_s"] = r["compile_s"] + r["audit_s"] + r["sweep_s"]
        return r

    def check(self, rounds: list[dict]) -> tuple[list[str], dict]:
        """Check the outputs; returns (findings, quality metrics)."""
        import checks

        found = [f"round {k}: outputs differ from round 0" for k, r in enumerate(rounds)
                 if r["digest"] != rounds[0]["digest"]]
        hw = inputs.HARDWARE
        q = {"two_qubit_gates": 0, "two_qubit_depth": 0, "schedule_exec_s": 0.0,
             "neg_log10_F": 0.0}
        for job in self.wl.jobs:
            out = self.out(job)
            if not (out / "stats.json").exists():
                continue
            sched = json.loads((out / "schedule.json").read_text())
            stats = json.loads((out / "stats.json").read_text())
            circ = self.circuits[job.circuit]
            findings = (checks.check_geometry(sched) + checks.check_moves(sched)
                        + checks.check_gates(sched, stats, (out / "routed.qasm").read_text(),
                                             inputs.n_two_qubit(circ.gates))
                        + checks.check_scoring(sched, stats, hw))
            if circ.n <= 10:
                findings += checks.check_statevector(sched, circ.n, circ.gates, self.seed)
            want_audit = f"0 violation(s) across {len(sched['stages'])} stage(s)\n"
            audit = rounds[0]["digest"].get(f"{job.name}/audit")
            if audit is not None and audit != want_audit:
                findings.append(f"audit printed {audit!r}")
            found += [f"{job.name}: {f}" for f in findings]
            q["two_qubit_gates"] += stats["n_2q"]
            q["two_qubit_depth"] += stats["two_qubit_depth"]
            q["schedule_exec_s"] += stats["execution_time_s"]
            q["neg_log10_F"] += _neg_log10(stats["fidelity"])
        # the sweep: recompute its rows from the schedule `atomique compile`
        # emits for the circuit `atomique gen` makes from the same spec
        if "sweep.csv" in rounds[0]["digest"]:
            gen = self.dir / "sweep-gen.qasm"
            check_dir = self.dir / "sweep-check"
            steps = [["gen", *self.wl.sweep_spec, "--seed", str(self.seed), "-o", str(gen)],
                     ["compile", str(gen), "-o", str(check_dir), "--config", self.cfg,
                      "--seed", str(self.seed)]]
            for argv in steps:
                _, _, rc, text = cli(argv)
                if rc:
                    found.append(f"sweep check: {argv[0]} failed: {text.strip()}")
                    break
            else:
                self.input_hashes["sweep-gen.qasm"] = _sha(gen.read_bytes())
                sched = json.loads((check_dir / "schedule.json").read_text())
                found += [f"sweep: {f}" for f in checks.check_sweep_csv(
                    Path(self.csv).read_text(), sched, hw, self.wl.sweep_values())]
        return found, q


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _neg_log10(fidelity: dict) -> float:
    """-log10 F_total; from the factors when the product underflows."""
    if fidelity["F_total"] > 0.0:
        return -math.log10(fidelity["F_total"])
    factors = [v for k, v in fidelity.items() if k != "F_total"]
    if min(factors) <= 0.0:
        raise ValueError("a fidelity factor is 0; -log10 F is unbounded")
    return -sum(math.log10(v) for v in factors)


def timed_rounds(bench: Bench, seconds: float, tracer=None) -> tuple[list, list, list]:
    """Rounds until `seconds` have passed: (untraced, traced, per-layer).
    With a tracer, untraced and traced rounds alternate, one of each at
    least."""
    plain, traced, layers = [], [], []
    t0 = time.perf_counter()
    while True:
        if tracer is not None and len(plain) > len(traced):
            tracer.reset()
            tracer.install()
            try:
                traced.append(bench.round(tracer))
            finally:
                tracer.uninstall()
            layers.append(tracer.metrics())
        else:
            plain.append(bench.round())
        done = len(plain) >= 1 and (tracer is None or len(traced) >= 1)
        if done and time.perf_counter() - t0 >= seconds:
            return plain, traced, layers


def run_all(args) -> int:
    """Every workload in its own process, one after another; prints each
    one's metrics with units and its attempted and failed commands."""
    results = {}
    for w in inputs.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            print(f"{w}: exit code {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return proc.returncode or 1
        results[w] = json.loads(lines[-1])
    for w, r in results.items():
        print(f"{w}: {r['attempted']} command(s) attempted, {r['failed']} failed, "
              f"outputs correct: {r['correct']}")
        for name, m in r["metrics"].items():
            print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()}}))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=(*inputs.WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "atomique" / "cli.py").is_file():
        print(f"no atomique sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    # One CPU for the whole run, inherited by sweep's pool threads and the
    # set-up interpreters, so the speed probe measures the CPU they run on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import atomique

    if Path(atomique.__file__).resolve().parent != (SRC / "atomique").resolve():
        print(f"imported atomique from {atomique.__file__}, not {SRC}", file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed)
    bench.warm_up()
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    plain, traced, layers = timed_rounds(bench, args.seconds, tracer)
    rounds = plain + traced
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup = measure_setup() if not args.trace else None
    findings, quality = bench.check(rounds)
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)

    def med(rs, key):
        return statistics.median(r[key] for r in rs)

    if args.trace:
        metrics = {name: {"value": statistics.median(m[name][0] for m in layers),
                          "unit": layers[0][name][1]} for name in layers[0]}
        metrics["trace.overhead_ratio"] = {
            "value": med(traced, "round_s") / med(plain, "round_s"), "unit": "ratio"}
        for cmd in ("compile", "audit", "sweep"):
            wall = med(traced, f"{cmd}_wall_s")
            uncovered = metrics.get(f"{cmd}.uncovered_s", {"value": wall})["value"]
            share = 1.0 - uncovered / wall
            print(f"trace coverage {cmd}: {share:.1%} of {wall:.3f} s in wrapped functions")
            if share < 0.9:
                print(f"warning: trace covers only {share:.1%} of {cmd}", file=sys.stderr)
        if tracer.missing:
            print(f"missing wrapped names (their metrics are left out): {tracer.missing}")
    else:
        metrics = {k: {"value": med(plain, k), "unit": "s"}
                   for k in ("compile_s", "audit_s", "sweep_s")}
        metrics["setup_s"] = {"value": setup[0], "unit": "s"}
        print(f"raw wall medians: setup_s {setup[1]:.4f} " + " ".join(
            f"{k}_s {med(plain, f'{k}_wall_s'):.4f}" for k in ("compile", "audit", "sweep")))
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
        metrics["two_qubit_gates"] = {"value": quality["two_qubit_gates"], "unit": "count"}
        metrics["two_qubit_depth"] = {"value": quality["two_qubit_depth"], "unit": "count"}
        metrics["schedule_exec_s"] = {"value": quality["schedule_exec_s"], "unit": "s"}
        metrics["neg_log10_F"] = {"value": quality["neg_log10_F"], "unit": "-log10"}

    print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced round(s), {attempted} command(s), {failed} failed")
    print(f"input hashes (sha256/16): {json.dumps(bench.input_hashes, sort_keys=True)}")
    for r in rounds:
        print("round (rescaled / raw wall s): " + " ".join(
            f"{k} {r[f'{k}_s']:.4f} / {r[f'{k}_wall_s']:.4f}" for k in ("compile", "audit", "sweep")))
    for line in bench.failures + findings[:50]:
        print(f"FAIL {line}")
    result = {"correct": not findings, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (bench.dir / "result.json").write_text(json.dumps(
        {**result, "workload": args.workload, "seed": args.seed,
         "inputs": bench.input_hashes, "findings": findings, "failures": bench.failures,
         "rounds": [{k: v for k, v in r.items() if k != "digest"} for r in rounds]},
        indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
