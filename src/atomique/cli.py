"""Command-line surface.

Subcommands: compile (QASM -> schedule.json + stats.json), gen (benchmark
QASM files), sweep (hardware-parameter CSV), audit (re-check a schedule's
geometry), check (compile + unitary equivalence), render (per-stage SVGs).
Machine outputs are JSON/CSV and byte-deterministic for a fixed (input,
config, seed); the one exception is the compile_wall_time_s stats field.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys

from .arch import ArchConfig, HardwareParams, load_config
from .fidelity import apply_schedule, execution_time
from .circuit import parse_qasm, to_qasm
from .oracle import MAX_ORACLE_QUBITS, equivalent_up_to_permutation
from .pipeline import compile_circuit
from .render import render_schedule
from .stage_router import (
    DistanceMismatch,
    audit_schedule,
    schedule_from_dict,
    schedule_to_circuit,
    schedule_to_dict,
)
from .workloads import FAMILIES, WorkloadSpec

SWEEP_PARAMS = ("T_per_move", "D_site", "n_cool_threshold", "T1", "f_2Q")


def _load_config(args) -> tuple[ArchConfig, HardwareParams]:
    if getattr(args, "config", None):
        return load_config(args.config)
    return ArchConfig(), HardwareParams()


def _compile_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="architecture/hardware JSON")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--serial-router", action="store_true",
                   help="schedule one two-qubit gate per stage")
    p.add_argument("--relax", action="append", default=[],
                   choices=["C1", "C2", "C3"],
                   help="disable a placement constraint (repeatable)")
    p.add_argument("--alg1-order", default="weight", choices=["weight", "index"],
                   help="vertex visit order of the greedy partitioner")
    p.add_argument("--mapper", default="greedy", choices=["greedy", "random"],
                   help="array mapper (random = seeded ablation baseline)")


def _run_compile(args):
    config, params = _load_config(args)
    config = dataclasses.replace(config, relaxed=config.relaxed | set(args.relax))
    with open(args.input) as fh:
        circuit = parse_qasm(fh.read())
    return compile_circuit(
        circuit, config, params,
        seed=args.seed,
        serial=args.serial_router,
        order=args.alg1_order,
        mapper=args.mapper,
    )


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_compile(args) -> int:
    res = _run_compile(args)
    os.makedirs(args.out_dir, exist_ok=True)
    _write_json(os.path.join(args.out_dir, "schedule.json"),
                schedule_to_dict(res.schedule))
    _write_json(os.path.join(args.out_dir, "stats.json"), res.stats)
    if args.emit_qasm:
        with open(os.path.join(args.out_dir, "routed.qasm"), "w") as fh:
            fh.write(to_qasm(res.routed.circuit))
    print(f"compiled {args.input}: {res.stats['n_2q']} two-qubit gates, "
          f"depth {res.stats['two_qubit_depth']}, "
          f"F_total {res.stats['fidelity']['F_total']:.4f}")
    return 0


def _workload_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--n", required=True, type=int, help="qubit count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--p", type=float, default=0.5, help="qaoa-rand edge probability")
    p.add_argument("--d", type=int, default=3, help="qaoa-regular degree")
    p.add_argument("--p-non-identity", type=float, default=0.5)
    p.add_argument("--n-strings", type=int, default=10)
    p.add_argument("--secret", help="bv secret bitstring (length n-1)")
    p.add_argument("--gates-per-qubit", type=float, default=10.0)


def _workload(args) -> WorkloadSpec:
    return WorkloadSpec(
        family=args.family, n_qubits=args.n, seed=args.seed, p=args.p,
        d=args.d, p_non_identity=args.p_non_identity, n_strings=args.n_strings,
        secret=args.secret, gates_per_qubit=args.gates_per_qubit,
    )


def cmd_gen(args) -> int:
    circuit = _workload(args).generate()
    with open(args.output, "w") as fh:
        fh.write(to_qasm(circuit))
    print(f"wrote {args.output}: {circuit.n_qubits} qubits, {len(circuit.gates)} gates")
    return 0


def cmd_sweep(args) -> int:
    if args.param not in SWEEP_PARAMS:
        print(f"unknown sweep parameter {args.param!r}", file=sys.stderr)
        return 1
    values = sorted(float(v) for v in args.values.split(","))
    config, params = _load_config(args)
    circuit = _workload(args).generate()
    # geometry changes force a recompile per point; pure-model parameters
    # rescore one compiled schedule
    base = None
    if args.param != "D_site":
        base = compile_circuit(circuit, config, params, seed=args.seed)

    def score(value):
        if args.param == "D_site":
            res = compile_circuit(circuit, dataclasses.replace(config, D_site=value),
                                  params, seed=args.seed)
            return res.report, res.ledger
        if args.param == "T_per_move":
            return apply_schedule(base.schedule, params, T_per_move=value)
        return apply_schedule(base.schedule,
                              dataclasses.replace(params, **{args.param: value}))

    results = [score(value) for value in values]

    factor_names = ("F_1Q", "F_2Q", "F_transfer", "F_mov_heating",
                    "F_mov_loss", "F_mov_cooling", "F_mov_deco")
    with open(args.output, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["value", "F_total", *factor_names,
                         "execution_time_s", "n_coolings"])
        for value, (report, ledger) in zip(values, results):
            writer.writerow([value, report.F_total,
                             *(report.factors()[k] for k in factor_names),
                             execution_time(ledger), report.N_cooling])
    print(f"wrote {args.output}: {len(values)} points of {args.param}")
    return 0


def _load_schedule(path: str):
    with open(path) as fh:
        return schedule_from_dict(json.load(fh))


def cmd_audit(args) -> int:
    schedule = _load_schedule(args.schedule)
    findings = audit_schedule(schedule)
    for k, v in findings[:20]:
        if isinstance(v, DistanceMismatch):
            print(f"stage {k}: atom {v.q} distances_um {v.stored_um!r}, lanes give {v.lanes_um!r}")
        else:
            print(f"stage {k}: atoms {v.i},{v.j} {v.kind} at {v.distance_um:.3f} um")
    print(f"{len(findings)} violation(s) across {len(schedule.stages)} stage(s)")
    return 0 if not findings else 1


def cmd_check(args) -> int:
    res = _run_compile(args)
    n = res.circuit.n_qubits
    if n > MAX_ORACLE_QUBITS:
        print(f"FAIL: {n} qubits exceeds the {MAX_ORACLE_QUBITS}-qubit oracle limit",
              file=sys.stderr)
        return 1
    ok = equivalent_up_to_permutation(res.circuit, schedule_to_circuit(res.schedule),
                                      res.schedule.perm)
    print("PASS: schedule matches input unitary" if ok
          else "FAIL: schedule does not match input unitary")
    return 0 if ok else 1


def cmd_render(args) -> int:
    schedule = _load_schedule(args.schedule)
    paths = render_schedule(schedule, args.out_dir)
    print(f"wrote {len(paths)} SVG frame(s) to {args.out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="atomique",
                                  description="compiler for reconfigurable atom arrays")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile QASM to a movement schedule")
    p.add_argument("input", help="OpenQASM 2 file")
    p.add_argument("-o", "--out-dir", default=".")
    p.add_argument("--emit-qasm", action="store_true",
                   help="also write the routed slot-space circuit")
    _compile_args(p)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("gen", help="generate a benchmark circuit as QASM")
    _workload_args(p)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("sweep", help="hardware parameter sweep to CSV")
    p.add_argument("--param", required=True, choices=SWEEP_PARAMS)
    p.add_argument("--values", required=True,
                   help="comma-separated values (seconds for times, um for D_site)")
    p.add_argument("--config", help="architecture/hardware JSON")
    _workload_args(p)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("audit", help="re-run the geometry audit on a schedule")
    p.add_argument("schedule", help="schedule.json")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("check", help="compile and verify unitary equivalence")
    p.add_argument("input", help="OpenQASM 2 file (<= 10 qubits)")
    _compile_args(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("render", help="draw per-stage SVG frames")
    p.add_argument("schedule", help="schedule.json")
    p.add_argument("-o", "--out-dir", default="frames")
    p.set_defaults(func=cmd_render)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
