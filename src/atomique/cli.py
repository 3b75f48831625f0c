"""Command-line surface.

Subcommands: compile (QASM -> schedule.json + stats.json), gen (benchmark
QASM files), sweep (hardware-parameter CSV), audit (re-check a schedule's
geometry, move distances and move times), check (compile + unitary
equivalence), render (per-stage SVGs).
Machine outputs are JSON/CSV and byte-deterministic for a fixed (input,
config, seed); the one exception is the compile_wall_time_s stats field.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import gc
import json
import os
import sys

from .arch import ArchConfig, HardwareParams, load_config
from .array_mapper import partition_capacities
from .fidelity import apply_schedule, execution_time
from .circuit import parse_qasm, to_qasm
from .oracle import MAX_ORACLE_QUBITS, equivalent_up_to_permutation
from .pipeline import build_schedule, compile_circuit
from .render import render_schedule
from .stage_router import (
    DistanceMismatch,
    MoveTimeMismatch,
    audit_schedule,
    schedule_from_dict,
    schedule_to_circuit,
    schedule_to_dict,
)
from .workloads import FAMILIES, WorkloadSpec

SWEEP_PARAMS = ("T_per_move", "D_site", "n_cool_threshold", "T1", "f_2Q")


def _load_config(args) -> tuple[ArchConfig, HardwareParams]:
    if getattr(args, "config", None):
        with open(args.config) as fh:
            return load_config(json.load(fh))
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


def _read_input(args):
    """(the input circuit, the config, the hardware params) of a compile."""
    config, params = _load_config(args)
    config = dataclasses.replace(config, relaxed=config.relaxed | set(args.relax))
    with open(args.input) as fh:
        circuit = parse_qasm(fh.read(), max_qubits=sum(partition_capacities(config)))
    return circuit, config, params


def _run_compile(args, circuit, config, params):
    return compile_circuit(
        circuit, config, params,
        seed=args.seed,
        serial=args.serial_router,
        order=args.alg1_order,
        mapper=args.mapper,
    )


def _write_json(path: str, payload: dict[str, object]) -> None:
    """Write json.dumps(payload, sort_keys=True) and a newline, encoding one
    top-level value, or one item of a top-level list, at a time.  Without
    an indent, json runs its C encoder; piece by piece, the file is never
    one string in memory."""
    encode = json.JSONEncoder(sort_keys=True).encode
    with open(path, "w") as fh:
        fh.write("{")
        for i, key in enumerate(sorted(payload)):
            value = payload[key]
            fh.write(f"{', ' if i else ''}{encode(key)}: ")
            if type(value) is list:
                fh.write("[")
                fh.writelines(f"{', ' if j else ''}{encode(item)}"
                              for j, item in enumerate(value))
                fh.write("]")
            else:
                fh.write(encode(value))
        fh.write("}\n")


def cmd_compile(args) -> int:
    res = _run_compile(args, *_read_input(args))
    os.makedirs(args.out_dir, exist_ok=True)
    _write_json(os.path.join(args.out_dir, "schedule.json"),
                schedule_to_dict(res.schedule))
    with open(os.path.join(args.out_dir, "stats.json"), "w") as fh:
        fh.write(json.dumps(res.stats, indent=2, sort_keys=True) + "\n")
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


def _generate(args, config: ArchConfig):
    """The circuit the workload arguments name.  Its size is checked against
    the config's capacity first: generating it can take O(n^2)."""
    if args.n > sum(partition_capacities(config)):
        raise ValueError(f"{args.n} qubits exceed total array capacity")
    return WorkloadSpec(
        family=args.family, n_qubits=args.n, seed=args.seed, p=args.p,
        d=args.d, p_non_identity=args.p_non_identity, n_strings=args.n_strings,
        secret=args.secret, gates_per_qubit=args.gates_per_qubit,
    ).generate()


def cmd_gen(args) -> int:
    circuit = _generate(args, _load_config(args)[0])
    with open(args.output, "w") as fh:
        fh.write(to_qasm(circuit))
    print(f"wrote {args.output}: {circuit.n_qubits} qubits, {len(circuit.gates)} gates")
    return 0


def cmd_sweep(args) -> int:
    values = sorted(float(v) for v in args.values.split(","))
    config, params = _load_config(args)
    circuit = _generate(args, config)
    # route once, then score (and so audit) each run of (config, points) in
    # one walk: no routing decision reads D_site.  Every value is checked,
    # as a config would check it, before any compile
    if args.param == "D_site":
        runs = [(dataclasses.replace(config, D_site=v), [(params, None)]) for v in values]
    elif args.param == "T_per_move":
        runs = [(config, [(params, dataclasses.replace(config, T_per_move=v).T_per_move)
                          for v in values])]
    else:
        runs = [(config, [(dataclasses.replace(params, **{args.param: v}), None)
                          for v in values])]
    *_, schedule = build_schedule(circuit, runs[0][0], seed=args.seed)
    results = [score for run_config, points in runs for score
               in apply_schedule(dataclasses.replace(schedule, config=run_config), points)]

    with open(args.output, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["value", "F_total", *results[0][0].factors(),
                         "execution_time_s", "n_coolings"])
        for value, (report, ledger) in zip(values, results):
            writer.writerow([value, report.F_total, *report.factors().values(),
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
        elif isinstance(v, MoveTimeMismatch):
            print(f"stage {k}: move_time_s {v.stored_s!r}, "
                  f"its gates and moves need {v.needed_s!r}")
        else:
            print(f"stage {k}: atoms {v.i},{v.j} {v.kind} at {v.distance_um:.3f} um")
    print(f"{len(findings)} violation(s) across {len(schedule.stages)} stage(s)")
    return 0 if not findings else 1


def cmd_check(args) -> int:
    circuit, config, params = _read_input(args)
    # checked before compiling: the oracle's limit is far below a compile's
    n = circuit.n_qubits
    if n > MAX_ORACLE_QUBITS:
        print(f"FAIL: {n} qubits exceeds the {MAX_ORACLE_QUBITS}-qubit oracle limit",
              file=sys.stderr)
        return 1
    res = _run_compile(args, circuit, config, params)
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


def _compile_command(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", help="OpenQASM 2 file")
    p.add_argument("-o", "--out-dir", default=".")
    p.add_argument("--emit-qasm", action="store_true",
                   help="also write the routed slot-space circuit")
    _compile_args(p)
    p.set_defaults(func=cmd_compile)


def _gen_command(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="architecture/hardware JSON (bounds --n by its capacity)")
    _workload_args(p)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_gen)


def _sweep_command(p: argparse.ArgumentParser) -> None:
    p.add_argument("--param", required=True, choices=SWEEP_PARAMS)
    p.add_argument("--values", required=True,
                   help="comma-separated values (seconds for times, um for D_site)")
    p.add_argument("--config", help="architecture/hardware JSON")
    _workload_args(p)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_sweep)


def _audit_command(p: argparse.ArgumentParser) -> None:
    p.add_argument("schedule", help="schedule.json")
    p.set_defaults(func=cmd_audit)


def _check_command(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", help="OpenQASM 2 file (<= 10 qubits)")
    _compile_args(p)
    p.set_defaults(func=cmd_check)


def _render_command(p: argparse.ArgumentParser) -> None:
    p.add_argument("schedule", help="schedule.json")
    p.add_argument("-o", "--out-dir", default="frames")
    p.set_defaults(func=cmd_render)


# subcommand -> (its help, the function adding its arguments)
COMMANDS = {
    "compile": ("compile QASM to a movement schedule", _compile_command),
    "gen": ("generate a benchmark circuit as QASM", _gen_command),
    "sweep": ("hardware parameter sweep to CSV", _sweep_command),
    "audit": ("re-run the geometry audit on a schedule", _audit_command),
    "check": ("compile and verify unitary equivalence", _check_command),
    "render": ("draw per-stage SVG frames", _render_command),
}


def build_parser(commands=None) -> argparse.ArgumentParser:
    """The `atomique` parser.  Every subcommand is registered with its
    help, so the top-level usage, help and errors list them all; only the
    subcommands in `commands` (all when None) get their arguments, -h
    included.  A subcommand without them must not be parsed."""
    top = argparse.ArgumentParser(prog="atomique",
                                  description="compiler for reconfigurable atom arrays")
    sub = top.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments) in COMMANDS.items():
        wanted = commands is None or name in commands
        p = sub.add_parser(name, help=help_text, add_help=wanted)
        if wanted:
            add_arguments(p)
    return top


def main(argv=None) -> int:
    """Run the `atomique` subcommand argv names; returns its exit code.

    The subcommand runs with Python's cyclic garbage collector paused, and
    the collector is re-enabled on the way out if it was enabled on entry.
    A command's gates, stages and JSON lists and dicts live until it
    returns, so collector passes over them free nothing.  The pause stays
    bounded: reference counting still frees all acyclic garbage at once,
    and a command leaves the same small number of cyclic objects (about two
    hundred) whatever its input size, which the next collection frees.
    """
    argv = sys.argv[1:] if argv is None else argv
    # the subcommand is one of the words of argv: only the subcommands argv
    # names need their arguments, all of them when it names none
    args = build_parser(set(argv) & COMMANDS.keys() or None).parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
