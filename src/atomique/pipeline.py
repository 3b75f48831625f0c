"""Full compile pipeline: circuit in, scored movement schedule out.

Order: basis lowering -> interaction-frequency graph -> array partition ->
inter-array SWAP routing -> slot placement -> stage routing (together
`build_schedule`) -> fidelity scoring (`compile_circuit` adds it).
Everything downstream of parsing is deterministic for a fixed (circuit,
config, seed), so the emitted schedule and stats are reproducible byte for
byte (wall time aside).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .arch import ArchConfig, HardwareParams
from .array_mapper import assign_arrays, partition_capacities
from .atom_mapper import Placement, place_atoms
from .circuit import Circuit, circuit_stats, cz_depth, gate_frequency_graph, to_basis
from .fidelity import FidelityReport, TimeLedger, apply_schedule, execution_time
from .stage_router import Schedule, route
from .swap_router import RoutedCircuit, route_inter_array


def random_assignment(n: int, config: ArchConfig, seed: int) -> np.ndarray:
    """Ablation baseline: qubits dropped uniformly onto free array slots.
    If n >= 2 qubits land in one array, where no CZ runs, the last drawn
    slot is swapped with the first undrawn one of another array, if any."""
    slots = np.repeat(np.arange(config.n_arrays),
                      [config.array_capacity(a) for a in range(config.n_arrays)])
    rng = np.random.default_rng(seed)
    rng.shuffle(slots)
    if n > len(slots):
        raise ValueError(f"{n} qubits exceed total capacity {len(slots)}")
    other = n + np.flatnonzero(slots[n:] != slots[0])
    if n >= 2 and (slots[:n] == slots[0]).all() and other.size:
        slots[[n - 1, other[0]]] = slots[[other[0], n - 1]]
    return slots[:n].copy()


@dataclass
class CompileResult:
    circuit: Circuit          # basis-lowered input
    assignment: np.ndarray    # qubit -> array id
    routed: RoutedCircuit
    placement: Placement
    schedule: Schedule
    report: FidelityReport
    ledger: TimeLedger
    stats: dict


def build_schedule(
    circuit: Circuit,
    config: ArchConfig,
    *,
    seed: int = 0,
    serial: bool = False,
    order: str = "weight",
    mapper: str = "greedy",
) -> tuple[Circuit, np.ndarray, RoutedCircuit, Placement, Schedule]:
    """The schedule-building half of the pipeline: lower, map, SWAP-route,
    place and stage-route, with no scoring.  Returns the basis-lowered
    circuit, the qubit -> array assignment, the routed circuit, the
    placement and the schedule, unaudited until scored (`apply_schedule`).

    mapper="random" replaces the greedy partitioner with a seeded uniform
    slot assignment (the ablation baseline); everything downstream is shared.
    Constraint relaxations come from ``config.relaxed``.
    """
    # checked before lowering, which keeps the qubit count: a register
    # broadcast (`h q;`) is one gate per qubit, so lowering an over-capacity
    # input first could take seconds
    n = circuit.n_qubits
    if n > sum(partition_capacities(config)):
        raise ValueError(f"{n} qubits exceed total array capacity")
    basis = to_basis(circuit)

    if mapper == "greedy":
        weights = gate_frequency_graph(basis)
        assignment = assign_arrays(weights, config, order=order)
    elif mapper == "random":
        assignment = random_assignment(n, config, seed)
    else:
        raise ValueError(f"unknown mapper {mapper!r}")

    routed = route_inter_array(basis, assignment)
    placement = place_atoms(routed.circuit, routed.assignment, config)
    return (basis, assignment, routed, placement,
            route(routed, placement, config, serial=serial))


def compile_circuit(
    circuit: Circuit,
    config: ArchConfig,
    params: HardwareParams | None = None,
    *,
    seed: int = 0,
    serial: bool = False,
    order: str = "weight",
    mapper: str = "greedy",
) -> CompileResult:
    """Run the whole pipeline: `build_schedule`, then audit and score the
    schedule at `params` and the config's move time, and gather the stats."""
    if params is None:
        params = HardwareParams()
    t0 = time.perf_counter()
    basis, assignment, routed, placement, schedule = build_schedule(
        circuit, config, seed=seed, serial=serial, order=order, mapper=mapper)
    [(report, ledger)] = apply_schedule(schedule, [(params, None)])
    for stage, events in zip(schedule.stages, report.cooling):
        stage.cooling = events
    wall = time.perf_counter() - t0

    n = circuit.n_qubits
    in_stats = circuit_stats(basis)
    stats = {
        "schema_version": 1,
        "n_qubits": n,
        "n_1q_input": in_stats.n_1q,
        "n_2q_input": in_stats.n_2q,
        "n_1q": report.N_1Q,
        "n_2q": report.N_2Q,
        "added_cx": routed.added_cx,
        "two_qubit_depth": schedule.depth,
        "cz_depth": {"input": cz_depth(basis), "routed": cz_depth(routed.circuit)},
        "deferrals": dict(schedule.deferrals),
        "n_stages": len(schedule.stages),
        "n_raman_layers": schedule.n_raman_layers,
        "n_coolings": report.N_cooling,
        "overlap_rejections": schedule.overlap_rejections,
        "execution_time_s": execution_time(ledger),
        "total_move_distance_mm": report.move_distance_um / 1000.0,
        "fidelity": {"F_total": report.F_total, **report.factors()},
        "neg_log": report.neg_log_breakdown(),
        "times": {
            "T_1Q_total": ledger.T_1Q_total,
            "T_2Q_total": ledger.T_2Q_total,
            "T_move_total": ledger.T_move_total,
            "T_transfer_total": ledger.T_transfer_total,
        },
        "assignment": [int(a) for a in assignment],
        "placement": [[placement[q].array, placement[q].row, placement[q].col]
                      for q in range(n)],
        "perm": list(routed.perm),
        "compile_wall_time_s": wall,
    }
    return CompileResult(basis, assignment, routed, placement, schedule,
                         report, ledger, stats)
