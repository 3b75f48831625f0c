"""Reference ready front of `atomique.stage_router.route`.

`route` below keeps the set-scan front that the package's ordered front
replaced: `ready` is one set, each Raman iteration scans all of it twice
(barriers, then one-qubit gates), and each stage sorts it by descending
DAG-descendant count (ties: lower gate index).  Selection, synthesis and
the audit are the package's own, so a difference between the two routes
is a difference of the front or of the descendant counts.  Kept only as a
test oracle: the package's `route` must give the same schedule, stage by
stage.

`descendant_counts` keeps the count the package's blocked sweeps
replaced: one bitset of every descendant per gate, gates^2 bits in all.
"""

from atomique.arch import ArchConfig
from atomique.atom_mapper import Placement
from atomique.circuit import Gate, build_dag
from atomique.stage_router import (
    Schedule,
    Stage,
    _ArrayIndex,
    _gate_pins,
    _Pins,
    initial_lanes,
    routed_walk,
    select_parallel_gates,
    synthesize_motion,
)
from atomique.swap_router import RoutedCircuit


def descendant_counts(dag) -> list[int]:
    """Number of DAG descendants per gate (reachability via bitsets)."""
    n = dag.n_nodes
    reach = [0] * n
    for i in range(n - 1, -1, -1):
        m = 0
        for s in dag.succs[i]:
            m |= reach[s] | (1 << s)
        reach[i] = m
    return [r.bit_count() for r in reach]


def route(routed: RoutedCircuit, placement: Placement, config: ArchConfig,
          serial: bool = False) -> Schedule:
    """Schedule a routed circuit into movement stages.

    ValueError first on a gate other than u, cz and barrier, or on an
    intra-array CZ.  Loop: execute every ready one-qubit gate in Raman
    layers, then offer the ready CZs by descending DAG-descendant count
    (ties: lower gate index; only the first if `serial`) to
    `select_parallel_gates` with the previous stage's lanes, synthesize
    the lane motion (dropping the last accepted gate while the parked rows
    don't fit), emit.  The stages are returned unaudited; when routing
    fails, the stages emitted so far are audited first, so the first stage
    in violation raises RuntimeError with its first four findings.
    """
    circuit = routed.circuit
    gates = circuit.gates
    dag = build_dag(circuit)
    desc_count = descendant_counts(dag)
    index = _ArrayIndex(placement, config)
    gate_pins: dict[int, tuple] = {}  # CZ gate index -> its lane pin table
    for gi, g in enumerate(gates):
        if g.kind == "cz":
            a, b = g.qubits
            if placement[a].array == placement[b].array:
                raise ValueError("routed circuit has an intra-array CZ")
            gate_pins[gi] = _gate_pins(g.qubits, placement, config)
        elif g.kind not in ("u", "barrier"):
            raise ValueError(f"unsupported gate {g.kind!r} in routed circuit")

    pending = [len(p) for p in dag.preds]
    ready = {i for i, c in enumerate(pending) if c == 0}

    def finish(gi: int) -> None:
        ready.discard(gi)
        for s in dag.succs[gi]:
            pending[s] -= 1
            if pending[s] == 0:
                ready.add(s)

    prev_rows, prev_cols = initial_lanes(config, index)
    deferrals = dict.fromkeys(("pin", "C2", "C3", "gap", "C1", "popped"), 0)
    stages: list[Stage] = []
    schedule = Schedule(config, dict(placement), stages, list(routed.perm), prev_rows, prev_cols,
                        0, deferrals)


    try:
        while True:
            raman_layers: list[list[Gate]] = []
            while True:
                fences = sorted(gi for gi in ready if gates[gi].kind == "barrier")
                for gi in fences:
                    finish(gi)
                ready_1q = sorted(gi for gi in ready if gates[gi].kind == "u")
                if not ready_1q:
                    if not fences:
                        break
                    continue
                raman_layers.append([gates[gi] for gi in ready_1q])
                for gi in ready_1q:
                    finish(gi)

            if not ready and not raman_layers:
                break
            # only CZs are left ready
            order = [(gi, gates[gi].qubits)
                     for gi in sorted(ready, key=lambda gi: (-desc_count[gi], gi))]
            accepted, pins, deferred = select_parallel_gates(
                order[:1] if serial else order, gate_pins, index, config, prev_rows, prev_cols)
            for reason, count in deferred.items():
                deferrals[reason] += count
            while True:
                # only an interior gap fails, and with no pins there is none,
                # so the pop below never underflows
                synth = synthesize_motion(pins, prev_rows, prev_cols, index, config)
                if synth is not None:
                    break
                accepted.pop()
                deferrals["popped"] += 1
                pins = _Pins(config.n_aod)
                for gi, _ in accepted:
                    pins.add(gate_pins[gi])
            # synthesize_motion gives every occupied row and column a finite
            # lane, so a lane gather of the stage cannot fail; its lists are
            # fresh on every call, so each stage owns the ones it is given
            stages.append(Stage(raman_layers, [pair for _, pair in accepted], *synth))
            for gi, _ in accepted:
                finish(gi)
            prev_rows, prev_cols, _ = synth
    except Exception:
        for _ in routed_walk(schedule):
            pass
        raise

    schedule.overlap_rejections = deferrals["C3"]
    return schedule
