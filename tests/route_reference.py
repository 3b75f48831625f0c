"""Reference ready front of `atomique.stage_router.route`.

`route` below keeps the set-scan front that the package's ordered front
replaced: `ready` is one set, each Raman iteration scans all of it twice
(barriers, then one-qubit gates), and each stage sorts it by descending
DAG-descendant count (ties: lower gate index).  Selection, synthesis and
the audit are the package's own, so a difference between the two routes
is a difference of the front alone.  Kept only as a test oracle: the
package's `route` must give the same schedule, stage by stage.
"""

import numpy as np

from atomique.arch import ArchConfig
from atomique.atom_mapper import Placement
from atomique.circuit import Gate, build_dag
from atomique.stage_router import (
    Schedule,
    Stage,
    _ArrayIndex,
    _audit_walk,
    _descendant_counts,
    _gate_pins,
    _Pins,
    initial_lanes,
    select_parallel_gates,
    synthesize_motion,
)
from atomique.swap_router import RoutedCircuit


def route(routed: RoutedCircuit, placement: Placement, config: ArchConfig,
          serial: bool = False) -> Schedule:
    """Schedule a routed circuit into audited movement stages.

    ValueError first on a gate other than u, cz and barrier, or on an
    intra-array CZ.  Loop: execute every ready one-qubit gate in Raman
    layers, then offer the ready CZs by descending DAG-descendant count
    (ties: lower gate index; only the first if `serial`) to
    `select_parallel_gates`, synthesize the lane motion (dropping the
    last accepted gate while the parked rows don't fit), emit.  Then the
    emitted stages are audited in blocks: the first stage in violation
    raises RuntimeError with its first four findings, also when routing
    failed after emitting it.
    """
    circuit = routed.circuit
    gates = circuit.gates
    dag = build_dag(circuit)
    desc_count = _descendant_counts(dag)
    index = _ArrayIndex(placement, config)
    gate_pins: dict[int, _Pins] = {}  # CZ gate index -> its lane pins
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

    prev_rows, prev_cols = initial = initial_lanes(config, index)
    emitted: list[tuple] = []  # (raman, cz, row_lanes, col_lanes, col_offsets)
    overlap_rejections = 0

    def audit() -> list[np.ndarray]:
        """Move distances per emitted stage; RuntimeError for the first in violation."""
        distances = []
        for _, moved, found in _audit_walk(placement, config, *initial,
                                           [e[1:] for e in emitted]):
            if found:
                violations = [v for k, v in found if k == found[0][0]]
                raise RuntimeError(f"stage geometry violates separation: {violations[:4]}")
            distances.extend(moved)
        return distances

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
            accepted, pins, rej = select_parallel_gates(
                order[:1] if serial else order, gate_pins, index, config)
            overlap_rejections += rej
            while True:
                # only an interior gap fails, and with no pins there is none,
                # so the pop below never underflows
                synth = synthesize_motion(pins, prev_rows, prev_cols, index, config)
                if synth is not None:
                    break
                accepted.pop()
                pins = _Pins()
                for gi, _ in accepted:
                    pins.add(gate_pins[gi])
            # synthesize_motion gives every occupied row and column a finite
            # lane, so the audit's lane gather cannot fail; its lists are
            # fresh on every call, so each stage owns the ones it is given
            emitted.append((raman_layers, [pair for _, pair in accepted], *synth))
            for gi, _ in accepted:
                finish(gi)
            prev_rows, prev_cols, _ = synth
    except Exception:
        audit()
        raise

    stages = [Stage(raman, cz, rows, cols, offsets, distances,
                    config.T_per_move if (cz or distances.any()) else 0.0)
              for (raman, cz, rows, cols, offsets), distances in zip(emitted, audit())]
    return Schedule(config, dict(placement), stages, list(routed.perm),
                    *initial, overlap_rejections)
