"""Reference inter-array SWAP router.

The plain version of `atomique.swap_router.route_inter_array`, kept only as
a test oracle: every SWAP rescans the gate list from gate 0 for its
lookahead window, and every candidate (q, r) sums its cost over the whole
window through the logical -> array lookup.  The package's router must
return the same routed gates, `perm` and `added_cx`.  `intra_array_cz`
counts what both routers must leave at zero.
"""

import numpy as np

from atomique.circuit import Circuit, Gate, build_dag
from atomique.swap_router import DECAY, LOOKAHEAD_WINDOW, RoutedCircuit, _lowered_swap


def intra_array_cz(routed: RoutedCircuit) -> int:
    """How many CZs of the routed circuit act on two slots of one array."""
    a = routed.assignment
    return sum(1 for g in routed.circuit.gates
               if g.kind == "cz" and a[g.qubits[0]] == a[g.qubits[1]])


def route_inter_array(circuit: Circuit, assignment) -> RoutedCircuit:
    s_arr = np.asarray(assignment, dtype=np.int64)
    n = circuit.n_qubits
    if s_arr.shape != (n,):
        raise ValueError("assignment must cover every qubit")
    gates = circuit.gates
    dag = build_dag(circuit)

    slot_arr = s_arr.tolist()  # slot -> array id, as Python ints
    l2s = list(range(n))  # logical -> slot
    future = [0] * n      # remaining CZ count per logical qubit
    for g in gates:
        if g.kind == "cz":
            future[g.qubits[0]] += 1
            future[g.qubits[1]] += 1

    out = Circuit(n)
    added_cx = 0
    executed = [False] * len(gates)
    pending = [len(p) for p in dag.preds]
    ready = {i for i, c in enumerate(pending) if c == 0}

    def arr(logical: int) -> int:
        return slot_arr[l2s[logical]]

    def emit(gi: int) -> None:
        g = gates[gi]
        out.gates.append(Gate(g.kind, tuple(l2s[q] for q in g.qubits), g.params))
        executed[gi] = True
        if g.kind == "cz":
            future[g.qubits[0]] -= 1
            future[g.qubits[1]] -= 1
        ready.discard(gi)
        for s in dag.succs[gi]:
            pending[s] -= 1
            if pending[s] == 0:
                ready.add(s)

    def blocked_window() -> list[tuple[int, int]]:
        win = []
        for gi, g in enumerate(gates):
            if executed[gi] or g.kind != "cz":
                continue
            a, b = g.qubits
            if arr(a) == arr(b):
                win.append((a, b))
                if len(win) == LOOKAHEAD_WINDOW:
                    break
        return win

    while True:
        progress = True
        while progress:
            progress = False
            for gi in sorted(ready):
                g = gates[gi]
                if g.kind == "cz" and arr(g.qubits[0]) == arr(g.qubits[1]):
                    continue
                emit(gi)
                progress = True
        if not ready:
            break

        # everything ready is a blocked CZ; unblock the earliest one
        target = gates[min(ready)]
        t_a, t_b = target.qubits
        home = arr(t_a)
        window = blocked_window()
        outside = [r for r in range(n) if slot_arr[l2s[r]] != home]
        if not outside:
            raise RuntimeError("all qubits share one array; CZ cannot be routed")

        best_key, best = None, None
        for q in (t_a, t_b):
            q_arr = arr(q)
            for r in outside:
                r_arr = slot_arr[l2s[r]]
                cost = 0.0
                for pos, (a, b) in enumerate(window):
                    aa = r_arr if a == q else (q_arr if a == r else arr(a))
                    bb = r_arr if b == q else (q_arr if b == r else arr(b))
                    if aa == bb:
                        cost += DECAY ** pos
                key = (cost, future[r], r, 0 if q == t_b else 1)
                if best_key is None or key < best_key:
                    best_key, best = key, (q, r)

        q, r = best
        sq, sr = l2s[q], l2s[r]
        out.gates.extend(_lowered_swap(sq, sr))
        added_cx += 3
        l2s[q], l2s[r] = sr, sq

    routed = RoutedCircuit(out, s_arr, list(l2s), added_cx)
    assert intra_array_cz(routed) == 0
    return routed
