"""Inter-array SWAP routing on the complete multipartite coupling graph.

Atoms in different arrays can always be brought together, so the coupling
graph is complete multipartite: a CZ is executable iff its endpoints live in
different arrays, blocked iff they share one.  Distance is therefore 0/1 and
a SABRE-style lookahead reduces to counting how many upcoming blocked gates a
candidate SWAP would leave co-array.

Slots are the initial positions of the logical qubits (slot i starts out
holding logical i) and never change arrays; SWAPs exchange the logical
payload of two slots.  The routed circuit is expressed on slots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Gate, build_dag, _FIXED_1Q

_H = _FIXED_1Q["h"]

LOOKAHEAD_WINDOW = 20
DECAY = 0.7


def _lowered_swap(s: int, t: int) -> list[Gate]:
    """SWAP as 3 CZ + 6 one-qubit gates (CX conjugated by H, fused)."""
    return [
        Gate("u", (t,), _H), Gate("cz", (s, t), ()), Gate("u", (t,), _H),
        Gate("u", (s,), _H), Gate("cz", (s, t), ()), Gate("u", (s,), _H),
        Gate("u", (t,), _H), Gate("cz", (s, t), ()), Gate("u", (t,), _H),
    ]


@dataclass
class RoutedCircuit:
    circuit: Circuit        # slot-space basis circuit, SWAPs expanded
    assignment: np.ndarray  # slot -> array id
    perm: list[int]         # logical qubit -> slot holding it afterwards
    added_cx: int


def route_inter_array(circuit: Circuit, assignment) -> RoutedCircuit:
    """Eliminate intra-array CZ gates by inserting SWAPs.

    Front-layer loop: every ready gate whose endpoints sit in different
    arrays is emitted.  When only blocked gates remain ready, the earliest
    one picks a SWAP(q, r) between one of its endpoints q and a logical r
    currently held in another array.  The winning candidate minimizes
    sum(DECAY^pos) over the next LOOKAHEAD_WINDOW blocked CZs that would
    *stay* co-array after the swap; ties fall to fewer remaining gates on r,
    then lower r, then the later gate endpoint.

    The cost of (q, r) reads r only through r's array, except at window
    gates that name r.  So every r that no window gate names gets, bit for
    bit, the cost of any other such r in its array: the same terms, added
    in the same order.  That cost is summed once per (q, array), and the
    full window sum runs only for the at most 2 * LOOKAHEAD_WINDOW qubits
    the window names.  Every r still gets its own key, so ties resolve as
    if each cost had been summed apart.
    """
    s_arr = np.asarray(assignment, dtype=np.int64)
    n = circuit.n_qubits
    if s_arr.shape != (n,):
        raise ValueError("assignment must cover every qubit")
    gates = circuit.gates
    dag = build_dag(circuit)

    l2s = list(range(n))  # logical -> slot
    l2a = s_arr.tolist()  # logical -> array id of its slot, as Python ints
    future = [0] * n      # remaining CZ count per logical qubit
    for g in gates:
        if g.kind == "cz":
            future[g.qubits[0]] += 1
            future[g.qubits[1]] += 1
    weights = [DECAY ** pos for pos in range(LOOKAHEAD_WINDOW)]

    out = Circuit(n)
    added_cx = 0
    executed = [False] * len(gates)
    first = 0  # every gate before this one has been emitted
    pending = [len(p) for p in dag.preds]
    ready = {i for i, c in enumerate(pending) if c == 0}

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

    def blocked_window() -> list[tuple[int, int, int]]:
        """(a, b, array of both) for the next LOOKAHEAD_WINDOW blocked CZs."""
        nonlocal first
        while executed[first]:
            first += 1
        win = []
        for gi in range(first, len(gates)):
            g = gates[gi]
            if executed[gi] or g.kind != "cz":
                continue
            a, b = g.qubits
            if l2a[a] == l2a[b]:
                win.append((a, b, l2a[a]))
                if len(win) == LOOKAHEAD_WINDOW:
                    break
        return win

    def window_cost(window, q: int, r: int, q_arr: int, r_arr: int) -> float:
        cost = 0.0
        for (a, b, c), w in zip(window, weights):
            aa = r_arr if a == q else (q_arr if a == r else c)
            bb = r_arr if b == q else (q_arr if b == r else c)
            if aa == bb:
                cost += w
        return cost

    while True:
        progress = True
        while progress:
            progress = False
            for gi in sorted(ready):
                g = gates[gi]
                if g.kind == "cz" and l2a[g.qubits[0]] == l2a[g.qubits[1]]:
                    continue
                emit(gi)
                progress = True
        if not ready:
            break

        # everything ready is a blocked CZ; unblock the earliest one
        target = gates[min(ready)]
        t_a, t_b = target.qubits
        home = l2a[t_a]
        window = blocked_window()
        named = {x for a, b, _ in window for x in (a, b)}
        outside = [r for r in range(n) if l2a[r] != home]
        if not outside:
            raise RuntimeError("all qubits share one array; CZ cannot be routed")

        best_key, best = None, None
        for q in (t_a, t_b):
            tie = 0 if q == t_b else 1
            unnamed_cost: dict[int, float] = {}  # array -> cost of an r no gate names
            for r in outside:
                r_arr = l2a[r]
                if r in named:
                    cost = window_cost(window, q, r, home, r_arr)
                else:
                    cost = unnamed_cost.get(r_arr)
                    if cost is None:
                        cost = unnamed_cost[r_arr] = window_cost(window, q, -1, home, r_arr)
                key = (cost, future[r], r, tie)
                if best_key is None or key < best_key:
                    best_key, best = key, (q, r)

        q, r = best
        sq, sr = l2s[q], l2s[r]
        out.gates.extend(_lowered_swap(sq, sr))
        added_cx += 3
        l2s[q], l2s[r] = sr, sq
        l2a[q], l2a[r] = l2a[r], l2a[q]

    slot_arr = s_arr.tolist()  # slot -> array id
    left = sum(1 for g in out.gates
               if g.kind == "cz" and slot_arr[g.qubits[0]] == slot_arr[g.qubits[1]])
    if left:
        raise RuntimeError(f"routing left {left} intra-array CZ gate(s)")
    return RoutedCircuit(out, s_arr, list(l2s), added_cx)
