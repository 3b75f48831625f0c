"""Slot placement inside each array.

Static-array qubits are laid out along a diagonal-first "spiral" so that
heavily used qubits spread across rows and columns instead of crowding one
edge; movable-array qubits are then aligned to the (row, col) of their most
frequent gate partner, which turns the common gates into pure row/column
moves.
"""

from __future__ import annotations

from collections import Counter

from .arch import ArchConfig, AtomCoord
from .circuit import Circuit

Placement = dict[int, AtomCoord]


def slm_spiral_order(rows: int, cols: int) -> list[tuple[int, int]]:
    """All (row, col) slots ordered diagonal-first.

    Sort key: distance to the main diagonal |row - col| ascending, then
    position along the diagonal min(row, col) ascending, then the slot above
    the diagonal (row < col) before the one below.
    """
    if rows < 1 or cols < 1:
        raise ValueError("array must have at least one slot")
    slots = [(r, c) for r in range(rows) for c in range(cols)]
    slots.sort(key=lambda rc: (abs(rc[0] - rc[1]), min(rc), 0 if rc[0] < rc[1] else 1))
    return slots


def _cz_profile(circuit: Circuit):
    """Per-qubit CZ counts and per-pair CZ counts (pairs stored sorted)."""
    counts = [0] * circuit.n_qubits
    pairs: Counter = Counter()
    for g in circuit.gates:
        if g.kind != "cz":
            continue
        a, b = sorted(g.qubits)
        counts[a] += 1
        counts[b] += 1
        pairs[(a, b)] += 1
    return counts, pairs


def map_slm(slm_qubits, circuit: Circuit, config: ArchConfig) -> Placement:
    """Place static-array qubits: busiest first along the spiral order."""
    if len(slm_qubits) > config.array_capacity(0):
        raise ValueError(
            f"{len(slm_qubits)} qubits exceed static array capacity "
            f"{config.array_capacity(0)}")
    counts, _ = _cz_profile(circuit)
    order = slm_spiral_order(config.slm_rows, config.slm_cols)
    placement: Placement = {}
    ranked = sorted(slm_qubits, key=lambda q: (-counts[q], q))
    for q, (r, c) in zip(ranked, order):
        placement[q] = AtomCoord(0, r, c)
    return placement


def _nearest_free(target: tuple[int, int], shape: tuple[int, int], taken) -> tuple[int, int]:
    tr, tc = target
    best = None
    for r in range(shape[0]):
        for c in range(shape[1]):
            if (r, c) in taken:
                continue
            key = (abs(r - tr) + abs(c - tc), r, c)
            if best is None or key < best:
                best = key
    if best is None:
        raise ValueError("array is full")
    return (best[1], best[2])


def map_aod_aligned(assignment, placement: Placement, circuit: Circuit,
                    config: ArchConfig) -> Placement:
    """Place movable-array qubits aligned with their gate partners.

    Pairs are visited by descending CZ count (ties: lower qubit ids).  An
    unplaced endpoint goes to its partner's (row, col) when that slot is
    free in its own array, otherwise to the free slot nearest in Manhattan
    distance (ties row-major).  A pair with both endpoints unplaced shares
    the first (row, col) free in both arrays, scanned row-major.  Whatever
    remains fills free slots row-major in qubit-id order.
    """
    n = circuit.n_qubits
    placement = dict(placement)
    taken = [set() for _ in range(config.n_arrays)]
    for q, coord in placement.items():
        taken[coord.array].add((coord.row, coord.col))

    def place(q: int, rc: tuple[int, int]) -> None:
        a = int(assignment[q])
        placement[q] = AtomCoord(a, rc[0], rc[1])
        taken[a].add(rc)

    def aligned_or_nearest(q: int, target: tuple[int, int]) -> None:
        a = int(assignment[q])
        shape = config.array_shape(a)
        if (0 <= target[0] < shape[0] and 0 <= target[1] < shape[1]
                and target not in taken[a]):
            place(q, target)
        else:
            place(q, _nearest_free(target, shape, taken[a]))

    _, pairs = _cz_profile(circuit)
    for (a, b), _cnt in sorted(pairs.items(), key=lambda kv: (-kv[1], kv[0])):
        pa, pb = placement.get(a), placement.get(b)
        if pa is not None and pb is not None:
            continue
        if pa is None and pb is None:
            arr_a, arr_b = int(assignment[a]), int(assignment[b])
            sa, sb = config.array_shape(arr_a), config.array_shape(arr_b)
            shared = None
            if arr_a != arr_b:  # same-array pairs can't share a slot
                for r in range(min(sa[0], sb[0])):
                    for c in range(min(sa[1], sb[1])):
                        if (r, c) not in taken[arr_a] and (r, c) not in taken[arr_b]:
                            shared = (r, c)
                            break
                    if shared:
                        break
            if shared is not None:
                place(a, shared)
                place(b, shared)
            else:
                place(a, _nearest_free((0, 0), sa, taken[arr_a]))
                aligned_or_nearest(b, (placement[a].row, placement[a].col))
        elif pa is None:
            aligned_or_nearest(a, (pb.row, pb.col))
        else:
            aligned_or_nearest(b, (pa.row, pa.col))

    for q in range(n):
        if q in placement:
            continue
        a = int(assignment[q])
        rows, cols = config.array_shape(a)
        spot = next(((r, c) for r in range(rows) for c in range(cols)
                     if (r, c) not in taken[a]), None)
        if spot is None:
            raise ValueError(f"array {a} is over capacity")
        place(q, spot)
    return placement


def place_atoms(circuit: Circuit, assignment, config: ArchConfig) -> Placement:
    """Full placement: static array first, then aligned movable arrays."""
    n = circuit.n_qubits
    slm_qubits = [q for q in range(n) if int(assignment[q]) == 0]
    placement = map_slm(slm_qubits, circuit, config)
    placement = map_aod_aligned(assignment, placement, circuit, config)
    for q, coord in placement.items():
        if coord.array != int(assignment[q]):
            raise RuntimeError(f"qubit {q} placed in array {coord.array}, "
                               f"assigned to array {int(assignment[q])}")
    return placement
