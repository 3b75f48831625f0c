"""Reference stage selection and park-lane assignment.

The whole-stage versions of `atomique.stage_router.select_parallel_gates`
and `_assign_park_lanes`, kept only as test oracles: every candidate CZ is
checked by re-sorting all pins of the arrays it touches (`_order_ok`),
walking every pinned row x pinned column (`_cells_ok`) and rescanning every
gap (`_parkable`), and every park-lane assignment runs the full DP table.
The package's incremental versions must return the same values.
"""

from atomique.arch import ArchConfig
from atomique.atom_mapper import Placement
from atomique.stage_router import _ArrayIndex, _Pins, _gate_pins, _odd_between


def _assign_park_lanes(old, lanes):
    """Order-preserving assignment of rows (with previous lanes `old`) onto
    the sorted candidate `lanes`, minimizing total |shift|; None if they
    don't fit."""
    k, m = len(old), len(lanes)
    if k > m:
        return None
    inf = float("inf")
    dp = [[inf] * (m + 1) for _ in range(k + 1)]
    for j in range(m + 1):
        dp[0][j] = 0.0
    for i in range(1, k + 1):
        for j in range(i, m + 1):
            skip = dp[i][j - 1]
            take = dp[i - 1][j - 1] + abs(lanes[j - 1] - old[i - 1])
            dp[i][j] = take if take < skip else skip
    out = [0] * k
    j = m
    for i in range(k, 0, -1):
        while dp[i][j] == dp[i][j - 1]:
            j -= 1
        out[i - 1] = lanes[j - 1]
        j -= 1
    return out


def _conflicts(pins: _Pins, other: _Pins) -> bool:
    """True if `other` binds an already pinned row or column to a
    different lane or offset."""
    return any(mine.get(k, v) != v
               for mine, theirs in ((pins.rows, other.rows), (pins.cols, other.cols),
                                    (pins.offsets, other.offsets))
               for k, v in theirs.items())


def _order_ok(pins: dict, t: int, indices, relaxed) -> str | None:
    """Check C2/C3 over one array's pinned lanes; returns the violated
    constraint name or None."""
    lanes = [(i, pins[(t, i)]) for i in indices if (t, i) in pins]
    lanes.sort()
    for (_, la), (_, lb) in zip(lanes, lanes[1:]):
        if la == lb and "C3" not in relaxed:
            return "C3"
        if la > lb and "C2" not in relaxed:
            return "C2"
    # once C2 lets pins reorder, equal lanes need not be index-adjacent
    if "C3" not in relaxed and len({lane for _, lane in lanes}) < len(lanes):
        return "C3"
    return None


def _cells_ok(row_pins, col_pins, index: _ArrayIndex, intended) -> bool:
    """C1: every implied gate-cell cohabitation must be an intended pair."""
    occupants: dict[tuple[int, int], list[int]] = {}
    for (t, r), lane_r in row_pins.items():
        for (t2, c), lane_c in col_pins.items():
            if t2 != t:
                continue
            q = index.occ[t].get((r, c))
            if q is not None:
                occupants.setdefault((lane_r, lane_c), []).append(q)
    for cell, atoms in occupants.items():
        slm_q = index.slm_cells.get(cell)
        if slm_q is not None:
            atoms = atoms + [slm_q]
        if len(atoms) > 2:
            return False
        if len(atoms) == 2 and frozenset(atoms) not in intended:
            return False
    return True


def _parkable(pins: dict, t: int, occupied, relaxed) -> bool:
    """Pigeonhole check: unpinned occupied indices must fit on odd lanes
    strictly between consecutive pinned anchors."""
    anchors = sorted((i, pins[(t, i)]) for i in occupied if (t, i) in pins)
    for (ia, la), (ib, lb) in zip(anchors, anchors[1:]):
        between = sum(1 for i in occupied if ia < i < ib and (t, i) not in pins)
        lo, hi = (la, lb) if la <= lb else (lb, la)
        if between > _odd_between(lo, hi):
            return False
    return True


def select_parallel_gates(front, placement: Placement, index: _ArrayIndex,
                          config: ArchConfig, desc_count, serial: bool = False):
    """Greedy maximal legal parallel CZ set.

    `front` holds (gate_index, (a, b)) for every ready CZ.  Candidates are
    tried by descending DAG-descendant count (ties: lower gate index); each
    either merges its lane pins into the stage or is rejected back to the
    next stage.  Returns (accepted list of (gate_index, pair), pins,
    C3 rejections).
    """
    relaxed = config.relaxed
    order = sorted(front, key=lambda fg: (-desc_count[fg[0]], fg[0]))
    pins = _Pins()
    accepted: list[tuple[int, tuple[int, int]]] = []
    intended: set[frozenset] = set()
    overlap_rejections = 0

    for gi, pair in order:
        gate = _gate_pins(pair, placement, config)
        # (a) a row/col already pinned to a different lane or offset
        if _conflicts(pins, gate):
            continue
        trial = pins.merged(gate)
        # (b) per-array strict lane order
        verdict = None
        touched = {t for t, _ in (*gate.rows, *gate.cols)}
        for t in sorted(touched):
            verdict = (_order_ok(trial.rows, t, index.occ_rows[t], relaxed)
                       or _order_ok(trial.cols, t, index.occ_cols[t], relaxed))
            if verdict:
                break
        if verdict:
            if verdict == "C3":
                overlap_rejections += 1
            continue
        # (c) cell exclusivity against static atoms and other arrays
        if "C1" not in relaxed and not _cells_ok(
                trial.rows, trial.cols, index, intended | {frozenset(pair)}):
            continue
        # (d) parked rows must still fit between the anchors
        if not all(_parkable(trial.rows, t, index.occ_rows[t], relaxed)
                   and _parkable(trial.cols, t, index.occ_cols[t], relaxed)
                   for t in sorted(touched)):
            continue
        pins = trial
        accepted.append((gi, pair))
        intended.add(frozenset(pair))
        if serial:
            break
    return accepted, pins, overlap_rejections
