"""Stage routing: parallel CZ batches realized as audited lane movements.

A *stage* is one shot of the hardware loop: Raman layers execute every ready
one-qubit gate, then each movable array shifts its row/column tweezers to new
lanes and a global Rydberg pulse runs all parallel CZs at once.  Lanes are
half-steps of the lattice pitch: even lanes sit on lattice rows/columns (gate
lanes), odd lanes in between (park lanes).  A gate pulls the movable atom's
row and column onto its partner's gate lanes; everything else parks on odd
lanes.

Three legality constraints govern what fits into one stage:
  C1  cell exclusivity — no two atoms may share a lane cell unless they are
      that stage's intended gate pair (otherwise they would blockade),
  C2  row/column order within an array must be preserved (tweezer beams of
      one AOD cannot cross),
  C3  two rows (or columns) of one array cannot merge onto one lane.
Any of the three can be disabled for ablation studies; the continuous
min-separation audit remains the ground truth and is run on every stage.
A stage holds lanes only.  One walk (`lane_walk`) derives its move
distances and move time, in blocks of up to AUDIT_BLOCK atoms with one lane
gather each, for the audit (plus a separation scan per block), scoring and
the serializer: fixed costs are paid per block, and the cap bounds arrays.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain
from operator import add, lt
from typing import NamedTuple

import numpy as np

from .arch import (
    ArchConfig,
    AtomCoord,
    Violation,
    arch_to_dict,
    atom_positions,
    lane_gather,
    load_config,
    min_separation_audit,
    move_distances,
)
from .atom_mapper import Placement
from .circuit import Circuit, Gate, build_dag
from .swap_router import RoutedCircuit


@dataclass
class Stage:
    raman: list[list[Gate]]              # one-qubit gate layers before the move
    cz: list[tuple[int, int]]            # atom pairs pulsed after the move
    row_lanes: list[list]                # per AOD: lane per row index (None = empty row)
    col_lanes: list[list]
    col_offsets: list[list[float]]       # per AOD: x offset (um) per column
    cooling: list[int] = field(default_factory=list)  # AOD indices reset after this stage


@dataclass
class Schedule:
    config: ArchConfig
    placement: Placement
    stages: list[Stage]
    perm: list[int]
    initial_row_lanes: list[list]
    initial_col_lanes: list[list]
    overlap_rejections: int
    # ready CZs deferred, by reason (`select_parallel_gates`), and
    # "popped": accepted by selection, then dropped so synthesis fits.
    # Routing fills it; a loaded schedule has none.
    deferrals: dict[str, int] = field(default_factory=dict)
    total_distance_um: float = 0.0  # per-stage sums added in stage order
    # a loaded file's stored move distances and move time per stage, for
    # `audit_schedule` alone; routing derives both from the lanes
    stored_distances_um: list[np.ndarray] | None = None
    stored_move_times_s: list[float] | None = None

    @property
    def depth(self) -> int:
        """Number of stages that execute at least one CZ."""
        return sum(1 for s in self.stages if s.cz)

    @property
    def n_raman_layers(self) -> int:
        return sum(len(s.raman) for s in self.stages)


# ---------------------------------------------------------------------------
# lanes
# ---------------------------------------------------------------------------


def initial_lanes(config: ArchConfig, index: "_ArrayIndex"):
    """Starting lanes: AOD t parks interleaved but offset by the cumulative
    grid size of the arrays before it, stacking the arrays diagonally so no
    two arrays share a row or column lane."""
    row_lanes, col_lanes = [], []
    row_base = col_base = 0
    for t in range(config.n_aod):
        rows, cols = config.aod_rows[t], config.aod_cols[t]
        occ_rows, occ_cols = set(index.occ_rows[t]), set(index.occ_cols[t])
        row_lanes.append([2 * (r + row_base) + 1 if r in occ_rows else None
                          for r in range(rows)])
        col_lanes.append([2 * (c + col_base) + 1 if c in occ_cols else None
                          for c in range(cols)])
        row_base += rows
        col_base += cols
    return row_lanes, col_lanes


def _odd_between(lo: int, hi: int) -> int:
    """Count odd integers strictly between lo and hi."""
    return max(0, hi // 2 - (lo + 1) // 2)


def _assign_park_lanes(old, lanes):
    """Order-preserving assignment of rows (with previous lanes `old`) onto
    the sorted, distinct candidate `lanes`, minimizing total |shift|; None
    if they don't fit.

    A DP over (row i, lane j) fills only the band j - i in [0, m - k]:
    the backtrack reads no other cell, since i rows must fit below row
    i's lane and k - 1 - i above it.  Costs are integers, so ties, and
    with them the backtrack's choices, are those of the full table.
    (`synthesize_motion` keeps a segment's lanes before it gets here when
    they are the unique zero-cost assignment.)
    """
    k, m = len(old), len(lanes)
    if k > m:
        return None
    # table[i][d]: least cost of rows < i on lanes < i + d  (band offset d)
    width = m - k + 1
    table = [[0] * width]
    for i, o in enumerate(old):
        below, row, best = table[-1], [], None
        for d in range(width):
            take = below[d] + abs(lanes[i + d] - o)
            best = take if best is None or take < best else best
            row.append(best)
        table.append(row)
    out = [0] * k
    d = width - 1
    for i in range(k, 0, -1):
        row = table[i]
        while d and row[d] == row[d - 1]:
            d -= 1
        out[i - 1] = lanes[i - 1 + d]
    return out


# ---------------------------------------------------------------------------
# gate pinning
# ---------------------------------------------------------------------------


class _Pins:
    """A stage's lane pins.  `axes[axis][t]` (axis 0 rows, 1 columns) holds
    array t's sorted pinned indices, its index -> lane dict and its set of
    pinned lanes; `col_offsets[t]` maps each pinned column to its x offset
    (um)."""

    def __init__(self, n_aod: int):
        self.axes = tuple([([], {}, set()) for _ in range(n_aod)] for _ in range(2))
        self.col_offsets = [{} for _ in range(n_aod)]

    def add(self, table) -> None:
        """Pin the (array, axis, index, lane, x offset) entries of `table`
        whose index is not pinned yet."""
        for t, axis, i, lane, off in table:
            plist, held, lanes = self.axes[axis][t]
            if i in held:
                continue
            insort(plist, i)
            held[i] = lane
            lanes.add(lane)
            if axis:
                self.col_offsets[t][i] = off


def _gate_pins(pair, placement: Placement, config: ArchConfig) -> tuple:
    """Lane pins implied by one CZ, as (array, axis, index, lane, x offset)
    entries sorted by (array, axis): rows (axis 0, offset None) before
    columns.  A CZ binds at most one row and one column of each array.

    A movable atom gating a static one pulls its row/column onto the static
    site's gate lanes, columns offset by -delta.  Two movable atoms meet on
    the dual (odd, odd) lanes of the lower array's slot, offset -delta/2 and
    +delta/2 so they end up delta apart.
    """
    a, b = pair
    pa, pb = placement[a], placement[b]
    if pa.array == 0 or pb.array == 0:
        slm, aod = (pa, pb) if pa.array == 0 else (pb, pa)
        t = aod.array - 1
        return ((t, 0, aod.row, 2 * slm.row, None),
                (t, 1, aod.col, 2 * slm.col, -config.delta))
    lo, hi = (pa, pb) if pa.array < pb.array else (pb, pa)
    lane_r, lane_c = 2 * lo.row + 1, 2 * lo.col + 1
    return ((lo.array - 1, 0, lo.row, lane_r, None),
            (lo.array - 1, 1, lo.col, lane_c, -config.delta / 2),
            (hi.array - 1, 0, hi.row, lane_r, None),
            (hi.array - 1, 1, hi.col, lane_c, +config.delta / 2))


class _ArrayIndex:
    """Static occupancy lookups shared by all stages of one routing run."""

    def __init__(self, placement: Placement, config: ArchConfig):
        self.slm_cells = {(2 * p.row, 2 * p.col): q
                          for q, p in placement.items() if p.array == 0}
        self.occ = [{} for _ in range(config.n_aod)]   # t -> (r, c) -> qubit
        self.occ_rows = [sorted({p.row for p in placement.values()
                                 if p.array == t + 1}) for t in range(config.n_aod)]
        self.occ_cols = [sorted({p.col for p in placement.values()
                                 if p.array == t + 1}) for t in range(config.n_aod)]
        for q, p in placement.items():
            if p.array > 0:
                self.occ[p.array - 1][(p.row, p.col)] = q


# ---------------------------------------------------------------------------
# stage construction
# ---------------------------------------------------------------------------


def _blocked_lanes(prev, axis_pins, t: int) -> list:
    """The sorted odd lanes on one axis that a parked row of array t may not
    take, as far as selection can tell: each odd lane another array held
    after the previous stage (`prev`, per array) and each odd lane pinned
    in `axis_pins` (an even, gate-lane pin never blocks a park lane)."""
    lanes = set().union(*(pinned for _, _, pinned in axis_pins))
    for s, held in enumerate(prev):
        if s != t:
            lanes.update(held)
    lanes.discard(None)
    return sorted(lane for lane in lanes if lane % 2)


def select_parallel_gates(order, gate_pins: dict, index: _ArrayIndex,
                          config: ArchConfig, prev_rows, prev_cols):
    """Greedy maximal legal parallel CZ set.

    `order` holds (gate_index, (a, b)) for the CZs to try, in the order
    `route` chose; `gate_pins` maps each gate index to its `_gate_pins`
    table; `prev_rows`/`prev_cols` are the lanes after the previous stage,
    per AOD.  Each candidate either adds its lane pins to the stage or is
    deferred to the next stage.  Returns (accepted list of
    (gate_index, pair), the stage's `_Pins`, deferrals), the deferrals a
    dict counting the candidates each step below turned away: "pin",
    "C2", "C3", "gap" and "C1".

    The accepted pins always satisfy every enabled constraint, so a
    candidate is checked only against what it adds: at most one new pin
    per (axis, array), since a CZ touches one row and one column of each of
    its at most two AODs.  The stage keeps its `_Pins` and the AOD atoms on
    each gate cell.  A candidate walks its own pin table (arrays ascending,
    rows before columns), and each step below follows that order:
      (a) pin conflicts: an index already pinned to another lane or offset;
      (b) C2/C3 compare each new lane with its index neighbours' lanes
          (with C2 relaxed, C3 is lane-set membership), (pred, new) before
          (new, succ): the first violation a whole-array scan would report.
          (a) and (b) share one walk, and a conflict anywhere in the table
          rejects the candidate without counting a C3 verdict;
      (c) the parked rows strictly between each new anchor and either
          pinned neighbour must fit on the odd lanes strictly between
          their lanes that a parked row of that array could take: no lane
          any array pins this stage, nor one another array held after the
          previous stage.  Synthesis forbids both, and more (the lanes
          the arrays before it park on this stage), so it can still
          fail, and `route` then drops the last accepted CZ;
      (d) C1 checks only the cells the new pins create: a new row times
          its array's pinned columns, pinned rows times a new column.  An
          atom added to a cell sits on a newly pinned row or column, so it
          is in no accepted pair: a two-atom cell is legal only as the
          candidate's own pair.  It runs last, as the costliest step.
    """
    relaxed = config.relaxed
    check_c1 = "C1" not in relaxed
    strict_c2, strict_c3 = "C2" not in relaxed, "C3" not in relaxed
    pins = _Pins(config.n_aod)
    state, col_offset = pins.axes, pins.col_offsets
    occupied = (index.occ_rows, index.occ_cols)
    cells: dict[tuple[int, int], list[int]] = {}  # gate cell -> AOD atoms on it
    accepted: list[tuple[int, tuple[int, int]]] = []
    n_pin = n_c1 = n_c2 = n_c3 = n_gap = 0
    prev = (prev_rows, prev_cols)
    # per axis and array, its `_blocked_lanes`, built when a gap first needs
    # them and then kept up to date as pins are accepted
    blocked = ([None] * config.n_aod, [None] * config.n_aod)

    for gi, pair in order:
        # (a) and (b) in one walk of the gate's table: an entry pinned to
        # another lane or offset is a clash, which rejects the gate whatever
        # verdict came first.  The others are new pins, kept with their
        # insertion points; the first of them out of lane order is the verdict.
        new, clash, verdict = [], False, None
        for entry in gate_pins[gi]:
            t, axis, i, lane, off = entry
            plist, held, lanes = state[axis][t]
            have = held.get(i)
            if have is not None:
                if have != lane or (axis and col_offset[t][i] != off):
                    clash = True
                    break
                continue
            if verdict:
                continue
            at = bisect_left(plist, i)
            new.append((entry, at))
            if not strict_c2:
                if strict_c3 and lane in lanes:
                    verdict = "C3"
                continue
            if at:
                pred = held[plist[at - 1]]
                if pred > lane:
                    verdict = "C2"
                elif pred == lane and strict_c3:
                    verdict = "C3"
            if not verdict and at < len(plist):
                succ = held[plist[at]]
                if lane > succ:
                    verdict = "C2"
                elif lane == succ and strict_c3:
                    verdict = "C3"
        if clash:
            n_pin += 1
            continue
        if verdict:
            if verdict == "C3":
                n_c3 += 1
            else:
                n_c2 += 1
            continue
        # (c) parked rows must still fit between the anchors: the occupied
        # indices strictly between the new anchor and each pinned neighbour
        # need as many free odd lanes strictly between their lanes.  The
        # blocked lanes are counted only when the odd lanes alone would do.
        fits = True
        for (t, axis, i, lane, _), at in new:
            occ = occupied[axis][t]
            plist, held, _ = state[axis][t]
            for j in plist[max(at - 1, 0):at + 1]:  # the pinned neighbours
                need = (bisect_left(occ, i) - bisect_right(occ, j) if j < i
                        else bisect_left(occ, j) - bisect_right(occ, i))
                if not need:
                    continue
                lo, hi = (lane, held[j]) if lane < held[j] else (held[j], lane)
                room = _odd_between(lo, hi)
                if need <= room:
                    lanes = blocked[axis][t]
                    if lanes is None:
                        lanes = blocked[axis][t] = _blocked_lanes(prev[axis], state[axis], t)
                    room -= bisect_left(lanes, hi) - bisect_right(lanes, lo)
                if need > room:
                    fits = False
                    break
            if not fits:
                break
        if not fits:
            n_gap += 1
            continue
        # (d) cell exclusivity against static atoms and other arrays
        if check_c1:
            added: dict[tuple[int, int], list[int]] = {}
            new_row = {}  # array -> this gate's new (row, lane) there
            for (t, axis, i, lane, _), _ in new:
                occ = index.occ[t]
                if axis == 0:
                    new_row[t] = (i, lane)
                    for c, lane_c in state[1][t][1].items():
                        q = occ.get((i, c))
                        if q is not None:
                            added.setdefault((lane, lane_c), []).append(q)
                    continue
                rows = list(state[0][t][1].items())
                if t in new_row:
                    rows.append(new_row[t])
                for r, lane_r in rows:
                    q = occ.get((r, i))
                    if q is not None:
                        added.setdefault((lane_r, lane), []).append(q)
            clash = False
            for cell, atoms in added.items():
                atoms = cells.get(cell, []) + atoms
                slm_q = index.slm_cells.get(cell)
                if slm_q is not None:
                    atoms.append(slm_q)
                if len(atoms) > 2 or (len(atoms) == 2 and set(atoms) != set(pair)):
                    clash = True
                    break
            if clash:
                n_c1 += 1
                continue
        pins.add(gate_pins[gi])
        for (_, axis, _, lane, _), _ in new:
            if lane % 2:
                for lanes in blocked[axis]:
                    if lanes is not None:
                        k = bisect_left(lanes, lane)
                        if k == len(lanes) or lanes[k] != lane:
                            lanes.insert(k, lane)
        if check_c1:
            for cell, atoms in added.items():
                cells.setdefault(cell, []).extend(atoms)
        accepted.append((gi, pair))
    return accepted, pins, {"pin": n_pin, "C2": n_c2, "C3": n_c3, "gap": n_gap, "C1": n_c1}


def _past_free(lane: int, k: int, step: int, taken) -> int:
    """The odd lane one `step` (+2 or -2) past the k-th odd lane not in
    `taken`, walking outward from `lane` (included if odd).

    Walked from the outermost old lane of a segment's open side (or its
    anchor's, if further out), this bounds that side exactly.  Given the
    free lanes u_1..u_k found, an assignment parking a row past u_k is
    beaten by moving its rows at or past `lane` back onto u_1, u_2, ...
    in order: none costs more and the outermost costs strictly less.  So
    no optimum uses a lane past u_k.  The backtrack of `_assign_park_lanes`
    picks the optimum whose lanes are lowest, top row first, which depends
    only on the set of optima, so ties resolve as over any longer range.
    """
    if lane % 2 == 0:
        lane += step // 2
    while True:
        if lane not in taken:
            k -= 1
            if not k:
                return lane + step
        lane += step


def synthesize_motion(pins: _Pins, prev_rows, prev_cols, index: _ArrayIndex,
                      config: ArchConfig):
    """Assign every occupied row/column a lane: pinned ones as the stage's
    `_Pins` demand, the rest parked on odd lanes preserving order, nearest
    previous first.

    Arrays are processed in id order; a park lane is eligible only if no
    other array has (or keeps) a lane there, so cross-array collisions are
    impossible by construction.  Unless C3 is relaxed, a park lane is also
    never one this array already holds: crossed anchors (C2 relaxed) make
    the lane ranges of neighbouring segments overlap.  Returns (row_lanes,
    col_lanes, col_offsets), or None when a gap between two pinned
    anchors of one array cannot host its parked rows: an open side (no
    anchor) is bounded by `_past_free` and always fits.

    The parked rows between two anchors (a segment) keep their old lanes
    when those are strictly increasing, odd, not taken and strictly inside
    the anchors (crossed anchors swapped): that is the unique zero-cost
    assignment, checked in O(rows) before any candidate list is built.
    Only the other segments list their free lanes and run the DP of
    `_assign_park_lanes`.
    """
    merge_ok = "C3" in config.relaxed

    def solve_axis(axis_pins, prev, occupied_per_t):
        new = [[None] * len(prev[t]) for t in range(config.n_aod)]
        all_pinned_lanes = set().union(*(lanes for _, _, lanes in axis_pins))
        for t in range(config.n_aod):
            # lanes no parked row may take: every pinned lane, the other
            # arrays' lanes and, unless C3 is relaxed, this array's park lanes
            taken = set(all_pinned_lanes)
            for s in range(config.n_aod):
                if s == t:
                    continue
                source = new[s] if s < t else prev[s]
                taken.update(source)
            taken.discard(None)
            # split unpinned occupied indices into segments between anchor lanes
            segments, seg, lo_a = [], [], None
            pins_t, prev_t, new_t = axis_pins[t][1], prev[t], new[t]
            for i in occupied_per_t[t]:
                lane = pins_t.get(i)
                if lane is None:
                    seg.append(i)
                    continue
                new_t[i] = lane
                if seg:
                    segments.append((lo_a, lane, seg))
                    seg = []
                lo_a = lane
            if seg:
                segments.append((lo_a, None, seg))
            for lo, hi, seg in segments:
                got = [prev_t[i] for i in seg]
                if lo is not None and hi is not None and hi < lo:  # crossed anchors (C2 off)
                    lo, hi = hi, lo
                # old lanes in order, odd, free and strictly inside the anchors
                # stay: the unique zero-cost assignment (an open side's bound
                # lies past every old lane).  Otherwise run the DP over the
                # free odd lanes strictly inside the bounds.
                if not ((lo is None or lo < got[0]) and (hi is None or got[-1] < hi)
                        and taken.isdisjoint(got) and all(l % 2 for l in got)
                        and all(map(lt, got, got[1:]))):
                    ends = got + [a for a in (lo, hi) if a is not None]
                    if lo is None:
                        lo = _past_free(min(ends), len(seg), -2, taken)
                    if hi is None:
                        hi = _past_free(max(ends), len(seg), 2, taken)
                    got = _assign_park_lanes(got, [l for l in range(lo + 1 + lo % 2, hi, 2)
                                                   if l not in taken])
                    if got is None:
                        return None
                for i, lane in zip(seg, got):
                    new_t[i] = lane
                if not merge_ok:
                    taken.update(got)
        return new

    new_rows = solve_axis(pins.axes[0], prev_rows, index.occ_rows)
    if new_rows is None:
        return None
    new_cols = solve_axis(pins.axes[1], prev_cols, index.occ_cols)
    if new_cols is None:
        return None
    return new_rows, new_cols, [[off_t.get(c, 0.0) for c in range(len(prev_t))]
                                for off_t, prev_t in zip(pins.col_offsets, prev_cols)]


# target gates per sweep of `_descendant_counts`
DESCENDANT_BLOCK = 2048


def _descendant_counts(dag) -> list[int]:
    """Number of DAG descendants per gate.  A gate's successors have higher
    indices, so one reverse sweep per block of DESCENDANT_BLOCK target gates
    gives each gate the bitset of the block's gates it reaches: gates x
    DESCENDANT_BLOCK bits at a time, not gates^2."""
    n, succs = dag.n_nodes, dag.succs
    counts = [0] * n
    for b0 in range(0, n, DESCENDANT_BLOCK):
        b1 = min(n, b0 + DESCENDANT_BLOCK)
        reach = [0] * b1
        for i in range(b1 - 1, -1, -1):
            m = 0
            for s in succs[i]:
                if s < b0:
                    m |= reach[s]
                elif s < b1:
                    m |= reach[s] | (1 << (s - b0))
            reach[i] = m
            counts[i] += m.bit_count()
    return counts


# atoms per block of stages of a lane walk (a block holds at least one stage)
AUDIT_BLOCK = 8192


def lane_walk(schedule: Schedule):
    """Yields (first stage index, `lane_gather` lanes, (k, n) move distances
    from the lanes before, the initial ones first) per block of k stages of
    up to AUDIT_BLOCK atoms, one lane gather each.  First raises ValueError
    naming the first stage with a CZ qubit outside range(n)."""
    placement, config, stages = schedule.placement, schedule.config, schedule.stages
    n = len(placement)
    for k, s in enumerate(stages):
        for a, b in s.cz:
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"stage {k}: cz {[a, b]} names a qubit not in range({n})")
    per_block = max(1, AUDIT_BLOCK // max(n, 1))
    gather = lane_gather(placement)
    prev = gather([schedule.initial_row_lanes], [schedule.initial_col_lanes])
    for k0 in range(0, len(stages), per_block):
        block = stages[k0:k0 + per_block]
        lanes = gather([s.row_lanes for s in block], [s.col_lanes for s in block],
                       [s.col_offsets for s in block])
        moved = move_distances(np.concatenate((prev, lanes[:len(lanes) - n])), lanes, config)
        yield k0, lanes, moved.reshape(len(block), n)
        prev = lanes[len(lanes) - n:]


def move_times(stages, moved: np.ndarray, T_per_move: float) -> list[float]:
    """Each stage's move time: T_per_move if it has a CZ or its lanes move an
    atom (`moved`: the stages' (k, n) move distances), else 0.0."""
    return [T_per_move if (s.cz or m) else 0.0 for s, m in zip(stages, moved.any(axis=1).tolist())]


def _audit_walk(schedule: Schedule):
    """`lane_walk` with each block's separation scan.  Yields (first stage
    index, (k, n) move distances, findings) per block of k stages.
    Findings are (stage index, `Violation`) pairs in pair order, minus the
    ones a relaxed constraint deliberately permits (cross-array closeness
    under C1, same-array lane collisions under C3)."""
    placement, config = schedule.placement, schedule.config
    n = len(placement)
    for k0, lanes, moved in lane_walk(schedule):
        pairs = [(k * n + a, k * n + b)
                 for k, s in enumerate(schedule.stages[k0:k0 + len(moved)]) for a, b in s.cz]
        stage = np.repeat(np.arange(len(moved)), n)
        found = []
        for v in min_separation_audit(atom_positions(lanes, config), pairs, config, stage):
            k = v.i // n
            i, j = v.i - k * n, v.j - k * n
            ai, aj = placement[i].array, placement[j].array
            if v.kind == "too_close" and "C1" in config.relaxed and ai != aj:
                continue
            if (v.kind == "too_close" and "C3" in config.relaxed and ai == aj
                    and v.distance_um < 1e-9):
                continue
            found.append((k0 + k, Violation(i, j, v.distance_um, v.kind)))
        yield k0, moved, found


def audit_routed(schedule: Schedule) -> float:
    """The total move distance of a routed schedule, summed in one audit
    walk; RuntimeError with the first four findings of the first stage in
    violation, if any."""
    total = 0.0
    for _, moved, found in _audit_walk(schedule):
        if found:
            raise RuntimeError("stage geometry violates separation: "
                               f"{[v for k, v in found if k == found[0][0]][:4]}")
        total = reduce(add, moved.sum(axis=1).tolist(), total)
    return total


@dataclass(frozen=True)
class DistanceMismatch:
    """A stored move distance that differs from the lane and offset deltas."""
    q: int
    stored_um: float
    lanes_um: float


class MoveTimeMismatch(NamedTuple):
    """A stored move time other than the stage needs (`move_times`).
    (A NamedTuple: it costs a fraction of a dataclass to define at import.)"""
    stored_s: float
    needed_s: float


def audit_schedule(schedule: Schedule) -> list:
    """(stage index, finding) pairs over the whole schedule; empty = legal.

    Findings are separation violations (`Violation`) and, in a loaded
    file, stored move distances other than the lanes give, starting from
    the initial lanes (`DistanceMismatch`), and stored move times other
    than the stage needs (`MoveTimeMismatch`): per stage, its violations
    in pair order, then its distance mismatches in qubit order, then its
    move-time mismatch.
    """
    stages, findings = schedule.stages, []
    for k0, moved, found in _audit_walk(schedule):
        if schedule.stored_distances_um is not None:
            k1 = k0 + len(moved)
            stored = np.array(schedule.stored_distances_um[k0:k1])
            found += [(k0 + k, DistanceMismatch(q, float(stored[k, q]), float(moved[k, q])))
                      for k, q in np.argwhere(stored != moved).tolist()]
            times = np.array(schedule.stored_move_times_s[k0:k1], dtype=float)
            needed = np.array(move_times(stages[k0:k1], moved, schedule.config.T_per_move))
            found += [(k0 + k, MoveTimeMismatch(float(times[k]), float(needed[k])))
                      for k in np.flatnonzero(times != needed).tolist()]
            found.sort(key=lambda f: f[0])  # stable: keeps the order above within a stage
        findings += found
    return findings


def route(routed: RoutedCircuit, placement: Placement, config: ArchConfig,
          serial: bool = False) -> Schedule:
    """Schedule a routed circuit into audited movement stages.

    ValueError first on a gate other than u, cz and barrier, or on an
    intra-array CZ.  Loop: execute every ready one-qubit gate in Raman
    layers, then offer the ready CZs by descending DAG-descendant count
    (ties: lower gate index; only the first if `serial`) to
    `select_parallel_gates` with the previous stage's lanes, synthesize
    the lane motion (dropping the last accepted gate while the parked rows
    don't fit), emit.  Retiring a gate files each gate it frees by kind,
    so the ready CZs stay sorted and no pass rescans the front; a barrier
    retires as soon as it is ready.  The schedule's `deferrals` add up
    selection's counts over the stages, and "popped" counts the dropped
    gates.  Then the emitted stages are audited in blocks, which also sums
    their move distances: the first stage in violation raises RuntimeError
    with its first four findings (`audit_routed`), also when routing
    failed after emitting it.
    """
    circuit = routed.circuit
    gates = circuit.gates
    dag = build_dag(circuit)
    desc_count = _descendant_counts(dag)
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

    # the ready front: one-qubit gates in the order they became ready, and
    # CZs as (-descendants, gate index), kept sorted
    ready_1q: list[int] = []
    ready_cz: list[tuple[int, int]] = []
    pending = [len(p) for p in dag.preds]

    def retire(gi: int) -> list[int]:
        """Retire gate gi: the gates it leaves with no pending predecessor."""
        freed = []
        for s in dag.succs[gi]:
            pending[s] -= 1
            if pending[s] == 0:
                freed.append(s)
        return freed

    def release(freed: list[int]) -> None:
        """File newly ready gates by kind.  A barrier retires at once: when it
        is ready every gate before it has run and none after it is ready, so
        it waits for nothing, and the gates it frees are filed in turn."""
        while freed:
            gi = freed.pop()
            kind = gates[gi].kind
            if kind == "u":
                ready_1q.append(gi)
            elif kind == "cz":
                insort(ready_cz, (-desc_count[gi], gi))
            else:
                freed += retire(gi)

    release([gi for gi, c in enumerate(pending) if c == 0])
    prev_rows, prev_cols = initial_lanes(config, index)
    deferrals = {"pin": 0, "C2": 0, "C3": 0, "gap": 0, "C1": 0, "popped": 0}
    stages: list[Stage] = []
    schedule = Schedule(config, dict(placement), stages, list(routed.perm), prev_rows, prev_cols,
                        0, deferrals)

    try:
        while True:
            raman_layers: list[list[Gate]] = []
            while ready_1q:
                layer = sorted(ready_1q)
                ready_1q.clear()  # what the layer frees runs in the next one
                raman_layers.append([gates[gi] for gi in layer])
                for gi in layer:
                    release(retire(gi))
            if not ready_cz and not raman_layers:
                break
            # only CZs are left ready
            order = [(gi, gates[gi].qubits) for _, gi in (ready_cz[:1] if serial else ready_cz)]
            accepted, pins, deferred = select_parallel_gates(order, gate_pins, index, config,
                                                             prev_rows, prev_cols)
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
            # lane, so the audit's lane gather cannot fail; its lists are
            # fresh on every call, so each stage owns the ones it is given
            stages.append(Stage(raman_layers, [pair for _, pair in accepted], *synth))
            for gi, _ in accepted:
                del ready_cz[bisect_left(ready_cz, (-desc_count[gi], gi))]
                release(retire(gi))
            prev_rows, prev_cols, _ = synth
    except Exception:
        audit_routed(schedule)
        raise

    schedule.overlap_rejections = deferrals["C3"]
    schedule.total_distance_um = audit_routed(schedule)
    return schedule


def schedule_to_circuit(schedule: Schedule) -> Circuit:
    """Flatten a schedule back into a slot-space circuit for verification:
    Raman layers then CZs per stage, in stage order.  Cooling and motion
    contribute no gates."""
    n = len(schedule.placement)
    c = Circuit(n)
    for stage in schedule.stages:
        for layer in stage.raman:
            c.gates.extend(layer)
        for pair in stage.cz:
            c.add("cz", pair)
    return c


def schedule_to_dict(schedule: Schedule) -> dict:
    """The schema-1 JSON form of a schedule, each stage's move distances
    and move time taken from one lane walk."""
    stages, config = [], schedule.config
    for k0, _, moved in lane_walk(schedule):
        block = schedule.stages[k0:k0 + len(moved)]
        for s, move_time, distances in zip(block, move_times(block, moved, config.T_per_move),
                                           moved.tolist()):
            stages.append({
                "aod": [{"row_lanes": s.row_lanes[t],
                         "col_lanes": s.col_lanes[t],
                         "col_offsets_um": s.col_offsets[t]}
                        for t in range(config.n_aod)],
                "cz": [list(p) for p in s.cz],
                "raman": [[[g.qubits[0], *map(float, g.params)] for g in layer]
                          for layer in s.raman],
                "cooling": list(s.cooling),
                "move_time_s": move_time,
                "distances_um": distances,
            })
    n = len(schedule.placement)
    return {
        "schema_version": 1,
        "n_qubits": n,
        "config": arch_to_dict(schedule.config),
        "placement": [[schedule.placement[q].array,
                       schedule.placement[q].row,
                       schedule.placement[q].col] for q in range(n)],
        "initial": {"aod": [{"row_lanes": schedule.initial_row_lanes[t],
                             "col_lanes": schedule.initial_col_lanes[t]}
                            for t in range(schedule.config.n_aod)]},
        "perm": list(schedule.perm),
        "stages": stages,
        "metrics": {
            "depth": schedule.depth,
            "n_stages": len(schedule.stages),
            "n_raman_layers": schedule.n_raman_layers,
            "total_distance_um": schedule.total_distance_um,
            "overlap_rejections": schedule.overlap_rejections,
        },
    }


def _is_index(x, bound: int) -> bool:
    """Whether x is an int (a bool is not) in range(bound)."""
    return type(x) is int and 0 <= x < bound


def _in_range(values: list, bound: int) -> bool:
    """Whether every value is an int (a bool is not) in range(bound)."""
    return (set(map(type, values)) <= {int}
            and (not values or (min(values) >= 0 and max(values) < bound)))


_NUMBER = {int, float}         # JSON value types of a number (a bool is not one)
_LANE = {int, type(None)}      # ... and of a lane: an int, or null for an empty row


def _aod_lists(aods: list, n_aod: int, *keys: str) -> list:
    """Per key, its lists from the n_aod entries of each `aod` list in
    `aods` (one per stage of a block, or the `initial` one alone): lanes
    are ints or null, `col_offsets_um` entries numbers.  ValueError naming
    the key otherwise; an entry count quoted is the first list's."""
    if any(len(aod) != n_aod for aod in aods):
        raise ValueError(f"aod needs {n_aod} entries, one per AOD, not {len(aods[0])}")
    out = [[[list(a[key]) for a in aod] for aod in aods] for key in keys]
    for key, lists in zip(keys, out):
        types, what = ((_NUMBER, "numbers") if key == "col_offsets_um"
                       else (_LANE, "int or null lanes"))
        if not set(map(type, chain.from_iterable(chain.from_iterable(lists)))) <= types:
            raise ValueError(f"{key} needs {what}")
    return out


# stages per block of the loader
LOAD_BLOCK = 64


def _load_block(k0: int, block: list, n: int, n_aod: int) -> list[tuple]:
    """Each stage of `block` (the first is stage k0) with its stored move
    distances and move time.  Each check runs once over the whole block, in
    the documented order: distances_um, move_time_s, cz (the pairs walked
    in order), raman qubits, raman angles, cooling, then the lanes
    (`_aod_lists`); a value a message quotes is the first stage's, or the
    first bad one.  A block of more than one stage that fails a check or
    holds a malformed entry is loaded again one stage at a time by this
    function, so the first bad stage k raises what it raises alone: a
    ValueError "stage k: " and the check's message or the entry's error."""
    flat = chain.from_iterable
    try:
        dist = [s["distances_um"] for s in block]
        if any(len(v) != n for v in dist) or not set(map(type, flat(dist))) <= _NUMBER:
            raise ValueError("distances_um needs one number per qubit")
        times = [s["move_time_s"] for s in block]
        if not set(map(type, times)) <= _NUMBER:
            raise ValueError(f"move_time_s {times[0]!r} is not a number")
        czs = []
        for s in block:
            cz, named = [], set()
            for a, b in s["cz"]:
                if (not (_is_index(a, n) and _is_index(b, n))
                        or a == b or a in named or b in named):
                    raise ValueError(f"cz {[a, b]} needs two distinct int qubits in range({n}) "
                                     f"that no other cz of the stage names")
                named.update((a, b))
                cz.append((a, b))
            czs.append(cz)
        ramans = [[[Gate("u", (q,), tuple(params)) for q, *params in layer]
                   for layer in s["raman"]] for s in block]
        gates = list(flat(flat(ramans)))
        qubits = [g.qubits[0] for g in gates]
        if not _in_range(qubits, n):
            q = next(q for q in qubits if not _is_index(q, n))
            raise ValueError(f"raman gate on qubit {q!r}, not an int in range({n})")
        angles = [g.params for g in gates]
        if set(map(len, angles)) - {3} or not set(map(type, flat(angles))) <= _NUMBER:
            raise ValueError("raman gates need three numeric angles each")
        coolings = [list(s["cooling"]) for s in block]
        if not _in_range(list(flat(coolings)), n_aod):
            raise ValueError(f"cooling {block[0]['cooling']!r} needs int AOD "
                             f"indices in range({n_aod})")
        lanes = _aod_lists([s["aod"] for s in block], n_aod,
                           "row_lanes", "col_lanes", "col_offsets_um")
        distances = np.array(dist, dtype=float)
        return [(Stage(raman, cz, *lanes_k, cooling), row, float(t))
                for raman, cz, *lanes_k, cooling, row, t
                in zip(ramans, czs, *lanes, coolings, distances, times)]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # a check or a malformed entry
        if len(block) == 1:
            raise ValueError(f"stage {k0}: {exc}") from exc
    return [loaded for k, s in enumerate(block, k0) for loaded in _load_block(k, [s], n, n_aod)]


def schedule_from_dict(d: dict) -> Schedule:
    """Rebuild a Schedule from its JSON form (audit / render / check).

    Raises ValueError on a `placement` entry whose array is not an int in
    range(n_arrays) or whose row or col is not an int inside that array, a
    `cz` or `raman` qubit that is not an int in range(n_qubits), a qubit
    named twice by one stage's `cz` pairs, a `cooling` entry that is not an
    int in range(n_aod), an `n_qubits` that is not the int count of
    `placement`, or a `perm` that is not a permutation of range(n_qubits)
    by int entries; also on a non-number `move_time_s`, `distances_um` or
    `col_offsets_um` entry, a lane neither int nor null, an `aod` list of
    other than n_aod entries, a raman gate without three numeric angles,
    an `overlap_rejections` not an int >= 0 (a bool is no int), or a top
    level or `config` not a JSON object (a config path is never opened).

    Stages are checked LOAD_BLOCK at a time by `_load_block`, which loads
    a failing block again one stage at a time, so the error names the first
    bad stage: "stage k: " and the failed check's message, or the error
    text of a malformed entry (a missing key, a wrong container).  The
    stored distances and move times are kept for `audit_schedule`."""
    if not isinstance(d, dict):
        raise ValueError(f"schedule needs a JSON object, not {type(d).__name__}")
    if d.get("schema_version") != 1:
        raise ValueError(f"unsupported schema_version {d.get('schema_version')!r}")
    config, _ = load_config(d["config"])
    placement, shapes = {}, [config.array_shape(a) for a in range(config.n_arrays)]
    for q, (a, r, c) in enumerate(d["placement"]):
        if not (_is_index(a, config.n_arrays) and all(map(_is_index, (r, c), shapes[a]))):
            raise ValueError(f"placement {q}: {[a, r, c]!r} needs an int array in "
                             f"range({config.n_arrays}) and an int row and col inside it")
        placement[q] = AtomCoord(a, r, c)
    n = len(placement)
    if type(d["n_qubits"]) is not int or d["n_qubits"] != n:
        raise ValueError(f"n_qubits {d['n_qubits']!r} but {n} placement entries")
    if not (all(_is_index(q, n) for q in d["perm"]) and sorted(d["perm"]) == list(range(n))):
        raise ValueError(f"perm is not a permutation of range({n})")
    raw, loaded = d["stages"], []
    for k0 in range(0, len(raw), LOAD_BLOCK):
        loaded += _load_block(k0, raw[k0:k0 + LOAD_BLOCK], n, config.n_aod)
    rejections = d["metrics"]["overlap_rejections"]
    if type(rejections) is not int or rejections < 0:
        raise ValueError(f"metrics: overlap_rejections {rejections!r} is not an int >= 0")
    try:
        (rows,), (cols,) = _aod_lists([d["initial"]["aod"]], config.n_aod,
                                      "row_lanes", "col_lanes")
    except ValueError as exc:
        raise ValueError(f"initial: {exc}") from exc
    stages, distances, times = map(list, zip(*loaded)) if loaded else ([], [], [])
    return Schedule(config, placement, stages, list(d["perm"]), rows, cols, rejections,
                    total_distance_um=float(reduce(add, (row.sum() for row in distances), 0.0)),
                    stored_distances_um=distances, stored_move_times_s=times)
