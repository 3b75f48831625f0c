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
One walk audits the stages of `route` and `audit_schedule` in blocks of
up to AUDIT_BLOCK atoms, one lane gather and separation scan per block:
the scan's fixed cost is paid per block, and the cap bounds its arrays.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from operator import lt

import numpy as np

from .arch import (
    ArchConfig,
    AtomCoord,
    Violation,
    arch_to_dict,
    atom_lanes,
    atom_positions,
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
    distances_um: np.ndarray             # per-atom move distance this stage
    move_time_s: float
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

    @property
    def depth(self) -> int:
        """Number of stages that execute at least one CZ."""
        return sum(1 for s in self.stages if s.cz)

    @property
    def n_raman_layers(self) -> int:
        return sum(len(s.raman) for s in self.stages)

    @property
    def total_distance_um(self) -> float:
        return float(sum(s.distances_um.sum() for s in self.stages))

    def stage_positions(self, k: int) -> np.ndarray:
        s = self.stages[k]
        return atom_positions(atom_lanes(self.placement, [s.row_lanes], [s.col_lanes],
                                         [s.col_offsets]), self.config)


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


@dataclass
class _Pins:
    """Required (array, index) -> lane bindings for one candidate set;
    pinned columns also carry an x offset (um)."""
    rows: dict[tuple[int, int], int] = field(default_factory=dict)
    cols: dict[tuple[int, int], int] = field(default_factory=dict)
    offsets: dict[tuple[int, int], float] = field(default_factory=dict)

    def add(self, other: "_Pins") -> None:
        self.rows.update(other.rows)
        self.cols.update(other.cols)
        self.offsets.update(other.offsets)

    @cached_property
    def table(self) -> tuple:
        """The pins as (array, axis, index, lane, x offset) entries sorted by
        (array, axis), rows (axis 0, offset None) before columns.  Built on
        first use and kept, so only for pins that no longer change: one
        CZ's, which bind at most one row and one column per array."""
        return tuple(sorted(
            [(t, 0, i, lane, None) for (t, i), lane in self.rows.items()]
            + [(t, 1, i, lane, self.offsets[t, i]) for (t, i), lane in self.cols.items()]))


def _gate_pins(pair, placement: Placement, config: ArchConfig) -> _Pins:
    """Lane pins implied by one CZ.

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
        return _Pins({(t, aod.row): 2 * slm.row}, {(t, aod.col): 2 * slm.col},
                     {(t, aod.col): -config.delta})
    lo, hi = (pa, pb) if pa.array < pb.array else (pb, pa)
    lane_r, lane_c = 2 * lo.row + 1, 2 * lo.col + 1
    lo_c, hi_c = (lo.array - 1, lo.col), (hi.array - 1, hi.col)
    return _Pins({(lo.array - 1, lo.row): lane_r, (hi.array - 1, hi.row): lane_r},
                 {lo_c: lane_c, hi_c: lane_c},
                 {lo_c: -config.delta / 2, hi_c: +config.delta / 2})


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


def select_parallel_gates(order, gate_pins: dict, index: _ArrayIndex,
                          config: ArchConfig):
    """Greedy maximal legal parallel CZ set.

    `order` holds (gate_index, (a, b)) for the CZs to try, in the order
    `route` chose; `gate_pins` maps each gate index to its `_gate_pins`.
    Each candidate either adds its lane pins to the stage or is rejected
    back to the next stage.  Returns (accepted list of (gate_index, pair),
    pins, C3 rejections).

    The accepted pins always satisfy every enabled constraint, so a
    candidate is checked only against what it adds: at most one new pin
    per (axis, array), since a CZ touches one row and one column of each of
    its at most two AODs.  The stage keeps, per (axis, array), the sorted
    pinned indices, an index -> lane dict and the set of pinned lanes,
    plus each array's column offsets and the AOD atoms on each gate cell.
    A candidate walks its own pin table (`_Pins.table`: arrays ascending,
    rows before columns), and each step below follows that order:
      (a) pin conflicts: an index already pinned to another lane or offset;
      (b) C2/C3 compare each new lane with its index neighbours' lanes
          (with C2 relaxed, C3 is lane-set membership), (pred, new) before
          (new, succ): the first violation a whole-array scan would report.
          (a) and (b) share one walk, and a conflict anywhere in the table
          rejects the candidate without counting a C3 verdict;
      (c) C1 checks only the cells the new pins create: a new row times
          its array's pinned columns, pinned rows times a new column.  An
          atom added to a cell sits on a newly pinned row or column, so it
          is in no accepted pair: a two-atom cell is legal only as the
          candidate's own pair;
      (d) the pigeonhole check covers the two gaps beside each new anchor.
    """
    relaxed = config.relaxed
    check_c1 = "C1" not in relaxed
    strict_c2, strict_c3 = "C2" not in relaxed, "C3" not in relaxed
    pins = _Pins()
    occupied = (index.occ_rows, index.occ_cols)
    # axis (0 rows, 1 columns) -> array -> (sorted pinned indices, index ->
    # lane, lane set); array -> pinned column -> x offset
    state = tuple([([], {}, set()) for _ in range(config.n_aod)] for _ in range(2))
    col_offset = [{} for _ in range(config.n_aod)]
    cells: dict[tuple[int, int], list[int]] = {}  # gate cell -> AOD atoms on it
    accepted: list[tuple[int, tuple[int, int]]] = []
    overlap_rejections = 0

    for gi, pair in order:
        # (a) and (b) in one walk of the gate's table: an entry pinned to
        # another lane or offset is a clash, which rejects the gate whatever
        # verdict came first.  The others are new pins, kept with their
        # insertion points; the first of them out of lane order is the verdict.
        new, clash, verdict = [], False, None
        for entry in gate_pins[gi].table:
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
            continue
        if verdict:
            if verdict == "C3":
                overlap_rejections += 1
            continue
        # (c) cell exclusivity against static atoms and other arrays
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
                continue
        # (d) parked rows must still fit between the anchors: the occupied
        # indices strictly between the new anchor and each pinned neighbour
        # need as many odd lanes strictly between their lanes
        fits = True
        for (t, axis, i, lane, _), at in new:
            occ = occupied[axis][t]
            plist, held, _ = state[axis][t]
            if at:
                j = plist[at - 1]
                if (bisect_left(occ, i) - bisect_right(occ, j)
                        > _odd_between(min(lane, held[j]), max(lane, held[j]))):
                    fits = False
                    break
            if at < len(plist):
                j = plist[at]
                if (bisect_left(occ, j) - bisect_right(occ, i)
                        > _odd_between(min(lane, held[j]), max(lane, held[j]))):
                    fits = False
                    break
        if not fits:
            continue
        pins.add(gate_pins[gi])
        for (t, axis, i, lane, off), at in new:
            plist, held, lanes = state[axis][t]
            plist.insert(at, i)
            held[i] = lane
            lanes.add(lane)
            if axis:
                col_offset[t][i] = off
        if check_c1:
            for cell, atoms in added.items():
                cells.setdefault(cell, []).extend(atoms)
        accepted.append((gi, pair))
    return accepted, pins, overlap_rejections


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
    """Assign every occupied row/column a lane: pinned ones as demanded,
    the rest parked on odd lanes preserving order, nearest previous first.

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

    def solve_axis(axis_pins: dict, prev, occupied_per_t):
        new = [[None] * len(prev[t]) for t in range(config.n_aod)]
        pinned = [{} for _ in range(config.n_aod)]  # array -> index -> pinned lane
        for (t, i), lane in axis_pins.items():
            pinned[t][i] = lane
        all_pinned_lanes = set(axis_pins.values())
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
            pins_t, prev_t, new_t = pinned[t], prev[t], new[t]
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

    new_rows = solve_axis(pins.rows, prev_rows, index.occ_rows)
    if new_rows is None:
        return None
    new_cols = solve_axis(pins.cols, prev_cols, index.occ_cols)
    if new_cols is None:
        return None
    offsets = [[0.0] * len(prev_cols[t]) for t in range(config.n_aod)]
    for (t, c), off in pins.offsets.items():
        offsets[t][c] = off
    return new_rows, new_cols, offsets


def _descendant_counts(dag) -> list[int]:
    """Number of DAG descendants per gate (reachability via bitsets)."""
    n = dag.n_nodes
    reach = [0] * n
    for i in range(n - 1, -1, -1):
        m = 0
        for s in dag.succs[i]:
            m |= reach[s] | (1 << s)
        reach[i] = m
    return [r.bit_count() for r in reach]


# atoms per audited block of stages (a block holds at least one stage)
AUDIT_BLOCK = 8192


def _audit_walk(placement: Placement, config: ArchConfig, initial_rows, initial_cols,
                stages):
    """Audit `stages`, one (cz, row_lanes, col_lanes, col_offsets) each, in
    blocks of up to AUDIT_BLOCK atoms.  Yields (first stage index, (k, n)
    move distances from the lanes before, findings) per block of k stages.
    Findings are (stage index, `Violation`) pairs in pair order, minus the
    ones a relaxed constraint deliberately permits (cross-array closeness
    under C1, same-array lane collisions under C3).  Raises ValueError on a
    CZ qubit outside range(n)."""
    n = len(placement)
    per_block = max(1, AUDIT_BLOCK // max(n, 1))
    prev = atom_lanes(placement, [initial_rows], [initial_cols])
    for k0 in range(0, len(stages), per_block):
        czs, rows, cols, offsets = zip(*stages[k0:k0 + per_block])
        lanes = atom_lanes(placement, rows, cols, offsets)
        moved = move_distances(np.concatenate((prev, lanes[:len(lanes) - n])), lanes, config)
        pairs = []
        for k, cz in enumerate(czs):
            for a, b in cz:
                if not (0 <= a < n and 0 <= b < n):
                    raise ValueError(f"cz {[a, b]} names a qubit outside range({n})")
                pairs.append((k * n + a, k * n + b))
        stage = np.repeat(np.arange(len(czs)), n)
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
        yield k0, moved.reshape(len(czs), n), found
        prev = lanes[len(lanes) - n:]


@dataclass(frozen=True)
class DistanceMismatch:
    """A stored move distance that differs from the lane and offset deltas."""
    q: int
    stored_um: float
    lanes_um: float


def audit_schedule(schedule: Schedule) -> list:
    """(stage index, finding) pairs over the whole schedule; empty = legal.

    Findings are separation violations (`Violation`) and stored move
    distances that are not exactly the ones the lanes give, starting from
    the initial lanes (`DistanceMismatch`): per stage, its violations in
    pair order, then its mismatches in qubit order.
    """
    stages, findings = schedule.stages, []
    per_stage = [(s.cz, s.row_lanes, s.col_lanes, s.col_offsets) for s in stages]
    for k0, moved, found in _audit_walk(schedule.placement, schedule.config,
                                        schedule.initial_row_lanes,
                                        schedule.initial_col_lanes, per_stage):
        stored = np.array([s.distances_um for s in stages[k0:k0 + len(moved)]])
        found += [(k0 + k, DistanceMismatch(q, float(stored[k, q]), float(moved[k, q])))
                  for k, q in np.argwhere(stored != moved).tolist()]
        found.sort(key=lambda f: f[0])  # stable: violations stay before mismatches
        findings += found
    return findings


def route(routed: RoutedCircuit, placement: Placement, config: ArchConfig,
          serial: bool = False) -> Schedule:
    """Schedule a routed circuit into audited movement stages.

    ValueError first on a gate other than u, cz and barrier, or on an
    intra-array CZ.  Loop: execute every ready one-qubit gate in Raman
    layers, then offer the ready CZs by descending DAG-descendant count
    (ties: lower gate index; only the first if `serial`) to
    `select_parallel_gates`, synthesize the lane motion (dropping the
    last accepted gate while the parked rows don't fit), emit.  Retiring
    a gate files each gate it frees by kind, so the ready CZs stay sorted
    and no pass rescans the front; a barrier retires as soon as it is
    ready.  Then the emitted stages are audited in blocks: the first stage
    in violation raises RuntimeError with its first four findings, also
    when routing failed after emitting it.
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
            accepted, pins, rej = select_parallel_gates(order, gate_pins, index, config)
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
                del ready_cz[bisect_left(ready_cz, (-desc_count[gi], gi))]
                release(retire(gi))
            prev_rows, prev_cols, _ = synth
    except Exception:
        audit()
        raise

    stages = [Stage(raman, cz, rows, cols, offsets, distances,
                    config.T_per_move if (cz or distances.any()) else 0.0)
              for (raman, cz, rows, cols, offsets), distances in zip(emitted, audit())]
    return Schedule(config, dict(placement), stages, list(routed.perm),
                    *initial, overlap_rejections)


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
    stages = []
    for s in schedule.stages:
        stages.append({
            "aod": [{"row_lanes": s.row_lanes[t],
                     "col_lanes": s.col_lanes[t],
                     "col_offsets_um": s.col_offsets[t]}
                    for t in range(schedule.config.n_aod)],
            "cz": [list(p) for p in s.cz],
            "raman": [[[g.qubits[0], *map(float, g.params)] for g in layer]
                      for layer in s.raman],
            "cooling": list(s.cooling),
            "move_time_s": s.move_time_s,
            "distances_um": s.distances_um.tolist(),
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


_NUMBER = {int, float}         # JSON value types of a number (a bool is not one)
_LANE = {int, type(None)}      # ... and of a lane: an int, or null for an empty row


def _aod_lists(where: str, aods, n_aod: int, *keys: str) -> list:
    """Per key, its list from each of the n_aod entries of `aods`: lanes are
    ints or null, `col_offsets_um` entries numbers.  ValueError naming
    `where` and the key otherwise."""
    if len(aods) != n_aod:
        raise ValueError(f"{where}: aod needs {n_aod} entries, one per AOD, not {len(aods)}")
    out = [[list(a[key]) for a in aods] for key in keys]
    for key, lists in zip(keys, out):
        types, what = ((_NUMBER, "numbers") if key == "col_offsets_um"
                       else (_LANE, "int or null lanes"))
        if not set(map(type, chain.from_iterable(lists))) <= types:
            raise ValueError(f"{where}: {key} needs {what}")
    return out


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
    or an `overlap_rejections` not an int >= 0 (a bool is no int)."""
    if d.get("schema_version") != 1:
        raise ValueError(f"unsupported schema_version {d.get('schema_version')!r}")
    config, _ = load_config(d["config"])
    placement = {}
    for q, (a, r, c) in enumerate(d["placement"]):
        if not (_is_index(a, config.n_arrays)
                and all(map(_is_index, (r, c), config.array_shape(a)))):
            raise ValueError(f"placement {q}: {[a, r, c]!r} needs an int array in "
                             f"range({config.n_arrays}) and an int row and col inside it")
        placement[q] = AtomCoord(a, r, c)
    n = len(placement)
    if type(d["n_qubits"]) is not int or d["n_qubits"] != n:
        raise ValueError(f"n_qubits {d['n_qubits']!r} but {n} placement entries")
    if not (all(_is_index(q, n) for q in d["perm"]) and sorted(d["perm"]) == list(range(n))):
        raise ValueError(f"perm is not a permutation of range({n})")
    stages = []
    for k, s in enumerate(d["stages"]):
        if len(s["distances_um"]) != n or not set(map(type, s["distances_um"])) <= _NUMBER:
            raise ValueError(f"stage {k}: distances_um needs one number per qubit")
        if type(s["move_time_s"]) not in _NUMBER:
            raise ValueError(f"stage {k}: move_time_s {s['move_time_s']!r} is not a number")
        cz, named = [], set()
        for a, b in s["cz"]:
            if not (_is_index(a, n) and _is_index(b, n)) or a == b or {a, b} & named:
                raise ValueError(f"stage {k}: cz {[a, b]} needs two distinct int qubits "
                                 f"in range({n}) that no other cz of the stage names")
            named |= {a, b}
            cz.append((a, b))
        raman = [[Gate("u", (q,), tuple(params)) for q, *params in layer]
                 for layer in s["raman"]]
        for q in (g.qubits[0] for layer in raman for g in layer):
            if not _is_index(q, n):
                raise ValueError(f"stage {k}: raman gate on qubit {q!r}, not an int in range({n})")
        angles = [g.params for layer in raman for g in layer]
        if (set(map(len, angles)) - {3}
                or not set(map(type, chain.from_iterable(angles))) <= _NUMBER):
            raise ValueError(f"stage {k}: raman gates need three numeric angles each")
        if not all(_is_index(t, config.n_aod) for t in s["cooling"]):
            raise ValueError(f"stage {k}: cooling {s['cooling']!r} needs int AOD "
                             f"indices in range({config.n_aod})")
        lanes = _aod_lists(f"stage {k}", s["aod"], config.n_aod,
                           "row_lanes", "col_lanes", "col_offsets_um")
        stages.append(Stage(raman, cz, *lanes, np.asarray(s["distances_um"], dtype=float),
                            float(s["move_time_s"]), list(s["cooling"])))
    rejections = d["metrics"]["overlap_rejections"]
    if type(rejections) is not int or rejections < 0:
        raise ValueError(f"metrics: overlap_rejections {rejections!r} is not an int >= 0")
    return Schedule(config, placement, stages, list(d["perm"]),
                    *_aod_lists("initial", d["initial"]["aod"], config.n_aod,
                                "row_lanes", "col_lanes"), rejections)
