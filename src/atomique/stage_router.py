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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .arch import (
    ArchConfig,
    AtomCoord,
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
    def n_1q(self) -> int:
        return sum(len(layer) for s in self.stages for layer in s.raman)

    @property
    def n_2q(self) -> int:
        return sum(len(s.cz) for s in self.stages)

    @property
    def total_distance_um(self) -> float:
        return float(sum(s.distances_um.sum() for s in self.stages))

    def stage_positions(self, k: int) -> np.ndarray:
        s = self.stages[k]
        return atom_positions(atom_lanes(self.placement, s.row_lanes, s.col_lanes,
                                         s.col_offsets), self.config)


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
    if hi <= lo + 1:
        return 0
    first = lo + 1 if (lo + 1) % 2 else lo + 2
    if first >= hi:
        return 0
    return (hi - 1 - first) // 2 + 1


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


# ---------------------------------------------------------------------------
# gate pinning
# ---------------------------------------------------------------------------


class _Pins:
    """Required (array, index) -> lane bindings for one candidate set;
    pinned columns also carry an x offset (um)."""

    def __init__(self, rows=None, cols=None, offsets=None):
        self.rows: dict[tuple[int, int], int] = rows or {}
        self.cols: dict[tuple[int, int], int] = cols or {}
        self.offsets: dict[tuple[int, int], float] = offsets or {}

    def conflicts(self, other: "_Pins") -> bool:
        """True if `other` binds an already pinned row or column to a
        different lane or offset."""
        return any(mine.get(k, v) != v
                   for mine, theirs in ((self.rows, other.rows), (self.cols, other.cols),
                                        (self.offsets, other.offsets))
                   for k, v in theirs.items())

    def merged(self, other: "_Pins") -> "_Pins":
        return _Pins({**self.rows, **other.rows}, {**self.cols, **other.cols},
                     {**self.offsets, **other.offsets})


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
        if pins.conflicts(gate):
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


def synthesize_motion(pins: _Pins, prev_rows, prev_cols, index: _ArrayIndex,
                      config: ArchConfig):
    """Assign every occupied row/column a lane: pinned ones as demanded,
    the rest parked on odd lanes preserving order, nearest previous first.

    Arrays are processed in id order; a park lane is eligible only if no
    other array has (or keeps) a lane there, so cross-array collisions are
    impossible by construction.  Unless C3 is relaxed, a park lane is also
    never one this array already holds: crossed anchors (C2 relaxed) make
    the lane ranges of neighbouring segments overlap.  Returns (row_lanes,
    col_lanes, col_offsets) or None when some gap cannot host its parked
    rows.
    """
    merge_ok = "C3" in config.relaxed

    def solve_axis(axis_pins: dict, prev, occupied_per_t):
        new = [[None] * len(prev[t]) for t in range(config.n_aod)]
        all_pinned_lanes = set(axis_pins.values())
        for t in range(config.n_aod):
            occupied = occupied_per_t[t]
            forbidden = set(all_pinned_lanes)
            for s in range(config.n_aod):
                if s == t:
                    continue
                source = new[s] if s < t else prev[s]
                forbidden.update(l for l in source if l is not None)
            anchors = [(i, axis_pins[(t, i)]) for i in occupied if (t, i) in axis_pins]
            for i, lane in anchors:
                new[t][i] = lane
            own_pins = {lane for _, lane in anchors}
            forbidden -= own_pins  # own anchors bound the gaps instead
            # split unpinned occupied indices into segments between anchors
            bounds = [(None, None)] if not anchors else (
                [(None, anchors[0])] +
                [(anchors[k], anchors[k + 1]) for k in range(len(anchors) - 1)] +
                [(anchors[-1], None)])
            segments = []
            for lo_a, hi_a in bounds:
                seg = [i for i in occupied
                       if (t, i) not in axis_pins
                       and (lo_a is None or i > lo_a[0])
                       and (hi_a is None or i < hi_a[0])]
                if seg:
                    segments.append((lo_a, hi_a, seg))
            held = set()  # park lanes already given to this array's rows
            for lo_a, hi_a, seg in segments:
                old = [prev[t][i] for i in seg]
                need = len(seg)
                margin = 2 * (need + len(forbidden) + 4)
                lo_lane = lo_a[1] if lo_a else min(old + ([hi_a[1]] if hi_a else [])) - margin
                hi_lane = hi_a[1] if hi_a else max(old + ([lo_a[1]] if lo_a else [])) + margin
                if hi_a and lo_a and hi_lane < lo_lane:  # crossed anchors (C2 off)
                    lo_lane, hi_lane = hi_lane, lo_lane
                cand = [l for l in range(lo_lane + 1, hi_lane)
                        if l % 2 and l not in forbidden and l not in own_pins
                        and (merge_ok or l not in held)]
                got = _assign_park_lanes(old, cand)
                if got is None:
                    if lo_a and hi_a:
                        return None  # interior gap too tight
                    raise RuntimeError("park margin exhausted")  # pragma: no cover
                for i, lane in zip(seg, got):
                    new[t][i] = lane
                held.update(got)
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


def stage_violations(positions: np.ndarray, cz, placement: Placement,
                     config: ArchConfig) -> list:
    """Separation-audit findings for one stage's atom positions and CZ
    pairs, minus the ones a relaxed constraint deliberately permits
    (cross-array closeness under C1, same-array lane collisions under C3)."""
    violations = min_separation_audit(positions, cz, config)
    keep = []
    for v in violations:
        ai, aj = placement[v.i].array, placement[v.j].array
        if v.kind == "too_close" and "C1" in config.relaxed and ai != aj:
            continue
        if (v.kind == "too_close" and "C3" in config.relaxed and ai == aj
                and v.distance_um < 1e-9):
            continue
        keep.append(v)
    return keep


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
    the initial lanes (`DistanceMismatch`).
    """
    placement, config = schedule.placement, schedule.config
    findings = []
    prev = atom_lanes(placement, schedule.initial_row_lanes, schedule.initial_col_lanes)
    for k, s in enumerate(schedule.stages):
        lanes = atom_lanes(placement, s.row_lanes, s.col_lanes, s.col_offsets)
        findings += [(k, v) for v in stage_violations(atom_positions(lanes, config),
                                                      s.cz, placement, config)]
        moved = move_distances(prev, lanes, config)
        wrong = s.distances_um != moved
        if wrong.any():
            findings += [(k, DistanceMismatch(int(q), float(s.distances_um[q]), float(moved[q])))
                         for q in np.flatnonzero(wrong)]
        prev = lanes
    return findings


def route(routed: RoutedCircuit, placement: Placement, config: ArchConfig,
          serial: bool = False) -> Schedule:
    """Schedule a routed circuit into audited movement stages.

    Loop: execute every ready one-qubit gate in Raman layers, then pick a
    maximal legal parallel CZ set, synthesize the lane motion (dropping the
    last accepted gate while the parked rows don't fit), audit, emit.
    """
    circuit = routed.circuit
    gates = circuit.gates
    dag = build_dag(circuit)
    desc_count = _descendant_counts(dag)
    index = _ArrayIndex(placement, config)

    pending = [len(p) for p in dag.preds]
    ready = {i for i, c in enumerate(pending) if c == 0}

    def finish(gi: int) -> None:
        ready.discard(gi)
        for s in dag.succs[gi]:
            pending[s] -= 1
            if pending[s] == 0:
                ready.add(s)

    prev_rows, prev_cols = initial_lanes(config, index)
    init_rows = [list(r) for r in prev_rows]
    init_cols = [list(c) for c in prev_cols]
    prev = atom_lanes(placement, prev_rows, prev_cols)

    stages: list[Stage] = []
    overlap_rejections = 0

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

        front = []
        for gi in sorted(ready):
            g = gates[gi]
            if g.kind != "cz":
                raise ValueError(f"unsupported gate {g.kind!r} in routed circuit")
            a, b = g.qubits
            if placement[a].array == placement[b].array:
                raise ValueError("routed circuit has an intra-array CZ")
            front.append((gi, (a, b)))

        if not front and not raman_layers:
            break

        accepted, pins, rej = [], _Pins(), 0
        if front:
            accepted, pins, rej = select_parallel_gates(
                front, placement, index, config, desc_count, serial=serial)
            overlap_rejections += rej
        while True:
            # with no pins at all (raman-only stage) this parks every array
            # and cannot fail, so the pop below never underflows
            synth = synthesize_motion(pins, prev_rows, prev_cols, index, config)
            if synth is not None:
                break
            accepted.pop()
            pins = _Pins()
            for _, pair in accepted:
                pins = pins.merged(_gate_pins(pair, placement, config))
        new_rows, new_cols, new_offsets = synth
        lanes = atom_lanes(placement, new_rows, new_cols, new_offsets)
        distances = move_distances(prev, lanes, config)

        stage = Stage(
            raman=raman_layers,
            cz=[pair for _, pair in accepted],
            row_lanes=[list(r) for r in new_rows],
            col_lanes=[list(c) for c in new_cols],
            col_offsets=[list(o) for o in new_offsets],
            distances_um=distances,
            move_time_s=config.T_per_move if (accepted or distances.any()) else 0.0,
        )
        violations = stage_violations(atom_positions(lanes, config), stage.cz,
                                      placement, config)
        if violations:
            raise RuntimeError(f"stage geometry violates separation: {violations[:4]}")
        stages.append(stage)
        for gi, _ in accepted:
            finish(gi)
        prev_rows, prev_cols, prev = new_rows, new_cols, lanes

    return Schedule(config, dict(placement), stages, list(routed.perm),
                    init_rows, init_cols, overlap_rejections)


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
            "distances_um": [float(d) for d in s.distances_um],
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


def schedule_from_dict(d: dict) -> Schedule:
    """Rebuild a Schedule from its JSON form (audit / render / check)."""
    if d.get("schema_version") != 1:
        raise ValueError(f"unsupported schema_version {d.get('schema_version')!r}")
    config, _ = load_config(d["config"])
    placement = {q: AtomCoord(a, r, c)
                 for q, (a, r, c) in enumerate(d["placement"])}
    stages = []
    for k, s in enumerate(d["stages"]):
        if len(s["distances_um"]) != len(placement):
            raise ValueError(f"stage {k}: distances_um needs one entry per qubit")
        stages.append(Stage(
            raman=[[Gate("u", (int(q),), tuple(params)) for q, *params in layer]
                   for layer in s["raman"]],
            cz=[(int(a), int(b)) for a, b in s["cz"]],
            row_lanes=[list(a["row_lanes"]) for a in s["aod"]],
            col_lanes=[list(a["col_lanes"]) for a in s["aod"]],
            col_offsets=[list(a["col_offsets_um"]) for a in s["aod"]],
            distances_um=np.asarray(s["distances_um"], dtype=float),
            move_time_s=float(s["move_time_s"]),
            cooling=[int(t) for t in s["cooling"]],
        ))
    return Schedule(
        config=config,
        placement=placement,
        stages=stages,
        perm=list(d["perm"]),
        initial_row_lanes=[list(a["row_lanes"]) for a in d["initial"]["aod"]],
        initial_col_lanes=[list(a["col_lanes"]) for a in d["initial"]["aod"]],
        overlap_rejections=int(d["metrics"]["overlap_rejections"]),
    )
