"""Reference stage selection, park-lane assignment and lane synthesis.

The whole-stage versions of `atomique.stage_router.select_parallel_gates`,
`_assign_park_lanes` and `synthesize_motion`, kept only as test oracles:
every candidate CZ is checked by re-sorting all pins of the arrays it
touches (`_order_ok`), walking every pinned row x pinned column
(`_cells_ok`) and, for each gap beside a new anchor, rescanning its
indices and every odd lane in it against all pins and all previous lanes
(`_parkable`), every park-lane
assignment runs the full DP table, and the open side of a segment lists
every free odd lane out to a margin that no optimum reaches.  Pins are
the (array, index)-keyed dicts of this module's own `_Pins` and
`_gate_pins`; `as_reference` turns the package's pin state into them.
The package's versions must return the same values.
"""

from dataclasses import dataclass, field

from atomique.arch import ArchConfig
from atomique.atom_mapper import Placement
from atomique.stage_router import _ArrayIndex


@dataclass
class _Pins:
    """Required (array, index) -> lane bindings for one candidate set;
    pinned columns also carry an x offset (um)."""
    rows: dict[tuple[int, int], int] = field(default_factory=dict)
    cols: dict[tuple[int, int], int] = field(default_factory=dict)
    offsets: dict[tuple[int, int], float] = field(default_factory=dict)


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


def as_reference(pins) -> _Pins:
    """The reference form of a package `atomique.stage_router._Pins`: its
    per-array index -> lane dicts and column offsets keyed by (array, index).
    Each array's sorted index list and lane set must match its dict."""
    for per_t in pins.axes:
        for plist, held, lanes in per_t:
            assert plist == sorted(held) and lanes == set(held.values())
    rows, cols = ({(t, i): lane for t, (_, held, _) in enumerate(per_t)
                   for i, lane in held.items()} for per_t in pins.axes)
    offsets = {(t, i): off for t, per_t in enumerate(pins.col_offsets)
               for i, off in per_t.items()}
    return _Pins(rows, cols, offsets)


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
            # split unpinned occupied indices into segments between anchors
            segments, seg, lo_a, own_pins = [], [], None, set()
            for i in occupied:
                lane = axis_pins.get((t, i))
                if lane is None:
                    seg.append(i)
                    continue
                new[t][i] = lane
                own_pins.add(lane)
                if seg:
                    segments.append((lo_a, (i, lane), seg))
                    seg = []
                lo_a = (i, lane)
            if seg:
                segments.append((lo_a, None, seg))
            forbidden -= own_pins  # own anchors bound the gaps instead
            held = set()  # park lanes already given to this array's rows
            for lo_a, hi_a, seg in segments:
                old = [prev[t][i] for i in seg]
                need = len(seg)
                margin = 2 * (need + len(forbidden) + 4)
                lo_lane = lo_a[1] if lo_a else min(old + ([hi_a[1]] if hi_a else [])) - margin
                hi_lane = hi_a[1] if hi_a else max(old + ([lo_a[1]] if lo_a else [])) + margin
                if hi_a and lo_a and hi_lane < lo_lane:  # crossed anchors (C2 off)
                    lo_lane, hi_lane = hi_lane, lo_lane
                cand = [l for l in range(lo_lane + 1 + lo_lane % 2, hi_lane, 2)  # odd
                        if l not in forbidden and l not in own_pins
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


def _parkable(pins: dict, new: set, t: int, occupied, prev) -> bool:
    """Park check of array t on one axis: next to each anchor of `new`
    (the candidate's pins there that are not pinned yet), the unpinned
    occupied indices strictly between it and either neighbouring anchor
    must fit on the odd lanes strictly between their lanes that no array
    pins (`pins` holds the whole trial stage) and no other array held
    (`prev`, the lanes after the previous stage, per array)."""
    taken = set(pins.values())
    taken.update(lane for s, lanes in enumerate(prev) if s != t for lane in lanes)
    anchors = sorted((i, pins[(t, i)]) for i in occupied if (t, i) in pins)
    for (ia, la), (ib, lb) in zip(anchors, anchors[1:]):
        if (t, ia) not in new and (t, ib) not in new:
            continue
        between = sum(1 for i in occupied if ia < i < ib and (t, i) not in pins)
        lo, hi = (la, lb) if la <= lb else (lb, la)
        if between > sum(1 for lane in range(lo + 1, hi) if lane % 2 and lane not in taken):
            return False
    return True


def select_parallel_gates(front, placement: Placement, index: _ArrayIndex,
                          config: ArchConfig, desc_count, prev_rows, prev_cols,
                          serial: bool = False):
    """Greedy maximal legal parallel CZ set.

    `front` holds (gate_index, (a, b)) for every ready CZ.  Candidates are
    tried by descending DAG-descendant count (ties: lower gate index); each
    either merges its lane pins into the stage or is deferred to the next
    stage.  `prev_rows`/`prev_cols` are the lanes after the previous stage.
    Returns (accepted list of (gate_index, pair), pins, deferrals by
    reason: "pin", "C2", "C3", "gap", "C1").
    """
    relaxed = config.relaxed
    order = sorted(front, key=lambda fg: (-desc_count[fg[0]], fg[0]))
    pins = _Pins()
    accepted: list[tuple[int, tuple[int, int]]] = []
    intended: set[frozenset] = set()
    deferrals = dict.fromkeys(("pin", "C2", "C3", "gap", "C1"), 0)

    for gi, pair in order:
        gate = _gate_pins(pair, placement, config)
        # (a) a row/col already pinned to a different lane or offset
        if _conflicts(pins, gate):
            deferrals["pin"] += 1
            continue
        trial = _Pins({**pins.rows, **gate.rows}, {**pins.cols, **gate.cols},
                      {**pins.offsets, **gate.offsets})
        # (b) per-array strict lane order
        verdict = None
        touched = {t for t, _ in (*gate.rows, *gate.cols)}
        for t in sorted(touched):
            verdict = (_order_ok(trial.rows, t, index.occ_rows[t], relaxed)
                       or _order_ok(trial.cols, t, index.occ_cols[t], relaxed))
            if verdict:
                break
        if verdict:
            deferrals[verdict] += 1
            continue
        # (c) parked rows must still fit between the anchors
        new_rows = gate.rows.keys() - pins.rows.keys()
        new_cols = gate.cols.keys() - pins.cols.keys()
        if not all(_parkable(trial.rows, new_rows, t, index.occ_rows[t], prev_rows)
                   and _parkable(trial.cols, new_cols, t, index.occ_cols[t], prev_cols)
                   for t in sorted(touched)):
            deferrals["gap"] += 1
            continue
        # (d) cell exclusivity against static atoms and other arrays
        if "C1" not in relaxed and not _cells_ok(
                trial.rows, trial.cols, index, intended | {frozenset(pair)}):
            deferrals["C1"] += 1
            continue
        pins = trial
        accepted.append((gi, pair))
        intended.add(frozenset(pair))
        if serial:
            break
    return accepted, pins, deferrals
