"""Per-stage reference for `atomique.stage_router.audit_schedule`.

The audit as it was before stages were audited in blocks: one lane array,
one separation scan, one move-distance check and one move-time check per
stage (the move-time rule was added to both audits later).  The package's
block audit must return equal findings, by `repr`, on any schedule.  The
two stored-value checks apply to a loaded file's stored columns only.

`stage_moves` derives each stage's move distances from its lanes, one
stage at a time, for this and the other test oracles.
"""

import numpy as np

from atomique.arch import atom_positions, min_separation_audit, move_distances
from atomique.stage_router import DistanceMismatch, MoveTimeMismatch


def atom_lanes(placement, row_lanes, col_lanes, col_offsets=None) -> np.ndarray:
    """(n, 3) lane coordinates of one stage, indexed by qubit id."""
    flat = []  # one flat list: numpy converts it much faster than tuples
    for q in range(len(placement)):
        p = placement[q]
        if p.array == 0:
            flat += (2 * p.col, 0.0, 2 * p.row)
        else:
            t = p.array - 1
            off = col_offsets[t][p.col] if col_offsets is not None else 0.0
            flat += (col_lanes[t][p.col], off, row_lanes[t][p.row])
    lanes = np.array(flat, dtype=np.float64).reshape(-1, 3)
    if not np.isfinite(lanes).all():  # a None lane is NaN here
        raise ValueError("an occupied AOD row or column has no lane, "
                         "or a lane or offset that is not finite")
    return lanes


def stage_violations(positions, cz, placement, config) -> list:
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


def stage_moves(schedule):
    """Per stage, its (n, 3) lane array and its move distances from the
    lanes before (the first stage's from the initial lanes)."""
    placement, config = schedule.placement, schedule.config
    prev = atom_lanes(placement, schedule.initial_row_lanes, schedule.initial_col_lanes)
    for s in schedule.stages:
        lanes = atom_lanes(placement, s.row_lanes, s.col_lanes, s.col_offsets)
        yield lanes, move_distances(prev, lanes, config)
        prev = lanes


def move_time(stage, moved, config) -> float:
    """T_per_move for a stage that has a CZ or moves an atom, else 0.0."""
    return config.T_per_move if (stage.cz or moved.any()) else 0.0


def audit_schedule(schedule) -> list:
    """(stage index, finding) pairs over the whole schedule; empty = legal."""
    placement, config = schedule.placement, schedule.config
    stored = schedule.stored_distances_um is not None
    findings = []
    for k, (s, (lanes, moved)) in enumerate(zip(schedule.stages, stage_moves(schedule))):
        findings += [(k, v) for v in stage_violations(atom_positions(lanes, config),
                                                      s.cz, placement, config)]
        if not stored:
            continue
        distances = schedule.stored_distances_um[k]
        wrong = distances != moved
        if wrong.any():
            findings += [(k, DistanceMismatch(int(q), float(distances[q]), float(moved[q])))
                         for q in np.flatnonzero(wrong)]
        needed = move_time(s, moved, config)
        if schedule.stored_move_times_s[k] != needed:
            findings.append((k, MoveTimeMismatch(float(schedule.stored_move_times_s[k]),
                                                 needed)))
    return findings
