"""Per-stage reference for `atomique.stage_router.audit_schedule`.

The audit as it was before stages were audited in blocks: one lane array,
one separation scan, one move-distance check and one move-time check per
stage (the move-time rule was added to both audits later).  The package's
block audit must return equal findings, by `repr`, on any schedule.
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


def audit_schedule(schedule) -> list:
    """(stage index, finding) pairs over the whole schedule; empty = legal."""
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
        needed = config.T_per_move if (s.cz or moved.any()) else 0.0
        if s.move_time_s != needed:
            findings.append((k, MoveTimeMismatch(float(s.move_time_s), needed)))
        prev = lanes
    return findings
