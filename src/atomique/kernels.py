"""Numeric kernels: the minimum-separation scan, over a cell list.

The scan validates stage geometries, many stages in one call.  positions:
(m, 2) float64 in um, all finite.  stage: (m,) int64 stage index per atom
in [0, _MAX_STAGE), all zero when None (a single stage is a block of one);
atoms of different stages are never paired.  partner[i] = j when (i, j) is
an intended interaction pair, j an atom of i's stage, else -1.  A pair is
in violation when it is intended but sits at distance >= r_b, or
unintended and closer than s_min (> 0).  Returns int64 i, int64 j, float64
distance and int64 kind arrays in row-major (i < j) pair order, so (stage,
i, j) order when stages are laid out one after another, with kind 0 =
unintended too close, 1 = intended pair too far.

Only pairs that can be too close are distance-tested.  Atoms are bucketed
into square cells a little wider than s_min (the margin keeps rounding in
floor(x / side) from putting a pair just under s_min two cells apart), so
a pair closer than s_min always sits in the same or adjacent cells.  The
atoms are sorted by cell key; each atom's neighbours ahead of it in that
order fill two runs of the sorted keys, found by binary search, so every
adjacent-cell pair is met exactly once.  Intended pairs in cells further
apart are added directly.  Positions are first clamped to +-2**20 cells:
clamping never moves two atoms apart, so the keys cannot overflow and a
close pair stays in adjacent cells at any magnitude.  The stage index is
folded into the key with a stride wider than one stage's whole key range
plus the reach of the neighbour runs, so no run crosses into another
stage.  Each distance comes from the pair's coordinates with the same
arithmetic as an all-pairs scan, so the findings are bit-identical to one.

Cost: one unstable sort of the m cell keys and two binary searches,
O(m log m), plus the number of pairs in adjacent cells, which is O(m) when
atoms sit on lanes at least about s_min apart; the all-pairs scan tests
m(m-1)/2 pairs.  The candidate pairs are tested in the order they are met,
and only the findings are sorted into row-major order.  Its fixed cost of
about fifty numpy calls is paid once per call, so callers scan a block of
stages at a time.
"""

from __future__ import annotations

import numpy as np

_MAX_CELL = 2**20  # cells per half-axis: below it x / side errs by < 2**-32 cells
_WIDTH = 2 * _MAX_CELL + 3  # key = x cell * _WIDTH + y cell; y cells never wrap
# one stage's keys span 2 * _MAX_CELL * (_WIDTH + 1) and its runs reach
# _WIDTH + 1 further: both fit below _WIDTH**2, so stages never meet
_STRIDE = _WIDTH * _WIDTH
_MAX_STAGE = 2**20  # stage * _STRIDE plus any key stays inside int64


def separation_scan(pos, partner, r_b, s_min, stage=None):
    """Scan nearby atom pairs for separation violations; see module docstring.

    Raises ValueError on a position that is not finite or a stage index
    out of range.
    """
    pos = np.ascontiguousarray(pos, dtype=np.float64)
    partner = np.ascontiguousarray(partner, dtype=np.int64)
    m = pos.shape[0]
    stage = np.zeros(m, np.int64) if stage is None else np.asarray(stage, dtype=np.int64)
    if not np.isfinite(pos).all():
        raise ValueError("atom positions must be finite")
    if m and not 0 <= stage.min() <= stage.max() < _MAX_STAGE:
        raise ValueError(f"stage indices must lie in [0, {_MAX_STAGE})")
    if m < 2:
        e = np.empty(0, np.int64)
        return e, e.copy(), np.empty(0, np.float64), np.empty(0, np.int64)
    side = float(s_min) * (1 + 1e-9)
    lim = _MAX_CELL * side
    cell = np.floor(np.minimum(np.maximum(pos, -lim), lim) / side).astype(np.int64)
    key = stage * _STRIDE + cell[:, 0] * _WIDTH + cell[:, 1]
    order = np.argsort(key)  # equal keys share a cell: their order only swaps a and b
    sk = key[order]
    # runs of sorted positions per atom: the rest of its own cell and the
    # next y cell (keys k, k + 1), then the next x column's three cells
    # (keys k + W - 1 .. k + W + 1); pairs come only from non-empty runs
    lo = np.concatenate((np.arange(1, m + 1), np.searchsorted(sk, sk + (_WIDTH - 1))))
    hi = np.searchsorted(sk, np.concatenate((sk + 1, sk + (_WIDTH + 1))), "right")
    run = np.flatnonzero(hi > lo)
    count = hi[run] - lo[run]
    a = np.repeat(order[run % m], count)
    b = order[np.repeat(lo[run] - np.cumsum(count) + count, count) + np.arange(a.size)]
    ip = np.flatnonzero((partner > np.arange(m)) & (partner < m))
    far = ip[(np.abs(cell[ip] - cell[partner[ip]]) > 1).any(axis=1)]
    iu = np.concatenate((np.minimum(a, b), far))
    ju = np.concatenate((np.maximum(a, b), partner[far]))
    diff = pos[iu] - pos[ju]
    with np.errstate(over="ignore"):  # a pair too far apart to square is at inf
        d = np.sqrt((diff * diff).sum(axis=1))
    intended = partner[iu] == ju
    bad = np.flatnonzero(np.where(intended, d >= float(r_b), d < float(s_min)))
    # the pairs are distinct, so their codes put the findings in row-major order
    bad = bad[np.argsort(iu[bad] * m + ju[bad], kind="stable")]
    return iu[bad], ju[bad], d[bad], intended[bad].astype(np.int64)
