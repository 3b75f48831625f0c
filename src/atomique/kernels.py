"""Numeric kernels: the pairwise minimum-separation scan.

The scan validates every stage geometry.  positions: (m, 2) float64 in um.
partner[i] = j when (i, j) is an intended interaction pair this stage, else
-1.  A pair is in violation when it is intended but sits at distance >= r_b,
or unintended and closer than s_min.  Returns (i, j, distance, kind) arrays
in row-major (i < j) pair order with kind 0 = unintended too close,
1 = intended pair too far.
"""

from __future__ import annotations

import numpy as np


def separation_scan(pos, partner, r_b, s_min):
    """Scan all atom pairs for separation violations; see module docstring."""
    pos = np.ascontiguousarray(pos, dtype=np.float64)
    partner = np.ascontiguousarray(partner, dtype=np.int64)
    m = pos.shape[0]
    if m < 2:
        e = np.empty(0, np.int64)
        return e, e.copy(), np.empty(0, np.float64), np.empty(0, np.int64)
    iu, ju = np.triu_indices(m, k=1)
    diff = pos[iu] - pos[ju]
    d = np.sqrt((diff * diff).sum(axis=1))
    intended = partner[iu] == ju
    bad = np.where(intended, d >= float(r_b), d < float(s_min))
    kind = intended.astype(np.int64)
    return iu[bad].astype(np.int64), ju[bad].astype(np.int64), d[bad], kind[bad]
