"""All-pairs reference for `atomique.kernels.separation_scan`.

Every one of the m(m-1)/2 pairs from `np.triu_indices`, distance-tested in
row-major (i < j) order with the same arithmetic as the package's scan, so
the two must agree bit for bit.
"""

import numpy as np


def dense_separation_scan(pos, partner, r_b, s_min):
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
