"""Exhaustive max k-cut: the exact reference the greedy partitioner is
measured against in the tests (n <= 12).

Enumerates every labelling with vertex 0 fixed in partition 0 (label
permutations leave the cut value unchanged), in base-k counter order with
vertex 1 as the least significant digit.  Ties keep the first labelling
found.
"""

import numpy as np


def kcut_exhaustive(w, k, chunk=1 << 14):
    """Exact max k-cut value and one optimal labelling (n <= 12)."""
    w = np.ascontiguousarray(w, dtype=np.float64)
    n = w.shape[0]
    if n > 12:
        raise ValueError(f"exhaustive k-cut limited to 12 vertices, got {n}")
    if n == 0:
        return 0.0, np.zeros(0, np.int64)
    total = k ** (n - 1)
    iu, ju = np.triu_indices(n, k=1)
    wij = w[iu, ju]
    best = -1.0
    best_labels = np.zeros(n, np.int64)
    for start in range(0, total, chunk):
        codes = np.arange(start, min(start + chunk, total), dtype=np.int64)
        labels = np.zeros((codes.shape[0], n), np.int64)
        c = codes.copy()
        for v in range(1, n):
            labels[:, v] = c % k
            c //= k
        vals = ((labels[:, iu] != labels[:, ju]) * wij).sum(axis=1)
        a = int(np.argmax(vals))
        if vals[a] > best:
            best = float(vals[a])
            best_labels = labels[a].copy()
    return best, best_labels
