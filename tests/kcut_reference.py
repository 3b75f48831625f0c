"""Max k-cut references the greedy partitioner is measured against in the
tests: cut and total edge weights, the exhaustive max k-cut (n <= 12), and
`greedy_max_kcut_dense`, the greedy pass as it was before it walked
neighbour lists: it scans all n entries of a dense weight row for every
vertex it places.  `atomique.array_mapper.greedy_max_kcut` must return
the same labels.

`kcut_exhaustive` enumerates every labelling with vertex 0 fixed in
partition 0 (label permutations leave the cut value unchanged), in base-k
counter order with vertex 1 as the least significant digit.  Ties keep the
first labelling found.
"""

import numpy as np


def cut_value(weights, labels) -> float:
    """Total weight of edges whose endpoints carry different labels."""
    w = np.asarray(weights, dtype=np.float64)
    lab = np.asarray(labels)
    n = w.shape[0]
    iu, ju = np.triu_indices(n, k=1)
    mask = lab[iu] != lab[ju]
    return float(w[iu[mask], ju[mask]].sum())


def total_weight(weights) -> float:
    w = np.asarray(weights, dtype=np.float64)
    iu, ju = np.triu_indices(w.shape[0], k=1)
    return float(w[iu, ju].sum())


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


def greedy_max_kcut_dense(weights, k, capacities=None, order="weight"):
    """Greedy k-way partition over the dense weight matrix (valid inputs
    only); same arguments and labels as `greedy_max_kcut`."""
    w = np.asarray(weights, dtype=np.float64)
    n = w.shape[0]
    caps = [n] * k if capacities is None else list(capacities)
    if order == "weight":
        incident = w.sum(axis=1)
        visit = sorted(range(n), key=lambda i: (-incident[i], i))
    else:
        visit = list(range(n))
    labels = np.full(n, -1, dtype=np.int64)
    sizes = [0] * k
    for i in visit:
        into = np.zeros(k)
        for q in range(n):
            if labels[q] >= 0 and w[i, q] != 0.0:
                into[labels[q]] += w[i, q]
        placed_total = float(into.sum())
        best_j, best_cut = -1, -1.0
        for j in range(k):
            if sizes[j] >= caps[j]:
                continue
            cut = placed_total - into[j]
            if cut > best_cut:
                best_j, best_cut = j, cut
        if best_j < 0:
            raise RuntimeError("no partition with remaining capacity")
        labels[i] = best_j
        sizes[best_j] += 1
    return labels
