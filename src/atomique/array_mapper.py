"""Partition qubits across atom arrays by maximizing inter-array interaction.

Two-qubit gates between atoms held in different arrays can be scheduled by
moving one array; gates between atoms of the *same* array would need extra
routing.  We therefore want a k-way partition of the interaction graph that
maximizes the total edge weight *cut* by the partition, subject to per-array
capacity.  A greedy pass over the vertices gives the classic (1 - 1/k)
approximation.
"""

from __future__ import annotations

import numpy as np

from .arch import ArchConfig


def cut_value(weights: np.ndarray, labels) -> float:
    """Total weight of edges whose endpoints carry different labels."""
    w = np.asarray(weights, dtype=np.float64)
    lab = np.asarray(labels)
    n = w.shape[0]
    iu, ju = np.triu_indices(n, k=1)
    mask = lab[iu] != lab[ju]
    return float(w[iu[mask], ju[mask]].sum())


def total_weight(weights: np.ndarray) -> float:
    w = np.asarray(weights, dtype=np.float64)
    iu, ju = np.triu_indices(w.shape[0], k=1)
    return float(w[iu, ju].sum())


def greedy_max_kcut(
    weights: np.ndarray,
    k: int,
    capacities=None,
    order: str = "weight",
) -> np.ndarray:
    """Greedy k-way partition of a weighted graph.

    Vertices are visited one at a time; each is assigned to the partition
    that maximizes the cut weight it contributes *right now*, i.e. the sum
    of edge weights to already-placed vertices outside that partition.
    Without capacity limits this guarantees a cut of at least (1 - 1/k) of
    the total edge weight.

    order="weight" visits vertices by descending total incident weight
    (ties: lower vertex id); order="index" visits them as numbered.
    Returns an int array of partition labels.
    """
    w = np.asarray(weights, dtype=np.float64)
    n = w.shape[0]
    if w.shape != (n, n):
        raise ValueError("weights must be a square matrix")
    if k < 1:
        raise ValueError("need at least one partition")
    if capacities is None:
        caps = [n] * k
    else:
        caps = list(capacities)
        if len(caps) != k:
            raise ValueError("capacities must have one entry per partition")
        if sum(caps) < n:
            raise ValueError(f"capacities sum to {sum(caps)} < {n} vertices")

    if order == "weight":
        incident = w.sum(axis=1)
        visit = sorted(range(n), key=lambda i: (-incident[i], i))
    elif order == "index":
        visit = list(range(n))
    else:
        raise ValueError(f"unknown vertex order {order!r}")

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


def bind_partitions(labels, config: ArchConfig) -> np.ndarray:
    """Map partition labels to physical array ids.

    Larger partitions go to higher-capacity arrays; the static array (id 0)
    wins ties so that the most-connected block of qubits sits still.  As long
    as the partition was built against the sorted capacities this assignment
    always fits (the i-th largest partition is at most the i-th largest
    capacity).  Returns assignment[q] = array id.
    """
    lab = np.asarray(labels)
    k = int(lab.max()) + 1 if lab.size else 0
    sizes = [(int((lab == j).sum()), j) for j in range(k)]
    sizes.sort(key=lambda t: (-t[0], t[1]))
    arrays = sorted(range(config.n_arrays),
                    key=lambda a: (-config.array_capacity(a), a))
    part_to_array = {}
    for (sz, j), a in zip(sizes, arrays):
        if sz > config.array_capacity(a):
            raise ValueError(
                f"partition of {sz} qubits exceeds array {a} capacity "
                f"{config.array_capacity(a)}")
        part_to_array[j] = a
    return np.array([part_to_array[int(j)] for j in lab], dtype=np.int64)


def partition_capacities(config: ArchConfig) -> list[int]:
    """Array capacities sorted descending — the capacity vector the greedy
    partitioner should run against so that bind_partitions always fits."""
    return sorted((config.array_capacity(a) for a in range(config.n_arrays)),
                  reverse=True)


def assign_arrays(weights: np.ndarray, config: ArchConfig,
                  order: str = "weight") -> np.ndarray:
    """Partition + bind in one step: qubit id -> array id."""
    k = config.n_arrays
    labels = greedy_max_kcut(weights, k, capacities=partition_capacities(config),
                             order=order)
    return bind_partitions(labels, config)
