import numpy as np
import pytest

from atomique.arch import ArchConfig
from atomique.array_mapper import (
    assign_arrays,
    bind_partitions,
    cut_value,
    greedy_max_kcut,
    partition_capacities,
    total_weight,
)
from kcut_reference import kcut_exhaustive


def _sym(entries, n):
    w = np.zeros((n, n))
    for i, j, v in entries:
        w[i, j] = w[j, i] = v
    return w


def test_cut_value_all_same_partition():
    w = _sym([(0, 1, 2.0), (1, 2, 1.0)], 3)
    assert cut_value(w, [0, 0, 0]) == 0.0


def test_cut_value_triangle_balanced():
    w = _sym([(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)], 3)
    assert cut_value(w, [0, 1, 0]) == pytest.approx(2.0)


def test_greedy_alg1_example():
    # E[0][1]=2, E[1][2]=1, E[0][2]=1: optimal 2-cut separates qubit 1
    w = _sym([(0, 1, 2.0), (1, 2, 1.0), (0, 2, 1.0)], 3)
    labels = greedy_max_kcut(w, 2)
    assert labels[0] == labels[2] != labels[1]
    assert cut_value(w, labels) == pytest.approx(3.0)
    best, _ = kcut_exhaustive(w, 2)
    assert best == pytest.approx(3.0)


def test_greedy_single_edge():
    w = _sym([(0, 1, 5.0)], 2)
    labels = greedy_max_kcut(w, 2)
    assert labels[0] != labels[1]
    assert cut_value(w, labels) == pytest.approx(5.0)


def test_greedy_k_ge_n_cuts_everything():
    w = _sym([(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)], 3)
    labels = greedy_max_kcut(w, 4)
    assert len(set(labels.tolist())) == 3
    assert cut_value(w, labels) == pytest.approx(total_weight(w))


def test_greedy_capacity_respected():
    w = _sym([(0, 1, 3.0), (0, 2, 2.0), (0, 3, 1.0)], 4)
    labels = greedy_max_kcut(w, 2, capacities=[1, 3])
    counts = np.bincount(labels, minlength=2)
    assert counts[0] <= 1 and counts[1] <= 3


def test_greedy_insufficient_capacity():
    w = np.zeros((4, 4))
    with pytest.raises(ValueError):
        greedy_max_kcut(w, 2, capacities=[1, 2])


def test_greedy_order_flag():
    w = _sym([(0, 1, 2.0), (1, 2, 1.0), (0, 2, 1.0)], 3)
    a = greedy_max_kcut(w, 2, order="weight")
    b = greedy_max_kcut(w, 2, order="index")
    # both deterministic and capacity-free; both reach a valid cut
    assert cut_value(w, a) >= 2.0
    assert cut_value(w, b) >= 2.0
    with pytest.raises(ValueError):
        greedy_max_kcut(w, 2, order="nope")


def test_greedy_deterministic():
    rng = np.random.default_rng(2)
    w = rng.uniform(0, 1, (8, 8))
    w = np.triu(w, 1)
    w = w + w.T
    a = greedy_max_kcut(w, 3)
    b = greedy_max_kcut(w, 3)
    assert np.array_equal(a, b)


def test_brute_force_triangle():
    w = _sym([(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)], 3)
    assert kcut_exhaustive(w, 2)[0] == pytest.approx(2.0)
    assert kcut_exhaustive(w, 3)[0] == pytest.approx(3.0)


def test_brute_force_path():
    w = _sym([(0, 1, 1.0), (1, 2, 1.0)], 3)
    best, labels = kcut_exhaustive(w, 2)
    assert best == pytest.approx(2.0)
    assert labels[1] != labels[0] and labels[1] != labels[2]


def test_brute_force_size_guard():
    with pytest.raises(ValueError):
        kcut_exhaustive(np.zeros((13, 13)), 2)


def test_approximation_bound_sample():
    # the full 500-graph sweep lives in the acceptance suite; keep a quick
    # version here so the property breaks close to the code
    rng = np.random.default_rng(3)
    for trial in range(60):
        n = int(rng.integers(3, 8))
        w = rng.uniform(0, 1, (n, n)) * (rng.random((n, n)) < 0.6)
        w = np.triu(w, 1)
        w = w + w.T
        for k in (2, 3):
            greedy = cut_value(w, greedy_max_kcut(w, k))
            opt, _ = kcut_exhaustive(w, k)
            assert greedy >= (1 - 1 / k) * opt - 1e-9


def test_bind_partitions_largest_to_slm():
    cfg = ArchConfig(n_aod=2, slm_rows=3, slm_cols=3, aod_rows=(2, 2), aod_cols=(2, 2))
    # partition sizes: 0 -> 2 qubits, 1 -> 4 qubits; larger one goes to array 0
    labels = np.array([0, 1, 1, 1, 0, 1])
    arrays = bind_partitions(labels, cfg)
    assert list(arrays[labels == 1]) == [0, 0, 0, 0]
    assert set(arrays[labels == 0]) <= {1, 2}


def test_partition_capacities_sorted():
    cfg = ArchConfig(n_aod=2, slm_rows=3, slm_cols=3, aod_rows=(4, 2), aod_cols=(4, 2))
    assert partition_capacities(cfg) == [16, 9, 4]


def test_assign_arrays_respects_capacity():
    cfg = ArchConfig(n_aod=2, slm_rows=2, slm_cols=2, aod_rows=(2, 2), aod_cols=(2, 2))
    rng = np.random.default_rng(4)
    w = rng.uniform(0, 1, (10, 10))
    w = np.triu(w, 1)
    w = w + w.T
    arrays = assign_arrays(w, cfg)
    counts = np.bincount(arrays, minlength=3)
    for a in range(3):
        assert counts[a] <= cfg.array_capacity(a)
