import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atomique.kernels import separation_scan
from kcut_reference import kcut_exhaustive

R_B, S_MIN = 2.5, 6.25


def test_scan_clean_lattice():
    pos = np.array([[x * 15.0, y * 15.0] for x in range(4) for y in range(4)])
    partner = np.full(16, -1, np.int64)
    i, j, d, k = separation_scan(pos, partner, 2.5, 6.25)
    assert i.size == 0


def test_scan_flags_too_close():
    pos = np.array([[0.0, 0.0], [3.0, 0.0], [50.0, 50.0]])
    partner = np.full(3, -1, np.int64)
    i, j, d, k = separation_scan(pos, partner, 2.5, 6.25)
    assert list(i) == [0] and list(j) == [1]
    assert d[0] == pytest.approx(3.0)
    assert k[0] == 0  # too_close


def test_scan_flags_pair_too_far():
    pos = np.array([[0.0, 0.0], [4.0, 0.0]])
    partner = np.array([1, 0], np.int64)  # intended pair but 4 um apart
    i, j, d, k = separation_scan(pos, partner, 2.5, 6.25)
    assert list(i) == [0] and list(j) == [1]
    assert k[0] == 1  # pair_too_far


def test_scan_intended_pair_inside_blockade_ok():
    pos = np.array([[0.0, 0.0], [0.5, 0.0]])
    partner = np.array([1, 0], np.int64)
    i, j, d, k = separation_scan(pos, partner, 2.5, 6.25)
    assert i.size == 0


def reference_scan(pos, partner, r_b, s_min):
    """The scan's contract as a plain double loop over i < j."""
    found = []
    for i in range(len(pos)):
        for j in range(i + 1, len(pos)):
            dx = pos[i][0] - pos[j][0]
            dy = pos[i][1] - pos[j][1]
            d = math.sqrt(dx * dx + dy * dy)
            if partner[i] == j:
                if d >= r_b:
                    found.append((i, j, d, 1))
            elif d < s_min:
                found.append((i, j, d, 0))
    return found


@st.composite
def stage_geometries(draw):
    """Atoms at arbitrary or lattice-snapped points (a 1.25 um grid puts
    pairs exactly on the r_b and s_min boundaries and on top of each
    other), with disjoint intended pairs, some drawn close together."""
    m = draw(st.integers(0, 30))
    coord = st.one_of(st.floats(0.0, 60.0, allow_nan=False),
                      st.integers(0, 48).map(lambda k: 1.25 * k))
    pos = np.array([[draw(coord), draw(coord)] for _ in range(m)], dtype=float)
    pos = pos.reshape(m, 2)
    order = draw(st.permutations(range(m)))
    n_pairs = draw(st.integers(0, m // 2))
    partner = np.full(m, -1, np.int64)
    near = st.integers(-2, 2).map(lambda k: 1.25 * k)
    for a, b in zip(order[0:2 * n_pairs:2], order[1:2 * n_pairs:2]):
        partner[a], partner[b] = b, a
        if draw(st.booleans()):
            pos[b] = pos[a] + [draw(near), draw(near)]
    return pos, partner


@settings(max_examples=300, deadline=None)
@given(stage_geometries())
def test_scan_matches_double_loop(geometry):
    pos, partner = geometry
    i, j, d, k = separation_scan(pos, partner, R_B, S_MIN)
    got = list(zip(i.tolist(), j.tolist(), d.tolist(), k.tolist()))
    assert got == reference_scan(pos.tolist(), partner.tolist(), R_B, S_MIN)


def test_scan_empty_and_single():
    for m in (0, 1):
        pos = np.zeros((m, 2))
        i, j, d, k = separation_scan(pos, np.full(m, -1, np.int64), 2.5, 6.25)
        assert i.size == 0


def test_kcut_two_vertices():
    w = np.array([[0.0, 3.0], [3.0, 0.0]])
    best, labels = kcut_exhaustive(w, 2)
    assert best == pytest.approx(3.0)
    assert labels[0] != labels[1]


def test_kcut_triangle_k2():
    # triangle with unit weights: best 2-cut cuts exactly 2 of 3 edges
    w = np.ones((3, 3)) - np.eye(3)
    best, _ = kcut_exhaustive(w, 2)
    assert best == pytest.approx(2.0)


def test_kcut_triangle_k3():
    w = np.ones((3, 3)) - np.eye(3)
    best, labels = kcut_exhaustive(w, 3)
    assert best == pytest.approx(3.0)
    assert len(set(labels.tolist())) == 3


def test_kcut_vertex_limit():
    with pytest.raises(ValueError):
        kcut_exhaustive(np.zeros((13, 13)), 2)


def test_kcut_empty():
    best, labels = kcut_exhaustive(np.zeros((0, 0)), 2)
    assert best == 0.0 and labels.size == 0
