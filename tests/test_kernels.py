import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atomique.kernels import separation_scan
from kcut_reference import kcut_exhaustive
from scan_reference import dense_separation_scan

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


def assert_same_findings(got, want):
    """Equal indices, kinds and distances, bit for bit and dtype for dtype."""
    assert [a.dtype for a in got] == [np.dtype(t) for t in ("int64", "int64", "float64", "int64")]
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


ULP_SEPARATIONS = [S_MIN, np.nextafter(S_MIN, 0.0), np.nextafter(S_MIN, np.inf),
                   R_B, np.nextafter(R_B, 0.0), np.nextafter(R_B, np.inf)]
DIRECTIONS = [(1.0, 0.0), (0.0, 1.0), (math.sqrt(0.5), math.sqrt(0.5)),
              (-math.sqrt(0.5), math.sqrt(0.5))]


@pytest.mark.parametrize("direction", DIRECTIONS, ids=["x", "y", "diag", "antidiag"])
@pytest.mark.parametrize("sep", ULP_SEPARATIONS,
                         ids=["s_min", "s_min-ulp", "s_min+ulp", "r_b", "r_b-ulp", "r_b+ulp"])
def test_scan_boundary_separations_straddling_cells(direction, sep):
    # the first atom sits on, or a hair either side of, a multiple of s_min
    # (where cells of side about s_min have their edges), at small and
    # large coordinates; one copy of the pair is intended, one is not
    ux, uy = direction
    found = 0
    for k in (-3, -1, 0, 1, 2, 7, 1000, 2**19, 2**21):
        for eps in (-1e-6, -1e-12, 0.0, 1e-12, 1e-6, 0.5 * S_MIN):
            x0 = k * S_MIN + eps
            a = [x0, x0 * 0.5]
            b = [a[0] + sep * ux, a[1] + sep * uy]
            pos = np.array([a, b, [a[0] + 100.0, a[1]], [b[0] + 100.0, b[1]]])
            partner = np.array([1, 0, -1, -1], np.int64)
            got = separation_scan(pos, partner, R_B, S_MIN)
            assert_same_findings(got, dense_separation_scan(pos, partner, R_B, S_MIN))
            found += got[0].size
    assert found > 0


def test_scan_cell_with_many_coincident_atoms():
    # a relaxed C3 lets rows of one AOD share a lane: several atoms on one point
    pos = np.array([[30.0, 15.0]] * 4 + [[30.0, 22.5], [37.5, 15.0], [30.5, 15.0]])
    partner = np.array([6, -1, -1, -1, -1, -1, 0], np.int64)
    got = separation_scan(pos, partner, R_B, S_MIN)
    assert_same_findings(got, dense_separation_scan(pos, partner, R_B, S_MIN))
    pairs = list(zip(got[0].tolist(), got[1].tolist(), got[2].tolist()))
    assert [(i, j) for i, j, d in pairs if d == 0.0] == [(0, 1), (0, 2), (0, 3),
                                                          (1, 2), (1, 3), (2, 3)]
    assert (0, 6) not in [(i, j) for i, j, _ in pairs]  # intended, 0.5 um apart
    assert {(i, 6) for i in (1, 2, 3)} <= {(i, j) for i, j, _ in pairs}


def test_scan_matches_all_pairs_on_a_600_atom_lattice_stage():
    # 600 atoms on the 7.5 um half-pitch lanes: intended pairs drawn at
    # random, most moved to the 0.5 um gate offset and the rest left where
    # they are (far apart), and a few atoms moved onto or next to another
    rng = np.random.default_rng(0)
    pos = np.array([[7.5 * x, 7.5 * y] for x in range(30) for y in range(20)])
    m = len(pos)
    partner = np.full(m, -1, np.int64)
    order = rng.permutation(m)
    for a, b in zip(order[0:240:2], order[1:240:2]):
        partner[a], partner[b] = b, a
        if rng.random() < 0.8:
            pos[b] = pos[a] + [0.5, 0.0]
    for q in order[240:260]:
        pos[q] = pos[rng.integers(m)] + rng.choice([0.0, 3.0, 6.0], 2)
    got = separation_scan(pos, partner, R_B, S_MIN)
    assert_same_findings(got, dense_separation_scan(pos, partner, R_B, S_MIN))
    assert set(got[3].tolist()) == {0, 1}


@pytest.mark.parametrize("far", [1e300, -1e300, 1e18, -1e18, 2.0**62])
def test_scan_huge_positions_match_all_pairs(far):
    pos = np.array([[0.0, 0.0], [far, 0.0], [0.0, 0.0], [far, far], [far, far + 1.0],
                    [0.0, far]])
    partner = np.array([-1, 5, -1, -1, -1, -1], np.int64)
    with np.errstate(over="ignore"):  # the reference squares the intended pair's huge gap
        want = dense_separation_scan(pos, partner, R_B, S_MIN)
    assert_same_findings(separation_scan(pos, partner, R_B, S_MIN), want)
    assert (0, 2) in zip(want[0].tolist(), want[1].tolist())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_scan_rejects_positions_that_are_not_finite(bad):
    pos = np.array([[0.0, 0.0], [0.0, 0.0], [bad, 1.0]])
    with pytest.raises(ValueError, match="finite"):
        separation_scan(pos, np.full(3, -1, np.int64), R_B, S_MIN)


def test_scan_empty_and_single():
    for m in (0, 1):
        pos = np.zeros((m, 2))
        i, j, d, k = separation_scan(pos, np.full(m, -1, np.int64), 2.5, 6.25)
        assert i.size == 0


# ---------------------------------------------------------------------------
# many stages in one scan
# ---------------------------------------------------------------------------


def per_stage_dense(pos, partner, stage):
    """The all-pairs reference run stage by stage (stages laid out one after
    another, partners global), its findings mapped back to global indices."""
    out = [[], [], [], []]
    for k in np.unique(stage):
        at = np.flatnonzero(stage == k)
        lo = at[0]
        local = np.where(partner[at] >= 0, partner[at] - lo, -1)
        i, j, d, kind = dense_separation_scan(pos[at], local, R_B, S_MIN)
        for part, value in zip(out, (i + lo, j + lo, d, kind)):
            part.append(value)
    return tuple(np.concatenate(p) if p else np.empty(0, t)
                 for p, t in zip(out, (np.int64, np.int64, np.float64, np.int64)))


def blocks(geometries):
    pos = np.concatenate([g[0].reshape(-1, 2) for g in geometries])
    stage = np.repeat(np.arange(len(geometries)), [len(g[0]) for g in geometries])
    starts = np.cumsum([0] + [len(g[0]) for g in geometries])
    partner = np.concatenate([np.where(g[1] >= 0, g[1] + lo, -1)
                              for g, lo in zip(geometries, starts)]).astype(np.int64)
    return pos, partner, stage


@settings(max_examples=200, deadline=None)
@given(st.lists(stage_geometries(), min_size=1, max_size=5))
def test_scan_of_many_stages_matches_each_stage_scanned_alone(geometries):
    pos, partner, stage = blocks(geometries)
    got = separation_scan(pos, partner, R_B, S_MIN, stage)
    assert_same_findings(got, per_stage_dense(pos, partner, stage))


def test_scan_never_pairs_atoms_of_different_stages():
    # one point, three atoms in each of three adjacent stages
    pos = np.zeros((9, 2))
    stage = np.repeat([0, 1, 2], 3)
    i, j, d, k = separation_scan(pos, np.full(9, -1, np.int64), R_B, S_MIN, stage)
    assert list(zip(i.tolist(), j.tolist())) == [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5),
                                                  (4, 5), (6, 7), (6, 8), (7, 8)]
    assert d.tolist() == [0.0] * 9


@pytest.mark.parametrize("far", [1e300, -1e300])
def test_scan_clamped_positions_in_neighbouring_stages_match_each_stage(far):
    # clamping puts every huge coordinate in the outermost cell of its
    # stage, where the neighbour runs reach furthest toward the next stage
    stage_atoms = [[far, far], [far, far], [far, -far], [0.0, 0.0], [far, far + 3.0]]
    pos = np.array(stage_atoms * 3)
    partner = np.full(15, -1, np.int64)
    partner[[3, 8]] = [4, 9]
    stage = np.repeat([0, 1, 2], 5)
    with np.errstate(over="ignore"):  # both square the huge gaps
        want = per_stage_dense(pos, partner, stage)
        got = separation_scan(pos, partner, R_B, S_MIN, stage)
    assert_same_findings(got, want)
    assert set(zip(want[0].tolist(), want[1].tolist())) >= {(0, 1), (5, 6), (10, 11)}


def test_scan_reports_a_far_intended_pair_in_its_own_stage():
    # stage 1's intended pair sits 100 um apart; stage 0 has atoms on the
    # same two points that are no pair
    pos = np.array([[0.0, 0.0], [100.0, 0.0], [0.0, 0.0], [100.0, 0.0]])
    partner = np.array([-1, -1, 3, -1], np.int64)
    i, j, d, k = separation_scan(pos, partner, R_B, S_MIN, np.array([0, 0, 1, 1]))
    assert (i.tolist(), j.tolist(), d.tolist(), k.tolist()) == ([2], [3], [100.0], [1])


@pytest.mark.parametrize("bad", [-1, 2**20])
def test_scan_rejects_a_stage_index_out_of_range(bad):
    with pytest.raises(ValueError, match="stage"):
        separation_scan(np.zeros((2, 2)), np.full(2, -1, np.int64), R_B, S_MIN,
                        np.array([0, bad]))


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
