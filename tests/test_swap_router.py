import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import swap_reference
from swap_reference import intra_array_cz
from atomique import swap_router
from atomique.circuit import Circuit, circuit_stats, gate_frequency_graph, to_basis
from atomique.oracle import equivalent_up_to_permutation, simulate
from atomique.swap_router import LOOKAHEAD_WINDOW, _lowered_swap, route_inter_array
from atomique.arch import ArchConfig
from atomique.array_mapper import assign_arrays
from atomique.pipeline import random_assignment
from atomique.workloads import WorkloadSpec


def test_lowered_swap_is_swap_unitary():
    c = Circuit(2)
    c.gates.extend(_lowered_swap(0, 1))
    u = simulate(c)
    swap = np.eye(4)[[0, 2, 1, 3]].astype(complex)
    k = np.unravel_index(np.argmax(np.abs(swap)), (4, 4))
    assert np.allclose(u * (swap[k] / u[k]), swap, atol=1e-9)
    assert sum(g.kind == "cz" for g in _lowered_swap(0, 1)) == 3


def test_already_inter_array_untouched():
    c = Circuit(2)
    c.add("cz", (0, 1))
    r = route_inter_array(c, np.array([0, 1]))
    assert r.added_cx == 0
    assert [g.kind for g in r.circuit.gates] == ["cz"]
    assert r.perm == [0, 1]


def test_blocked_gate_swaps_later_endpoint_with_idler():
    # CZ(0,1) with both endpoints in array A and qubit 2 idle in B:
    # the router swaps logical 1 out to B, then gates 0 with it
    c = Circuit(3)
    c.add("cz", (0, 1))
    r = route_inter_array(c, np.array([0, 0, 1]))
    assert r.added_cx == 3
    assert intra_array_cz(r) == 0
    # logical 1 now lives on slot 2, logical 2 on slot 1
    assert r.perm == [0, 2, 1]
    assert equivalent_up_to_permutation(c, r.circuit, r.perm)


def test_all_intra_array_circuit():
    c = Circuit(4)
    for a, b in [(0, 1), (2, 3), (0, 1)]:
        c.add("cz", (a, b))
    r = route_inter_array(c, np.array([0, 0, 1, 1]))
    assert intra_array_cz(r) == 0
    assert r.added_cx >= 3
    assert r.added_cx % 3 == 0
    assert equivalent_up_to_permutation(c, r.circuit, r.perm)


def test_zero_added_when_clean():
    c = Circuit(4)
    c.add("cz", (0, 2))
    c.add("cz", (1, 3))
    r = route_inter_array(c, np.array([0, 0, 1, 1]))
    assert r.added_cx == 0
    assert [g.kind for g in r.circuit.gates] == ["cz", "cz"]


def test_fuzz_equivalence_and_postcondition():
    rng = np.random.default_rng(12)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        c = Circuit(n)
        for _ in range(int(rng.integers(1, 12))):
            if rng.random() < 0.3:
                c.add("u", (int(rng.integers(n)),), tuple(rng.uniform(-3, 3, 3)))
            else:
                a, b = rng.choice(n, 2, replace=False)
                c.add("cz", (int(min(a, b)), int(max(a, b))))
        assignment = rng.integers(0, 2, n)
        if assignment.max() == assignment.min():
            assignment[0] = 1 - assignment[0]
        r = route_inter_array(c, assignment)
        assert intra_array_cz(r) == 0
        assert r.added_cx % 3 == 0
        assert equivalent_up_to_permutation(c, r.circuit, r.perm)


def test_perm_is_permutation():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = int(rng.integers(3, 8))
        c = Circuit(n)
        for _ in range(10):
            a, b = rng.choice(n, 2, replace=False)
            c.add("cz", (int(min(a, b)), int(max(a, b))))
        assignment = rng.integers(0, 3, n)
        if assignment.max() == assignment.min():
            assignment[0] = (assignment[0] + 1) % 3
        r = route_inter_array(c, assignment)
        assert sorted(r.perm) == list(range(n))


def test_single_array_unroutable():
    c = Circuit(2)
    c.add("cz", (0, 1))
    with pytest.raises(RuntimeError):
        route_inter_array(c, np.array([0, 0]))


def test_greedy_assignment_beats_worst_random():
    # added CX under the greedy partition <= worst of 5 random partitions
    cfg = ArchConfig(n_aod=2, slm_rows=4, slm_cols=4, aod_rows=(4, 4), aod_cols=(4, 4))
    specs = [WorkloadSpec("qaoa-rand", 10, s, p=0.4) for s in range(3)]
    specs += [WorkloadSpec("qsim-rand", 8, s, n_strings=6) for s in range(3)]
    for spec in specs:
        c = to_basis(spec.generate())
        w = gate_frequency_graph(c)
        greedy_added = route_inter_array(c, assign_arrays(w, cfg)).added_cx
        worst = max(
            route_inter_array(c, random_assignment(c.n_qubits, cfg, s)).added_cx
            for s in range(5)
        )
        assert greedy_added <= worst


@st.composite
def routing_inputs(draw):
    n = draw(st.integers(2, 10))
    qubit = st.integers(0, n - 1)
    c = Circuit(n)
    for _ in range(draw(st.integers(0, 80))):
        kind = draw(st.sampled_from(["cz", "cz", "cz", "u", "barrier"]))
        if kind == "cz":
            a = draw(qubit)
            b = draw(qubit.filter(lambda x: x != a))
            c.add("cz", (a, b))
        elif kind == "u":
            angle = st.floats(-3.0, 3.0, allow_nan=False)
            c.add("u", (draw(qubit),), (draw(angle), draw(angle), draw(angle)))
        else:
            c.add("barrier", tuple(sorted(draw(st.sets(qubit, min_size=1)))))
    n_arrays = draw(st.integers(2, 4))
    assignment = draw(st.lists(st.integers(0, n_arrays - 1), min_size=n, max_size=n))
    return c, np.array(assignment)


@settings(max_examples=300, deadline=None)
@given(routing_inputs())
def test_router_matches_the_reference(inputs):
    c, assignment = inputs
    try:
        want = swap_reference.route_inter_array(c, assignment)
    except RuntimeError as e:
        with pytest.raises(RuntimeError, match=str(e)):
            route_inter_array(c, assignment)
        return
    got = route_inter_array(c, assignment)
    assert got.circuit.gates == want.circuit.gates
    assert got.perm == want.perm
    assert got.added_cx == want.added_cx


def test_a_named_outside_qubit_costs_apart_from_its_array():
    # A = {0, 1}, B = {2, 3, 4}.  Window: cz(0, 1), then cz(3, 4).  Moving 3
    # or 4 out of B splits cz(3, 4) (cost 0); moving 2, which no window gate
    # names, leaves it co-array (cost DECAY).  Were 3 priced like 2, the
    # fewer remaining gates on 2 would win.
    c = Circuit(5)
    c.add("cz", (0, 1))
    c.add("cz", (3, 4))
    assignment = np.array([0, 0, 1, 1, 1])
    r = route_inter_array(c, assignment)
    assert r.circuit.gates[:9] == _lowered_swap(1, 3)
    assert r.added_cx == 3
    assert r.perm == [0, 3, 2, 1, 4]


@pytest.mark.parametrize("pos", [1, 5, LOOKAHEAD_WINDOW - 1, LOOKAHEAD_WINDOW,
                                 LOOKAHEAD_WINDOW + 1])
def test_the_window_ends_after_lookahead_window_blocked_gates(pos):
    # A = {0, 1, 2, 3}, B = {4, ..., 8}.  The window is cz(0, 1), pos - 1
    # copies of cz(2, 3), which cost every SWAP the same, then cz(7, 8) at
    # position pos.  Moving 7 out of B splits cz(7, 8), which outweighs the
    # one gate left on 7 only while cz(7, 8) is in the window.
    c = Circuit(9)
    c.add("cz", (0, 1))
    for _ in range(pos - 1):
        c.add("cz", (2, 3))
    c.add("cz", (7, 8))
    routed = route_inter_array(c, np.array([0, 0, 0, 0, 1, 1, 1, 1, 1]))
    r = 7 if pos < LOOKAHEAD_WINDOW else 4
    assert routed.circuit.gates[:9] == _lowered_swap(1, r)


@pytest.mark.parametrize("later, r", [
    ([(0, 2), (0, 3)], 4),          # 4 alone has no gates left
    ([], 2),                        # no r has gates left: the lowest r
    ([(0, 2), (0, 3), (0, 4)], 2),  # one gate left on each r: the lowest r
])
def test_tied_candidates_fall_to_future_then_r_then_the_later_endpoint(later, r):
    # A = {0, 1}, B = {2, 3, 4}; the window is cz(0, 1) alone, so every
    # SWAP(q, r) costs 0, and q = 1 (the later endpoint) wins over q = 0
    c = Circuit(5)
    c.add("cz", (0, 1))
    for a, b in later:
        c.add("cz", (a, b))
    routed = route_inter_array(c, np.array([0, 0, 1, 1, 1]))
    assert routed.circuit.gates[:9] == _lowered_swap(1, r)


def test_router_raises_when_a_swap_leaves_an_intra_array_cz(monkeypatch):
    # a broken lowering that swaps slots 0 and 1, both in array 0, instead of
    # the chosen pair; the postcondition must survive `python -O`
    monkeypatch.setattr(swap_router, "_lowered_swap", lambda s, t: _lowered_swap(0, 1))
    c = Circuit(3)
    c.add("cz", (0, 1))
    with pytest.raises(RuntimeError, match="routing left 3 intra-array CZ gate"):
        route_inter_array(c, np.array([0, 0, 1]))
