import math

import numpy as np
import pytest

from atomique.circuit import Circuit, to_basis
from atomique.oracle import (
    MAX_ORACLE_QUBITS,
    equivalent_up_to_permutation,
    permutation_matrix,
    simulate,
    states_close,
)


def _h(c, q):
    c.add("u", (q,), (math.pi / 2, 0.0, math.pi))


def _x(c, q):
    c.add("u", (q,), (math.pi, 0.0, math.pi))


def test_simulate_cz_diag():
    c = Circuit(2)
    c.add("cz", (0, 1))
    assert np.allclose(simulate(c), np.diag([1, 1, 1, -1]))


def test_simulate_h_involution():
    c = Circuit(1)
    _h(c, 0)
    _h(c, 0)
    assert np.allclose(simulate(c), np.eye(2), atol=1e-12)


def test_simulate_x_matrix():
    c = Circuit(1)
    _x(c, 0)
    u = simulate(c)
    k = np.unravel_index(np.argmax(np.abs(u)), (2, 2))
    target = np.array([[0, 1], [1, 0]], dtype=complex)
    assert np.allclose(u * (target[k] / u[k]), target, atol=1e-12)


def test_simulate_qubit0_is_msb():
    c = Circuit(2)
    _x(c, 0)
    u = simulate(c)
    # X on qubit 0 must flip the high-order bit: |00> -> |10> (index 2)
    assert abs(u[2, 0]) == pytest.approx(1.0)


def test_simulate_unitary_within_tolerance():
    rng = np.random.default_rng(5)
    c = Circuit(3)
    for _ in range(12):
        if rng.random() < 0.5:
            c.add("u", (int(rng.integers(3)),), tuple(rng.uniform(-3, 3, 3)))
        else:
            a, b = rng.choice(3, 2, replace=False)
            c.add("cz", (int(min(a, b)), int(max(a, b))))
    u = simulate(c)
    assert np.allclose(u.conj().T @ u, np.eye(8), atol=1e-9)


def test_simulate_qubit_limit():
    with pytest.raises(ValueError):
        simulate(Circuit(MAX_ORACLE_QUBITS + 1))


def test_permutation_matrix_identity():
    assert np.allclose(permutation_matrix([0, 1, 2], 3), np.eye(8))


def test_permutation_matrix_swap_action():
    p = permutation_matrix([1, 0], 2)
    # wire swap maps |01> <-> |10>
    v = np.zeros(4)
    v[1] = 1.0
    assert np.argmax(p @ v) == 2


def test_states_close_global_phase():
    u = np.eye(4, dtype=complex)
    assert states_close(u, np.exp(1j * 0.7) * u)
    assert not states_close(u, np.diag([1, 1, 1, -1]).astype(complex))


def test_equivalent_identity():
    c = Circuit(2)
    c.add("cz", (0, 1))
    assert equivalent_up_to_permutation(c, c)
    assert equivalent_up_to_permutation(c, c, [0, 1])


def test_equivalent_swap_expanded():
    # a = CZ(0,1); b routes via a physical swap then gates the moved pair
    a = Circuit(2)
    a.add("cz", (0, 1))
    b = Circuit(2)
    b.add("swap", (0, 1))
    b = to_basis(b)
    b.add("cz", (0, 1))
    assert equivalent_up_to_permutation(a, b, [1, 0])
    assert not equivalent_up_to_permutation(a, b, [0, 1])


def test_equivalent_rejects_different_circuits():
    a = Circuit(2)
    _x(a, 0)
    b = Circuit(2)
    _x(b, 1)
    assert not equivalent_up_to_permutation(a, b)


def test_equivalent_width_mismatch():
    assert not equivalent_up_to_permutation(Circuit(2), Circuit(3))


def test_flatten_matches_schedule_circuit():
    from atomique.arch import ArchConfig
    from atomique.pipeline import compile_circuit
    from atomique.stage_router import schedule_to_circuit
    from atomique.workloads import gen_bv

    cfg = ArchConfig(n_aod=2, slm_rows=4, slm_cols=4, aod_rows=(4, 4), aod_cols=(4, 4))
    res = compile_circuit(gen_bv(5, "1010"), cfg)
    flat = schedule_to_circuit(res.schedule)
    czs = [g for g in flat.gates if g.kind == "cz"]
    assert len(czs) == res.stats["n_2q"]
    assert equivalent_up_to_permutation(res.circuit, flat, res.schedule.perm)
