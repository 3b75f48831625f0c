import math
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atomique.circuit import (
    Circuit,
    ParseError,
    build_dag,
    circuit_stats,
    cz_depth,
    euler_angles,
    gate_frequency_graph,
    parse_qasm,
    to_basis,
    to_qasm,
    u3_matrix,
)
from atomique.oracle import equivalent_up_to_permutation, simulate
from atomique.workloads import gen_bv, gen_qaoa_regular

HEADER = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n"


def test_parse_cz():
    c = parse_qasm(HEADER + "qreg q[2];\ncz q[0],q[1];\n")
    assert c.n_qubits == 2
    assert [g.kind for g in c.gates] == ["cz"]
    assert c.gates[0].qubits == (0, 1)


def test_parse_h_cx():
    c = parse_qasm(HEADER + "qreg q[3];\nh q[0];\ncx q[0],q[1];\n")
    assert c.n_qubits == 3
    assert [g.kind for g in c.gates] == ["u", "cx"]


def test_parse_unknown_gate():
    with pytest.raises(ParseError):
        parse_qasm(HEADER + "qreg q[1];\nfoo q[0];\n")


def test_parse_rejects_an_argument_naming_another_register():
    for arg in ("r[0]", "qq[0]", "r", "q0"):
        with pytest.raises(ParseError, match=f"^line 4: unknown argument {re.escape(repr(arg))}$"):
            parse_qasm(HEADER + f"qreg q[2];\nh {arg};\n")


def test_parse_index_out_of_bounds():
    with pytest.raises(ParseError):
        parse_qasm(HEADER + "qreg q[2];\ncz q[0],q[5];\n")


def test_parse_rejects_a_register_above_the_limit_at_its_line():
    text = HEADER + "\n\nqreg q[6];\n" + "h q;\n" * 3
    with pytest.raises(ParseError, match="^line 5: qreg of 6 qubits exceeds the limit of 5$"):
        parse_qasm(text, max_qubits=5)
    assert len(parse_qasm(text, max_qubits=6).gates) == 18
    assert parse_qasm(text).n_qubits == 6
    # a broadcast of a huge register is never expanded
    t0 = time.perf_counter()
    with pytest.raises(ParseError, match="^line 3: qreg of 100000000 qubits"):
        parse_qasm(HEADER + "qreg q[100000000];\n" + "h q;\n" * 10, max_qubits=300)
    assert time.perf_counter() - t0 < 0.5


def test_parse_measure_ignored_with_warning():
    text = HEADER + "qreg q[1];\ncreg c[1];\nmeasure q[0] -> c[0];\n"
    with pytest.warns(UserWarning):
        c = parse_qasm(text)
    assert len(c.gates) == 0


def test_parse_parameter_arithmetic():
    cases = {"pi/2": math.pi / 2, "-pi/4": -math.pi / 4,
             "2*pi/3": 2 * math.pi / 3, "1e-3": 1e-3, "+3*0.5-1": 0.5,
             "(1+2)*0.5": 1.5, "-(pi/(2+2))": -math.pi / 4}
    for expr, want in cases.items():
        c = parse_qasm(HEADER + f"qreg q[1];\nrz({expr}) q[0];\n")
        assert c.gates[0].params[2] == want, expr


def test_parse_rejects_power_at_once():
    for expr in ("9**9**9", "2**10", "x", "pi()", "1j", "-" * 100 + "1"):
        t0 = time.perf_counter()
        with pytest.raises(ParseError):
            parse_qasm(HEADER + f"qreg q[1];\nrz({expr}) q[0];\n")
        assert time.perf_counter() - t0 < 1.0, expr
    # many ')' and no arguments on the last line: matching the parameter
    # list must not backtrack quadratically
    t0 = time.perf_counter()
    with pytest.raises(ParseError):
        parse_qasm(HEADER + "qreg q[1];\nrz(" + ") y " * 20000 + "\nq\nq;\n")
    assert time.perf_counter() - t0 < 1.0


def test_parse_error_line_number_in_long_file():
    n_lines = 20000
    body = "".join(f"cz q[{i % 3}],q[{i % 3 + 1}];\n" for i in range(n_lines))
    text = "OPENQASM 2.0;\nqreg q[4];\n" + body + "\n// comment\nfoo q[0];\n"
    bad_line = 2 + n_lines + 3
    with pytest.raises(ParseError, match=f"^line {bad_line}: unsupported gate"):
        parse_qasm(text)


def test_parse_pi_expressions():
    c = parse_qasm(HEADER + "qreg q[1];\nrz(pi/2) q[0];\nu3(pi,0,pi) q[0];\n")
    assert len(c.gates) == 2
    assert c.gates[0].params[2] == pytest.approx(math.pi / 2)


def test_u3_euler_roundtrip():
    rng = np.random.default_rng(3)
    for _ in range(50):
        angles = rng.uniform(-2 * math.pi, 2 * math.pi, 3)
        m = u3_matrix(*angles)
        back = u3_matrix(*euler_angles(m))
        # equal up to global phase
        k = np.unravel_index(np.argmax(np.abs(m)), (2, 2))
        assert np.allclose(back * (m[k] / back[k]), m, atol=1e-9)


def test_to_basis_cx_rule():
    c = Circuit(2)
    c.add("cx", (0, 1))
    b = to_basis(c)
    assert [g.kind for g in b.gates] == ["u", "cz", "u"]
    assert b.gates[0].qubits == (1,) and b.gates[2].qubits == (1,)


def test_to_basis_cz_untouched():
    c = Circuit(2)
    c.add("cz", (0, 1))
    b = to_basis(c)
    assert [g.kind for g in b.gates] == ["cz"]


def asap_layers(c):
    """0-based ASAP layer of each gate of c over its dependency DAG."""
    layer = []
    for preds in build_dag(c).preds:
        layer.append(max((layer[p] + 1 for p in preds), default=0))
    return layer


def test_to_basis_swap_fuses():
    # 3 CX expand to 3 CZ + 6 H; fusion packs the H's into 4 layers.  (No
    # 3-CZ circuit with fewer than 6 one-qubit gates equals SWAP at all, so
    # the gate count itself is already minimal.)
    c = Circuit(2)
    c.add("swap", (0, 1))
    b = to_basis(c)
    czs = [i for i, g in enumerate(b.gates) if g.kind == "cz"]
    ones = [i for i, g in enumerate(b.gates) if g.kind == "u"]
    assert len(czs) == 3
    assert len(ones) == 6
    layer = asap_layers(b)
    assert len({layer[i] for i in ones}) <= 4
    assert equivalent_up_to_permutation(c, b)


def test_to_basis_adjacent_fusion_drops_identity():
    c = Circuit(1)
    for _ in range(2):
        c.add("u", (0,), (math.pi / 2, 0.0, math.pi))  # h twice = identity
    b = to_basis(c)
    assert len(b.gates) == 0


def test_to_basis_unitary_preserved_fuzz():
    rng = np.random.default_rng(7)
    for _ in range(30):
        n = int(rng.integers(2, 5))
        c = Circuit(n)
        for _ in range(int(rng.integers(1, 12))):
            r = rng.random()
            if r < 0.4:
                c.add("u", (int(rng.integers(n)),), tuple(rng.uniform(-3, 3, 3)))
            elif r < 0.7:
                a, b = rng.choice(n, 2, replace=False)
                c.add("cx", (int(a), int(b)))
            else:
                a, b = rng.choice(n, 2, replace=False)
                c.add("cz", (int(min(a, b)), int(max(a, b))))
        assert equivalent_up_to_permutation(c, to_basis(c))


def test_swap_expansion_is_swap():
    swap_gate = Circuit(2)
    swap_gate.add("swap", (0, 1))
    c = to_basis(swap_gate)
    assert {g.kind for g in c.gates} <= {"u", "cz"}
    u = simulate(c)
    swap = np.eye(4)[[0, 2, 1, 3]]
    k = np.unravel_index(np.argmax(np.abs(swap)), (4, 4))
    assert np.allclose(u * (swap[k] / u[k]), swap, atol=1e-9)


def test_dag_chain_layers():
    c = Circuit(3)
    c.add("cz", (0, 1))
    c.add("cz", (1, 2))
    dag = build_dag(c)
    assert dag.preds == [[], [0]]
    assert dag.succs == [[1], []]


def test_dag_disjoint_layers():
    c = Circuit(4)
    c.add("cz", (0, 1))
    c.add("cz", (2, 3))
    dag = build_dag(c)
    assert dag.preds == [[], []]
    assert dag.succs == [[], []]


def test_dag_1q_dependency():
    c = Circuit(2)
    c.add("u", (0,), (1.0, 0.0, 0.0))
    c.add("cz", (0, 1))
    dag = build_dag(c)
    assert dag.preds == [[], [0]]
    assert dag.succs == [[1], []]


def test_barrier_fences_all_qubits():
    c = Circuit(2)
    c.add("cz", (0, 1))
    c.add("barrier", (0, 1))
    c.add("cz", (0, 1))
    dag = build_dag(c)
    assert dag.preds[2] == [1]
    assert dag.preds[1] == [0]


def test_frequency_graph_decay():
    c = Circuit(3)
    c.add("cz", (0, 1))
    c.add("cz", (1, 2))
    e = gate_frequency_graph(c, gamma=0.9)
    assert e[0, 1] == pytest.approx(1.0)
    assert e[1, 2] == pytest.approx(0.9)
    assert np.allclose(e, e.T)
    assert np.all(np.diag(e) == 0)


def test_frequency_graph_gamma_one_counts():
    c = Circuit(2)
    c.add("cz", (0, 1))
    c.add("cz", (0, 1))
    e = gate_frequency_graph(c, gamma=1.0)
    assert e[0, 1] == pytest.approx(2.0)


def test_frequency_graph_empty():
    assert np.all(gate_frequency_graph(Circuit(3)) == 0)


def test_frequency_graph_gamma_range():
    c = Circuit(2)
    with pytest.raises(ValueError):
        gate_frequency_graph(c, gamma=0.0)
    with pytest.raises(ValueError):
        gate_frequency_graph(c, gamma=1.5)


def test_frequency_graph_total_weight_gamma1():
    c = to_basis(gen_qaoa_regular(10, 4, 0))
    e = gate_frequency_graph(c, gamma=1.0)
    assert e.sum() / 2 == pytest.approx(circuit_stats(c).n_2q)


def test_stats_single_cz():
    c = Circuit(2)
    c.add("cz", (0, 1))
    st = circuit_stats(c)
    assert st.n_2q == 1


def test_stats_bv14():
    c = gen_bv(14, "1" * 13)
    st = circuit_stats(c)
    assert st.n_2q == 13


def test_stats_qaoa_regu4_10():
    c = gen_qaoa_regular(10, 4, 5)
    # 20 ZZ terms -> 40 cx before decomposition
    assert sum(g.kind == "cx" for g in c.gates) == 40
    assert circuit_stats(to_basis(c)).n_2q == 40


def test_qasm_roundtrip():
    c = to_basis(gen_qaoa_regular(6, 3, 2))
    c2 = parse_qasm(to_qasm(c))
    assert to_qasm(c2) == to_qasm(c)
    assert equivalent_up_to_permutation(c, c2)


def test_cz_depth_counts_dependent_two_qubit_gates_and_fences_at_barriers():
    c = Circuit(4)
    c.add("cz", (0, 1))
    c.add("u", (1,), (0.1, 0.2, 0.3))
    c.add("cz", (2, 3))
    c.add("cx", (1, 2))  # after both
    assert cz_depth(c) == 2
    c.add("barrier", (0,))  # fences all qubits, not only qubit 0
    c.add("cz", (3, 0))
    assert cz_depth(c) == 3
    assert cz_depth(Circuit(3)) == 0


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_cz_depth_is_the_longest_two_qubit_path_of_the_dag(data):
    # the whole-DAG longest path, counting two-qubit nodes, is the reference
    n = data.draw(st.integers(2, 6))
    qubits = st.integers(0, n - 1)
    c = Circuit(n)
    for kind in data.draw(st.lists(st.sampled_from(["u", "cz", "swap", "barrier"]),
                                   max_size=30)):
        if kind == "u":
            c.add("u", (data.draw(qubits),), (0.0, 0.0, 0.0))
        elif kind == "barrier":
            c.add("barrier", tuple(data.draw(st.sets(qubits, min_size=1))))
        else:
            a = data.draw(qubits)
            c.add(kind, (a, data.draw(qubits.filter(lambda b: b != a))))
    dag = build_dag(c)
    longest = []
    for i, g in enumerate(c.gates):
        two = g.kind in ("cz", "swap")
        longest.append(two + max((longest[p] for p in dag.preds[i]), default=0))
    assert cz_depth(c) == max(longest, default=0)
