"""`to_basis` against the uncached lowering (`basis_reference`).

`to_basis` builds each distinct one-qubit matrix once and lowers each
distinct fused matrix once per call.  On random circuits full of repeats
(a small pool of angles, 0.0 beside -0.0, runs that fuse to the identity)
with cx, swap and barriers between them, its output must equal the
reference's by `repr`, which shows every angle's sign and digits.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from atomique.circuit import Circuit, parse_qasm, to_basis
from basis_reference import to_basis as reference_to_basis

N = 4
# a small pool, so angles repeat
ANGLES = [0.0, -0.0, math.pi, -math.pi, math.pi / 2, -math.pi / 2, math.pi / 4, 0.3, -0.3, 1e-13]
# named gates as the parser gives them, and pairs whose product is the identity
NAMED = {"h": (math.pi / 2, 0.0, math.pi), "x": (math.pi, 0.0, math.pi),
         "s": (0.0, 0.0, math.pi / 2), "sdg": (0.0, 0.0, -math.pi / 2)}
INVERSE_PAIRS = [("h", "h"), ("s", "sdg"), ("x", "x")]

qubit = st.integers(0, N - 1)
pair = st.lists(qubit, min_size=2, max_size=2, unique=True).map(tuple)
angle = st.sampled_from(ANGLES) | st.floats(-7.0, 7.0)


@st.composite
def pieces(draw):
    """One piece of a circuit: a list of (kind, qubits, params)."""
    kind = draw(st.sampled_from(["u", "named", "inverse", "rz", "cx", "cz", "swap",
                                 "barrier"]))
    if kind == "u":
        return [("u", (draw(qubit),), (draw(angle), draw(angle), draw(angle)))]
    if kind == "named":
        return [("u", (draw(qubit),), NAMED[draw(st.sampled_from(sorted(NAMED)))])]
    if kind == "inverse":
        q = draw(qubit)
        return [("u", (q,), NAMED[name]) for name in draw(st.sampled_from(INVERSE_PAIRS))]
    if kind == "rz":  # rz(a) rz(-a)
        q, a = draw(qubit), draw(angle)
        return [("u", (q,), (0.0, 0.0, a)), ("u", (q,), (0.0, 0.0, -a))]
    if kind == "barrier":
        return [("barrier", tuple(sorted(draw(st.sets(qubit, min_size=1)))), ())]
    return [(kind, draw(pair), ())]


@st.composite
def circuits(draw):
    c = Circuit(N)
    for piece in draw(st.lists(pieces(), max_size=40)):
        for kind, qubits, params in piece:
            c.add(kind, qubits, params)
    return c


@settings(max_examples=400, deadline=None)
@given(c=circuits())
def test_to_basis_matches_the_uncached_lowering(c):
    assert repr(to_basis(c)) == repr(reference_to_basis(c))


def test_the_sample_qasm_lowers_as_the_reference():
    text = ("OPENQASM 2.0;\nqreg q[3];\nh q;\ncx q[0],q[1];\nrz(0.5) q[2];\nrz(-0.5) q[2];\n"
            "swap q[1],q[2];\nbarrier q;\nh q;\nh q;\nu3(0,-0.0,pi) q[1];\ncz q[0],q[2];\n")
    c = parse_qasm(text)
    assert repr(to_basis(c)) == repr(reference_to_basis(c))
