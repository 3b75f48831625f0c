"""Reference for `atomique.circuit.to_basis`: the lowering as it was before
it cached matrices.

Every one-qubit gate builds its own `u3_matrix`, and every fused matrix is
tested for the identity and turned into Euler angles anew.  The package's
`to_basis` must give the same circuit, equal by `repr`, on any input.
"""

import math

import numpy as np

from atomique.circuit import Circuit, euler_angles, u3_matrix

_ID2 = np.eye(2, dtype=np.complex128)
_H = u3_matrix(math.pi / 2, 0.0, math.pi)


def _is_identity(m: np.ndarray) -> bool:
    return (
        abs(m[0, 1]) < 1e-12
        and abs(m[1, 0]) < 1e-12
        and abs(m[0, 0] - m[1, 1]) < 1e-12
    )


def to_basis(c: Circuit) -> Circuit:
    out = Circuit(c.n_qubits)
    pending: dict[int, np.ndarray] = {}

    def absorb(q: int, m: np.ndarray) -> None:
        pending[q] = m @ pending.get(q, _ID2)

    def flush(qs) -> None:
        for q in sorted(qs):
            m = pending.pop(q, None)
            if m is not None and not _is_identity(m):
                out.add("u", (q,), euler_angles(m))

    def emit_cx(ctl: int, tgt: int) -> None:
        absorb(tgt, _H)
        flush((ctl, tgt))
        out.add("cz", (min(ctl, tgt), max(ctl, tgt)))
        absorb(tgt, _H)

    for g in c.gates:
        if g.kind == "u":
            absorb(g.qubits[0], u3_matrix(*g.params))
        elif g.kind == "cz":
            flush(g.qubits)
            a, b = g.qubits
            out.add("cz", (min(a, b), max(a, b)))
        elif g.kind == "cx":
            emit_cx(*g.qubits)
        elif g.kind == "swap":
            a, b = g.qubits
            emit_cx(a, b)
            emit_cx(b, a)
            emit_cx(a, b)
        elif g.kind == "barrier":
            flush(list(pending.keys()))
            out.add("barrier", g.qubits)
        else:
            raise ValueError(f"unknown gate kind {g.kind!r}")
    flush(list(pending.keys()))
    return out
