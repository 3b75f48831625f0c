"""Dense unitary reference simulator and equivalence checks.

Wire convention: qubit 0 is the most significant bit of the basis index.
Everything here is exponential in qubit count and guarded to n <= 10; it
exists to verify the compiler, not to be fast.
"""

from __future__ import annotations

import numpy as np

from .circuit import Circuit, u3_matrix

MAX_ORACLE_QUBITS = 10


def simulate(c: Circuit) -> np.ndarray:
    """Full 2^n x 2^n unitary of a basis (or macro) circuit."""
    n = c.n_qubits
    if n > MAX_ORACLE_QUBITS:
        raise ValueError(f"dense simulation limited to {MAX_ORACLE_QUBITS} qubits, got {n}")
    dim = 1 << n
    u = np.eye(dim, dtype=np.complex128)
    idx = np.arange(dim)
    for g in c.gates:
        if g.kind == "u":
            u = _apply_1q(u, u3_matrix(*g.params), g.qubits[0], n)
        elif g.kind == "cz":
            a, b = g.qubits
            mask = ((idx >> (n - 1 - a)) & 1) & ((idx >> (n - 1 - b)) & 1)
            u[mask == 1, :] *= -1.0
        elif g.kind == "cx":
            ctl, tgt = g.qubits
            on = ((idx >> (n - 1 - ctl)) & 1) == 1
            flipped = idx ^ (1 << (n - 1 - tgt))
            rows = np.where(on, flipped, idx)
            u = u[_inverse_perm(rows), :]
        elif g.kind == "swap":
            a, b = g.qubits
            ba = (idx >> (n - 1 - a)) & 1
            bb = (idx >> (n - 1 - b)) & 1
            swapped = idx ^ ((ba ^ bb) << (n - 1 - a)) ^ ((ba ^ bb) << (n - 1 - b))
            u = u[_inverse_perm(swapped), :]
        elif g.kind == "barrier":
            continue
        else:
            raise ValueError(f"cannot simulate gate kind {g.kind!r}")
    return u


def _inverse_perm(p: np.ndarray) -> np.ndarray:
    inv = np.empty_like(p)
    inv[p] = np.arange(p.shape[0])
    return inv


def _apply_1q(u: np.ndarray, m: np.ndarray, q: int, n: int) -> np.ndarray:
    dim = u.shape[0]
    t = u.reshape((2,) * n + (dim,))
    t = np.moveaxis(t, q, 0)
    t = np.tensordot(m, t, axes=(1, 0))
    t = np.moveaxis(t, 0, q)
    return t.reshape(dim, dim)


def permutation_matrix(perm: list[int] | np.ndarray, n: int) -> np.ndarray:
    """Wire-permutation unitary P with P|y> = |z>, z_q = y_{perm[q]}.

    ``perm[q]`` is the wire of the second circuit carrying logical qubit q.
    """
    dim = 1 << n
    p = np.zeros((dim, dim), dtype=np.complex128)
    for y in range(dim):
        z = 0
        for q in range(n):
            bit = (y >> (n - 1 - perm[q])) & 1
            z |= bit << (n - 1 - q)
        p[z, y] = 1.0
    return p


def states_close(u_a: np.ndarray, u_b: np.ndarray, tol: float = 1e-8) -> bool:
    """True when u_a ~ u_b up to a global phase (max-entry tolerance)."""
    flat = np.abs(u_a).ravel()
    k = int(np.argmax(flat))
    ref = u_a.ravel()[k]
    other = u_b.ravel()[k]
    if abs(ref) < tol or abs(other) < tol:
        return bool(np.max(np.abs(u_a - u_b)) <= tol)
    phase = other / ref
    if abs(abs(phase) - 1.0) > tol:
        return False
    return bool(np.max(np.abs(u_a * phase - u_b)) <= tol)


def equivalent_up_to_permutation(
    a: Circuit, b: Circuit, perm: list[int] | None = None, tol: float = 1e-8
) -> bool:
    """True when P(perm) . U(b) equals U(a) up to global phase.

    ``perm`` maps each logical qubit of ``a`` to the wire of ``b`` holding it
    at the end (identity when omitted).
    """
    if a.n_qubits != b.n_qubits:
        return False
    u_a = simulate(a)
    u_b = simulate(b)
    if perm is not None:
        u_b = permutation_matrix(perm, a.n_qubits) @ u_b
    return states_close(u_a, u_b, tol)
