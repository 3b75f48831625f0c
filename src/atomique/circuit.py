"""Circuit IR: QASM parsing, basis lowering, dependency DAG, statistics.

Gates are immutable records.  After :func:`to_basis` a circuit contains only
three kinds: ``"u"`` (one-qubit gate as ZYZ Euler angles), ``"cz"``, and
``"barrier"`` (kept as a full dependency fence).  The parser additionally
produces the macro kinds ``"cx"`` and ``"swap"`` which :func:`to_basis`
expands.
"""

from __future__ import annotations

import ast
import math
import operator
import re
import warnings
from dataclasses import dataclass, field

import numpy as np


class ParseError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class Gate:
    kind: str
    qubits: tuple[int, ...]
    params: tuple[float, ...] = ()


@dataclass
class Circuit:
    n_qubits: int
    gates: list[Gate] = field(default_factory=list)

    def add(self, kind: str, qubits: tuple[int, ...], params: tuple[float, ...] = ()) -> None:
        self.gates.append(Gate(kind, qubits, params))


def u3_matrix(theta: float, phi: float, lam: float) -> np.ndarray:
    """2x2 unitary for the Euler-angle gate U(theta, phi, lam)."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array(
        [
            [c, -np.exp(1j * lam) * s],
            [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c],
        ],
        dtype=np.complex128,
    )


def euler_angles(m: np.ndarray) -> tuple[float, float, float]:
    """ZYZ Euler angles (theta, phi, lam) of a 2x2 unitary, up to global phase."""
    a, b = abs(m[0, 0]), abs(m[1, 0])
    theta = 2.0 * math.atan2(b, a)
    # rotate the global phase away so that m[0,0] is real non-negative; any
    # unitary in that form is exactly u3(theta, phi, lam)
    g = np.angle(m[0, 0]) if a > 1e-9 else np.angle(m[1, 0])
    mm = m * np.exp(-1j * g)
    if b < 1e-9:
        return theta, 0.0, float(np.angle(mm[1, 1]))
    return theta, float(np.angle(mm[1, 0])), float(np.angle(-mm[0, 1]))


# one-qubit gate names -> fixed Euler angles
_FIXED_1Q = {
    "id": (0.0, 0.0, 0.0),
    "h": (math.pi / 2, 0.0, math.pi),
    "x": (math.pi, 0.0, math.pi),
    "y": (math.pi, math.pi / 2, math.pi / 2),
    "z": (0.0, 0.0, math.pi),
    "s": (0.0, 0.0, math.pi / 2),
    "sdg": (0.0, 0.0, -math.pi / 2),
    "t": (0.0, 0.0, math.pi / 4),
    "tdg": (0.0, 0.0, -math.pi / 4),
}

_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub,
           ast.Mult: operator.mul, ast.Div: operator.truediv}
_UNOPS = {ast.UAdd: operator.pos, ast.USub: operator.neg}
_MAX_PARAM_DEPTH = 32


def _eval_node(node: ast.AST, depth: int) -> float:
    """Arithmetic over number literals and ``pi`` with + - * / and unary
    signs; anything else (``**`` included) is rejected."""
    if depth > _MAX_PARAM_DEPTH:
        raise ValueError("expression nested too deeply")
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return node.value
    if isinstance(node, ast.Name) and node.id == "pi":
        return math.pi
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        return _BINOPS[type(node.op)](_eval_node(node.left, depth + 1),
                                      _eval_node(node.right, depth + 1))
    if isinstance(node, ast.UnaryOp) and type(node.op) in _UNOPS:
        return _UNOPS[type(node.op)](_eval_node(node.operand, depth + 1))
    raise ValueError(f"unsupported expression {type(node).__name__}")


def _eval_param(expr: str, line: int) -> float:
    expr = expr.strip()
    try:
        return float(_eval_node(ast.parse(expr, mode="eval").body, 0))
    except (SyntaxError, ValueError, ArithmeticError, RecursionError) as exc:
        raise ParseError(f"line {line}: cannot evaluate parameter {expr!r}") from exc


def _angles_for(name: str, params: list[float], line: int) -> tuple[float, float, float]:
    if name in _FIXED_1Q:
        if params:
            raise ParseError(f"line {line}: gate '{name}' takes no parameters")
        return _FIXED_1Q[name]
    want = {"u3": 3, "u2": 2, "u1": 1, "rx": 1, "ry": 1, "rz": 1, "p": 1, "u": 3}
    if name not in want:
        raise ParseError(f"line {line}: unsupported gate '{name}'")
    if len(params) != want[name]:
        raise ParseError(f"line {line}: gate '{name}' expects {want[name]} parameter(s)")
    if name in ("u3", "u"):
        return params[0], params[1], params[2]
    if name == "u2":
        return math.pi / 2, params[0], params[1]
    if name in ("u1", "p", "rz"):
        # rz differs from u1 only by a global phase
        return 0.0, 0.0, params[0]
    if name == "rx":
        return params[0], -math.pi / 2, math.pi / 2
    return params[0], 0.0, 0.0  # ry


def parse_qasm(text: str) -> Circuit:
    """Parse a restricted OPENQASM 2.0 program (single quantum register).

    Supported statements: qreg, creg (ignored), include (ignored), barrier,
    measure (ignored with a warning), the one-qubit gates
    u3/u2/u1/u/p/rx/ry/rz/h/x/y/z/s/sdg/t/tdg/id, and cx/cz/swap.
    """
    # strip comments but keep newlines for line numbering
    clean = re.sub(r"//[^\n]*", "", text)
    circuit: Circuit | None = None
    qreg_name = None
    warned_measure = False

    pos = 0
    line, counted = 1, 0  # `line` is the line number of offset `counted`
    for match in re.finditer(r"\s*([^;{}]+);", clean):
        stmt = match.group(1).strip()
        # count newlines only since the last statement: linear in the file
        line += clean.count("\n", counted, match.start(1))
        counted = match.start(1)
        pos = match.end()
        if not stmt:
            continue
        if stmt.startswith("OPENQASM"):
            if "2" not in stmt:
                raise ParseError(f"line {line}: unsupported OPENQASM version")
            continue
        if stmt.startswith("include"):
            continue
        if stmt.startswith("creg"):
            continue
        if stmt.startswith("qreg"):
            m = re.match(r"qreg\s+([A-Za-z_]\w*)\s*\[\s*(\d+)\s*\]$", stmt)
            if not m:
                raise ParseError(f"line {line}: malformed qreg")
            if circuit is not None:
                raise ParseError(f"line {line}: only one qreg is supported")
            qreg_name = m.group(1)
            circuit = Circuit(int(m.group(2)))
            continue
        if stmt.startswith("measure"):
            if not warned_measure:
                warnings.warn("measure statements are ignored", stacklevel=2)
                warned_measure = True
            continue
        if stmt.startswith("if"):
            raise ParseError(f"line {line}: classical control is not supported")

        # parameters run to the last ')' before the arguments; with re.S the
        # first ')' tried from the end matches, so matching stays linear
        m = re.match(r"([A-Za-z_]\w*)\s*(?:\((.*)\))?\s+(.+)$", stmt, re.S)
        if not m:
            raise ParseError(f"line {line}: cannot parse statement {stmt!r}")
        name, paramstr, argstr = m.group(1), m.group(2), m.group(3)
        if circuit is None:
            raise ParseError(f"line {line}: gate before qreg declaration")
        params = [_eval_param(p, line) for p in paramstr.split(",")] if paramstr else []
        qubits = _parse_args(argstr, qreg_name, circuit.n_qubits, line)

        if name == "barrier":
            circuit.add("barrier", tuple(qubits))
        elif name in ("cx", "CX", "cz", "swap"):
            if len(qubits) != 2:
                raise ParseError(f"line {line}: '{name}' expects two qubit arguments")
            if qubits[0] == qubits[1]:
                raise ParseError(f"line {line}: duplicate qubit in '{name}'")
            circuit.add(name.lower(), (qubits[0], qubits[1]))
        else:
            angles = _angles_for(name, params, line)
            for q in qubits:
                circuit.add("u", (q,), angles)
    if circuit is None:
        raise ParseError("no qreg declaration found")
    trailing = re.sub(r"\s+", "", clean[pos:])
    if trailing:
        raise ParseError("trailing input without terminating ';'")
    return circuit


def _parse_args(argstr: str, qreg_name: str | None, n: int, line: int) -> list[int]:
    qubits: list[int] = []
    for arg in argstr.split(","):
        arg = arg.strip()
        m = re.match(rf"^{qreg_name}\s*\[\s*(\d+)\s*\]$", arg)
        if m:
            idx = int(m.group(1))
            if idx >= n:
                raise ParseError(f"line {line}: qubit index {idx} out of range (qreg size {n})")
            qubits.append(idx)
        elif arg == qreg_name:
            qubits.extend(range(n))  # register broadcast
        else:
            raise ParseError(f"line {line}: unknown argument {arg!r}")
    return qubits


# ---------------------------------------------------------------------------
# basis lowering
# ---------------------------------------------------------------------------

_ID2 = np.eye(2, dtype=np.complex128)
_H = u3_matrix(*_FIXED_1Q["h"])


def _is_identity(m: np.ndarray) -> bool:
    return (
        abs(m[0, 1]) < 1e-12
        and abs(m[1, 0]) < 1e-12
        and abs(m[0, 0] - m[1, 1]) < 1e-12
    )


def to_basis(c: Circuit) -> Circuit:
    """Lower to the {u, cz} basis, fusing adjacent one-qubit gates.

    cx(a,b) becomes H(b) cz(a,b) H(b); swap(a,b) becomes three cx.  Adjacent
    one-qubit gates on the same qubit are folded into a single Euler-angle
    gate; fusions that reach the identity are dropped.  Barriers flush all
    pending one-qubit matrices and are kept as fences.
    """
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


# ---------------------------------------------------------------------------
# dependency DAG
# ---------------------------------------------------------------------------


@dataclass
class CircuitDag:
    """Gate dependency DAG; node ids are gate indices into ``circuit.gates``.

    Edges follow per-qubit last-writer chains; barriers fence all qubits.
    ``layer`` holds 0-based ASAP layers.
    """

    circuit: Circuit
    preds: list[list[int]]
    succs: list[list[int]]
    layer: list[int]

    @property
    def n_nodes(self) -> int:
        return len(self.preds)


def build_dag(c: Circuit) -> CircuitDag:
    n_nodes = len(c.gates)
    preds: list[list[int]] = [[] for _ in range(n_nodes)]
    succs: list[list[int]] = [[] for _ in range(n_nodes)]
    layer = [0] * n_nodes
    last: list[int | None] = [None] * c.n_qubits

    for i, g in enumerate(c.gates):
        touched = range(c.n_qubits) if g.kind == "barrier" else g.qubits
        seen: set[int] = set()
        lvl = 0
        for q in touched:
            p = last[q]
            if p is not None and p not in seen:
                seen.add(p)
                preds[i].append(p)
                succs[p].append(i)
                lvl = max(lvl, layer[p] + 1)
        layer[i] = lvl
        for q in touched:
            last[q] = i
    return CircuitDag(c, preds, succs, layer)


def gate_frequency_graph(c: Circuit, gamma: float = 0.9) -> np.ndarray:
    """Symmetric qubit-interaction weights: E[a][b] += gamma**l per cz.

    l is the gate's 0-based ASAP layer counting only two-qubit gates
    (one-qubit gates do not constrain routing and are ignored).
    """
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must be in (0, 1]")
    e = np.zeros((c.n_qubits, c.n_qubits))
    next_layer = [0] * c.n_qubits
    for g in c.gates:
        if g.kind != "cz":
            continue
        a, b = g.qubits
        l = max(next_layer[a], next_layer[b])
        w = gamma**l
        e[a, b] += w
        e[b, a] += w
        next_layer[a] = next_layer[b] = l + 1
    return e


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CircuitStats:
    n_qubits: int
    n_1q: int
    n_2q: int


def circuit_stats(c: Circuit) -> CircuitStats:
    return CircuitStats(
        n_qubits=c.n_qubits,
        n_1q=sum(1 for g in c.gates if g.kind == "u"),
        n_2q=sum(1 for g in c.gates if g.kind in ("cz", "cx", "swap")),
    )


def to_qasm(c: Circuit) -> str:
    """Emit OPENQASM 2.0 accepted by :func:`parse_qasm`."""
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{c.n_qubits}];"]
    for g in c.gates:
        args = ",".join(f"q[{q}]" for q in g.qubits)
        if g.kind == "u":
            t, p, l = g.params
            lines.append(f"u3({t!r},{p!r},{l!r}) {args};")
        elif g.kind in ("cz", "cx", "swap"):
            lines.append(f"{g.kind} {args};")
        elif g.kind == "barrier":
            lines.append(f"barrier {args};")
        else:
            raise ValueError(f"cannot emit gate kind {g.kind!r}")
    return "\n".join(lines) + "\n"
