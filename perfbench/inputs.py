"""Seeded inputs for the benchmark: QASM circuits, config JSON, workloads.

Everything here is written apart from ``atomique.workloads``: a change to
the program cannot change what it is measured on.  A circuit is a list of
gates ``(name, qubits, params)`` over the names h, s, sdg, rx, rz, cx and
cz; the same list is written as QASM for the program and simulated by
``checks.py`` for the small-circuit equivalence check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Hardware constants handed to the program through the config file, so the
# scoring check recomputes with values the benchmark chose, not the
# program's defaults.  They are the paper's Table 1 values.
HARDWARE = {
    "f_1Q": 0.9992, "f_2Q": 0.9975, "t_1Q": 625e-9, "t_2Q": 380e-9,
    "T1": 1.5, "P_loss_transfer": 0.0068, "T_transfer": 15e-6,
    "x_zpf": 38e-9, "omega0": 2 * math.pi * 80e3, "lambda": 0.109,
    "n_vib_max": 33.0, "n_cool_threshold": 15.0,
}


def config(side: int) -> dict:
    """One SLM and two AOD arrays of side x side sites, paper geometry."""
    return {"n_aod": 2, "slm_rows": side, "slm_cols": side,
            "aod_rows": [side, side], "aod_cols": [side, side],
            "D_site": 15.0, "r_b": 2.5, "delta": 0.5, "T_per_move": 300e-6,
            **HARDWARE}


# ---------------------------------------------------------------------------
# circuit families
# ---------------------------------------------------------------------------


def _angle(rng) -> float:
    return float(rng.uniform(0.0, 2 * math.pi))


def _zz(gates: list, a: int, b: int, theta: float) -> None:
    gates += [("cx", (a, b), ()), ("rz", (b,), (theta,)), ("cx", (a, b), ())]


def _qaoa(n: int, edges, rng) -> list:
    gates = [("h", (q,), ()) for q in range(n)]
    gamma, beta = _angle(rng), _angle(rng)
    for a, b in edges:
        _zz(gates, a, b, gamma)
    gates += [("rx", (q,), (beta,)) for q in range(n)]
    return gates


def qaoa_regular(n: int, d: int, rng) -> list:
    """One QAOA layer on a random simple d-regular graph (pairing model,
    rejecting draws with loops or repeated edges), edges in random order."""
    stubs = np.repeat(np.arange(n), d)
    while True:
        rng.shuffle(stubs)
        pairs = np.sort(stubs.reshape(-1, 2), axis=1)
        if (pairs[:, 0] != pairs[:, 1]).all() and len(np.unique(pairs, axis=0)) == len(pairs):
            return _qaoa(n, pairs.tolist(), rng)


def qaoa_gnp(n: int, p: float, rng) -> list:
    """One QAOA layer on an Erdos-Renyi graph G(n, p), edges in random
    order (in lexicographic order the two-qubit depth of one compile swung
    by a factor of 2 from seed to seed)."""
    edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p]
    return _qaoa(n, [edges[i] for i in rng.permutation(len(edges))], rng)


def pauli_strings(n: int, n_strings: int, weight: int, rng) -> list:
    """Trotter steps of random Pauli strings, each X/Y/Z on `weight` random
    qubits: basis change, CX ladder onto the last active qubit, RZ, then
    the ladder and basis change undone."""
    into = {"X": [("h", ())], "Y": [("sdg", ()), ("h", ())], "Z": []}
    undo = {"X": [("h", ())], "Y": [("h", ()), ("s", ())], "Z": []}
    gates: list = []
    for _ in range(n_strings):
        active = sorted(int(q) for q in rng.choice(n, size=weight, replace=False))
        letters = {q: "XYZ"[rng.integers(3)] for q in active}
        for q in active:
            gates += [(g, (q,), p) for g, p in into[letters[q]]]
        last = active[-1]
        gates += [("cx", (q, last), ()) for q in active[:-1]]
        gates.append(("rz", (last,), (_angle(rng),)))
        gates += [("cx", (q, last), ()) for q in reversed(active[:-1])]
        for q in active:
            gates += [(g, (q,), p) for g, p in undo[letters[q]]]
    return gates


def random_pairs(n: int, gates_per_qubit: int, rng) -> list:
    """CZs on uniform random distinct pairs, each followed by an RX on one
    end, between a Hadamard layer and an RZ layer."""
    gates = [("h", (q,), ()) for q in range(n)]
    for _ in range(n * gates_per_qubit // 2):
        a, b = (int(x) for x in rng.choice(n, size=2, replace=False))
        gates.append(("cz", (a, b), ()))
        gates.append(("rx", ((a, b)[int(rng.integers(2))],), (_angle(rng),)))
    gates += [("rz", (q,), (_angle(rng),)) for q in range(n)]
    return gates


def to_qasm(n: int, gates: list) -> str:
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{n}];"]
    for name, qubits, params in gates:
        head = f"{name}({','.join(repr(p) for p in params)})" if params else name
        lines.append(f"{head} {','.join(f'q[{q}]' for q in qubits)};")
    return "\n".join(lines) + "\n"


def n_two_qubit(gates: list) -> int:
    return sum(1 for name, _, _ in gates if name in ("cx", "cz"))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@dataclass
class Circuit:
    name: str
    n: int
    gates: list


@dataclass
class Job:
    """One `atomique compile` (then `atomique audit`) of a circuit."""
    name: str
    circuit: str
    flags: list = field(default_factory=list)


@dataclass
class Workload:
    name: str
    side: int                 # array side length of the config
    circuits: list            # [Circuit]
    jobs: list                # [Job]
    sweep_spec: list          # `atomique sweep` workload arguments, sans --seed
    sweep_points: int

    def sweep_values(self) -> list[float]:
        """T_per_move points from 100 us to 500 us."""
        k = self.sweep_points
        return [100e-6 + 400e-6 * i / (k - 1) for i in range(k)]


ABLATIONS = {"default": [], "random-mapper": ["--mapper", "random"],
             "serial": ["--serial-router"], "relax-C1": ["--relax", "C1"],
             "relax-C3": ["--relax", "C3"]}


def make_workload(name: str, seed: int) -> Workload:
    """The named workload's inputs, a pure function of (name, seed)."""

    def rng(k: int):
        return np.random.default_rng([seed, k])

    if name == "wide-qaoa":
        circuits = [Circuit("qaoa3-300", 300, qaoa_regular(300, 3, rng(0)))]
        return Workload(name, 12, circuits, [Job("qaoa3-300", "qaoa3-300")],
                        ["--family", "qaoa-regular", "--n", "300", "--d", "3"], 12)
    if name == "deep-mixed":
        # two of each family: summing over six circuits halves the seed-to-
        # seed swing of the work and of the schedule quality
        circuits = []
        for k in range(2):
            circuits += [
                Circuit(f"qsim-80.{k}", 80, pauli_strings(80, 140, 4, rng(3 * k))),
                Circuit(f"qaoa-gnp-44.{k}", 44, qaoa_gnp(44, 0.5, rng(3 * k + 1))),
                Circuit(f"pairs-80.{k}", 80, random_pairs(80, 16, rng(3 * k + 2))),
            ]
        return Workload(name, 10, circuits, [Job(c.name, c.name) for c in circuits],
                        ["--family", "qaoa-regular", "--n", "100", "--d", "4"], 16)
    if name == "ablation-sweep":
        circuits = [
            Circuit("qaoa4-100", 100, qaoa_regular(100, 4, rng(0))),
            Circuit("qaoa-gnp-8", 8, qaoa_gnp(8, 0.5, rng(1))),
            Circuit("qsim-10", 10, pauli_strings(10, 8, 4, rng(2))),
            Circuit("pairs-7", 7, random_pairs(7, 6, rng(3))),
        ]
        jobs = [Job(f"{c.name}.{mode}", c.name, flags)
                for c in circuits for mode, flags in ABLATIONS.items()]
        return Workload(name, 10, circuits, jobs,
                        ["--family", "qaoa-regular", "--n", "100", "--d", "4"], 48)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("wide-qaoa", "deep-mixed", "ablation-sweep")


def write_inputs(wl: Workload, directory: Path) -> dict[str, str]:
    """Write config.json and one QASM file per circuit; returns the
    first 16 hex digits of each file's sha256."""
    directory.mkdir(parents=True, exist_ok=True)
    files = {"config.json": json.dumps(config(wl.side), indent=1) + "\n"}
    files |= {f"{c.name}.qasm": to_qasm(c.n, c.gates) for c in wl.circuits}
    for name, text in files.items():
        (directory / name).write_text(text)
    return {name: hashlib.sha256(text.encode()).hexdigest()[:16]
            for name, text in files.items()}


if __name__ == "__main__":
    p = argparse.ArgumentParser(description="write a workload's input files")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", "--out-dir", required=True)
    a = p.parse_args()
    print(json.dumps(write_inputs(make_workload(a.workload, a.seed), Path(a.out_dir)),
                     indent=1, sort_keys=True))
