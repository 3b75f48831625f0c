"""Checks of the program's outputs, computed apart from the program.

Each check takes the parsed outputs of one `atomique compile` (schedule.json,
stats.json, routed.qasm) or one `atomique sweep` CSV and returns a list of
findings; an empty list means the output passed.  Nothing here imports
atomique or compares against a stored copy of an earlier output: positions
follow the lane model documented in the schedule format (lane x D_site/2,
plus the column offset), the fidelity model is the one documented in
``atomique/fidelity.py``, and gate semantics are the OpenQASM 2 ones.
"""

from __future__ import annotations

import csv
import math

import numpy as np
from scipy.spatial import cKDTree

FACTORS = ("F_1Q", "F_2Q", "F_transfer", "F_mov_heating", "F_mov_loss",
           "F_mov_cooling", "F_mov_deco")


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + 1e-300


# ---------------------------------------------------------------------------
# geometry, lane order and move distances
# ---------------------------------------------------------------------------


def _occupied(sched: dict) -> tuple[list, list]:
    """Per AOD: the sorted occupied row and column indices."""
    n_aod = sched["config"]["n_aod"]
    rows = [set() for _ in range(n_aod)]
    cols = [set() for _ in range(n_aod)]
    for a, r, c in sched["placement"]:
        if a > 0:
            rows[a - 1].add(r)
            cols[a - 1].add(c)
    return [sorted(s) for s in rows], [sorted(s) for s in cols]


def positions(sched: dict, aod: list) -> np.ndarray:
    """(n, 2) atom positions in um for one stage's AOD lanes."""
    cfg = sched["config"]
    d, half = cfg["D_site"], cfg["D_site"] / 2.0
    pos = np.empty((len(sched["placement"]), 2))
    for q, (a, r, c) in enumerate(sched["placement"]):
        if a == 0:
            pos[q] = (c * d, r * d)
        else:
            lanes = aod[a - 1]
            pos[q] = (lanes["col_lanes"][c] * half + lanes["col_offsets_um"][c],
                      lanes["row_lanes"][r] * half)
    return pos


def check_geometry(sched: dict) -> list[str]:
    """Intended pairs closer than r_b, every other pair at least 2.5 r_b
    apart, bar what the schedule's relaxed set exempts: cross-array
    closeness under C1, same-array coincidence under C3."""
    cfg = sched["config"]
    r_b, s_min, relaxed = cfg["r_b"], 2.5 * cfg["r_b"], set(cfg["relaxed"])
    arrays = np.array([a for a, _, _ in sched["placement"]])
    found = []
    for k, stage in enumerate(sched["stages"]):
        pos = positions(sched, stage["aod"])
        intended = set()
        seen: set[int] = set()
        for a, b in stage["cz"]:
            if a in seen or b in seen:
                found.append(f"stage {k}: atom in two CZs ({a},{b})")
            seen.update((a, b))
            intended.add((min(a, b), max(a, b)))
            dist = float(np.hypot(*(pos[a] - pos[b])))
            if not dist < r_b:
                found.append(f"stage {k}: CZ ({a},{b}) {dist:.3f} um apart")
        for i, j in cKDTree(pos).query_pairs(s_min, output_type="ndarray"):
            i, j = int(min(i, j)), int(max(i, j))
            dist = float(np.hypot(*(pos[i] - pos[j])))
            if (i, j) in intended or dist >= s_min:
                continue
            if "C1" in relaxed and arrays[i] != arrays[j]:
                continue
            if "C3" in relaxed and arrays[i] == arrays[j] and dist < 1e-9:
                continue
            found.append(f"stage {k}: atoms {i},{j} {dist:.3f} um apart")
    return found


def _lane_order(lanes: list, occupied: list, relaxed: set, where: str) -> list[str]:
    seq = [lanes[i] for i in occupied]
    if any(lane is None for lane in seq):
        return [f"{where}: occupied index without a lane"]
    found = []
    if "C2" not in relaxed and any(x > y for x, y in zip(seq, seq[1:])):
        found.append(f"{where}: order not kept {seq}")
    if "C3" not in relaxed and len(set(seq)) != len(seq):
        found.append(f"{where}: two on one lane {seq}")
    return found


def check_moves(sched: dict) -> list[str]:
    """Each AOD keeps its row and column order with no two on one lane
    (unless C2/C3 is relaxed); distances_um equal the lane and offset
    deltas from the previous stage, starting from the initial lanes; a
    stage takes T_per_move exactly when it gates or moves."""
    cfg = sched["config"]
    half, relaxed = cfg["D_site"] / 2.0, set(cfg["relaxed"])
    occ_rows, occ_cols = _occupied(sched)
    prev = [dict(a, col_offsets_um=[0.0] * len(a["col_lanes"]))
            for a in sched["initial"]["aod"]]
    found = []
    for k, stage in enumerate([{"aod": prev}] + sched["stages"]):
        for t, lanes in enumerate(stage["aod"]):
            found += _lane_order(lanes["row_lanes"], occ_rows[t], relaxed, f"stage {k - 1} AOD {t} rows")
            found += _lane_order(lanes["col_lanes"], occ_cols[t], relaxed, f"stage {k - 1} AOD {t} cols")
    if found:
        return found
    for k, stage in enumerate(sched["stages"]):
        cur = stage["aod"]
        moved = False
        for q, (a, r, c) in enumerate(sched["placement"]):
            want = 0.0
            if a > 0:
                p, n = prev[a - 1], cur[a - 1]
                dx = ((n["col_lanes"][c] - p["col_lanes"][c]) * half
                      + n["col_offsets_um"][c] - p["col_offsets_um"][c])
                dy = (n["row_lanes"][r] - p["row_lanes"][r]) * half
                want = math.hypot(dx, dy)
            got = stage["distances_um"][q]
            moved |= want > 0.0
            if abs(got - want) > 1e-9:
                found.append(f"stage {k}: atom {q} moved {got} um, lanes give {want}")
        want_t = cfg["T_per_move"] if (stage["cz"] or moved) else 0.0
        if stage["move_time_s"] != want_t:
            found.append(f"stage {k}: move_time_s {stage['move_time_s']}, want {want_t}")
        prev = cur
    return found


# ---------------------------------------------------------------------------
# gate content
# ---------------------------------------------------------------------------


def parse_routed(text: str) -> tuple[int, list]:
    """(n, gates) of the routed slot-space QASM: u3 and cz statements only."""
    n, gates = None, []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith(("OPENQASM", "include")):
            continue
        if line.startswith("qreg"):
            n = int(line[line.index("[") + 1:line.index("]")])
            continue
        head, args = line.rstrip(";").split(" ", 1)
        qubits = tuple(int(a.strip()[2:-1]) for a in args.split(","))
        if head == "cz":
            gates.append(("cz", qubits, ()))
        elif head.startswith("u3("):
            gates.append(("u3", qubits, tuple(float(p) for p in head[3:-1].split(","))))
        else:
            raise ValueError(f"unexpected statement in routed QASM: {line!r}")
    return n, gates


def flatten(sched: dict) -> list:
    """The schedule's gates in execution order: per stage, its Raman layers
    then its CZs."""
    gates = []
    for stage in sched["stages"]:
        for layer in stage["raman"]:
            gates += [("u3", (int(q),), tuple(p)) for q, *p in layer]
        gates += [("cz", (a, b), ()) for a, b in stage["cz"]]
    return gates


def _per_slot(n: int, gates: list) -> list[list]:
    seq = [[] for _ in range(n)]
    for name, qubits, params in gates:
        if name == "cz":
            a, b = qubits
            seq[a].append(("cz", b))
            seq[b].append(("cz", a))
        else:
            seq[qubits[0]].append(("u3", *params))
    return seq


def check_gates(sched: dict, stats: dict, routed_qasm: str, n_2q_input: int) -> list[str]:
    """Every slot runs the same gate sequence in the schedule as in the
    routed circuit; every CZ joins two arrays; the CZ count is the input's
    plus three per inserted SWAP; the stats counts match the schedule."""
    try:
        n, routed = parse_routed(routed_qasm)
    except ValueError as exc:
        return [str(exc)]
    flat = flatten(sched)
    found = []
    if n != len(sched["placement"]):
        return [f"routed QASM has {n} qubits, schedule {len(sched['placement'])}"]
    want, got = _per_slot(n, routed), _per_slot(n, flat)
    found += [f"slot {q}: schedule sequence differs from routed QASM"
              for q in range(n) if want[q] != got[q]]
    for k, stage in enumerate(sched["stages"]):
        for layer in stage["raman"]:
            if len({q for q, *_ in layer}) != len(layer):
                found.append(f"stage {k}: qubit twice in one Raman layer")
        for a, b in stage["cz"]:
            if sched["placement"][a][0] == sched["placement"][b][0]:
                found.append(f"stage {k}: CZ ({a},{b}) inside one array")
    n_cz = sum(1 for g in flat if g[0] == "cz")
    added = stats["added_cx"]
    if added % 3 or n_cz != n_2q_input + added:
        found.append(f"{n_cz} CZs for {n_2q_input} input two-qubit gates and {added} added CX")
    depth = sum(1 for s in sched["stages"] if s["cz"])
    if stats["n_2q"] != n_cz or stats["two_qubit_depth"] != depth:
        found.append(f"stats n_2q/depth {stats['n_2q']}/{stats['two_qubit_depth']}, "
                     f"schedule {n_cz}/{depth}")
    return found


# ---------------------------------------------------------------------------
# small circuits: state-vector equivalence
# ---------------------------------------------------------------------------


def _u3(theta: float, phi: float, lam: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -np.exp(1j * lam) * s],
                     [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c]])


_FIXED = {"h": np.array([[1, 1], [1, -1]]) / math.sqrt(2),
          "s": np.diag([1, 1j]), "sdg": np.diag([1, -1j])}


def _matrix(name: str, params) -> np.ndarray:
    if name in _FIXED:
        return _FIXED[name]
    if name == "u3":
        return _u3(*params)
    t = params[0]
    if name == "rx":
        return np.array([[math.cos(t / 2), -1j * math.sin(t / 2)],
                         [-1j * math.sin(t / 2), math.cos(t / 2)]])
    if name == "rz":
        return np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)])
    raise ValueError(f"no matrix for {name!r}")


def simulate(state: np.ndarray, gates: list) -> np.ndarray:
    """Apply gates to a state tensor of shape (2,)*n; axis q is qubit q."""
    for name, qubits, params in gates:
        if name == "cz":
            a, b = qubits
            idx = [slice(None)] * state.ndim
            idx[a] = idx[b] = 1
            state = state.copy()
            state[tuple(idx)] *= -1
        elif name == "cx":
            c, t = qubits
            idx = [slice(None)] * state.ndim
            idx[c] = 1
            state = state.copy()
            state[tuple(idx)] = np.flip(state[tuple(idx)], axis=t - (t > c))
        else:
            q = qubits[0]
            state = np.moveaxis(np.tensordot(_matrix(name, params), state, axes=(1, q)), 0, q)
    return state


def check_statevector(sched: dict, n: int, gates: list, seed: int) -> list[str]:
    """The schedule, applied to random states and read through the final
    perm, matches the input circuit up to global phase."""
    rng = np.random.default_rng(seed)
    found = []
    for trial in range(2):
        psi = rng.normal(size=(2,) * n) + 1j * rng.normal(size=(2,) * n)
        psi /= np.linalg.norm(psi)
        want = simulate(psi, gates)
        got = np.transpose(simulate(psi, flatten(sched)), sched["perm"])
        overlap = abs(np.vdot(want, got))
        if abs(overlap - 1.0) > 1e-9:
            found.append(f"state {trial}: overlap {overlap:.12f} with the input circuit")
    return found


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------


def score(sched: dict, hw: dict, T_per_move: float | None = None) -> dict:
    """The fidelity model documented in fidelity.py, from schedule.json.

    Per stage: each Raman layer costs one 1Q gate time; a stage that moves
    adds dn = 1/2 (6D / (x_zpf w0^2 T^2))^2 quanta per moved atom, a
    survival factor 1/2 (1 + erf((n_max - n) / sqrt(2n))) and decoherence
    exp(-n T / T1); each CZ retains 1 - lambda (1 - f_2Q) (n_a + n_b); an
    AOD whose hottest atom exceeds the cooling threshold is reset at a cost
    of f_2Q^(2 x its atoms).
    """
    n_atoms = len(sched["placement"])
    aods: dict[int, list[int]] = {}
    for q, (a, _, _) in enumerate(sched["placement"]):
        if a > 0:
            aods.setdefault(a, []).append(q)
    nvib = np.zeros(n_atoms)
    f2q, t1 = hw["f_2Q"], hw["T1"]
    heat = loss = cool = deco = 1.0
    n1q = n2q = n_cool = gate_stages = 0
    t_1q = t_move = 0.0
    cooling = []
    for stage in sched["stages"]:
        n1q += sum(len(layer) for layer in stage["raman"])
        t_1q += hw["t_1Q"] * len(stage["raman"])
        move_t = stage["move_time_s"]
        if T_per_move is not None and move_t > 0.0:
            move_t = T_per_move
        if move_t > 0.0:
            for q, dist in enumerate(stage["distances_um"]):
                if dist > 0.0:
                    x = 6.0 * dist * 1e-6 / (hw["x_zpf"] * hw["omega0"] ** 2 * move_t ** 2)
                    nvib[q] += 0.5 * x * x
                    loss *= 0.5 * (1.0 + math.erf((hw["n_vib_max"] - nvib[q])
                                                  / math.sqrt(2.0 * nvib[q])))
            t_move += move_t
            deco *= math.exp(-n_atoms * move_t / t1)
        if stage["cz"]:
            gate_stages += 1
            n2q += len(stage["cz"])
            for a, b in stage["cz"]:
                heat *= max(0.0, 1.0 - hw["lambda"] * (1.0 - f2q) * (nvib[a] + nvib[b]))
        events = []
        for array in sorted(aods):
            atoms = aods[array]
            if nvib[atoms].max() > hw["n_cool_threshold"]:
                cool *= f2q ** (2 * len(atoms))
                nvib[atoms] = 0.0
                n_cool += 1
                events.append(array - 1)
        cooling.append(events)
    t_2q = (gate_stages + 2 * n_cool) * hw["t_2Q"]
    factors = {
        "F_1Q": hw["f_1Q"] ** n1q * math.exp(-t_1q * n_atoms / t1),
        "F_2Q": f2q ** n2q * math.exp(-t_2q * n_atoms / t1),
        "F_transfer": 1.0,
        "F_mov_heating": heat, "F_mov_loss": loss,
        "F_mov_cooling": cool, "F_mov_deco": deco,
    }
    return {"factors": factors, "F_total": math.prod(factors.values()),
            "execution_time_s": t_1q + t_2q + t_move, "n_coolings": n_cool,
            "cooling": cooling}


def check_scoring(sched: dict, stats: dict, hw: dict) -> list[str]:
    """F_total, its seven factors, execution_time_s, the cooling count and
    each stage's cooling events equal the recomputed model."""
    want = score(sched, hw)
    found = []
    fid = stats["fidelity"]
    for k in FACTORS:
        if not _close(fid[k], want["factors"][k]):
            found.append(f"{k}: stats {fid[k]!r}, model {want['factors'][k]!r}")
    if not _close(fid["F_total"], want["F_total"]):
        found.append(f"F_total: stats {fid['F_total']!r}, model {want['F_total']!r}")
    if not _close(stats["execution_time_s"], want["execution_time_s"]):
        found.append(f"execution_time_s: stats {stats['execution_time_s']!r}, "
                     f"model {want['execution_time_s']!r}")
    if stats["n_coolings"] != want["n_coolings"]:
        found.append(f"n_coolings: stats {stats['n_coolings']}, model {want['n_coolings']}")
    if [s["cooling"] for s in sched["stages"]] != want["cooling"]:
        found.append("per-stage cooling events differ from the model")
    return found


def check_sweep_csv(csv_text: str, sched: dict, hw: dict, values: list[float]) -> list[str]:
    """Each T_per_move row equals the model rescored at that move time on
    the schedule `atomique compile` emits for the sweep's circuit."""
    rows = list(csv.reader(csv_text.splitlines()))
    header = ["value", "F_total", *FACTORS, "execution_time_s", "n_coolings"]
    if not rows or rows[0] != header:
        return ["sweep CSV header differs"]
    if len(rows) - 1 != len(values):
        return [f"sweep CSV has {len(rows) - 1} rows for {len(values)} values"]
    found = []
    for row, value in zip(rows[1:], sorted(values)):
        want = score(sched, hw, T_per_move=value)
        expect = [value, want["F_total"], *(want["factors"][k] for k in FACTORS),
                  want["execution_time_s"], want["n_coolings"]]
        if len(row) != len(expect) or not all(
                _close(float(g), float(w)) for g, w in zip(row, expect)):
            found.append(f"sweep row for {value!r} differs from the model: {row}")
    return found
