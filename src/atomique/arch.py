"""Hardware model: array geometry, device parameters, separation audit.

Array 0 is the static (SLM) lattice; arrays 1..n_aod are movable (AOD)
grids.  The SLM site (row, col) sits at (x, y) = (col * D_site,
row * D_site).  Gate lanes are integer multiples of D_site on each axis,
park lanes sit halfway between; the audit below is the continuous-space
ground truth that any lane assignment must satisfy.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

import numpy as np

from . import kernels


@dataclass(frozen=True)
class ArchConfig:
    n_aod: int = 2
    slm_rows: int = 10
    slm_cols: int = 10
    aod_rows: tuple[int, ...] = (10, 10)
    aod_cols: tuple[int, ...] = (10, 10)
    D_site: float = 15.0  # um
    r_b: float = 2.5  # um, Rydberg blockade range
    delta: float = 0.5  # um, in-gate offset between partners
    T_per_move: float = 300e-6  # s, fixed duration of one stage move
    relaxed: frozenset = frozenset()  # disabled movement constraints, of {"C1","C2","C3"}

    @property
    def s_min(self) -> float:
        """Minimum separation for non-interacting pairs: 2.5 * r_b."""
        return 2.5 * self.r_b

    def __post_init__(self):
        object.__setattr__(self, "aod_rows", _per_aod(self.aod_rows, self.n_aod, "aod_rows"))
        object.__setattr__(self, "aod_cols", _per_aod(self.aod_cols, self.n_aod, "aod_cols"))
        if self.n_aod < 1:
            raise ValueError("n_aod must be >= 1")
        for key in ("slm_rows", "slm_cols"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1")
        for key in ("D_site", "r_b", "T_per_move"):
            if getattr(self, key) <= 0:
                raise ValueError(f"{key} must be positive")
        if self.delta <= 0 or self.delta >= self.r_b:
            raise ValueError("delta must satisfy 0 < delta < r_b")
        if self.D_site / 2 - self.delta < self.s_min:
            raise ValueError("D_site/2 - delta must be >= s_min (lanes too dense)")
        if self.D_site < 6 * self.r_b:
            raise ValueError("D_site must be >= 6 * r_b")
        object.__setattr__(self, "relaxed", frozenset(self.relaxed))
        unknown = self.relaxed - {"C1", "C2", "C3"}
        if unknown:
            raise ValueError(f"unknown constraint name(s): {sorted(unknown)}")

    def array_capacity(self, array: int) -> int:
        if array == 0:
            return self.slm_rows * self.slm_cols
        return self.aod_rows[array - 1] * self.aod_cols[array - 1]

    def array_shape(self, array: int) -> tuple[int, int]:
        if array == 0:
            return self.slm_rows, self.slm_cols
        return self.aod_rows[array - 1], self.aod_cols[array - 1]

    @property
    def n_arrays(self) -> int:
        return self.n_aod + 1

    def total_capacity(self) -> int:
        return sum(self.array_capacity(a) for a in range(self.n_arrays))


def _per_aod(value, n_aod: int, key: str) -> tuple[int, ...]:
    if isinstance(value, int):
        value = (value,) * n_aod
    value = tuple(int(v) for v in value)
    if len(value) != n_aod:
        raise ValueError(f"{key} must have one entry per AOD array ({n_aod})")
    if any(v < 1 for v in value):
        raise ValueError(f"{key} entries must be >= 1")
    return value


@dataclass(frozen=True)
class HardwareParams:
    f_1Q: float = 0.9992
    f_2Q: float = 0.9975
    t_1Q: float = 625e-9  # s
    t_2Q: float = 380e-9  # s
    T1: float = 1.5  # s
    P_loss_transfer: float = 0.0068
    T_transfer: float = 15e-6  # s
    # m, zero-point spread of the trap ground state:
    # sqrt(hbar / (m * omega0)) = 38.13 nm for 87Rb at omega0 = 2*pi*80 kHz
    x_zpf: float = 38e-9
    omega0: float = 2 * math.pi * 80e3  # rad/s, trap angular frequency
    lam: float = 0.109  # heating-to-infidelity coefficient (config key "lambda")
    n_vib_max: float = 33.0  # vibrational quanta at which an atom escapes
    n_cool_threshold: float = 15.0  # quanta triggering an array cooling reset

    def __post_init__(self):
        for key in ("f_1Q", "f_2Q"):
            v = getattr(self, key)
            if not 0.0 < v <= 1.0:
                raise ValueError(f"{key} must be in (0, 1]")
        if not 0.0 <= self.P_loss_transfer < 1.0:
            raise ValueError("P_loss_transfer must be in [0, 1)")
        for key in ("t_1Q", "t_2Q", "T1", "x_zpf", "omega0", "n_vib_max"):
            if getattr(self, key) <= 0:
                raise ValueError(f"{key} must be positive")
        for key in ("T_transfer", "lam", "n_cool_threshold"):
            if getattr(self, key) < 0:
                raise ValueError(f"{key} must be non-negative")
        if self.n_cool_threshold >= self.n_vib_max:
            raise ValueError("n_cool_threshold must be below n_vib_max")


_ARCH_KEYS = {f.name for f in fields(ArchConfig)}
_HW_KEYS = {f.name for f in fields(HardwareParams)} - {"lam"}


def load_config(path_or_dict) -> tuple[ArchConfig, HardwareParams]:
    """Build (ArchConfig, HardwareParams) from a JSON file or dict.

    Keys match the dataclass field names; the heating coefficient is
    spelled "lambda".  Unknown keys raise ValueError.
    """
    if isinstance(path_or_dict, dict):
        raw = dict(path_or_dict)
    else:
        with open(path_or_dict) as fh:
            raw = json.load(fh)
    arch_kw, hw_kw = {}, {}
    for key, value in raw.items():
        if key == "lambda":
            hw_kw["lam"] = value
        elif key in _ARCH_KEYS:
            arch_kw[key] = value
        elif key in _HW_KEYS:
            hw_kw[key] = value
        else:
            raise ValueError(f"unknown config key {key!r}")
    if "aod_rows" in arch_kw and isinstance(arch_kw["aod_rows"], list):
        arch_kw["aod_rows"] = tuple(arch_kw["aod_rows"])
    if "aod_cols" in arch_kw and isinstance(arch_kw["aod_cols"], list):
        arch_kw["aod_cols"] = tuple(arch_kw["aod_cols"])
    if "relaxed" in arch_kw:
        arch_kw["relaxed"] = frozenset(arch_kw["relaxed"])
    return ArchConfig(**arch_kw), HardwareParams(**hw_kw)


def arch_to_dict(arch: ArchConfig) -> dict:
    out = {}
    for f in fields(ArchConfig):
        v = getattr(arch, f.name)
        if isinstance(v, frozenset):
            v = sorted(v)
        out[f.name] = list(v) if isinstance(v, tuple) else v
    return out


def config_to_dict(arch: ArchConfig, hw: HardwareParams) -> dict:
    out = arch_to_dict(arch)
    for f in fields(HardwareParams):
        out["lambda" if f.name == "lam" else f.name] = getattr(hw, f.name)
    return out


# ---------------------------------------------------------------------------
# coordinates
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class AtomCoord:
    array: int  # 0 = SLM
    row: int
    col: int


def slm_position(row: int, col: int, config: ArchConfig) -> tuple[float, float]:
    return (col * config.D_site, row * config.D_site)


def atom_lanes(placement: dict[int, AtomCoord], row_lanes, col_lanes,
               col_offsets=None) -> np.ndarray:
    """(n, 3) lane coordinates indexed by qubit id: x lane, x offset (um),
    y lane.

    A static site (row, col) sits on the gate lanes (2 col, 0, 2 row); an
    AOD atom takes its row's and column's lane from the per-AOD lists, and
    its column's offset (zero when `col_offsets` is None).
    """
    flat = []  # one flat list: numpy converts it much faster than tuples
    for q in range(len(placement)):
        p = placement[q]
        if p.array == 0:
            flat += (2 * p.col, 0.0, 2 * p.row)
        else:
            t = p.array - 1
            off = col_offsets[t][p.col] if col_offsets is not None else 0.0
            flat += (col_lanes[t][p.col], off, row_lanes[t][p.row])
    lanes = np.array(flat, dtype=np.float64).reshape(-1, 3)
    if np.isnan(lanes).any():  # a None lane
        raise ValueError("an occupied AOD row or column has no lane")
    return lanes


def atom_positions(lanes: np.ndarray, config: ArchConfig) -> np.ndarray:
    """(n, 2) x/y positions in um from an `atom_lanes` array: x = x lane *
    D_site/2 + x offset, y = y lane * D_site/2."""
    pos = lanes[:, ::2] * (config.D_site / 2.0)
    pos[:, 0] += lanes[:, 1]
    return pos


def move_distances(prev: np.ndarray, new: np.ndarray, config: ArchConfig) -> np.ndarray:
    """Per-atom move distance (um) between two `atom_lanes` arrays, from
    the lane and offset deltas (not from differences of positions, which
    round differently when D_site/2 is not dyadic)."""
    d = (new - prev) * (config.D_site / 2.0)  # its offset column is unused
    return np.hypot(d[:, 0] + new[:, 1] - prev[:, 1], d[:, 2])


# ---------------------------------------------------------------------------
# separation audit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    i: int
    j: int
    distance_um: float
    kind: str  # "too_close" | "pair_too_far"


def min_separation_audit(
    positions: np.ndarray,
    intended_pairs,
    config: ArchConfig,
) -> list[Violation]:
    """Report every pair violating the continuous-space separation rule.

    Intended pairs must sit closer than r_b; every other pair must be at
    least 2.5 * r_b apart.  Reports, never raises.
    """
    m = len(positions)
    partner = np.full(m, -1, np.int64)
    for a, b in intended_pairs:
        partner[min(a, b)] = max(a, b)
    vi, vj, vd, vk = kernels.separation_scan(
        np.asarray(positions, dtype=np.float64), partner, config.r_b, config.s_min
    )
    kinds = ("too_close", "pair_too_far")
    return [
        Violation(int(i), int(j), float(d), kinds[int(k)])
        for i, j, d, k in zip(vi, vj, vd, vk)
    ]
