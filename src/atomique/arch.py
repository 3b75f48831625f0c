"""Hardware model: array geometry, device parameters, separation audit.

Array 0 is the static (SLM) lattice; arrays 1..n_aod are movable (AOD)
grids.  The SLM site (row, col) sits at (x, y) = (col * D_site,
row * D_site).  Gate lanes are integer multiples of D_site on each axis,
park lanes sit halfway between; the audit below is the continuous-space
ground truth that any lane assignment must satisfy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import chain, zip_longest
from numbers import Real
from typing import NamedTuple

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
        _check_numbers(self)
        for key in ("n_aod", "slm_rows", "slm_cols"):
            if not _is_size(getattr(self, key)):
                raise ValueError(f"{key} must be an int >= 1")
        object.__setattr__(self, "aod_rows", _per_aod(self.aod_rows, self.n_aod, "aod_rows"))
        object.__setattr__(self, "aod_cols", _per_aod(self.aod_cols, self.n_aod, "aod_cols"))
        _check_finite(self, ("D_site", "r_b", "T_per_move"), "positive")
        if not 0 < self.delta < self.r_b:
            raise ValueError("delta must satisfy 0 < delta < r_b")
        if self.D_site / 2 - self.delta < self.s_min:
            raise ValueError("D_site/2 - delta must be >= s_min (lanes too dense)")
        if self.D_site < 6 * self.r_b:
            raise ValueError("D_site must be >= 6 * r_b")
        if not (isinstance(self.relaxed, (list, tuple, set, frozenset))
                and all(isinstance(name, str) for name in self.relaxed)):
            raise ValueError(f"relaxed must be a list of constraint names, not {self.relaxed!r}")
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


def _check_numbers(obj) -> None:
    """Raise ValueError naming the first `float` field that holds a bool or
    a non-number (an int or a numpy number passes)."""
    for f in fields(obj):
        v = getattr(obj, f.name)
        if f.type == "float" and (isinstance(v, bool) or not isinstance(v, Real)):
            name = "lambda" if f.name == "lam" else f.name
            raise ValueError(f"{name} must be a number, not {v!r}")


def _check_finite(obj, keys, sign: str) -> None:
    """Raise ValueError unless each field is finite and, as ``sign`` says,
    positive or non-negative."""
    for key in keys:
        v = getattr(obj, key)
        name = "lambda" if key == "lam" else key
        if not (v > 0 if sign == "positive" else v >= 0):  # NaN fails too
            raise ValueError(f"{name} must be {sign}")
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite")


def _is_size(v) -> bool:
    """Whether v is an int (a bool is not) >= 1."""
    return type(v) is int and v >= 1


def _per_aod(value, n_aod: int, key: str) -> tuple[int, ...]:
    value = tuple(value) if isinstance(value, (list, tuple)) else (value,) * n_aod
    if len(value) != n_aod:
        raise ValueError(f"{key} must have one entry per AOD array ({n_aod})")
    if not all(map(_is_size, value)):
        raise ValueError(f"{key} entries must be ints >= 1, not {list(value)!r}")
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
        _check_numbers(self)
        for key in ("f_1Q", "f_2Q"):
            v = getattr(self, key)
            if not 0.0 < v <= 1.0:
                raise ValueError(f"{key} must be in (0, 1]")
        if not 0.0 <= self.P_loss_transfer < 1.0:
            raise ValueError("P_loss_transfer must be in [0, 1)")
        _check_finite(self, ("t_1Q", "t_2Q", "T1", "x_zpf", "omega0", "n_vib_max"),
                      "positive")
        _check_finite(self, ("T_transfer", "lam", "n_cool_threshold"), "non-negative")
        if self.n_cool_threshold >= self.n_vib_max:
            raise ValueError("n_cool_threshold must be below n_vib_max")


_ARCH_KEYS = {f.name for f in fields(ArchConfig)}
_HW_KEYS = {f.name for f in fields(HardwareParams)} - {"lam"}


def load_config(raw: dict) -> tuple[ArchConfig, HardwareParams]:
    """Build (ArchConfig, HardwareParams) from a parsed JSON object.

    Keys match the dataclass field names; the heating coefficient is
    spelled "lambda".  Anything but a dict, and unknown keys, raise
    ValueError.  Reading a config file is the caller's job.
    """
    if not isinstance(raw, dict):
        raise ValueError(f"config needs a JSON object, not {type(raw).__name__}")
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
    return ArchConfig(**arch_kw), HardwareParams(**hw_kw)


def arch_to_dict(arch: ArchConfig) -> dict:
    out = {}
    for f in fields(ArchConfig):
        v = getattr(arch, f.name)
        if isinstance(v, frozenset):
            v = sorted(v)
        out[f.name] = list(v) if isinstance(v, tuple) else v
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


def lane_gather(placement: dict[int, AtomCoord], config: ArchConfig):
    """A function of (row_lanes, col_lanes, col_offsets=None) giving the
    (k * n, 3) lane coordinates of k stages of n atoms, row k * n + q for
    qubit q: x lane, x offset (um), y lane.

    row_lanes, col_lanes and col_offsets hold one entry per stage, each a
    list per AOD of the lane of every row or column (None = empty) or of
    every column's x offset, of the config's `aod_rows` or `aod_cols`
    entries; col_offsets None means zero offsets.  A static site (row, col)
    sits on the gate lanes (2 col, 0, 2 row); an AOD atom takes its row's
    and column's lanes and its column's offset.  Raises ValueError when a
    stage's lists are not of the config's lengths, an occupied row or
    column has no lane (None), a lane or offset is not finite, or an AOD
    atom sits outside its array; a gather's message names the AOD and the
    list by its schedule-file key, and the caller names the stage.

    Each AOD atom's table columns are worked out once, from the config, not
    once per block of stages gathered."""
    sites = [placement[q] for q in range(len(placement))]
    slm = np.array([q for q, p in enumerate(sites) if p.array == 0], dtype=np.intp)
    aod = np.array([q for q, p in enumerate(sites) if p.array != 0], dtype=np.intp)
    slm_lanes = np.array([(2 * sites[q].col, 0.0, 2 * sites[q].row) for q in slm],
                         dtype=np.float64).reshape(-1, 3)
    row_at = np.cumsum((0, *config.aod_rows)).tolist()  # each AOD's first table column
    col_at = np.cumsum((0, *config.aod_cols)).tolist()
    ri, ci = [], []  # each AOD atom's row and column in the tables
    for q in aod:
        t, r, c = sites[q].array - 1, sites[q].row, sites[q].col
        if not (0 <= r < config.aod_rows[t] and 0 <= c < config.aod_cols[t]):
            raise ValueError(f"atom {q} sits outside array {t + 1}")
        ri.append(row_at[t] + r)
        ci.append(col_at[t] + c)
    ri, ci = np.array(ri, dtype=np.intp), np.array(ci, dtype=np.intp)

    def gather(row_lanes, col_lanes, col_offsets=None) -> np.ndarray:
        rows = _lane_table(row_lanes, config.aod_rows, "row_lanes")
        cols = _lane_table(col_lanes, config.aod_cols, "col_lanes")
        offs = (np.zeros_like(cols) if col_offsets is None
                else _lane_table(col_offsets, config.aod_cols, "col_offsets_um"))
        out = np.empty((len(row_lanes), len(sites), 3))
        out[:, slm] = slm_lanes
        out[:, aod, 0] = cols[:, ci]
        out[:, aod, 1] = offs[:, ci]
        out[:, aod, 2] = rows[:, ri]
        lanes = out.reshape(-1, 3)
        if not np.isfinite(lanes).all():  # a None lane is NaN here; the first names the list
            row, axis = divmod(int(np.isfinite(lanes).argmin()), 3)
            key = ("col_lanes", "col_offsets_um", "row_lanes")[axis]  # the columns of a row
            raise ValueError(f"AOD {sites[row % len(sites)].array - 1} {key}: "
                             "an occupied AOD row or column has no lane, "
                             "or a lane or offset that is not finite")
        return lanes

    return gather


def _lane_table(per_stage, widths: tuple[int, ...], key: str) -> np.ndarray:
    """(k, sum(widths)) float array of each of k stages' per-AOD lists laid
    end to end, a None entry as NaN; ValueError naming `key` and the first
    AOD whose list is missing, extra or not of its config length in `widths`."""
    k = len(per_stage)
    lists = list(chain.from_iterable(per_stage))
    if set(map(len, per_stage)) - {len(widths)} or list(map(len, lists)) != list(widths) * k:
        t = next(t for per_aod in per_stage for t, (got, want)
                 in enumerate(zip_longest(map(len, per_aod), widths)) if got != want)
        raise ValueError(f"AOD {t} {key}: lanes need one list per AOD, "
                         f"of the config's lengths {list(widths)}")
    return np.array(list(chain.from_iterable(lists)), dtype=np.float64).reshape(k, sum(widths))


def atom_positions(lanes: np.ndarray, config: ArchConfig) -> np.ndarray:
    """(n, 2) x/y positions in um from a `lane_gather` array: x = x lane *
    D_site/2 + x offset, y = y lane * D_site/2."""
    pos = lanes[:, ::2] * (config.D_site / 2.0)
    pos[:, 0] += lanes[:, 1]
    return pos


def move_distances(prev: np.ndarray, new: np.ndarray, config: ArchConfig) -> np.ndarray:
    """Per-atom move distance (um) between two `lane_gather` arrays, from
    the lane and offset deltas (not from differences of positions, which
    round differently when D_site/2 is not dyadic)."""
    d = (new - prev) * (config.D_site / 2.0)  # its offset column is unused
    return np.hypot(d[:, 0] + new[:, 1] - prev[:, 1], d[:, 2])


# ---------------------------------------------------------------------------
# separation audit
# ---------------------------------------------------------------------------


class Violation(NamedTuple):
    i: int
    j: int
    distance_um: float
    kind: str  # "too_close" | "pair_too_far"


def min_separation_audit(
    positions: np.ndarray,
    intended_pairs,
    config: ArchConfig,
    stage=None,
) -> list[Violation]:
    """Report every pair violating the continuous-space separation rule.

    Intended pairs must sit closer than r_b; every other pair must be at
    least 2.5 * r_b apart.  `stage` gives each atom's stage index (all one
    stage when None): atoms of different stages are never compared, and
    an intended pair names two atoms of one stage.  Violations are
    reported, not raised; a non-finite position, where distances mean
    nothing, raises ValueError.
    """
    m = len(positions)
    partner = np.full(m, -1, np.int64)
    for a, b in intended_pairs:
        partner[min(a, b)] = max(a, b)
    vi, vj, vd, vk = kernels.separation_scan(
        np.asarray(positions, dtype=np.float64), partner, config.r_b, config.s_min, stage
    )
    kinds = ("too_close", "pair_too_far")
    return [Violation(i, j, d, kinds[k])
            for i, j, d, k in zip(vi.tolist(), vj.tolist(), vd.tolist(), vk.tolist())]
