"""Fidelity estimation for movement schedules.

Walks a schedule stage by stage, tracking every movable atom's vibrational
quantum number: each move deposits energy that grows with distance and
shrinks steeply with move duration, hot atoms gate worse and survive moves
less often, and an array whose atoms exceed the cooling threshold is swapped
against a cold reserve (two CZs per atom) and starts from n_vib = 0.  The
result is a product of seven error factors plus a wall-clock time ledger.

Scoring runs as array passes and gives the same floats, bit for bit, as a
walk that heats and multiplies one atom at a time (that walk is kept as
``tests/score_reference.py``):

* ``apply_schedule`` scores a list of points in one walk over the stages;
  one point is the list of one.  ``n_vib`` has one column per point, so
  each stage's reads, gathers and stores serve every point.  Per-point scalars
  (the ``delta_nvib`` denominator, the thresholds, the decoherence and
  cooling factors, the ledger sums and the seven factors) stay Python
  floats built with the single-point expressions, and numpy sees a
  per-point value only in elementwise ``+ - * /``, ``sqrt``, comparisons
  and ``where``, which round each element as the scalar operation does.
  So each point's floats are those of scoring it alone.
* Each block of the audited lane walk (``routed_walk``) gives its stages,
  their move distances from the lanes, and their move times by the walk's
  one rule: a stage moves (is charged a move time) if it has a CZ or its
  lanes move an atom.  One array pass per walk block finds the moved atoms.
* One loop runs over blocks of stages, split by size only.  The quanta
  each moved atom gains depend on nothing but its distance and the point's
  move time, so one ``delta_nvib`` pass heats a whole block.  A walk over
  the block's stages then keeps only the sequential state: ``n_vib``,
  heated where a move distance is above 0, and the per-AOD cooling check.
  It records the post-move ``n_vib`` of the moved atoms (ascending qubit
  order) and the ``n_vib`` pair of each CZ.
* ``n_vib`` rises only by a move, and after every cooling check each AOD
  whose peak is a number is at or below the threshold.  So a check can
  cool something only after a stage that moves an atom above the
  threshold, and the check runs only there.
* Each point's decoherence per move is ``math.exp`` once, multiplied in
  once per moving stage with ``math.prod``, and its move time is added
  once per moving stage, as the per-stage walk does.
* ``delta_nvib``, ``move_survival`` and ``heating_factor`` take a float or an
  array and evaluate each element in the scalar formula's order:
  ``6.0 * (D * 1e-6) / (x_zpf * omega0**2 * T**2)``, then ``0.5 * x * x``,
  then ``(n_max - n) / sqrt(2 n)``.
* Each block's survival factors, and its heating factors, are folded in
  with one ``math.prod(values, start=F)`` per point, which works left to
  right like ``F *= f`` in stage-then-qubit order, so where the blocks end
  changes no bit.  Multiplying by a factor of exactly 1.0 changes no bit,
  so such factors may be left out or kept.  ``np.prod`` pairs its terms in
  another order, and without a float ``start`` an empty product is the
  int ``1``.
* numpy has no erf, so ``math.erf`` runs per element, but only where its
  argument is below ``ERF_ONE`` = 6.0 or is NaN: from 6.0 up ``math.erf``
  is exactly 1.0, so the survival there is exactly 1.0 and multiplying by
  it changes no bit.  A NaN argument still reaches ``math.erf``, so a NaN
  (from an ``n_vib`` heated to inf) propagates into ``F_mov_loss``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import reduce
from itertools import compress, repeat
from operator import add, gt

import numpy as np

from .arch import HardwareParams
from .stage_router import Schedule, routed_walk

# math.erf(x) == 1.0 for every x >= ERF_ONE (tests/test_fidelity.py checks it)
ERF_ONE = 6.0


def delta_nvib(D_um: float | np.ndarray, params: HardwareParams,
               T_move_s: float) -> float | np.ndarray:
    """Vibrational quanta added by moving a distance D in one stage.

    Constant-jerk trajectory: dn = 1/2 * (6D / (x_zpf * w0^2 * T^2))^2,
    evaluated in SI units; 0 for a zero-length move.  Takes a float or an
    array of distances and returns the same kind.
    """
    dn = _gain(np.asarray(D_um, dtype=float),
               params.x_zpf * params.omega0 ** 2 * T_move_s ** 2)
    return float(dn) if dn.ndim == 0 else dn


def _gain(D_um: np.ndarray, scale) -> np.ndarray:
    """delta_nvib for the denominator ``x_zpf * omega0**2 * T**2`` (a float,
    or one per point along the last axis)."""
    x = 6.0 * (D_um * 1e-6) / scale
    return np.where(D_um <= 0.0, 0.0, 0.5 * x * x)


def heating_factor(n_eff: float | np.ndarray, params: HardwareParams) -> float | np.ndarray:
    """CZ fidelity retention when the movable side carries n_eff quanta
    (sum of both sides for a movable-movable pair); clamped at 0 the way
    ``max(0.0, f)`` clamps.  Float or array in, same kind out."""
    f = _heat(np.asarray(n_eff, dtype=float), params.lam * (1.0 - params.f_2Q))
    return float(f) if f.ndim == 0 else f


def _heat(n_eff: np.ndarray, coeff) -> np.ndarray:
    """heating_factor for ``lam * (1 - f_2Q)`` (a float, or one per point
    along the last axis)."""
    f = 1.0 - coeff * n_eff
    return np.where(f > 0.0, f, 0.0)


@np.errstate(divide="ignore", invalid="ignore")
def move_survival(n_vib: float | np.ndarray, params: HardwareParams) -> float | np.ndarray:
    """Probability an atom with n_vib quanta survives one move:
    1/2 * (1 + erf((n_max - n) / sqrt(2 n))), 1.0 at n = 0.  Float or array
    in, same kind out."""
    n = np.asarray(n_vib, dtype=float)
    arg, need = _erf_args(n, params.n_vib_max)
    p = np.ones(n.shape)
    p[need] = _survival(arg[need])
    return float(p) if n.ndim == 0 else p


def _erf_args(n: np.ndarray, n_vib_max) -> tuple[np.ndarray, np.ndarray]:
    """The erf argument of move_survival for each n_vib (n_vib_max a float,
    or one per point broadcast against n), and where it is needed: where
    n_vib > 0 and the argument is below ERF_ONE or NaN.  Elsewhere the
    survival is exactly 1.0."""
    arg = (n_vib_max - n) / np.sqrt(2.0 * n)
    return arg, ~((n <= 0.0) | (arg >= ERF_ONE))


def _survival(arg: np.ndarray) -> np.ndarray:
    """1/2 * (1 + erf(arg)) of a 1-d array, math.erf per element."""
    erf = np.fromiter(map(math.erf, arg.tolist()), float, arg.size)
    return 0.5 * (1.0 + erf)


@dataclass
class TimeLedger:
    T_1Q_total: float = 0.0
    T_2Q_total: float = 0.0
    T_move_total: float = 0.0
    T_transfer_total: float = 0.0


def execution_time(ledger: TimeLedger) -> float:
    return (ledger.T_1Q_total + ledger.T_2Q_total
            + ledger.T_move_total + ledger.T_transfer_total)


@dataclass
class FidelityReport:
    F_1Q: float
    F_2Q: float
    F_transfer: float
    F_mov_heating: float
    F_mov_loss: float
    F_mov_cooling: float
    F_mov_deco: float
    N_1Q: int
    N_2Q: int
    N_transfer: int
    N_cooling: int
    cooling: list[list[int]]  # per stage: AOD indices cooled after it
    move_distance_um: float   # per-stage sums of the move distances, in stage order

    @property
    def F_total(self) -> float:
        return (self.F_1Q * self.F_2Q * self.F_transfer * self.F_mov_heating
                * self.F_mov_loss * self.F_mov_cooling * self.F_mov_deco)

    def factors(self) -> dict[str, float]:
        return {k: getattr(self, k) for k in
                ("F_1Q", "F_2Q", "F_transfer", "F_mov_heating", "F_mov_loss",
                 "F_mov_cooling", "F_mov_deco")}

    def neg_log_breakdown(self) -> dict:
        """-log(F) per error source; None where a factor hit exactly 0."""
        return {k: (None if v == 0.0 else -math.log(v))
                for k, v in self.factors().items()}


# float arithmetic overflows to inf and NaN without a warning, as the scalar
# walk's Python floats do (a tiny T_per_move can heat an atom to inf quanta)
@np.errstate(all="ignore")
def apply_schedule(schedule: Schedule, points: list[tuple[HardwareParams, float | None]],
                   *, n_transfer: int = 0) -> list[tuple[FidelityReport, TimeLedger]]:
    """Score a schedule at each point, without modifying it.

    A point is (HardwareParams, T_per_move or None); all points are scored
    in one walk over the stages, giving one (report, ledger) per point, each
    the same as scoring that point alone.

    Every stage that moves is charged one move of the point's T_per_move:
    None keeps ``schedule.config.T_per_move``, and any other value goes
    through ``dataclasses.replace(schedule.config, T_per_move=...)``, so a
    value that ``ArchConfig`` rejects raises its ValueError.  Move distances
    follow from the lanes and ``schedule.config`` alone, so a move-time
    sweep rescores the same moves.  Gate times are charged per layer/stage
    (parallel pulses share a clock tick).  N_transfer is 0 for native
    schedules and only non-zero when scoring externally produced schedules
    that reload atoms between stages.

    The report's ``cooling`` lists, per stage, the AOD indices whose atoms
    were swapped against the cold reserve after that stage.

    Raises the lane walk's ValueError on a ``cz`` qubit outside
    range(n_qubits) or lanes that give an atom no finite position, and the
    audit's RuntimeError for the first stage in violation (``routed_walk``).
    """
    config = schedule.config
    placement = schedule.placement
    n_mapped = len(placement)
    aod_atoms: dict[int, list[int]] = {}
    for q, coord in placement.items():
        if coord.array > 0:
            aod_atoms.setdefault(coord.array, []).append(q)
    aods = [(array - 1, np.array(aod_atoms[array])[:, None]) for array in sorted(aod_atoms)]
    # the AODs' atoms back to back, for one per-AOD max per stage
    aod_order = np.array([q for array in sorted(aod_atoms) for q in aod_atoms[array]],
                         dtype=np.int64)
    aod_starts = np.cumsum([0] + [len(atoms) for _, atoms in aods[:-1]])

    hw = [p for p, _ in points]
    times = [config.T_per_move if t is None else replace(config, T_per_move=t).T_per_move
             for _, t in points]
    thresholds = [p.n_cool_threshold for p in hw]
    # the largest float at or below each threshold, so that a float n_vib
    # is above it exactly when it is above the threshold (an int threshold
    # may lie between two floats)
    limits = np.array([math.nextafter(float(t), -math.inf) if float(t) > t else float(t)
                       for t in thresholds])
    n_vib_max = np.array([p.n_vib_max for p in hw], dtype=float)[:, None]
    heat_coeff = np.array([p.lam * (1.0 - p.f_2Q) for p in hw], dtype=float)
    scale = np.array([p.x_zpf * p.omega0 ** 2 * t ** 2 for p, t in zip(hw, times)], dtype=float)

    # one column per point
    n_pts = len(points)
    n_vib = np.zeros((n_mapped, n_pts))
    F_mov_heating = [1.0] * n_pts
    F_mov_loss = [1.0] * n_pts
    F_mov_cooling = [1.0] * n_pts
    n_cooling = [0] * n_pts
    cooling = [[[] for _ in schedule.stages] for _ in points]
    n_1q = n_2q = n_layers = rydberg_stages = n_moving = k = 0
    total_distance = 0.0
    for block, atoms, dist in _read_stages(schedule, n_pts):
        if atoms.size:
            gain = _gain(dist[:, None], scale)
        # the post-move n_vib of each moved atom, and the n_vib pair of each
        # CZ, in stage-then-qubit order
        after, pairs = [], []
        for stage, moving, lo, hi, distance in block:
            total_distance += distance
            for layer in stage.raman:
                n_1q += len(layer)
            n_layers += len(stage.raman)
            n_moving += moving

            hot = False
            if hi > lo:
                moved = atoms[lo:hi]
                after.append(n_vib.take(moved, axis=0) + gain[lo:hi])
                n_vib[moved] = after[-1]
                hot = (after[-1] > limits).any()

            if stage.cz:
                rydberg_stages += 1
                n_2q += len(stage.cz)
                pairs.append(n_vib.take(stage.cz, axis=0))

            if hot:
                peaks = np.maximum.reduceat(n_vib.take(aod_order, axis=0), aod_starts).tolist()
                for (aod, aod_q), row in zip(aods, peaks):
                    cooled = list(compress(range(n_pts), map(gt, row, thresholds)))
                    if cooled:
                        n_vib[aod_q, cooled] = 0.0
                        for i in cooled:
                            cooling[i][k].append(aod)
                            F_mov_cooling[i] *= hw[i].f_2Q ** (2 * len(aod_q))
                            n_cooling[i] += 1
            k += 1

        if after:
            arg, need = _erf_args(np.concatenate(after).T, n_vib_max)
            factors = _survival(arg[need]).tolist()
            lo = 0
            for i, count in enumerate(need.sum(axis=1).tolist()):
                F_mov_loss[i] = math.prod(factors[lo:lo + count], start=F_mov_loss[i])
                lo += count
        if pairs:
            cz_n = np.concatenate(pairs)
            f = _heat(cz_n[:, 0] + cz_n[:, 1], heat_coeff).T.tolist()
            for i, factors in enumerate(f):
                F_mov_heating[i] = math.prod(factors, start=F_mov_heating[i])

    T_1Q = {t: reduce(add, repeat(t, n_layers), 0.0) for t in {p.t_1Q for p in hw}}
    scores = []
    for i, (params, t) in enumerate(zip(hw, times)):
        f2q, t1 = params.f_2Q, params.T1
        ledger = TimeLedger(
            T_1Q_total=T_1Q[params.t_1Q],
            T_2Q_total=(rydberg_stages + 2 * n_cooling[i]) * params.t_2Q,
            T_move_total=reduce(add, repeat(t, n_moving), 0.0),
            T_transfer_total=n_transfer * params.T_transfer)
        F_1Q = params.f_1Q ** n_1q * math.exp(-ledger.T_1Q_total * n_mapped / t1)
        F_2Q = f2q ** n_2q * math.exp(-ledger.T_2Q_total * n_mapped / t1)
        F_transfer = ((1.0 - params.P_loss_transfer) ** n_transfer
                      * math.exp(-ledger.T_transfer_total * n_mapped / t1))
        report = FidelityReport(
            F_1Q=F_1Q, F_2Q=F_2Q, F_transfer=F_transfer,
            F_mov_heating=F_mov_heating[i], F_mov_loss=F_mov_loss[i],
            F_mov_cooling=F_mov_cooling[i],
            F_mov_deco=math.prod(repeat(math.exp(-n_mapped * t / t1), n_moving), start=1.0),
            N_1Q=n_1q, N_2Q=n_2q, N_transfer=n_transfer, N_cooling=n_cooling[i],
            cooling=cooling[i], move_distance_um=total_distance,
        )
        scores.append((report, ledger))
    return scores


# Stages are scored, and their factors folded in, in blocks of up to BLOCK
# moved atoms or 16 * BLOCK entries (moved atoms times points) within one
# lane-walk block: enough to share numpy's per-call cost, too few to add
# to the memory peak of a compile or a sweep.
BLOCK = 1024


def _read_stages(schedule: Schedule, width: int):
    """Yield blocks of stages, as ([(stage, whether it moves, start and end
    of the atoms it moves, its move distance)], those atoms, their
    distances), for ``width`` points, from one audited lane walk."""
    n = len(schedule.placement)
    for _, chunk, _, moved, times in routed_walk(schedule):
        # every stage's distances back to back, and the moved ones
        flat = moved.reshape(-1)
        at = (flat > 0.0).nonzero()[0]
        atoms, dist = at % n, flat[at]
        ends = np.searchsorted(at, n * np.arange(1, len(chunk) + 1)).tolist()

        block, first, start = [], 0, 0
        for stage, t, end, distance in zip(chunk, times, ends, moved.sum(axis=1).tolist()):
            block.append((stage, t > 0.0, start - first, end - first, distance))
            start = end
            if start - first >= BLOCK or (start - first) * width >= 16 * BLOCK:
                yield block, atoms[first:start], dist[first:start]
                block, first = [], start
        if block:
            yield block, atoms[first:start], dist[first:start]
