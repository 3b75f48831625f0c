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

* One loop runs over blocks of stages that share a move time.  The quanta
  each moved atom gains depend on nothing but its distance and the move
  time, so one ``delta_nvib`` call heats a whole block.  A walk over the
  block's stages then keeps only the sequential state: one ``n_vib`` array
  over all atoms, heated at once where ``distances_um > 0``, and the per-AOD
  cooling check.  It records the post-move ``n_vib`` of the moved atoms
  (ascending qubit order) and the ``n_vib`` pair of each CZ.
* The cooling check runs only after a stage that moves an atom: ``n_vib``
  starts at 0, rises only by a move, and every check leaves each AOD at or
  below the (non-negative) threshold.
* ``delta_nvib``, ``move_survival`` and ``heating_factor`` take a float or an
  array and evaluate each element in the scalar formula's order:
  ``6.0 * (D * 1e-6) / (x_zpf * omega0**2 * T**2)``, then ``0.5 * x * x``,
  then ``(n_max - n) / sqrt(2 n)``.  numpy's ``+ - * /`` and ``sqrt`` round
  each element as the scalar operation does.
* Each block's survival factors, and its heating factors, are folded in
  with one ``math.prod(values, start=F)`` each, which works left to right
  like ``F *= f`` in stage-then-qubit order, so where the blocks end
  changes no bit.  Factors of exactly 1.0 are left out, as multiplying by
  them changes no bit.  ``np.prod`` pairs its terms in another order, and
  without a float ``start`` an empty product is the int ``1``.
* numpy has no erf, so ``math.erf`` runs per element, but only where its
  argument is below ``ERF_ONE`` = 6.0 or is NaN: from 6.0 up ``math.erf``
  is exactly 1.0, so the survival there is exactly 1.0 and multiplying by
  it changes no bit.  A NaN argument still reaches ``math.erf``, so a NaN
  (from an ``n_vib`` heated to inf) propagates into ``F_mov_loss``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arch import HardwareParams
from .stage_router import Schedule

# math.erf(x) == 1.0 for every x >= ERF_ONE (tests/test_fidelity.py checks it)
ERF_ONE = 6.0


def delta_nvib(D_um: float | np.ndarray, params: HardwareParams,
               T_move_s: float) -> float | np.ndarray:
    """Vibrational quanta added by moving a distance D in one stage.

    Constant-jerk trajectory: dn = 1/2 * (6D / (x_zpf * w0^2 * T^2))^2,
    evaluated in SI units; 0 for a zero-length move.  Takes a float or an
    array of distances and returns the same kind.
    """
    D_um = np.asarray(D_um, dtype=float)
    x = 6.0 * (D_um * 1e-6) / (params.x_zpf * params.omega0 ** 2 * T_move_s ** 2)
    dn = np.where(D_um <= 0.0, 0.0, 0.5 * x * x)
    return float(dn) if dn.ndim == 0 else dn


def heating_factor(n_eff: float | np.ndarray, params: HardwareParams) -> float | np.ndarray:
    """CZ fidelity retention when the movable side carries n_eff quanta
    (sum of both sides for a movable-movable pair); clamped at 0 the way
    ``max(0.0, f)`` clamps.  Float or array in, same kind out."""
    f = 1.0 - params.lam * (1.0 - params.f_2Q) * np.asarray(n_eff, dtype=float)
    f = np.where(f > 0.0, f, 0.0)
    return float(f) if f.ndim == 0 else f


def move_survival(n_vib: float | np.ndarray, params: HardwareParams) -> float | np.ndarray:
    """Probability an atom with n_vib quanta survives one move:
    1/2 * (1 + erf((n_max - n) / sqrt(2 n))), 1.0 at n = 0.  Float or array
    in, same kind out."""
    n = np.asarray(n_vib, dtype=float)
    flat = n.reshape(-1)
    p = np.ones(flat.shape)
    hot = np.flatnonzero(~(flat <= 0.0))
    arg = (params.n_vib_max - flat[hot]) / np.sqrt(2.0 * flat[hot])
    need = ~(arg >= ERF_ONE)  # NaN needs erf too, to come out NaN
    erf = np.fromiter(map(math.erf, arg[need].tolist()), float, np.count_nonzero(need))
    p[hot[need]] = 0.5 * (1.0 + erf)
    return float(p[0]) if n.ndim == 0 else p.reshape(n.shape)


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
def apply_schedule(schedule: Schedule, params: HardwareParams, *,
                   T_per_move: float | None = None,
                   n_transfer: int = 0) -> tuple[FidelityReport, TimeLedger]:
    """Score a schedule without modifying it.

    The report's ``cooling`` lists, per stage, the AOD indices whose atoms
    were swapped against the cold reserve after that stage.

    T_per_move overrides the schedule's move duration for every stage that
    moves (distances stay fixed), which is what a move-time sweep rescores.
    Gate times are charged per layer/stage (parallel pulses share a clock
    tick).
    N_transfer is 0 for native schedules and only non-zero when scoring
    externally produced schedules that reload atoms between stages.

    Raises ValueError, naming the stage, when a stage's ``distances_um``
    does not hold one entry per atom, a static atom has a nonzero distance,
    or a ``cz`` names a qubit outside range(n_qubits).
    """
    placement = schedule.placement
    n_mapped = len(placement)
    aod_atoms: dict[int, list[int]] = {}
    for q, coord in placement.items():
        if coord.array > 0:
            aod_atoms.setdefault(coord.array, []).append(q)
    aods = [(array - 1, np.array(aod_atoms[array])) for array in sorted(aod_atoms)]
    # the AODs' atoms back to back, for one per-AOD max per stage
    aod_order = np.array([q for array in sorted(aod_atoms) for q in aod_atoms[array]],
                         dtype=np.int64)
    aod_starts = np.cumsum([0] + [len(atoms) for _, atoms in aods[:-1]])
    movable = np.zeros(n_mapped, dtype=bool)
    movable[aod_order] = True

    n_vib = np.zeros(n_mapped)
    ledger = TimeLedger()
    f2q, t1 = params.f_2Q, params.T1
    F_mov_heating = F_mov_loss = F_mov_cooling = F_mov_deco = 1.0
    n_1q = n_2q = n_cooling = 0
    rydberg_stages = 0
    cooling: list[list[int]] = []
    for move_t, block in _read_stages(schedule.stages, movable, T_per_move):
        dist = np.concatenate([d for *_, d in block])
        gain = delta_nvib(dist, params, move_t) if dist.size else dist
        # the post-move n_vib of each moved atom, and the n_vib pair of each
        # CZ, in stage-then-qubit order
        after, pairs, start = [], [], 0
        for stage, t, moved, _ in block:
            for layer in stage.raman:
                n_1q += len(layer)
                ledger.T_1Q_total += params.t_1Q

            if moved.size:
                after.append(n_vib[moved] + gain[start:start + moved.size])
                n_vib[moved] = after[-1]
                start += moved.size
            if t > 0.0:
                ledger.T_move_total += t
                F_mov_deco *= math.exp(-n_mapped * t / t1)

            if stage.cz:
                rydberg_stages += 1
                n_2q += len(stage.cz)
                pairs.append(n_vib[stage.cz])

            cooled = []
            if moved.size:  # only a move can call for a cooling
                peaks = np.maximum.reduceat(n_vib[aod_order], aod_starts).tolist()
                for (aod, atoms), peak in zip(aods, peaks):
                    if peak > params.n_cool_threshold:
                        F_mov_cooling *= f2q ** (2 * len(atoms))
                        n_vib[atoms] = 0.0
                        n_cooling += 1
                        cooled.append(aod)
            cooling.append(cooled)

        if after:
            f = move_survival(np.concatenate(after), params)
            F_mov_loss = math.prod(f[f != 1.0].tolist(), start=F_mov_loss)
        if pairs:
            cz_n = np.concatenate(pairs)
            f = heating_factor(cz_n[:, 0] + cz_n[:, 1], params)
            F_mov_heating = math.prod(f[f != 1.0].tolist(), start=F_mov_heating)

    ledger.T_2Q_total = (rydberg_stages + 2 * n_cooling) * params.t_2Q
    ledger.T_transfer_total = n_transfer * params.T_transfer

    F_1Q = params.f_1Q ** n_1q * math.exp(-ledger.T_1Q_total * n_mapped / t1)
    F_2Q = f2q ** n_2q * math.exp(-ledger.T_2Q_total * n_mapped / t1)
    F_transfer = ((1.0 - params.P_loss_transfer) ** n_transfer
                  * math.exp(-ledger.T_transfer_total * n_mapped / t1))

    report = FidelityReport(
        F_1Q=F_1Q, F_2Q=F_2Q, F_transfer=F_transfer,
        F_mov_heating=F_mov_heating, F_mov_loss=F_mov_loss,
        F_mov_cooling=F_mov_cooling, F_mov_deco=F_mov_deco,
        N_1Q=n_1q, N_2Q=n_2q, N_transfer=n_transfer, N_cooling=n_cooling,
        cooling=cooling,
    )
    return report, ledger


# Stages are read, and their factors folded in, in blocks of up to BLOCK
# moved atoms or BLOCK // 16 stages: enough to share numpy's per-call cost,
# too few to add to the compile's memory peak.
BLOCK = 1024


def _read_stages(stages, movable: np.ndarray, T_per_move: float | None):
    """Check each stage and yield blocks of stages that share one move time,
    as (move time, [(stage, its move time, atoms moved, their distances)]).

    A stage that does not move has a move time <= 0 (or NaN) and no atoms,
    and joins the open block."""
    n = len(movable)
    block, block_t, size = [], None, 0
    for k, stage in enumerate(stages):
        dist = np.asarray(stage.distances_um, dtype=float)
        if dist.shape != (n,):
            raise ValueError(f"stage {k}: distances_um has shape {dist.shape}, "
                             f"needs one entry per atom ({n})")
        moved = (dist > 0.0).nonzero()[0]
        if np.count_nonzero(movable[moved]) != moved.size:
            q = int(moved[~movable[moved]][0])
            raise ValueError(f"stage {k}: static atom {q} has move distance "
                             f"{float(dist[q])!r} um")
        for a, b in stage.cz:
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"stage {k}: cz {[a, b]} names a qubit not in range({n})")

        move_t = stage.move_time_s
        if T_per_move is not None and move_t > 0.0:
            move_t = T_per_move
        if not move_t > 0.0:
            moved = moved[:0]
        elif move_t != block_t:
            if block:
                yield block_t, block
            block, block_t, size = [], move_t, 0
        block.append((stage, move_t, moved, dist[moved]))
        size += moved.size
        if size >= BLOCK or len(block) >= BLOCK // 16:
            yield block_t, block
            block, size = [], 0
    if block:
        yield block_t, block
