"""Fidelity estimation for movement schedules.

Walks a schedule stage by stage, tracking every movable atom's vibrational
quantum number: each move deposits energy that grows with distance and
shrinks steeply with move duration, hot atoms gate worse and survive moves
less often, and an array whose atoms exceed the cooling threshold is swapped
against a cold reserve (two CZs per atom) and starts from n_vib = 0.  The
result is a product of seven error factors plus a wall-clock time ledger.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arch import HardwareParams
from .stage_router import Schedule


def delta_nvib(D_um: float, params: HardwareParams, T_move_s: float) -> float:
    """Vibrational quanta added by moving a distance D in one stage.

    Constant-jerk trajectory: dn = 1/2 * (6D / (x_zpf * w0^2 * T^2))^2,
    evaluated in SI units; 0 for a zero-length move.
    """
    if D_um <= 0.0:
        return 0.0
    D = D_um * 1e-6
    x = 6.0 * D / (params.x_zpf * params.omega0 ** 2 * T_move_s ** 2)
    return 0.5 * x * x


def heating_factor(n_eff: float, params: HardwareParams) -> float:
    """CZ fidelity retention when the movable side carries n_eff quanta
    (sum of both sides for a movable-movable pair); clamped at 0."""
    return max(0.0, 1.0 - params.lam * (1.0 - params.f_2Q) * n_eff)


def move_survival(n_vib: float, params: HardwareParams) -> float:
    """Probability an atom with n_vib quanta survives one move:
    1/2 * (1 + erf((n_max - n) / sqrt(2 n))), 1.0 at n = 0."""
    if n_vib <= 0.0:
        return 1.0
    return 0.5 * (1.0 + math.erf((params.n_vib_max - n_vib) / math.sqrt(2.0 * n_vib)))


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
    """
    placement = schedule.placement
    n_mapped = len(placement)
    aod_atoms: dict[int, list[int]] = {}
    for q, coord in placement.items():
        if coord.array > 0:
            aod_atoms.setdefault(coord.array, []).append(q)

    n_vib = {q: 0.0 for atoms in aod_atoms.values() for q in atoms}
    ledger = TimeLedger()
    f2q, t1 = params.f_2Q, params.T1

    F_mov_heating = F_mov_loss = F_mov_cooling = F_mov_deco = 1.0
    n_1q = n_2q = n_cooling = 0
    rydberg_stages = 0
    cooling: list[list[int]] = []

    for stage in schedule.stages:
        for layer in stage.raman:
            n_1q += len(layer)
            ledger.T_1Q_total += params.t_1Q

        move_t = stage.move_time_s
        if T_per_move is not None and move_t > 0.0:
            move_t = T_per_move
        if move_t > 0.0:
            for q, dist in enumerate(stage.distances_um):
                if dist > 0.0:
                    n_vib[q] += delta_nvib(float(dist), params, move_t)
                    F_mov_loss *= move_survival(n_vib[q], params)
            ledger.T_move_total += move_t
            F_mov_deco *= math.exp(-n_mapped * move_t / t1)

        if stage.cz:
            rydberg_stages += 1
            n_2q += len(stage.cz)
            for a, b in stage.cz:
                n_eff = n_vib.get(a, 0.0) + n_vib.get(b, 0.0)
                F_mov_heating *= heating_factor(n_eff, params)

        cooled = []
        for array in sorted(aod_atoms):
            atoms = aod_atoms[array]
            if max(n_vib[q] for q in atoms) > params.n_cool_threshold:
                F_mov_cooling *= f2q ** (2 * len(atoms))
                for q in atoms:
                    n_vib[q] = 0.0
                n_cooling += 1
                cooled.append(array - 1)
        cooling.append(cooled)

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
