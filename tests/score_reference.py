"""Reference schedule scoring: the per-atom walk of `atomique.fidelity`.

`apply_schedule` as a scalar Python walk, kept only as a test oracle: every
moved atom is heated, and its survival multiplied in, one at a time, in
stage-then-qubit order; every CZ's heating factor likewise.  Each stage's
move distances come from its lanes, one stage at a time
(`audit_reference.stage_moves`).  The scalar formulas are copied here, so
the package's array passes must reproduce these floats bit for bit
(compare with `repr`).
"""

import math

from atomique.fidelity import FidelityReport, TimeLedger
from audit_reference import move_time, stage_moves


def delta_nvib(D_um, params, T_move_s):
    if D_um <= 0.0:
        return 0.0
    D = D_um * 1e-6
    x = 6.0 * D / (params.x_zpf * params.omega0 ** 2 * T_move_s ** 2)
    return 0.5 * x * x


def heating_factor(n_eff, params):
    return max(0.0, 1.0 - params.lam * (1.0 - params.f_2Q) * n_eff)


def move_survival(n_vib, params):
    if n_vib <= 0.0:
        return 1.0
    return 0.5 * (1.0 + math.erf((params.n_vib_max - n_vib) / math.sqrt(2.0 * n_vib)))


def apply_schedule(schedule, params, *, T_per_move=None, n_transfer=0):
    placement = schedule.placement
    n_mapped = len(placement)
    aod_atoms = {}
    for q, coord in placement.items():
        if coord.array > 0:
            aod_atoms.setdefault(coord.array, []).append(q)

    n_vib = {q: 0.0 for atoms in aod_atoms.values() for q in atoms}
    ledger = TimeLedger()
    f2q, t1 = params.f_2Q, params.T1

    F_mov_heating = F_mov_loss = F_mov_cooling = F_mov_deco = 1.0
    n_1q = n_2q = n_cooling = 0
    rydberg_stages = 0
    cooling = []
    move_distance = 0.0

    for stage, (_, distances) in zip(schedule.stages, stage_moves(schedule)):
        move_distance += float(distances.sum())
        for layer in stage.raman:
            n_1q += len(layer)
            ledger.T_1Q_total += params.t_1Q

        move_t = move_time(stage, distances, schedule.config)
        if T_per_move is not None and move_t > 0.0:
            move_t = T_per_move
        if move_t > 0.0:
            for q, dist in enumerate(distances):
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
        cooling=cooling, move_distance_um=move_distance,
    )
    return report, ledger
