"""Thermal tracking, cooling insertion, and the multiplicative fidelity model."""

import dataclasses
import math

import numpy as np
import pytest

from atomique.arch import AtomCoord, load_config
from atomique.circuit import Circuit
from atomique.fidelity import (
    FidelityReport,
    TimeLedger,
    apply_schedule,
    delta_nvib,
    execution_time,
    heating_factor,
    move_survival,
)
from atomique.pipeline import compile_circuit
from atomique.stage_router import Schedule, Stage, schedule_to_dict
from atomique.workloads import WorkloadSpec

CFG, PARAMS = load_config({})


def one_move_schedule(n_qubits):
    """Synthetic schedule: a single timed move, no gates, all atoms static."""
    placement = {q: AtomCoord(0, q // 10, q % 10) for q in range(n_qubits)}
    stage = Stage(
        raman=[],
        cz=[],
        row_lanes=[[]],
        col_lanes=[[]],
        col_offsets=[[]],
        distances_um=np.zeros(n_qubits),
        move_time_s=CFG.T_per_move,
    )
    return Schedule(CFG, placement, [stage], list(range(n_qubits)), [[]], [[]], 0)


def single_cz_result():
    circ = Circuit(2)
    circ.add("cz", (0, 1))
    return compile_circuit(circ, CFG, PARAMS)


# ---------------------------------------------------------------------------
# heating per move
# ---------------------------------------------------------------------------


def test_quanta_added_by_one_hop():
    assert delta_nvib(15.0, PARAMS, CFG.T_per_move) == pytest.approx(0.0054, rel=2e-2)


def test_quanta_added_by_ten_hops():
    assert delta_nvib(150.0, PARAMS, CFG.T_per_move) == pytest.approx(0.54, rel=2e-2)


def test_quanta_scale_with_distance_squared():
    base = delta_nvib(15.0, PARAMS, CFG.T_per_move)
    assert delta_nvib(75.0, PARAMS, CFG.T_per_move) == pytest.approx(25 * base)
    assert delta_nvib(30.0, PARAMS, CFG.T_per_move) == pytest.approx(4 * base)


def test_quanta_fall_with_fourth_power_of_duration():
    slow = delta_nvib(45.0, PARAMS, 2 * CFG.T_per_move)
    fast = delta_nvib(45.0, PARAMS, CFG.T_per_move)
    assert slow == pytest.approx(fast / 16)


def test_zero_distance_adds_nothing():
    assert delta_nvib(0.0, PARAMS, CFG.T_per_move) == 0.0


# ---------------------------------------------------------------------------
# hot-atom gate and survival penalties
# ---------------------------------------------------------------------------


def test_cold_atom_gates_perfectly():
    assert heating_factor(0.0, PARAMS) == 1.0


def test_heating_break_even_point():
    # near n_eff ~ 2/lambda (~18) the penalty matches two extra gates at f=0.975
    worse = dataclasses.replace(PARAMS, f_2Q=0.975)
    assert heating_factor(18.35, worse) == pytest.approx(0.950, abs=1e-4)
    assert heating_factor(18.35, worse) == pytest.approx(0.975**2, abs=2e-3)


def test_heating_factor_arithmetic():
    assert heating_factor(10.0, PARAMS) == pytest.approx(1 - 0.002725, rel=1e-9)


def test_heating_factor_clamped_at_zero():
    assert heating_factor(1e9, PARAMS) == 0.0


def test_move_survival_reference_points():
    assert move_survival(30.0, PARAMS) == pytest.approx(0.708, abs=1e-3)
    assert move_survival(20.0, PARAMS) == pytest.approx(0.998, abs=1e-3)
    assert move_survival(15.0, PARAMS) == pytest.approx(0.999998, abs=1e-5)
    assert move_survival(0.0, PARAMS) == 1.0


def test_move_survival_monotone_in_temperature():
    last = 1.0
    for n in range(1, 60):
        s = move_survival(float(n), PARAMS)
        assert s <= last + 1e-12
        last = s


# ---------------------------------------------------------------------------
# schedule walk: decoherence, ledger, counts
# ---------------------------------------------------------------------------


def test_one_move_decoherence_scaling():
    for n, expect in [(10, 0.998), (50, 0.990), (100, 0.980)]:
        report, ledger = apply_schedule(one_move_schedule(n), PARAMS)
        assert report.F_mov_deco == pytest.approx(expect, abs=1e-3)
        assert report.F_mov_deco == pytest.approx(
            math.exp(-n * CFG.T_per_move / PARAMS.T1), rel=1e-12
        )
        assert ledger.T_move_total == pytest.approx(CFG.T_per_move)


def test_empty_schedule_is_perfect():
    empty = Schedule(CFG, {0: AtomCoord(0, 0, 0)}, [], [0], [[]], [[]], 0)
    report, ledger = apply_schedule(empty, PARAMS)
    assert all(v == 1.0 for v in report.factors().values())
    assert report.F_total == 1.0
    assert execution_time(ledger) == 0.0
    assert all(v == 0.0 for v in report.neg_log_breakdown().values())


def test_single_gate_time_ledger():
    res = single_cz_result()
    ledger = res.ledger
    assert ledger.T_move_total == pytest.approx(300e-6)
    assert ledger.T_2Q_total == pytest.approx(380e-9)
    assert execution_time(ledger) == pytest.approx(300e-6 + 380e-9)
    assert res.report.N_2Q == 1 and res.report.N_1Q == 0
    assert res.report.F_2Q == pytest.approx(
        PARAMS.f_2Q * math.exp(-380e-9 * 2 / PARAMS.T1)
    )


def test_pulse_time_counts_stages_plus_cooling_swaps():
    circ = WorkloadSpec("qaoa-rand", 10, seed=4, p=0.5).generate()
    res = compile_circuit(circ, CFG, PARAMS)
    ryd = sum(1 for s in res.schedule.stages if s.cz)
    n_cool = res.report.N_cooling
    assert res.ledger.T_2Q_total == pytest.approx((ryd + 2 * n_cool) * PARAMS.t_2Q)


def test_cooling_event_adds_two_gate_times():
    res = single_cz_result()
    eager = dataclasses.replace(PARAMS, n_cool_threshold=0.0)
    report, ledger = apply_schedule(res.schedule, eager)
    report0, ledger0 = apply_schedule(res.schedule, PARAMS)
    assert report0.N_cooling == 0
    assert report.N_cooling == 1
    assert ledger.T_2Q_total - ledger0.T_2Q_total == pytest.approx(2 * PARAMS.t_2Q)
    assert execution_time(ledger) - execution_time(ledger0) == pytest.approx(760e-9)
    # one movable atom swapped against the cold reserve: two CZs at f_2Q
    assert report.F_mov_cooling == pytest.approx(PARAMS.f_2Q**2)
    assert report0.F_mov_cooling == 1.0


def test_cooling_events_annotated_on_stages():
    res = single_cz_result()
    before = schedule_to_dict(res.schedule)
    eager = dataclasses.replace(PARAMS, n_cool_threshold=0.0)
    report, _ = apply_schedule(res.schedule, eager)
    assert len(report.cooling) == len(res.schedule.stages)
    assert [c for c in report.cooling if c] == [[0]]
    # the events are reported, not written onto the schedule
    assert schedule_to_dict(res.schedule) == before
    lenient, _ = apply_schedule(res.schedule, PARAMS)
    assert not any(lenient.cooling)


def test_scoring_leaves_the_schedule_unchanged():
    circ = WorkloadSpec("qaoa-rand", 12, p=0.6).generate()
    res = compile_circuit(circ, dataclasses.replace(CFG, D_site=60.0), PARAMS)
    assert res.report.N_cooling >= 1
    # compile_circuit attaches the events of the scoring it just ran
    assert [s.cooling for s in res.schedule.stages] == res.report.cooling
    before = schedule_to_dict(res.schedule)
    for params in (PARAMS, dataclasses.replace(PARAMS, n_cool_threshold=0.0)):
        first = apply_schedule(res.schedule, params)
        second = apply_schedule(res.schedule, params)
        assert first == second
        assert schedule_to_dict(res.schedule) == before


def test_move_time_override_rescales_heating_and_clock():
    circ = WorkloadSpec("qaoa-rand", 10, seed=7, p=0.5).generate()
    res = compile_circuit(circ, CFG, PARAMS)
    moving = sum(1 for s in res.schedule.stages if s.move_time_s > 0)
    rep_fast, led_fast = apply_schedule(res.schedule, PARAMS, T_per_move=150e-6)
    rep_slow, led_slow = apply_schedule(res.schedule, PARAMS, T_per_move=600e-6)
    assert led_fast.T_move_total == pytest.approx(moving * 150e-6)
    assert led_slow.T_move_total == pytest.approx(moving * 600e-6)
    assert rep_slow.F_mov_heating >= rep_fast.F_mov_heating  # slower is gentler
    assert rep_slow.F_mov_deco < rep_fast.F_mov_deco  # but decoheres longer


def test_transfer_operations_scored_for_external_schedules():
    report, ledger = apply_schedule(one_move_schedule(10), PARAMS, n_transfer=3)
    assert ledger.T_transfer_total == pytest.approx(3 * PARAMS.T_transfer)
    assert report.N_transfer == 3
    assert report.F_transfer == pytest.approx(
        (1 - PARAMS.P_loss_transfer) ** 3
        * math.exp(-ledger.T_transfer_total * 10 / PARAMS.T1)
    )


# ---------------------------------------------------------------------------
# model-level invariants
# ---------------------------------------------------------------------------


def test_factors_stay_in_unit_interval():
    for seed in range(3):
        circ = WorkloadSpec("qsim-rand", 9, seed=seed, n_strings=5).generate()
        res = compile_circuit(circ, CFG, PARAMS)
        for name, v in res.report.factors().items():
            assert 0.0 < v <= 1.0, name
        assert res.report.F_total == pytest.approx(
            math.prod(res.report.factors().values())
        )


def test_more_stages_never_help():
    res = single_cz_result()
    once = res.schedule
    twice = dataclasses.replace(once, stages=once.stages * 2)
    f_once, _ = apply_schedule(once, PARAMS)
    f_twice, _ = apply_schedule(twice, PARAMS)
    assert f_twice.F_total < f_once.F_total


def test_cooling_keeps_atoms_below_threshold_plus_one_move():
    cfg60 = dataclasses.replace(CFG, D_site=60.0)
    circ = WorkloadSpec("qaoa-rand", 12, p=0.6).generate()
    res = compile_circuit(circ, cfg60, PARAMS)
    assert res.report.N_cooling >= 1

    # replay the thermal walk from the stage annotations
    n_vib = {q: 0.0 for q, c in res.placement.items() if c.array > 0}
    by_array = {}
    for q, c in res.placement.items():
        if c.array > 0:
            by_array.setdefault(c.array, []).append(q)
    peak = biggest_step = 0.0
    for stage in res.schedule.stages:
        for q, d in enumerate(stage.distances_um):
            if d > 0:
                step = delta_nvib(float(d), PARAMS, stage.move_time_s)
                n_vib[q] += step
                biggest_step = max(biggest_step, step)
        peak = max(peak, max(n_vib.values()))
        for array, atoms in sorted(by_array.items()):
            hot = max(n_vib[q] for q in atoms) > PARAMS.n_cool_threshold
            assert hot == (array - 1 in stage.cooling)
            if hot:
                for q in atoms:
                    n_vib[q] = 0.0
    assert peak <= PARAMS.n_cool_threshold + biggest_step + 1e-9


def test_dense_lattice_short_hops_never_need_cooling():
    circ = WorkloadSpec("qaoa-rand", 12, p=0.6).generate()
    res = compile_circuit(circ, CFG, PARAMS)
    assert res.stats["n_2q"] <= 100
    assert res.report.N_cooling == 0


def test_move_duration_tradeoff_has_interior_optimum():
    circ = WorkloadSpec("qaoa-rand", 12, p=0.6).generate()
    res = compile_circuit(circ, CFG, PARAMS)
    durations = [us * 1e-6 for us in range(100, 1001, 100)]
    totals = []
    for t in durations:
        rep, _ = apply_schedule(res.schedule, PARAMS, T_per_move=t)
        totals.append(rep.F_total)
    best = totals.index(max(totals))
    assert 0 < best < len(totals) - 1
    assert durations[best] == pytest.approx(300e-6)
