"""Thermal tracking, cooling insertion, and the multiplicative fidelity model."""

import copy
import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import score_reference
from atomique import fidelity, stage_router
from atomique.arch import AtomCoord, Violation, load_config
from atomique.circuit import Circuit
from atomique.fidelity import (
    ERF_ONE,
    FidelityReport,
    TimeLedger,
    apply_schedule,
    delta_nvib,
    execution_time,
    heating_factor,
    move_survival,
)
from atomique.pipeline import compile_circuit
from atomique.stage_router import (
    Schedule,
    Stage,
    audit_schedule,
    schedule_from_dict,
    schedule_to_dict,
)
from atomique.workloads import FAMILIES, WorkloadSpec
from audit_reference import move_time, stage_moves

CFG, PARAMS = load_config({})


def empty_schedule():
    """No stages, one static atom, and every AOD row and column empty."""
    return Schedule(CFG, {0: AtomCoord(0, 0, 0)}, [], [0], [[None] * r for r in CFG.aod_rows],
                    [[None] * c for c in CFG.aod_cols], 0)


def one_move_schedule(n_qubits):
    """Synthetic schedule: a single timed move, no gates.  Every atom but
    the last is static; the last, alone in AOD 0, moves one park lane
    (15 um), too little to lose it or to call for a cooling."""
    placement = {q: AtomCoord(0, q // 10, q % 10) for q in range(n_qubits - 1)}
    placement[n_qubits - 1] = AtomCoord(1, 0, 0)

    def aod_lanes(lane, sizes):
        """AOD 0's first row or column on `lane`, every other one empty."""
        return [[lane] + [None] * (sizes[0] - 1), [None] * sizes[1]]

    stage = Stage(raman=[], cz=[], row_lanes=aod_lanes(3, CFG.aod_rows),
                  col_lanes=aod_lanes(1, CFG.aod_cols),
                  col_offsets=[[0.0] * cols for cols in CFG.aod_cols])
    return Schedule(CFG, placement, [stage], list(range(n_qubits)),
                    aod_lanes(1, CFG.aod_rows), aod_lanes(1, CFG.aod_cols), 0)


def stage_distances(schedule):
    """Each stage's move distances, derived from the lanes stage by stage."""
    return [moved for _, moved in stage_moves(schedule)]


def single_cz_result():
    circ = Circuit(2)
    circ.add("cz", (0, 1))
    return compile_circuit(circ, CFG, PARAMS)


def score(schedule, params, T_per_move=None, n_transfer=0):
    """The (report, ledger) of scoring one point."""
    [result] = apply_schedule(schedule, [(params, T_per_move)], n_transfer=n_transfer)
    return result


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
        report, ledger = score(one_move_schedule(n), PARAMS)
        assert report.F_mov_deco == pytest.approx(expect, abs=1e-3)
        assert report.F_mov_deco == pytest.approx(
            math.exp(-n * CFG.T_per_move / PARAMS.T1), rel=1e-12
        )
        assert ledger.T_move_total == pytest.approx(CFG.T_per_move)


def test_empty_schedule_is_perfect():
    report, ledger = score(empty_schedule(), PARAMS)
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
    report, ledger = score(res.schedule, eager)
    report0, ledger0 = score(res.schedule, PARAMS)
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
    report, _ = score(res.schedule, eager)
    assert len(report.cooling) == len(res.schedule.stages)
    assert [c for c in report.cooling if c] == [[0]]
    # the events are reported, not written onto the schedule
    assert schedule_to_dict(res.schedule) == before
    lenient, _ = score(res.schedule, PARAMS)
    assert not any(lenient.cooling)


def test_scoring_leaves_the_schedule_unchanged():
    circ = WorkloadSpec("qaoa-rand", 12, p=0.6).generate()
    res = compile_circuit(circ, dataclasses.replace(CFG, D_site=60.0), PARAMS)
    assert res.report.N_cooling >= 1
    # compile_circuit attaches the events of the scoring it just ran
    assert [s.cooling for s in res.schedule.stages] == res.report.cooling
    before = schedule_to_dict(res.schedule)
    for params in (PARAMS, dataclasses.replace(PARAMS, n_cool_threshold=0.0)):
        first = score(res.schedule, params)
        second = score(res.schedule, params)
        assert first == second
        assert schedule_to_dict(res.schedule) == before


def test_move_time_override_rescales_heating_and_clock():
    circ = WorkloadSpec("qaoa-rand", 10, seed=7, p=0.5).generate()
    res = compile_circuit(circ, CFG, PARAMS)
    moving = sum(1 for s, d in zip(res.schedule.stages, stage_distances(res.schedule))
                 if move_time(s, d, CFG) > 0)
    rep_fast, led_fast = score(res.schedule, PARAMS, T_per_move=150e-6)
    rep_slow, led_slow = score(res.schedule, PARAMS, T_per_move=600e-6)
    assert led_fast.T_move_total == pytest.approx(moving * 150e-6)
    assert led_slow.T_move_total == pytest.approx(moving * 600e-6)
    assert rep_slow.F_mov_heating >= rep_fast.F_mov_heating  # slower is gentler
    assert rep_slow.F_mov_deco < rep_fast.F_mov_deco  # but decoheres longer


def test_transfer_operations_scored_for_external_schedules():
    report, ledger = score(one_move_schedule(10), PARAMS, n_transfer=3)
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
    f_once, _ = score(once, PARAMS)
    f_twice, _ = score(twice, PARAMS)
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
    for stage, distances in zip(res.schedule.stages, stage_distances(res.schedule)):
        for q, d in enumerate(distances):
            if d > 0:
                step = delta_nvib(float(d), PARAMS, cfg60.T_per_move)
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
        rep, _ = score(res.schedule, PARAMS, T_per_move=t)
        totals.append(rep.F_total)
    best = totals.index(max(totals))
    assert 0 < best < len(totals) - 1
    assert durations[best] == pytest.approx(300e-6)


# ---------------------------------------------------------------------------
# array passes against the scalar walk in score_reference.py
# ---------------------------------------------------------------------------


def score_repr(report, ledger):
    """Every report and ledger field, exactly: repr tells apart float bits,
    -0.0 from 0.0, and a float 1.0 from an int 1 or a numpy scalar."""
    return repr((dataclasses.asdict(report), report.F_total,
                 report.neg_log_breakdown(), dataclasses.asdict(ledger)))


def assert_scores_like_the_walk(schedule, params, **kwargs):
    got = score(schedule, params, **kwargs)
    want = score_reference.apply_schedule(schedule, params, **kwargs)
    assert score_repr(*got) == score_repr(*want)
    return got


@functools.lru_cache(maxsize=None)
def compiled_schedule(family, n, seed, relaxed, D_site):
    cfg = dataclasses.replace(CFG, relaxed=relaxed, D_site=D_site)
    return compile_circuit(WorkloadSpec(family, n, seed=seed).generate(), cfg, PARAMS,
                           seed=seed).schedule


# move-time overrides that ArchConfig accepts: 1e-60 heats to ~1e223
# quanta, 1e-150 overflows n_vib to inf
OVERRIDES = st.one_of(st.none(), st.floats(1e-5, 2e-3), st.sampled_from([1e-9, 1e-60, 1e-150]))


@st.composite
def scored_schedules(draw):
    """A compiled schedule (random family, size, relax set, pitch, and maybe
    a few idle stages) and the arguments to score it with at one point."""
    relaxed = draw(st.frozensets(st.sampled_from(["C1", "C2", "C3"])))
    schedule = compiled_schedule(
        draw(st.sampled_from(FAMILIES)), 2 * draw(st.integers(2, 8)), draw(st.integers(0, 3)),
        relaxed, draw(st.sampled_from([15.0, 60.0])))  # 60 um hops force coolings
    hw = {"n_cool_threshold": draw(st.one_of(st.just(0.0), st.floats(0.0, 32.0)))}
    heat = draw(st.sampled_from(["default", "clamp", "random"]))
    if heat == "clamp":  # lam * (1 - f_2Q) = 5: any n_eff above 0.2 clamps at 0
        hw.update(f_2Q=0.5, lam=10.0)
    elif heat == "random":
        hw.update(f_2Q=draw(st.floats(0.5, 1.0)), lam=draw(st.floats(0.0, 20.0)))
    # idle copies of stages among moving ones (no CZ, the lanes of the
    # stage before, so no move and move time 0.0): they sit inside a block
    # without heating it, and only a move may call for a cooling.  route()
    # never writes an idle stage after a CZ stage, and a copy of one leaves
    # its pairs 0.5 um apart without their pulse, which the audit in
    # scoring allows only where C1 is relaxed; scoring reads no `relaxed`
    idle = (draw(st.sets(st.integers(1, max(1, len(schedule.stages) - 2)), max_size=4))
            if "C1" in relaxed else set())
    stages = []
    for k, s in enumerate(schedule.stages):
        stages.append(s)
        if k in idle:
            stages.append(Stage([], [], s.row_lanes, s.col_lanes, s.col_offsets))
    schedule = dataclasses.replace(schedule, stages=stages)
    T_per_move = draw(OVERRIDES)
    kwargs = {"T_per_move": T_per_move, "n_transfer": draw(st.integers(0, 5))}
    return schedule, dataclasses.replace(PARAMS, **hw), kwargs


@settings(max_examples=250, deadline=None)
@given(scored_schedules(), st.sampled_from([16, 32, 1024]))
def test_scoring_matches_the_scalar_walk_bit_for_bit(case, block):
    schedule, params, kwargs = case
    # a small block folds the products after every stage or two
    default = fidelity.BLOCK
    fidelity.BLOCK = block
    try:
        report, _ = assert_scores_like_the_walk(schedule, params, **kwargs)
    finally:
        fidelity.BLOCK = default
    assert len(report.cooling) == len(schedule.stages)


@st.composite
def scored_batches(draw):
    """A schedule drawn as in scored_schedules, and 1-6 points to score it
    at in one call: each point keeps or redraws the cooling threshold, f_2Q,
    lambda and T1, and takes its own T_per_move."""
    schedule, params, kwargs = draw(scored_schedules())
    points = []
    for _ in range(draw(st.integers(1, 6))):
        hw = {key: draw(st.one_of(st.just(getattr(params, key)), values))
              for key, values in (("n_cool_threshold", st.floats(0.0, 32.0)),
                                  ("f_2Q", st.floats(0.5, 1.0)),
                                  ("lam", st.floats(0.0, 20.0)),
                                  ("T1", st.floats(1e-3, 10.0)))}
        T_per_move = draw(OVERRIDES)
        points.append((dataclasses.replace(params, **hw), T_per_move))
    return schedule, points, kwargs["n_transfer"]


@settings(max_examples=150, deadline=None)
@given(scored_batches(), st.sampled_from([16, 32, 1024]))
def test_a_batch_scores_every_point_like_the_scalar_walk(case, block):
    schedule, points, n_transfer = case
    before = schedule_to_dict(schedule)
    default = fidelity.BLOCK
    fidelity.BLOCK = block
    try:
        scores = apply_schedule(schedule, points, n_transfer=n_transfer)
    finally:
        fidelity.BLOCK = default
    assert len(scores) == len(points)
    for (params, T_per_move), got in zip(points, scores):
        want = score_reference.apply_schedule(schedule, params, T_per_move=T_per_move,
                                              n_transfer=n_transfer)
        assert score_repr(*got) == score_repr(*want)
    assert schedule_to_dict(schedule) == before


def test_a_batch_gives_each_point_its_own_report():
    schedule = compiled_schedule("qaoa-rand", 12, 0, frozenset(), 60.0)
    eager = dataclasses.replace(PARAMS, n_cool_threshold=0.0)
    (first, _), (second, _) = apply_schedule(schedule, [(eager, None), (eager, None)])
    assert first == second and first.cooling is not second.cooling
    assert any(first.cooling)
    assert apply_schedule(schedule, []) == []


def assert_cools_above_the_threshold_only(schedule, params, hop, T_per_move=None):
    """Score at threshold ``hop`` (the one move's quanta) and at the largest
    threshold below it, in one call: the first must not cool (the test is
    strict), the second must cool once, each as the scalar walk does."""
    below = math.nextafter(hop, -math.inf) if isinstance(hop, float) else hop - 1
    points = [(dataclasses.replace(params, n_cool_threshold=t), T_per_move) for t in (hop, below)]
    scores = apply_schedule(schedule, points)
    for (point, _), got in zip(points, scores):
        want = score_reference.apply_schedule(schedule, point, T_per_move=T_per_move)
        assert score_repr(*got) == score_repr(*want)
    (at, _), (under, _) = scores
    assert (at.N_cooling, at.cooling) == (0, [[]])
    assert (under.N_cooling, under.cooling) == (1, [[0]])


def test_a_move_to_exactly_the_threshold_does_not_cool():
    schedule = one_move_schedule(5)
    [hop_um] = [d for d in stage_distances(schedule)[0] if d > 0.0]
    hop = score_reference.delta_nvib(float(hop_um), PARAMS, CFG.T_per_move)
    assert 0.0 < hop < PARAMS.n_cool_threshold
    assert_cools_above_the_threshold_only(schedule, PARAMS, hop)


def test_an_int_threshold_between_two_floats_is_compared_exactly():
    # a 1 ns move heats by an integer-valued float far above 2**53, where
    # floats are 4 apart or more: the int one below it rounds to it as a
    # float, but the atom is still above it
    schedule = one_move_schedule(5)
    [hop_um] = [d for d in stage_distances(schedule)[0] if d > 0.0]
    params = dataclasses.replace(PARAMS, n_vib_max=1e30)
    hop = score_reference.delta_nvib(float(hop_um), params, 1e-9)
    assert 2.0 ** 54 < hop < 1e30 and float(int(hop) - 1) == hop
    assert_cools_above_the_threshold_only(schedule, params, int(hop), T_per_move=1e-9)


@pytest.mark.parametrize("T_per_move,message", [
    (0.0, "T_per_move must be positive"), (-1e-4, "T_per_move must be positive"),
    (math.nan, "T_per_move must be positive"), (math.inf, "T_per_move must be finite")])
def test_a_move_time_override_is_checked_as_the_config_checks_it(T_per_move, message):
    schedule = single_cz_result().schedule
    with pytest.raises(ValueError, match=f"^{message}$"):
        score(schedule, PARAMS, T_per_move=T_per_move)
    with pytest.raises(ValueError, match=f"^{message}$"):
        apply_schedule(schedule, [(PARAMS, None), (PARAMS, T_per_move)])


def test_a_move_time_that_overflows_n_vib_gives_nan_like_the_walk():
    schedule = compiled_schedule("qaoa-rand", 10, 1, frozenset(), 15.0)
    report, _ = assert_scores_like_the_walk(schedule, PARAMS, T_per_move=1e-150)
    assert math.isnan(report.F_mov_loss)
    assert report.F_mov_heating == 0.0


def test_a_schedule_larger_than_a_block_matches_the_walk():
    schedule = compiled_schedule("qaoa-regular", 60, 0, frozenset(), 60.0)
    moved = sum(int((d > 0).sum()) for d in stage_distances(schedule))
    assert moved > fidelity.BLOCK
    report, _ = assert_scores_like_the_walk(schedule, PARAMS)
    assert report.N_cooling > 0


def test_empty_and_gate_free_schedules_score_float_ones():
    # its gate pairs stay 0.5 um apart without their pulse, which the audit
    # in scoring allows only where C1 is relaxed
    moving = compiled_schedule("qaoa-rand", 12, 0, frozenset({"C1"}), 15.0)
    no_cz = dataclasses.replace(
        moving, stages=[dataclasses.replace(s, cz=[]) for s in moving.stages])
    for schedule in (empty_schedule(), one_move_schedule(10), no_cz):
        report, _ = assert_scores_like_the_walk(schedule, PARAMS)
        assert repr(report.F_mov_heating) == "1.0"
        assert repr(report.F_mov_cooling) == "1.0"
        assert repr(report.F_mov_loss) == "1.0"
    # fast moves: the gate-free schedule loses atoms, but still has no CZ to heat
    report, _ = assert_scores_like_the_walk(no_cz, PARAMS, T_per_move=5e-5)
    assert report.F_mov_loss < 1.0
    assert repr(report.F_mov_heating) == "1.0"


def test_erf_is_exactly_one_from_the_cutoff_up():
    xs = np.linspace(ERF_ONE, 60.0, 200_001).tolist()
    assert xs[0] == ERF_ONE
    assert all(math.erf(x) == 1.0 for x in xs)
    assert 0.5 * (1.0 + math.erf(ERF_ONE)) == 1.0


def test_formulas_take_arrays_and_match_their_scalars():
    d = np.array([0.0, 7.5, 15.0, 150.0, 1e9])
    n = np.array([0.0, 1e-3, 10.0, 27.0, 33.0, 1e6, math.inf])
    hot = dataclasses.replace(PARAMS, f_2Q=0.5, lam=10.0)
    assert repr(delta_nvib(d, PARAMS, 2e-4).tolist()) == repr(
        [score_reference.delta_nvib(x, PARAMS, 2e-4) for x in d.tolist()])
    with np.errstate(invalid="ignore"):  # inf / inf, silent in the scalar walk
        survival = move_survival(n, PARAMS).tolist()
    assert repr(survival) == repr(
        [score_reference.move_survival(x, PARAMS) for x in n.tolist()])
    for params in (PARAMS, hot):
        assert repr(heating_factor(n, params).tolist()) == repr(
            [score_reference.heating_factor(x, params) for x in n.tolist()])
    assert type(delta_nvib(15.0, PARAMS, 3e-4)) is float
    assert type(move_survival(10.0, PARAMS)) is float
    assert type(heating_factor(1.0, PARAMS)) is float


# ---------------------------------------------------------------------------
# malformed in-memory schedules
# ---------------------------------------------------------------------------


def with_stage(schedule, k, **changes):
    stages = list(schedule.stages)
    stages[k] = dataclasses.replace(stages[k], **changes)
    return dataclasses.replace(schedule, stages=stages)


def assert_rejected(bad, match):
    """Scoring rejects the schedule, alone and in a batch, with one message."""
    with pytest.raises(ValueError, match=match) as single:
        score(bad, PARAMS)
    with pytest.raises(ValueError) as batch:
        apply_schedule(bad, [(PARAMS, None), (PARAMS, 1e-4)])
    assert str(batch.value) == str(single.value)


@pytest.mark.parametrize("pair", [(0, 2), (-1, 1), (1, 7)])
def test_scoring_rejects_a_cz_on_a_qubit_that_does_not_exist(pair):
    schedule = single_cz_result().schedule
    k = next(k for k, s in enumerate(schedule.stages) if s.cz)
    bad = with_stage(schedule, k, cz=[pair])
    assert_rejected(bad, rf"stage {k}: cz \[{pair[0]}, {pair[1]}\]")


def test_the_first_bad_stage_is_named_whatever_its_fault():
    # the CZs of every stage are checked before any lane is read: a later
    # stage's fault, a bad CZ or lanes that give an atom no position, must
    # not hide an earlier one
    schedule = compiled_schedule("qaoa-rand", 12, 0, frozenset(), 15.0)
    j, k = [k for k, s in enumerate(schedule.stages) if s.cz][1:3]
    later_cz = with_stage(with_stage(schedule, j, cz=[(0, 99)]), k, cz=[(0, 98)])
    assert_rejected(later_cz, rf"^stage {j}: cz \[0, 99\] names a qubit not in range\(12\)$")
    t, i = next((t, i) for t, rows in enumerate(schedule.stages[k].row_lanes)
                for i, lane in enumerate(rows) if lane is not None)
    rows = [list(per_aod) for per_aod in schedule.stages[k].row_lanes]
    rows[t][i] = None
    later_lanes = with_stage(with_stage(schedule, j, cz=[(0, 99)]), k, row_lanes=rows)
    assert_rejected(later_lanes, rf"^stage {j}: cz \[0, 99\]")
    with pytest.raises(ValueError, match=rf"^stage {k}: AOD {t} row_lanes: an occupied AOD "
                                         "row or column has no lane"):
        score(with_stage(schedule, k, row_lanes=rows), PARAMS)


@pytest.mark.parametrize("block", [None, 90])
def test_scoring_refuses_a_schedule_whose_geometry_fails_the_audit(block, monkeypatch):
    # stage 3's AOD 0 rows collapsed onto one lane, in a file: scoring audits
    # each block before it scores it, and raises for the first stage in
    # violation with the routing audit's error and that stage's first four
    # findings, whatever the blocks (90 atoms: three stages a block)
    if block is not None:
        monkeypatch.setattr(stage_router, "AUDIT_BLOCK", block)
    doc = schedule_to_dict(compile_circuit(WorkloadSpec("qaoa-rand", 30, seed=2).generate(),
                                           CFG, PARAMS, seed=1).schedule)
    rows = doc["stages"][3]["aod"][0]["row_lanes"]
    lane = next(lane for lane in rows if lane is not None)
    rows[:] = [None if r is None else lane for r in rows]
    schedule = schedule_from_dict(doc)
    findings = audit_schedule(schedule)
    assert findings[0][0] == 3
    first = [v for k, v in findings if k == 3 and isinstance(v, Violation)][:4]
    want = f"stage geometry violates separation: {first}"
    before = copy.deepcopy(schedule)
    for points in ([(PARAMS, None)], [(PARAMS, None), (PARAMS, 1e-4)]):
        with pytest.raises(RuntimeError) as err:
            apply_schedule(schedule, points)
        assert str(err.value) == want
    assert repr(schedule) == repr(before)
