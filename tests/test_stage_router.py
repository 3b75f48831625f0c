"""Movement scheduling: lane assignment, parallel gate selection, stages."""

import copy
import dataclasses
import functools
import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from atomique.arch import (
    ArchConfig,
    AtomCoord,
    atom_lanes,
    atom_positions,
    load_config,
    min_separation_audit,
)
from atomique import stage_router
from atomique.circuit import Circuit
from atomique.pipeline import compile_circuit
from atomique.swap_router import RoutedCircuit
from atomique.stage_router import (
    Schedule,
    _ArrayIndex,
    _Pins,
    _gate_pins,
    audit_schedule,
    initial_lanes,
    route,
    schedule_from_dict,
    schedule_to_circuit,
    schedule_to_dict,
    select_parallel_gates,
    synthesize_motion,
)
from atomique.workloads import WorkloadSpec
import route_reference
from audit_reference import audit_schedule as reference_audit
from select_reference import _conflicts, _order_ok


def small_config(n_aod=1, rows=10):
    cfg, _ = load_config({})
    return dataclasses.replace(
        cfg, n_aod=n_aod, aod_rows=(rows,) * n_aod, aod_cols=(rows,) * n_aod
    )


def relax(cfg, name):
    return dataclasses.replace(cfg, relaxed=cfg.relaxed | {name})


def n_1q(sched):
    return sum(len(layer) for s in sched.stages for layer in s.raman)


def n_2q(sched):
    return sum(len(s.cz) for s in sched.stages)


def as_routed(circ, placement):
    assign = np.array([placement[q].array for q in range(circ.n_qubits)])
    return RoutedCircuit(circ, assign, list(range(circ.n_qubits)), 0)


# ---------------------------------------------------------------------------
# initial lanes
# ---------------------------------------------------------------------------


def test_initial_lanes_first_movable_row_parks_above_lattice_row():
    cfg = small_config()
    rows, cols = initial_lanes(cfg, _ArrayIndex({0: AtomCoord(1, 0, 0)}, cfg))
    assert rows[0][0] == 1
    assert rows[0][0] * cfg.D_site / 2 == pytest.approx(0.5 * cfg.D_site)
    assert cols[0][0] == 1


def test_initial_lanes_second_array_stacked_past_the_first():
    cfg = small_config(n_aod=2, rows=10)
    rows, cols = initial_lanes(cfg, _ArrayIndex({0: AtomCoord(2, 0, 0)}, cfg))
    y = rows[1][0] * cfg.D_site / 2
    assert y == pytest.approx(0.5 * cfg.D_site + 10 * cfg.D_site)
    assert cols[1][0] == 21


def test_initial_lanes_only_occupied_slots_get_lanes():
    cfg = small_config()
    placement = {0: AtomCoord(1, 2, 5)}
    rows, cols = initial_lanes(cfg, _ArrayIndex(placement, cfg))
    assert rows[0][2] == 5 and cols[0][5] == 11
    assert all(l is None for i, l in enumerate(rows[0]) if i != 2)


def test_initial_positions_pass_separation_audit():
    cfg = small_config(n_aod=2)
    placement = {q: AtomCoord(0, q // 3, q % 3) for q in range(9)}
    placement.update({9 + q: AtomCoord(1, q, q) for q in range(4)})
    placement.update({13 + q: AtomCoord(2, q, 2 * q) for q in range(3)})
    circ = Circuit(16)
    sched = route(as_routed(circ, placement), placement, cfg)
    # raman-free, gate-free circuit: whatever stages exist must be clean,
    # and the parked starting geometry itself must be clean too
    assert audit_schedule(sched) == []
    lanes = atom_lanes(placement, [sched.initial_row_lanes], [sched.initial_col_lanes])
    pos = atom_positions(lanes, cfg)
    assert min_separation_audit(pos, [], cfg) == []


# ---------------------------------------------------------------------------
# single-gate stage geometry
# ---------------------------------------------------------------------------


def test_single_cz_routes_in_one_stage_onto_static_site():
    cfg = small_config()
    placement = {0: AtomCoord(0, 2, 3), 1: AtomCoord(1, 0, 0)}
    circ = Circuit(2)
    circ.add("cz", (0, 1))
    sched = route(as_routed(circ, placement), placement, cfg)
    assert len(sched.stages) == 1 and sched.depth == 1
    stage = sched.stages[0]
    assert stage.cz == [(0, 1)]
    # the movable atom is pulled onto the static atom's gate lanes
    assert stage.row_lanes[0][0] == 2 * 2
    assert stage.col_lanes[0][0] == 2 * 3
    assert stage.col_offsets[0][0] == pytest.approx(-cfg.delta)
    pos = sched.stage_positions(0)
    assert np.hypot(*(pos[1] - pos[0])) == pytest.approx(cfg.delta)
    assert stage.distances_um[0] == 0.0 and stage.distances_um[1] > 0.0
    assert stage.move_time_s == pytest.approx(cfg.T_per_move)


def test_movable_movable_gate_meets_on_dual_lanes():
    cfg = small_config(n_aod=2)
    placement = {0: AtomCoord(1, 1, 1), 1: AtomCoord(2, 0, 0)}
    circ = Circuit(2)
    circ.add("cz", (0, 1))
    sched = route(as_routed(circ, placement), placement, cfg)
    stage = sched.stages[0]
    # both rows land on the lower array's interstitial (odd) lane
    assert stage.row_lanes[0][1] == stage.row_lanes[1][0] == 2 * 1 + 1
    assert stage.col_lanes[0][1] == stage.col_lanes[1][0] == 2 * 1 + 1
    assert stage.col_offsets[0][1] == pytest.approx(-cfg.delta / 2)
    assert stage.col_offsets[1][0] == pytest.approx(+cfg.delta / 2)
    pos = sched.stage_positions(0)
    assert np.hypot(*(pos[1] - pos[0])) == pytest.approx(cfg.delta)
    assert audit_schedule(sched) == []


def test_one_qubit_only_circuit_needs_no_motion():
    cfg = small_config()
    placement = {0: AtomCoord(0, 0, 0), 1: AtomCoord(1, 0, 0)}
    circ = Circuit(2)
    circ.add("u", (0,), (0.5, 0.1, -0.2))
    circ.add("u", (1,), (1.5, 0.0, 0.0))
    sched = route(as_routed(circ, placement), placement, cfg)
    assert sched.depth == 0 and n_2q(sched) == 0
    assert n_1q(sched) == 2
    assert all(s.move_time_s == 0.0 for s in sched.stages)
    assert all(not s.distances_um.any() for s in sched.stages)


def test_route_rejects_an_intra_array_cz():
    cfg = small_config()
    placement = {0: AtomCoord(1, 0, 0), 1: AtomCoord(1, 1, 1)}
    circ = Circuit(2)
    circ.add("cz", (0, 1))
    with pytest.raises(ValueError, match="^routed circuit has an intra-array CZ$"):
        route(as_routed(circ, placement), placement, cfg)


def test_route_rejects_an_unsupported_gate_before_routing_any_stage(monkeypatch):
    # the cx becomes ready only after the first stage; it fails before it
    real, calls = stage_router.synthesize_motion, []

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(stage_router, "synthesize_motion", spy)
    cfg = small_config()
    placement = {0: AtomCoord(0, 2, 3), 1: AtomCoord(1, 0, 0)}
    circ = Circuit(2)
    circ.add("cz", (0, 1))
    circ.add("cx", (0, 1))
    with pytest.raises(ValueError, match="^unsupported gate 'cx' in routed circuit$"):
        route(as_routed(circ, placement), placement, cfg)
    assert calls == []


# ---------------------------------------------------------------------------
# parallel selection: what one stage may hold
# ---------------------------------------------------------------------------


def crossing_scenario():
    """Two gates that would force movable rows 2 and 3 to swap vertical order."""
    placement = {
        0: AtomCoord(0, 5, 0),
        1: AtomCoord(0, 1, 1),
        2: AtomCoord(1, 2, 0),
        3: AtomCoord(1, 3, 1),
    }
    circ = Circuit(4)
    circ.add("cz", (2, 0))
    circ.add("cz", (3, 1))
    return circ, placement


def test_row_crossing_is_deferred_to_a_second_stage():
    cfg = small_config()
    circ, placement = crossing_scenario()
    sched = route(as_routed(circ, placement), placement, cfg)
    assert len(sched.stages) == 2
    assert [s.cz for s in sched.stages] == [[(2, 0)], [(3, 1)]]
    assert sched.overlap_rejections == 0  # ordering, not coincidence
    assert audit_schedule(sched) == []


def test_relaxing_row_order_accepts_the_crossing():
    cfg = relax(small_config(), "C2")
    circ, placement = crossing_scenario()
    sched = route(as_routed(circ, placement), placement, cfg)
    assert len(sched.stages) == 1
    assert sorted(sched.stages[0].cz) == [(2, 0), (3, 1)]
    lanes = sched.stages[0].row_lanes[0]
    assert lanes[2] > lanes[3]  # rows really do cross


def coinciding_scenario():
    """Two gates that would pin movable rows 4 and 5 onto the same lane."""
    placement = {
        0: AtomCoord(0, 3, 0),
        1: AtomCoord(0, 3, 1),
        2: AtomCoord(1, 4, 0),
        3: AtomCoord(1, 5, 1),
    }
    circ = Circuit(4)
    circ.add("cz", (2, 0))
    circ.add("cz", (3, 1))
    return circ, placement


def test_same_lane_demand_is_deferred_and_counted():
    cfg = small_config()
    circ, placement = coinciding_scenario()
    sched = route(as_routed(circ, placement), placement, cfg)
    assert len(sched.stages) == 2
    assert sched.overlap_rejections == 1
    assert audit_schedule(sched) == []


def test_relaxing_lane_exclusivity_merges_the_rows():
    cfg = relax(small_config(), "C3")
    circ, placement = coinciding_scenario()
    sched = route(as_routed(circ, placement), placement, cfg)
    assert len(sched.stages) == 1
    assert sched.overlap_rejections == 0
    lanes = sched.stages[0].row_lanes[0]
    assert lanes[4] == lanes[5] == 6
    assert n_2q(sched) == 2  # relaxation never changes the gate count


def test_aligned_independent_gates_share_one_stage():
    cfg = small_config()
    placement = {q: AtomCoord(0, q, 0) for q in range(4)}
    placement.update({4 + q: AtomCoord(1, q, 0) for q in range(4)})
    circ = Circuit(8)
    for q in range(4):
        circ.add("cz", (4 + q, q))
    sched = route(as_routed(circ, placement), placement, cfg)
    assert len(sched.stages) == 1
    assert len(sched.stages[0].cz) == 4
    serial = route(as_routed(circ, placement), placement, cfg, serial=True)
    assert [len(s.cz) for s in serial.stages] == [1, 1, 1, 1]


def test_dependent_chain_takes_one_stage_per_gate():
    cfg = small_config()
    placement = {
        0: AtomCoord(0, 0, 0),
        1: AtomCoord(1, 0, 0),
        2: AtomCoord(0, 1, 1),
        3: AtomCoord(1, 1, 1),
        4: AtomCoord(0, 2, 2),
    }
    circ = Circuit(5)
    for pair in [(0, 1), (1, 2), (2, 3), (3, 4)]:
        circ.add("cz", pair)
    sched = route(as_routed(circ, placement), placement, cfg)
    assert len(sched.stages) == 4 and sched.depth == 4


def test_candidates_with_more_descendants_go_first():
    cfg = small_config()
    # q2 and q3 share movable row 0, so their gates pin it to different
    # lanes and cannot share a stage; the gate feeding a later gate wins.
    placement = {
        0: AtomCoord(0, 1, 0),
        1: AtomCoord(0, 2, 1),
        2: AtomCoord(1, 0, 0),
        3: AtomCoord(1, 0, 1),
        4: AtomCoord(0, 2, 2),
    }
    circ = Circuit(5)
    circ.add("cz", (2, 0))  # no descendants
    circ.add("cz", (3, 1))  # one descendant
    circ.add("cz", (3, 4))
    sched = route(as_routed(circ, placement), placement, cfg)
    assert sched.stages[0].cz == [(3, 1)]

    # with equal descendant counts the lower gate index goes first
    circ2 = Circuit(5)
    circ2.add("cz", (2, 0))
    circ2.add("cz", (3, 1))
    sched2 = route(as_routed(circ2, placement), placement, cfg)
    assert sched2.stages[0].cz == [(2, 0)]


def test_a_column_pinned_to_its_lane_with_another_offset_conflicts():
    # column 1 of AOD 2 meets AOD 1 (offset +delta/2) and AOD 3 (offset
    # -delta/2) on the same dual lane: the two gates cannot share a stage
    cfg = small_config(n_aod=3)
    placement = {0: AtomCoord(1, 0, 1), 1: AtomCoord(2, 0, 1),
                 2: AtomCoord(2, 1, 1), 3: AtomCoord(3, 1, 1)}
    first = _gate_pins((0, 1), placement, cfg)
    second = _gate_pins((2, 3), placement, cfg)
    assert first.cols[(1, 1)] == second.cols[(1, 1)] == 3
    assert first.offsets[(1, 1)] != second.offsets[(1, 1)]
    assert _conflicts(first, second) and _conflicts(second, first)
    assert not _conflicts(first, _gate_pins((0, 1), placement, cfg))
    circ = Circuit(4)
    circ.add("cz", (0, 1))
    circ.add("cz", (2, 3))
    sched = route(as_routed(circ, placement), placement, cfg)
    assert sched.depth == 2
    assert audit_schedule(sched) == []


# ---------------------------------------------------------------------------
# motion synthesis
# ---------------------------------------------------------------------------


def test_no_pins_keeps_every_lane():
    cfg = small_config()
    placement = {0: AtomCoord(1, 0, 0), 1: AtomCoord(1, 3, 2)}
    idx = _ArrayIndex(placement, cfg)
    prev_rows, prev_cols = initial_lanes(cfg, idx)
    rows, cols, offs = synthesize_motion(_Pins(), prev_rows, prev_cols, idx, cfg)
    assert rows == [list(r) for r in prev_rows]
    assert cols == [list(c) for c in prev_cols]
    assert not any(any(o) for o in offs)


def test_single_row_pin_moves_exactly_one_cell():
    cfg = small_config()
    placement = {0: AtomCoord(1, 0, 0)}
    idx = _ArrayIndex(placement, cfg)
    prev_rows, prev_cols = initial_lanes(cfg, idx)
    pins = _Pins()
    pins.rows[(0, 0)] = prev_rows[0][0] + 2
    rows, cols, _ = synthesize_motion(pins, prev_rows, prev_cols, idx, cfg)
    dy = (rows[0][0] - prev_rows[0][0]) * cfg.D_site / 2
    assert dy == pytest.approx(cfg.D_site)
    assert cols == [list(c) for c in prev_cols]


def test_parked_rows_that_cannot_fit_report_infeasible():
    cfg = small_config()
    placement = {q: AtomCoord(1, q, 0) for q in range(4)}
    idx = _ArrayIndex(placement, cfg)
    prev_rows, prev_cols = initial_lanes(cfg, idx)
    pins = _Pins()
    pins.rows[(0, 0)] = 2
    pins.rows[(0, 3)] = 4  # rows 1 and 2 must park on the lone lane between
    assert synthesize_motion(pins, prev_rows, prev_cols, idx, cfg) is None


# ---------------------------------------------------------------------------
# serial baseline and relaxation ablations
# ---------------------------------------------------------------------------


def test_single_gate_parallel_and_serial_agree_exactly():
    cfg = small_config()
    placement = {0: AtomCoord(0, 0, 0), 1: AtomCoord(1, 0, 0)}
    circ = Circuit(2)
    circ.add("cz", (0, 1))
    par = schedule_to_dict(route(as_routed(circ, placement), placement, cfg))
    ser = schedule_to_dict(route(as_routed(circ, placement), placement, cfg, serial=True))
    assert par == ser


def test_parallel_never_deeper_than_serial():
    for seed in range(4):
        circ = WorkloadSpec("qaoa-rand", 8, seed=seed, p=1).generate()
        cfg, params = load_config({})
        par = compile_circuit(circ, cfg, params, seed=seed)
        ser = compile_circuit(circ, cfg, params, seed=seed, serial=True)
        assert par.schedule.depth <= ser.schedule.depth
        assert n_2q(par.schedule) == n_2q(ser.schedule)


def test_relaxation_never_increases_depth_or_changes_gates():
    circ = WorkloadSpec("qsim-rand", 10, seed=3, n_strings=6).generate()
    cfg, params = load_config({})
    strict = compile_circuit(circ, cfg, params)
    for name in ("C1", "C2", "C3"):
        loose = compile_circuit(circ, relax(cfg, name), params)
        assert loose.schedule.depth <= strict.schedule.depth
        assert n_2q(loose.schedule) == n_2q(strict.schedule)


def test_relaxing_row_order_alone_keeps_stages_legal():
    # with C2 off, pinned rows may cross: C3 must still catch equal lanes
    # that are not index-adjacent, and parked rows must not land on lanes
    # their own array already holds
    crossed = {(0, 1): 4, (0, 2): 2, (0, 3): 4}  # rows 1 and 3 share lane 4
    assert _order_ok(crossed, 0, range(5), frozenset({"C2"})) == "C3"
    assert _order_ok(crossed, 0, range(5), frozenset({"C2", "C3"})) is None
    circ = WorkloadSpec("qaoa-rand", 30, seed=0).generate()
    cfg, params = load_config({})
    strict = compile_circuit(circ, cfg, params)
    loose = compile_circuit(circ, relax(cfg, "C2"), params)
    assert audit_schedule(loose.schedule) == []
    assert n_2q(loose.schedule) == n_2q(strict.schedule)


@pytest.mark.parametrize("relaxed,accepted,c3_rejections", [
    ((), [0], 1),               # row 2 -> lane 2 crosses row 1 (C2); row 3 repeats lane 4
    (("C2",), [0, 1], 1),       # crossing allowed; lane 4 is still taken (C3)
    (("C2", "C3"), [0, 1, 2], 0),
])
def test_selection_with_crossed_rows_counts_the_shared_lane(relaxed, accepted,
                                                            c3_rejections):
    # AOD rows 1, 2, 3 gate SLM rows 2, 1, 2: they pin lanes 4, 2, 4, the
    # crossed pins of test_relaxing_row_order_alone_keeps_stages_legal
    cfg = dataclasses.replace(small_config(), relaxed=frozenset(relaxed))
    placement = {0: AtomCoord(1, 1, 0), 1: AtomCoord(0, 2, 0),
                 2: AtomCoord(1, 2, 1), 3: AtomCoord(0, 1, 1),
                 4: AtomCoord(1, 3, 2), 5: AtomCoord(0, 2, 2)}
    front = [(0, (0, 1)), (1, (2, 3)), (2, (4, 5))]
    gate_pins = {gi: _gate_pins(pair, placement, cfg) for gi, pair in front}
    got, pins, rej = select_parallel_gates(front, gate_pins, _ArrayIndex(placement, cfg), cfg)
    assert [gi for gi, _ in got] == accepted
    assert rej == c3_rejections
    assert [pins.rows[(0, r)] for r in (1, 2, 3)[:len(accepted)]] == [4, 2, 4][:len(accepted)]


# ---------------------------------------------------------------------------
# whole-schedule invariants
# ---------------------------------------------------------------------------


def test_gates_conserved_and_order_respected():
    rng = np.random.default_rng(11)
    for trial in range(5):
        circ = WorkloadSpec(
            "random-pairs", 9, seed=int(rng.integers(1 << 30)), gates_per_qubit=4
        ).generate()
        cfg, params = load_config({})
        res = compile_circuit(circ, cfg, params, seed=trial)
        sched, routed = res.schedule, res.routed

        want = Counter(
            tuple(sorted(g.qubits)) for g in routed.circuit.gates if g.kind == "cz"
        )
        got = Counter(tuple(sorted(p)) for s in sched.stages for p in s.cz)
        assert got == want

        # per-qubit two-qubit gate order survives scheduling
        def per_qubit(gates):
            seq = {}
            for g in gates:
                if g.kind != "cz":
                    continue
                for q in g.qubits:
                    seq.setdefault(q, []).append(tuple(sorted(g.qubits)))
            return seq

        flat = schedule_to_circuit(sched)
        assert per_qubit(flat.gates) == per_qubit(routed.circuit.gates)


def test_every_stage_passes_the_separation_audit():
    for seed, family in enumerate(["qaoa-rand", "bv", "qsim-rand"]):
        circ = WorkloadSpec(family, 10, seed=seed).generate()
        cfg, params = load_config({})
        res = compile_circuit(circ, cfg, params, seed=seed)
        assert audit_schedule(res.schedule) == []


@pytest.mark.parametrize("d_site", [15.0, 16.3])
def test_stored_move_distances_match_the_lanes(d_site):
    # at 16.3 um the half pitch is not dyadic, so distances taken from
    # differences of positions would miss the lane deltas in the last bits
    circ = WorkloadSpec("qaoa-rand", 20, seed=1).generate()
    cfg, params = load_config({"D_site": d_site})
    res = compile_circuit(circ, cfg, params, seed=1)
    assert audit_schedule(res.schedule) == []
    back = schedule_from_dict(json.loads(json.dumps(schedule_to_dict(res.schedule))))
    assert audit_schedule(back) == []


def test_audit_reports_a_stored_distance_off_by_one_bit():
    circ = WorkloadSpec("qaoa-rand", 10, seed=2).generate()
    cfg, params = load_config({})
    sched = compile_circuit(circ, cfg, params).schedule
    k, stage = next((k, s) for k, s in enumerate(sched.stages) if s.distances_um.any())
    q = int(np.flatnonzero(stage.distances_um)[0])
    stage.distances_um[q] = np.nextafter(stage.distances_um[q], np.inf)
    [(k_found, finding)] = audit_schedule(sched)
    assert k_found == k and finding.q == q
    assert finding.stored_um == stage.distances_um[q] != finding.lanes_um


def test_routing_is_deterministic():
    circ = WorkloadSpec("qaoa-regular", 12, seed=5, d=3).generate()
    cfg, params = load_config({})
    a = compile_circuit(circ, cfg, params, seed=2)
    b = compile_circuit(circ, cfg, params, seed=2)
    assert schedule_to_dict(a.schedule) == schedule_to_dict(b.schedule)


def test_schedule_dict_roundtrip():
    circ = WorkloadSpec("bv", 8, secret="1011010").generate()
    cfg, params = load_config({})
    res = compile_circuit(circ, cfg, params)
    d = schedule_to_dict(res.schedule)
    back = schedule_from_dict(d)
    assert isinstance(back, Schedule)
    assert schedule_to_dict(back) == d
    for k in range(len(res.schedule.stages)):
        assert np.allclose(back.stage_positions(k), res.schedule.stage_positions(k))
    with pytest.raises(ValueError):
        schedule_from_dict({**d, "schema_version": 99})


# ---------------------------------------------------------------------------
# the audit in blocks of stages
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def compiled(family: str, n: int, relaxed: tuple):
    cfg, params = load_config({"relaxed": list(relaxed)})
    return compile_circuit(WorkloadSpec(family, n, seed=n).generate(), cfg, params,
                           seed=1).schedule


@st.composite
def corrupted_schedules(draw):
    """A compiled schedule with a few stages corrupted: a row or column
    lane moved (often onto another lane of the stage), an x offset changed,
    the CZ pairs redrawn, or one bit of a stored move distance flipped."""
    family, n = draw(st.sampled_from([("qaoa-rand", 6), ("random-pairs", 9),
                                      ("qaoa-rand", 14)]))
    relaxed = draw(st.sampled_from([(), ("C1",), ("C3",), ("C1", "C3")]))
    sched = copy.deepcopy(compiled(family, n, relaxed))
    for _ in range(draw(st.integers(1, 6))):
        stage = sched.stages[draw(st.integers(0, len(sched.stages) - 1))]
        what = draw(st.sampled_from(["row", "col", "offset", "cz", "distance"]))
        if what in ("row", "col"):
            lanes = stage.row_lanes if what == "row" else stage.col_lanes
            t = draw(st.integers(0, len(lanes) - 1))
            i = draw(st.integers(0, len(lanes[t]) - 1))
            used = [lane for per_aod in lanes for lane in per_aod if lane is not None]
            lanes[t][i] = draw(st.sampled_from(used) | st.integers(-3, 50))
        elif what == "offset":
            t = draw(st.integers(0, len(stage.col_offsets) - 1))
            c = draw(st.integers(0, len(stage.col_offsets[t]) - 1))
            stage.col_offsets[t][c] = draw(st.sampled_from([0.0, -0.5, 0.5, 2.5, -3.0, 7.5])
                                           | st.floats(-20.0, 20.0))
        elif what == "cz":
            qubit = st.integers(0, n - 1)
            stage.cz = draw(st.lists(st.tuples(qubit, qubit), max_size=4))
        else:
            q = draw(st.integers(0, n - 1))
            bits = stage.distances_um[q:q + 1].view(np.uint64)
            bits ^= np.uint64(1) << np.uint64(draw(st.integers(0, 63)))
    return sched


@pytest.mark.parametrize("block", [16, 64])
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(sched=corrupted_schedules())
def test_block_audit_matches_the_per_stage_audit(block, sched, monkeypatch):
    # small blocks, so the stages and findings of one schedule straddle them
    monkeypatch.setattr(stage_router, "AUDIT_BLOCK", block)
    assert repr(audit_schedule(sched)) == repr(reference_audit(sched))


# the error the router raised with every stage audited as soon as it was
# emitted, for the fourth stage of the circuit below with AOD 0's rows
# collapsed onto one lane
COLLAPSED = ("stage geometry violates separation: ["
             "Violation(i=1, j=2, distance_um=22.5055548698538, kind='pair_too_far'), "
             "Violation(i=1, j=6, distance_um=0.0, kind='too_close'), "
             "Violation(i=1, j=13, distance_um=0.0, kind='too_close'), "
             "Violation(i=6, j=13, distance_um=0.0, kind='too_close')]")


@pytest.mark.parametrize("block", [None, 30, 90])
@pytest.mark.parametrize("later_error", [False, True])
def test_route_raises_for_the_first_stage_in_violation(block, later_error, monkeypatch):
    real = stage_router.synthesize_motion
    emitted = []

    def collapse_stage_4(*args, **kwargs):
        out = real(*args, **kwargs)
        if out is not None:
            emitted.append(out)
            if len(emitted) == 4:
                rows = out[0][0]
                occupied = [r for r, lane in enumerate(rows) if lane is not None]
                for r in occupied:
                    rows[r] = rows[occupied[0]]
            if len(emitted) == 6 and later_error:
                raise ValueError("a later stage failed")
        return out

    monkeypatch.setattr(stage_router, "synthesize_motion", collapse_stage_4)
    if block is not None:
        monkeypatch.setattr(stage_router, "AUDIT_BLOCK", block)
    cfg, params = load_config({})
    with pytest.raises(RuntimeError) as err:
        compile_circuit(WorkloadSpec("qaoa-rand", 30, seed=2).generate(), cfg, params, seed=1)
    assert str(err.value) == COLLAPSED


def test_route_lets_a_keyboard_interrupt_through_without_an_audit(monkeypatch):
    # the fourth stage is in violation, so an audit would raise RuntimeError
    real = stage_router.synthesize_motion
    emitted = []

    def collapse_stage_4_then_interrupt(*args, **kwargs):
        out = real(*args, **kwargs)
        if out is not None:
            emitted.append(out)
            if len(emitted) == 4:
                rows = out[0][0]
                occupied = [r for r, lane in enumerate(rows) if lane is not None]
                for r in occupied:
                    rows[r] = rows[occupied[0]]
            if len(emitted) == 6:
                raise KeyboardInterrupt
        return out

    monkeypatch.setattr(stage_router, "synthesize_motion", collapse_stage_4_then_interrupt)
    cfg, params = load_config({})
    with pytest.raises(KeyboardInterrupt):
        compile_circuit(WorkloadSpec("qaoa-rand", 30, seed=2).generate(), cfg, params, seed=1)


def test_each_routed_stage_owns_its_lane_lists():
    cfg, params = load_config({})
    sched = compile_circuit(WorkloadSpec("qaoa-rand", 10, seed=2).generate(), cfg, params).schedule

    def lanes():
        return ([sched.initial_row_lanes, sched.initial_col_lanes]
                + [[s.row_lanes, s.col_lanes, s.col_offsets] for s in sched.stages])

    want = copy.deepcopy(lanes())
    for k, stage in enumerate(sched.stages):
        for per_aod in (stage.row_lanes, stage.col_lanes, stage.col_offsets):
            for lane_list in per_aod:
                lane_list[:] = [-7] * len(lane_list)
        want[k + 2] = copy.deepcopy([stage.row_lanes, stage.col_lanes, stage.col_offsets])
        assert lanes() == want


# ---------------------------------------------------------------------------
# the ready front against the set-scan reference
# ---------------------------------------------------------------------------


@st.composite
def routed_circuits(draw):
    """A random placement on small arrays and a circuit of u gates, CZs
    between arrays and barriers (on any qubits: each fences all of them),
    with a relax set and the serial flag."""
    n_aod = draw(st.integers(1, 2))
    side = draw(st.integers(2, 4))
    relaxed = frozenset(draw(st.sets(st.sampled_from(["C1", "C2", "C3"]))))
    cfg = ArchConfig(n_aod=n_aod, slm_rows=side, slm_cols=side,
                     aod_rows=(side,) * n_aod, aod_cols=(side,) * n_aod, relaxed=relaxed)
    sites = [(a, r, c) for a in range(n_aod + 1) for r in range(side) for c in range(side)]
    chosen = draw(st.lists(st.sampled_from(sites), min_size=2,
                           max_size=min(len(sites), 16), unique=True))
    placement = {q: AtomCoord(*site) for q, site in enumerate(chosen)}
    n = len(placement)
    cross = [(a, b) for a in range(n) for b in range(n)
             if placement[a].array != placement[b].array]
    kinds = ["u", "barrier"] + (["cz", "cz", "cz"] if cross else [])
    circ = Circuit(n)
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=40)):
        if kind == "u":
            circ.add("u", (draw(st.integers(0, n - 1)),), (0.1, 0.2, 0.3))
        elif kind == "cz":
            circ.add("cz", draw(st.sampled_from(cross)))
        else:
            circ.add("barrier", tuple(draw(st.sets(st.integers(0, n - 1), min_size=1))))
    return as_routed(circ, placement), placement, cfg, draw(st.booleans())


def route_outcome(route_fn, routed, placement, cfg, serial):
    """The schedule's stages as JSON dicts, or the exception route raised."""
    try:
        sched = route_fn(routed, placement, cfg, serial=serial)
    except (RuntimeError, ValueError) as e:
        return type(e), str(e)
    return schedule_to_dict(sched)


@settings(max_examples=300, deadline=None)
@given(routed_circuits())
def test_ready_front_matches_the_set_scan_reference(inputs):
    got = route_outcome(route, *inputs)
    want = route_outcome(route_reference.route, *inputs)
    if isinstance(got, dict) and isinstance(want, dict):
        assert len(got["stages"]) == len(want["stages"])
        for k, (stage, ref_stage) in enumerate(zip(got["stages"], want["stages"])):
            assert stage == ref_stage, k
    assert got == want
