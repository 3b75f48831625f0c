"""End-to-end compilation pipeline and the command-line surface."""

import csv
import dataclasses
import json
import math
import re
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from atomique.arch import Violation, load_config
from atomique.circuit import Circuit, cz_depth, parse_qasm, to_qasm
from atomique import cli, pipeline, stage_router
from atomique.cli import _write_json, main
from atomique.fidelity import apply_schedule, execution_time
from atomique.oracle import equivalent_up_to_permutation
from atomique.pipeline import build_schedule, compile_circuit, random_assignment
from atomique.stage_router import audit_schedule, route, schedule_to_circuit
from atomique.workloads import FAMILIES, WorkloadSpec

CFG, PARAMS = load_config({})

STATS_KEYS = {
    "schema_version", "n_qubits", "n_1q_input", "n_2q_input", "n_1q", "n_2q",
    "added_cx", "two_qubit_depth", "cz_depth", "deferrals", "n_stages", "n_raman_layers",
    "n_coolings",
    "overlap_rejections", "execution_time_s", "total_move_distance_mm",
    "fidelity", "neg_log", "times", "assignment", "placement", "perm",
    "compile_wall_time_s",
}


def compile_spec(spec, **kw):
    return compile_circuit(spec.generate(), CFG, PARAMS, **kw)


# ---------------------------------------------------------------------------
# library pipeline
# ---------------------------------------------------------------------------


def test_compile_preserves_unitary():
    for spec in [
        WorkloadSpec("bv", 5, secret="1010"),
        WorkloadSpec("qaoa-rand", 6, seed=2, p=0.6),
        WorkloadSpec("qsim-rand", 5, seed=1, n_strings=4),
    ]:
        circ = spec.generate()
        res = compile_circuit(circ, CFG, PARAMS)
        assert equivalent_up_to_permutation(
            res.circuit, schedule_to_circuit(res.schedule), res.schedule.perm
        )
        assert audit_schedule(res.schedule) == []


def test_stats_fields_complete_and_consistent():
    res = compile_spec(WorkloadSpec("qaoa-regular", 10, seed=3, d=4))
    s = res.stats
    assert set(s) == STATS_KEYS
    assert s["schema_version"] == 1
    assert s["n_stages"] == len(res.schedule.stages)
    assert s["two_qubit_depth"] == res.schedule.depth
    assert s["n_2q"] == s["n_2q_input"] + s["added_cx"]
    assert s["fidelity"]["F_total"] == pytest.approx(res.report.F_total)
    assert all(v is None or v >= 0 for v in s["neg_log"].values())
    assert len(s["placement"]) == s["n_qubits"] == len(s["assignment"])
    assert sorted(s["perm"]) == list(range(s["n_qubits"]))
    assert s["total_move_distance_mm"] > 0
    assert s["execution_time_s"] == pytest.approx(sum(s["times"].values()))
    assert s["cz_depth"] == {"input": cz_depth(res.circuit), "routed": cz_depth(res.routed.circuit)}
    assert s["deferrals"] == res.schedule.deferrals
    assert set(s["deferrals"]) == {"pin", "C1", "C2", "C3", "gap", "popped"}
    assert s["deferrals"]["C3"] == s["overlap_rejections"]


@st.composite
def compile_inputs(draw):
    """A random circuit of one-qubit gates, CZ, CX, SWAP and barriers on a
    few qubits, small arrays with one or two AODs, a relax set and the
    serial flag."""
    n_aod = draw(st.integers(1, 2))
    side = draw(st.integers(2, 4))
    cfg = dataclasses.replace(CFG, n_aod=n_aod, slm_rows=side, slm_cols=side,
                              aod_rows=(side,) * n_aod, aod_cols=(side,) * n_aod,
                              relaxed=frozenset(draw(st.sets(st.sampled_from(["C1", "C2", "C3"])))))
    n = draw(st.integers(2, min(12, (n_aod + 1) * side * side)))
    qubits = st.integers(0, n - 1)
    circ = Circuit(n)
    for kind in draw(st.lists(st.sampled_from(["u", "cz", "cx", "swap", "barrier"]),
                              max_size=40)):
        if kind == "u":
            circ.add("u", (draw(qubits),), (0.1, 0.2, 0.3))
        elif kind == "barrier":
            circ.add("barrier", tuple(draw(st.sets(qubits, min_size=1))))
        else:
            a = draw(qubits)
            circ.add(kind, (a, draw(qubits.filter(lambda b: b != a))))
    return circ, cfg, draw(st.booleans())


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(compile_inputs())
def test_no_schedule_is_shallower_than_its_cz_depth(inputs):
    # two dependent CZs in one stage would put the depth below the bound
    circ, cfg, serial = inputs
    s = compile_circuit(circ, cfg, PARAMS, serial=serial).stats
    assert s["two_qubit_depth"] >= s["cz_depth"]["routed"] >= s["cz_depth"]["input"]


def test_compile_is_deterministic_up_to_wall_clock():
    spec = WorkloadSpec("qsim-rand", 8, seed=6, n_strings=5)
    a, b = compile_spec(spec).stats, compile_spec(spec).stats
    a.pop("compile_wall_time_s"), b.pop("compile_wall_time_s")
    assert a == b


def test_random_mapper_is_seeded_and_valid():
    spec = WorkloadSpec("qaoa-rand", 8, seed=1)
    a = compile_spec(spec, mapper="random", seed=5)
    b = compile_spec(spec, mapper="random", seed=5)
    c = compile_spec(spec, mapper="random", seed=6)
    assert a.stats["assignment"] == b.stats["assignment"]
    assert a.stats["assignment"] != c.stats["assignment"]
    assert audit_schedule(a.schedule) == []
    with pytest.raises(ValueError):
        compile_spec(spec, mapper="telepathic")


@pytest.mark.parametrize("seed", range(4))
def test_random_mapper_puts_the_qubits_of_a_cz_in_two_arrays(tmp_path, seed):
    # one AOD and one SLM of 16 slots each: seeds 0-3 draw both qubits into
    # one array, where no CZ can run, unless the mapper moves one of them
    config = tmp_path / "small.json"
    config.write_text(json.dumps({"n_aod": 1, "slm_rows": 4, "slm_cols": 4,
                                  "aod_rows": [4], "aod_cols": [4]}))
    qasm = tmp_path / "cz.qasm"
    qasm.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\ncz q[0],q[1];\n')
    out = tmp_path / "out"
    assert main(["compile", str(qasm), "--config", str(config), "--mapper", "random",
                 "--seed", str(seed), "-o", str(out)]) == 0
    assert main(["audit", str(out / "schedule.json")]) == 0


def test_random_assignment_respects_capacity():
    counts = np.bincount(random_assignment(60, CFG, seed=0),
                         minlength=CFG.n_arrays)
    assert counts.sum() == 60
    assert counts[0] <= CFG.slm_rows * CFG.slm_cols
    for t in range(CFG.n_aod):
        assert counts[1 + t] <= CFG.aod_rows[t] * CFG.aod_cols[t]
    with pytest.raises(ValueError):
        random_assignment(10_000, CFG, seed=0)


def test_relaxed_constraints_are_plumbed_through():
    spec = WorkloadSpec("qaoa-rand", 6, seed=4)
    cfg = dataclasses.replace(CFG, relaxed=frozenset({"C3", "C1"}))
    res = compile_circuit(spec.generate(), cfg, PARAMS)
    assert res.schedule.config.relaxed == frozenset({"C1", "C3"})
    strict = compile_spec(spec)
    assert res.stats["n_2q"] == strict.stats["n_2q"]


def test_serial_router_flag():
    spec = WorkloadSpec("qaoa-rand", 8, seed=9)
    par = compile_spec(spec)
    ser = compile_spec(spec, serial=True)
    assert ser.schedule.depth >= par.schedule.depth
    assert all(len(s.cz) <= 1 for s in ser.schedule.stages)


def test_capacity_overflow_is_an_error():
    import dataclasses

    tiny = dataclasses.replace(CFG, slm_rows=1, slm_cols=1, n_aod=1,
                               aod_rows=(1,), aod_cols=(1,))
    circ = Circuit(3)
    circ.add("cz", (0, 1))
    with pytest.raises(ValueError):
        compile_circuit(circ, tiny, PARAMS)


def test_over_capacity_input_fails_before_lowering(monkeypatch, tmp_path, capsys):
    # the capacity check comes before `to_basis`, whose work a register
    # broadcast multiplies: one qubit over capacity never reaches lowering
    # (the command line stops it in the parser already), and a register at
    # exactly capacity still compiles
    import atomique.pipeline

    capacity = sum(CFG.array_capacity(a) for a in range(CFG.n_arrays))
    qasm = tmp_path / "wide.qasm"
    qasm.write_text(f"OPENQASM 2.0;\nqreg q[{capacity + 1}];\n" + "h q;\n" * 10)
    with monkeypatch.context() as m:
        def lowered(circuit):
            raise AssertionError("to_basis ran on an over-capacity input")
        m.setattr(atomique.pipeline, "to_basis", lowered)
        with pytest.raises(ValueError, match=f"^{capacity + 1} qubits exceed total array capacity$"):
            compile_circuit(Circuit(capacity + 1), CFG, PARAMS)
        assert main(["compile", str(qasm), "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (f"error: line 2: qreg of {capacity + 1} qubits exceeds "
                                       f"the limit of {capacity}\n")
    full = Circuit(capacity)
    for q in range(capacity):
        full.add("u", (q,), (math.pi / 2, 0.0, math.pi))
    full.add("cz", (0, capacity - 1))
    res = compile_circuit(full, CFG, PARAMS)
    assert res.stats["n_qubits"] == capacity
    assert audit_schedule(res.schedule) == []


# ---------------------------------------------------------------------------
# CLI: gen + compile + audit + check + render
# ---------------------------------------------------------------------------


def write_benchmark(tmp_path, name="bench.qasm", n=5, family="bv", secret="1010"):
    path = tmp_path / name
    rc = main(["gen", "--family", family, "--n", str(n),
               *(["--secret", secret] if secret else []),
               "-o", str(path)])
    assert rc == 0
    return path


def test_gen_writes_parseable_deterministic_qasm(tmp_path, capsys):
    p1 = write_benchmark(tmp_path, "a.qasm")
    p2 = write_benchmark(tmp_path, "b.qasm")
    assert p1.read_text() == p2.read_text()
    circ = parse_qasm(p1.read_text())
    assert circ.n_qubits == 5
    assert "wrote" in capsys.readouterr().out


def test_compile_command_outputs(tmp_path, capsys):
    qasm = write_benchmark(tmp_path)
    out = tmp_path / "out"
    rc = main(["compile", str(qasm), "-o", str(out), "--emit-qasm"])
    assert rc == 0
    stats = json.loads((out / "stats.json").read_text())
    assert stats["schema_version"] == 1 and stats["added_cx"] >= 0
    sched = json.loads((out / "schedule.json").read_text())
    assert sched["schema_version"] == 1
    routed = parse_qasm((out / "routed.qasm").read_text())
    assert sum(g.kind == "cz" for g in routed.gates) == stats["n_2q"]
    assert "two-qubit gates" in capsys.readouterr().out


JSON_SCALARS = (st.none() | st.booleans() | st.integers()
                | st.integers(-2**300, 2**300) | st.floats() | st.text()
                | st.sampled_from([-0.0, 0.0, float("nan"), float("inf"), float("-inf"),
                                   "\u00e9\u6f22\U0001f600", "\n\"\\"]))
JSON_VALUES = st.recursive(
    JSON_SCALARS | st.lists(st.integers()) | st.lists(st.floats())
    | st.lists(st.floats(allow_nan=False, allow_infinity=False)),
    lambda children: st.lists(children, max_size=6)
    | st.dictionaries(st.text(max_size=6), children, max_size=6),
    max_leaves=30)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(payload=st.dictionaries(st.text(max_size=6), JSON_VALUES, max_size=6))
def test_write_json_writes_the_json_module_bytes(payload, tmp_path):
    path = tmp_path / "out.json"
    _write_json(str(path), payload)
    want = json.dumps(payload, sort_keys=True) + "\n"
    assert path.read_bytes() == want.encode()


def test_compile_reruns_are_byte_identical(tmp_path):
    qasm = write_benchmark(tmp_path)
    outs = []
    for d in ("r1", "r2"):
        out = tmp_path / d
        assert main(["compile", str(qasm), "-o", str(out), "--seed", "3"]) == 0
        outs.append(out)
    assert (outs[0] / "schedule.json").read_bytes() == (outs[1] / "schedule.json").read_bytes()
    a = json.loads((outs[0] / "stats.json").read_text())
    b = json.loads((outs[1] / "stats.json").read_text())
    a.pop("compile_wall_time_s"), b.pop("compile_wall_time_s")
    assert a == b


def test_compile_flags_reach_the_pipeline(tmp_path):
    qasm = write_benchmark(tmp_path)
    out = tmp_path / "serial"
    assert main(["compile", str(qasm), "-o", str(out), "--serial-router",
                 "--relax", "C3", "--relax", "C1", "--mapper", "random",
                 "--alg1-order", "index"]) == 0
    sched = json.loads((out / "schedule.json").read_text())
    assert sorted(sched["config"]["relaxed"]) == ["C1", "C3"]
    assert all(len(s["cz"]) <= 1 for s in sched["stages"])


def test_audit_command_passes_fresh_schedule(tmp_path, capsys):
    qasm = write_benchmark(tmp_path)
    out = tmp_path / "out"
    main(["compile", str(qasm), "-o", str(out)])
    rc = main(["audit", str(out / "schedule.json")])
    assert rc == 0
    assert "0 violation(s)" in capsys.readouterr().out


def test_audit_command_flags_corrupted_geometry(tmp_path, capsys):
    qasm = write_benchmark(tmp_path)
    out = tmp_path / "out"
    main(["compile", str(qasm), "-o", str(out)])
    doc = json.loads((out / "schedule.json").read_text())
    gating = next(s for s in doc["stages"] if s["cz"])
    for aod in gating["aod"]:
        aod["col_offsets_um"] = [-10.0 for _ in aod["col_offsets_um"]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc = main(["audit", str(bad)])
    assert rc == 1
    assert "violation" in capsys.readouterr().out


def test_audit_command_flags_a_changed_move_distance(tmp_path, capsys):
    qasm = write_benchmark(tmp_path)
    out = tmp_path / "out"
    main(["compile", str(qasm), "-o", str(out)])
    doc = json.loads((out / "schedule.json").read_text())
    moving = next(s for s in doc["stages"] if any(s["distances_um"]))
    q = next(q for q, d in enumerate(moving["distances_um"]) if d)
    moving["distances_um"][q] += 1.0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc = main(["audit", str(bad)])
    assert rc == 1
    text = capsys.readouterr().out
    assert f"atom {q} distances_um" in text and "1 violation(s)" in text


def test_audit_command_fails_on_an_offset_that_is_not_finite(tmp_path, capsys):
    qasm = write_benchmark(tmp_path)
    out = tmp_path / "out"
    main(["compile", str(qasm), "-o", str(out)])
    text = (out / "schedule.json").read_text()
    doc = json.loads(text)
    array, _, col = next(p for p in doc["placement"] if p[0] > 0)  # an AOD atom
    doc["stages"][0]["aod"][array - 1]["col_offsets_um"][col] = float("inf")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))  # Python writes it as Infinity
    assert "Infinity" in bad.read_text()
    capsys.readouterr()
    rc = main(["audit", str(bad)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "not finite" in captured.err


def audit_edited_schedule(tmp_path, capsys, edit, **bench):
    """`atomique audit` on a fresh schedule after `edit(doc)`: (return
    code, stdout, stderr).  The input is `write_benchmark(tmp_path,
    **bench)`, by default 5 qubits."""
    qasm = write_benchmark(tmp_path, **bench)
    out = tmp_path / "out"
    main(["compile", str(qasm), "-o", str(out)])
    doc = json.loads((out / "schedule.json").read_text())
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main(["audit", str(bad)])
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _extra_lane(doc):
    # the config's AOD 0 has 10 rows; every stage and `initial` list 11
    for aod in [doc["initial"]["aod"][0], *(s["aod"][0] for s in doc["stages"])]:
        aod["row_lanes"].append(None)


def _missing_lane(doc):
    # the last row of AOD 0 is empty, yet its entry is needed
    for aod in [doc["initial"]["aod"][0], *(s["aod"][0] for s in doc["stages"])]:
        assert aod["row_lanes"].pop() is None


def _extra_lane_in_stage_2(doc):
    doc["stages"][2]["aod"][1]["row_lanes"].append(None)


def _missing_col_in_stage_2(doc):
    doc["stages"][2]["aod"][0]["col_lanes"].pop()


def _extra_offset_in_stage_2(doc):
    doc["stages"][2]["aod"][1]["col_offsets_um"].append(0.0)


def _extra_initial_lane(doc):
    doc["initial"]["aod"][0]["row_lanes"].append(None)


# each edit of a lane list's length, and where its error says the list is
LENGTH_FAULTS = {
    _extra_lane: "initial: AOD 0 row_lanes",
    _missing_lane: "initial: AOD 0 row_lanes",
    _extra_lane_in_stage_2: "stage 2: AOD 1 row_lanes",
    _missing_col_in_stage_2: "stage 2: AOD 0 col_lanes",
    _extra_offset_in_stage_2: "stage 2: AOD 1 col_offsets_um",
    _extra_initial_lane: "initial: AOD 0 row_lanes",
}


@pytest.mark.parametrize("edit", LENGTH_FAULTS)
def test_audit_command_rejects_lane_lists_not_of_the_configs_lengths(tmp_path, capsys, edit):
    # the error names the first bad stage, or `initial`, the AOD and the list
    where = LENGTH_FAULTS[edit]
    rc, out, err = audit_edited_schedule(tmp_path, capsys, edit)
    assert (rc, out, err) == (
        1, "", f"error: {where}: lanes need one list per AOD, of the config's lengths [10, 10]\n")


def test_audit_command_names_the_stage_and_list_that_give_an_atom_no_lane(tmp_path, capsys):
    # an occupied row of stage 3 (of at least four) set to null: no lane
    # for its atoms
    where = []

    def edit(doc):
        t, r = next((t, r) for t, aod in enumerate(doc["stages"][3]["aod"])
                    for r, lane in enumerate(aod["row_lanes"]) if lane is not None)
        doc["stages"][3]["aod"][t]["row_lanes"][r] = None
        where.append(t)
    assert audit_edited_schedule(tmp_path, capsys, edit, family="qaoa-rand", n=12,
                                 secret=None) == (
        1, "", f"error: stage 3: AOD {where[0]} row_lanes: an occupied AOD row or column "
               "has no lane, or a lane or offset that is not finite\n")


def test_audit_command_names_the_entry_it_cannot_read(tmp_path, capsys):
    def edit(doc):
        del doc["initial"]["aod"]
    assert audit_edited_schedule(tmp_path, capsys, edit) == (1, "", "error: initial: 'aod'\n")


@pytest.mark.parametrize("pair", [[0, 15], [-1, 0], [2, 2], [0.9, 1], [True, 1]])
def test_audit_command_rejects_a_cz_on_a_qubit_that_does_not_exist(tmp_path, capsys, pair):
    # a gate-free stage: the separation scan alone matches no atom to 15
    def edit(doc):
        next(s for s in doc["stages"] if not s["cz"])["cz"].append(pair)
    rc, out, err = audit_edited_schedule(tmp_path, capsys, edit)
    assert rc == 1 and out == ""
    assert err.startswith("error: stage ") and err.count("\n") == 1
    assert "cz" in err


@pytest.mark.parametrize("qubit", [99, -1, 1.0, True])
def test_audit_command_rejects_a_raman_gate_on_a_qubit_that_does_not_exist(
        tmp_path, capsys, qubit):
    def edit(doc):
        next(s for s in doc["stages"] if s["raman"])["raman"][0].append([qubit, 0.5, 0.0, 0.0])
    rc, out, err = audit_edited_schedule(tmp_path, capsys, edit)
    assert rc == 1 and out == ""
    assert err.startswith("error: stage ") and err.count("\n") == 1
    assert f"raman gate on qubit {qubit}" in err


@pytest.mark.parametrize("second", [[0, 1], [1, 0], [1, 2]])
def test_audit_command_rejects_a_qubit_named_by_two_czs_of_one_stage(tmp_path, capsys, second):
    def edit(doc):
        next(s for s in doc["stages"] if not s["cz"])["cz"] += [[0, 1], second]
    rc, out, err = audit_edited_schedule(tmp_path, capsys, edit)
    assert rc == 1 and out == ""
    assert err.startswith("error: stage ") and err.count("\n") == 1
    assert f"cz {second}" in err


@pytest.mark.parametrize("aod", [2, -1, 0.0, True])
def test_audit_command_rejects_a_cooling_entry_that_is_not_an_aod(tmp_path, capsys, aod):
    def edit(doc):
        doc["stages"][0]["cooling"] = [aod]
    rc, out, err = audit_edited_schedule(tmp_path, capsys, edit)
    assert rc == 1 and out == ""
    assert err == f"error: stage 0: cooling [{aod}] needs int AOD indices in range(2)\n"


@pytest.mark.parametrize("site", [[0, 400, 400], [0, 0.5, 3], [0, 10, 0], [0, 0, -1],
                                  [3, 0, 0], [-1, 0, 0], [1.0, 0, 0], [True, 0, 0],
                                  [1, False, 0], [2, 0, 10]])
def test_audit_command_rejects_a_placement_outside_every_array(tmp_path, capsys, site):
    # an idle atom on a site no array has would otherwise pass the audit
    def edit(doc):
        doc["placement"][0] = site
    rc, out, err = audit_edited_schedule(tmp_path, capsys, edit)
    assert rc == 1 and out == ""
    assert err == (f"error: placement 0: {site!r} needs an int array in range(3) "
                   "and an int row and col inside it\n")


@pytest.mark.parametrize("perm", [[0, 1, 2, 3, 3], [0, 1, 2, 3], [1, 2, 3, 4, 5],
                                  [0.0, 1.0, 2.0, 3.0, 4.0], [False, True, 2, 3, 4]])
def test_audit_command_rejects_a_perm_that_is_not_a_permutation(tmp_path, capsys, perm):
    def edit(doc):
        doc["perm"] = perm
    rc, out, err = audit_edited_schedule(tmp_path, capsys, edit)
    assert rc == 1 and out == ""
    assert err == "error: perm is not a permutation of range(5)\n"


def test_audit_command_rejects_an_n_qubits_that_does_not_match_the_placement(
        tmp_path, capsys):
    for n_qubits in (4, 5.0):
        def edit(doc):
            doc["n_qubits"] = n_qubits
        rc, out, err = audit_edited_schedule(tmp_path, capsys, edit)
        assert rc == 1 and out == ""
        assert err == f"error: n_qubits {n_qubits!r} but 5 placement entries\n"


@pytest.mark.parametrize("value", ["3e-4", True, None, [1]])
def test_audit_command_rejects_a_move_time_that_is_not_a_number(tmp_path, capsys, value):
    def edit(doc):
        doc["stages"][0]["move_time_s"] = value
    rc, out, err = audit_edited_schedule(tmp_path, capsys, edit)
    assert rc == 1 and out == ""
    assert err == f"error: stage 0: move_time_s {value!r} is not a number\n"


@pytest.mark.parametrize("value", ["0.0", True, None])
def test_audit_command_rejects_a_distance_that_is_not_a_number(tmp_path, capsys, value):
    def edit(doc):
        doc["stages"][0]["distances_um"][0] = value
    rc, out, err = audit_edited_schedule(tmp_path, capsys, edit)
    assert rc == 1 and out == ""
    assert err == "error: stage 0: distances_um needs one number per qubit\n"


@pytest.mark.parametrize("where", ["stage 0", "initial"])
@pytest.mark.parametrize("key,value", [("row_lanes", "3"), ("col_lanes", True),
                                       ("row_lanes", 3.0)])
def test_audit_command_rejects_a_lane_that_is_not_an_int_or_null(tmp_path, capsys, where,
                                                                    key, value):
    def edit(doc):
        part = doc["stages"][0] if where == "stage 0" else doc["initial"]
        part["aod"][0][key][0] = value
    rc, out, err = audit_edited_schedule(tmp_path, capsys, edit)
    assert rc == 1 and out == ""
    assert err == f"error: {where}: {key} needs int or null lanes\n"


@pytest.mark.parametrize("edit,message", [
    (lambda s: s.pop("cz"), "'cz'"),
    (lambda s: s.update(aod=5), "object of type 'int' has no len()"),
    (lambda s: s.update(cz=[[0, 1, 2]]), "too many values to unpack (expected 2)"),
    (lambda s: s["raman"].append(7), "'int' object is not iterable"),
], ids=["cz-deleted", "aod-int", "cz-triple", "raman-layer-int"])
def test_audit_command_names_the_stage_of_a_malformed_entry(tmp_path, capsys, edit,
                                                             message):
    rc, out, err = audit_edited_schedule(tmp_path, capsys, lambda doc: edit(doc["stages"][2]))
    assert (rc, out, err) == (1, "", f"error: stage 2: {message}\n")


@pytest.mark.parametrize("where", ["col_offsets_um", "D_site"])
def test_audit_command_reports_a_distance_past_the_float_range_without_a_warning(
        tmp_path, capsys, where):
    # 1e300 um squares past the float range: under filterwarnings = error a
    # warning would fail the audit; an offset on a gate atom leaves its pair
    # too far apart at inf
    too_far = []

    def edit(doc):
        if where == "D_site":
            doc["config"]["D_site"] = 1e300
            return
        array = [a for a, _, _ in doc["placement"]]
        k, q = next((k, q) for k, s in enumerate(doc["stages"]) for a, b in s["cz"]
                    for q in (a, b) if array[q] > 0 and array[a] != array[b])
        col = doc["placement"][q][2]
        doc["stages"][k]["aod"][array[q] - 1]["col_offsets_um"][col] = 1e300
        too_far.append(k)
    rc, out, err = audit_edited_schedule(tmp_path, capsys, edit)
    lines = out.splitlines()
    assert rc == 1 and err == "" and "violation(s)" in lines[-1]
    for k in too_far:
        assert any(line.startswith(f"stage {k}: atoms ") and line.endswith(" at inf um")
                   and "pair_too_far" in line for line in lines)


@pytest.mark.parametrize("value", ["0", None, False])
def test_audit_command_rejects_an_offset_that_is_not_a_number(tmp_path, capsys, value):
    def edit(doc):
        doc["stages"][0]["aod"][1]["col_offsets_um"][0] = value
    rc, out, err = audit_edited_schedule(tmp_path, capsys, edit)
    assert rc == 1 and out == ""
    assert err == "error: stage 0: col_offsets_um needs numbers\n"


@pytest.mark.parametrize("where,n", [("stage 0", 3), ("initial", 1)])
def test_audit_command_rejects_an_aod_list_without_one_entry_per_aod(tmp_path, capsys,
                                                                      where, n):
    def edit(doc):
        part = doc["stages"][0] if where == "stage 0" else doc["initial"]
        part["aod"] = (part["aod"] * 2)[:n]
    rc, out, err = audit_edited_schedule(tmp_path, capsys, edit)
    assert rc == 1 and out == ""
    assert err == f"error: {where}: aod needs 2 entries, one per AOD, not {n}\n"


@pytest.mark.parametrize("angles", [["1", "x", None], [0.5, 0.0], [0.5, 0.0, 0.0, 0.0],
                                    [True, 0.0, 0.0]])
def test_audit_command_rejects_a_raman_gate_without_three_numeric_angles(tmp_path, capsys,
                                                                         angles):
    stage = []

    def edit(doc):
        k, s = next((k, s) for k, s in enumerate(doc["stages"]) if s["raman"])
        s["raman"][0][0][1:] = angles
        stage.append(k)
    rc, out, err = audit_edited_schedule(tmp_path, capsys, edit)
    assert rc == 1 and out == ""
    assert err == f"error: stage {stage[0]}: raman gates need three numeric angles each\n"


@pytest.mark.parametrize("value", ["7", -1, True, 1.0])
def test_audit_command_rejects_overlap_rejections_that_are_not_a_count(tmp_path, capsys,
                                                                       value):
    def edit(doc):
        doc["metrics"]["overlap_rejections"] = value
    rc, out, err = audit_edited_schedule(tmp_path, capsys, edit)
    assert rc == 1 and out == ""
    assert err == f"error: metrics: overlap_rejections {value!r} is not an int >= 0\n"


@pytest.mark.parametrize("config", ["path", ["D_site", 30.0], 15.0])
def test_a_schedule_config_that_is_not_an_object_is_rejected(tmp_path, capsys, config):
    # a path string is rejected, not opened: the file it names holds the
    # schedule's own config, which would load and audit clean
    def edit(doc):
        if config == "path":
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(doc["config"]))
            doc["config"] = str(path)
        else:
            doc["config"] = config
    rc, out, err = audit_edited_schedule(tmp_path, capsys, edit)
    doc = json.loads((tmp_path / "bad.json").read_text())
    message = f"config needs a JSON object, not {type(doc['config']).__name__}"
    assert (rc, out, err) == (1, "", f"error: {message}\n")
    with pytest.raises(ValueError, match=f"^{message}$"):
        stage_router.schedule_from_dict(doc)


@pytest.mark.parametrize("command", ["audit", "render"])
def test_a_schedule_file_that_is_not_an_object_is_rejected(tmp_path, capsys, command):
    path = tmp_path / "schedule.json"
    path.write_text("[]\n")
    with pytest.raises(ValueError, match="^schedule needs a JSON object, not list$"):
        stage_router.schedule_from_dict([])
    assert main([command, str(path)]) == 1
    assert capsys.readouterr() == ("", "error: schedule needs a JSON object, not list\n")


@pytest.mark.parametrize("config,message", [
    ([{"D_site": 30.0}], "config needs a JSON object, not list"),
    ({"T_per_move": True}, "T_per_move must be a number, not True"),
    ({"n_cool_threshold": False}, "n_cool_threshold must be a number, not False"),
    ({"D_site": "15"}, "D_site must be a number, not '15'"),
    ({"relaxed": "C1"}, "relaxed must be a list of constraint names, not 'C1'"),
    ({"relaxed": None}, "relaxed must be a list of constraint names, not None"),
    ({"relaxed": {"C1": 1}}, "relaxed must be a list of constraint names, not {'C1': 1}"),
])
def test_compile_rejects_a_config_file_that_is_not_an_object_of_numbers(tmp_path, capsys,
                                                                        config, message):
    qasm = write_benchmark(tmp_path)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    capsys.readouterr()
    assert main(["compile", str(qasm), "-o", str(tmp_path / "out"), "--config", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not (tmp_path / "out").exists()


def _gating(doc):
    k = next(k for k, s in enumerate(doc["stages"]) if s["cz"])
    doc["stages"][k]["move_time_s"] = 0.0
    return k, 0.0, 3e-4


def _idle(doc):
    # a copy of the last stage without gates: its lanes are the last
    # stage's, so no atom moves
    idle = {**doc["stages"][-1], "cz": [], "raman": [], "cooling": [], "move_time_s": 3e-4}
    idle["distances_um"] = [0.0] * len(idle["distances_um"])
    doc["stages"].append(idle)
    return len(doc["stages"]) - 1, 3e-4, 0.0


def _moving(doc):
    k = next(k for k, s in enumerate(doc["stages"]) if any(s["distances_um"]))
    doc["stages"][k]["move_time_s"] = 1.5e-4
    return k, 1.5e-4, 3e-4


@pytest.mark.parametrize("edit", [_gating, _idle, _moving])
def test_audit_command_flags_a_move_time_the_stage_does_not_need(tmp_path, capsys, edit):
    # T_per_move (3e-4 s here) exactly when a stage gates or moves, else 0.0
    found = []
    rc, out, err = audit_edited_schedule(tmp_path, capsys, lambda doc: found.append(edit(doc)))
    [(k, stored, needed)] = found
    assert rc == 1 and err == ""
    assert out.splitlines()[0] == (f"stage {k}: move_time_s {stored!r}, "
                                   f"its gates and moves need {needed!r}")
    assert out.splitlines()[-1].startswith("1 violation(s)")


def test_check_command_verifies_unitary(tmp_path, capsys):
    qasm = write_benchmark(tmp_path)
    assert main(["check", str(qasm)]) == 0
    assert "PASS" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["compile", "check"])
def test_a_huge_register_fails_in_the_parser(tmp_path, capsys, command):
    # 80 bytes that would broadcast to a million gates: rejected at the qreg
    # line, before anything expands
    qasm = tmp_path / "huge.qasm"
    qasm.write_text("OPENQASM 2.0;\nqreg q[100000];\n" + "h q;\n" * 10)
    assert qasm.stat().st_size == 80
    out = ["-o", str(tmp_path / "out")] if command == "compile" else []
    t0 = time.perf_counter()
    assert main([command, str(qasm), *out]) == 1
    assert time.perf_counter() - t0 < 0.5
    capacity = sum(CFG.array_capacity(a) for a in range(CFG.n_arrays))
    assert capsys.readouterr().err == (f"error: line 2: qreg of 100000 qubits exceeds "
                                       f"the limit of {capacity}\n")


def test_a_register_at_capacity_compiles_from_qasm(tmp_path, capsys):
    capacity = sum(CFG.array_capacity(a) for a in range(CFG.n_arrays))
    qasm = tmp_path / "full.qasm"
    qasm.write_text(f"OPENQASM 2.0;\nqreg q[{capacity}];\nh q;\ncz q[0],q[{capacity - 1}];\n")
    assert main(["compile", str(qasm), "-o", str(tmp_path / "out")]) == 0
    stats = json.loads((tmp_path / "out" / "stats.json").read_text())
    assert stats["n_qubits"] == capacity
    assert "compiled" in capsys.readouterr().out


def test_check_command_rejects_oversize_oracle(tmp_path, capsys):
    qasm = write_benchmark(tmp_path, n=12, secret="10101010101")
    assert main(["check", str(qasm)]) == 1
    assert "oracle limit" in capsys.readouterr().err


def test_check_command_rejects_an_oversize_input_before_compiling(tmp_path, capsys,
                                                                  monkeypatch):
    qasm = write_benchmark(tmp_path, n=11, secret="1010101010")
    capsys.readouterr()
    compiled = []
    monkeypatch.setattr(cli, "compile_circuit", lambda *a, **kw: compiled.append(a))
    assert main(["check", str(qasm)]) == 1
    assert capsys.readouterr() == ("", "FAIL: 11 qubits exceeds the 10-qubit oracle limit\n")
    assert compiled == []


def test_render_command_writes_one_svg_per_stage(tmp_path, capsys):
    qasm = write_benchmark(tmp_path)
    out = tmp_path / "out"
    main(["compile", str(qasm), "-o", str(out)])
    n_stages = len(json.loads((out / "schedule.json").read_text())["stages"])
    frames = tmp_path / "frames"
    assert main(["render", str(out / "schedule.json"), "-o", str(frames)]) == 0
    files = sorted(f.name for f in frames.iterdir())
    assert files == [f"stage_{k:03d}.svg" for k in range(n_stages)]
    assert "<svg" in (frames / files[0]).read_text()


def test_render_frames_do_not_grow_with_the_slm(tmp_path, capsys):
    # a file whose config claims a 400 x 400 SLM: the lattice is one pattern
    # fill, so each frame differs from the 10 x 10 one in its numbers only
    qasm = write_benchmark(tmp_path)
    main(["compile", str(qasm), "-o", str(tmp_path / "out")])
    doc = json.loads((tmp_path / "out" / "schedule.json").read_text())
    frames = {}
    for size in (10, 400):
        doc["config"].update(slm_rows=size, slm_cols=size)
        path = tmp_path / f"slm-{size}.json"
        path.write_text(json.dumps(doc))
        assert main(["render", str(path), "-o", str(tmp_path / f"frames-{size}")]) == 0
        frames[size] = [f.read_text() for f in sorted((tmp_path / f"frames-{size}").iterdir())]
    assert len(frames[10]) == len(doc["stages"]) and frames[10] != frames[400]
    for small, big in zip(frames[10], frames[400]):
        assert re.sub(r"-?\d+\.\d+", "#", small) == re.sub(r"-?\d+\.\d+", "#", big)
        assert len(big) - len(small) <= 16


def test_audit_and_render_read_an_indent_2_schedule_as_the_compact_one(tmp_path, capsys):
    # schedule.json files written in the indented form keep working
    qasm = write_benchmark(tmp_path, n=12, family="qaoa-regular", secret=None)
    main(["compile", str(qasm), "-o", str(tmp_path)])
    doc = json.loads((tmp_path / "schedule.json").read_text())
    bad = json.loads(json.dumps(doc))
    moving = next(s for s in bad["stages"] if any(s["distances_um"]))
    moving["distances_um"][moving["distances_um"].index(0.0)] = 0.5

    def run(name, text):
        path = tmp_path / name
        path.write_text(text)
        capsys.readouterr()
        rc = main(["audit", str(path)])
        audit = capsys.readouterr().out
        assert main(["render", str(path), "-o", str(tmp_path / f"frames-{name}")]) == 0
        return rc, audit, {f.name: f.read_bytes() for f in (tmp_path / f"frames-{name}").iterdir()}

    for name, d, want_rc in (("fresh", doc, 0), ("bad", bad, 1)):
        compact = run(f"{name}.json", json.dumps(d, sort_keys=True) + "\n")
        indented = run(f"{name}-indented.json", json.dumps(d, indent=2, sort_keys=True) + "\n")
        assert compact[0] == want_rc and compact[2]
        assert indented == compact


def test_cli_reports_errors_with_nonzero_exit(tmp_path, capsys):
    assert main(["compile", str(tmp_path / "missing.qasm")]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["audit", str(tmp_path / "missing.json")]) == 1
    with pytest.raises(SystemExit):
        main(["frobnicate"])


# ---------------------------------------------------------------------------
# CLI: sweeps
# ---------------------------------------------------------------------------


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(x) for x in r] for r in rows[1:]]


def sweep(tmp_path, param, values, out="sweep.csv", extra=()):
    path = tmp_path / out
    rc = main(["sweep", "--param", param, "--values", values,
               "--family", "qaoa-rand", "--n", "8", "--seed", "2",
               *extra, "-o", str(path)])
    assert rc == 0
    return path


def test_sweep_move_time_columns_and_ordering(tmp_path):
    path = sweep(tmp_path, "T_per_move", "400e-6,100e-6,300e-6,200e-6")
    header, rows = read_csv(path)
    assert header[:2] == ["value", "F_total"]
    assert header[-2:] == ["execution_time_s", "n_coolings"]
    assert [r[0] for r in rows] == sorted(r[0] for r in rows)
    assert all(0 <= r[1] <= 1 for r in rows)
    # longer moves take longer wall clock
    times = [r[header.index("execution_time_s")] for r in rows]
    assert times == sorted(times)


@pytest.mark.parametrize("param", ["T_per_move", "f_2Q", "n_cool_threshold", "T1"])
def test_sweep_scores_only_its_own_points(tmp_path, monkeypatch, param):
    # a rescoring sweep builds the schedule without scoring the default
    # point: the one scoring call is its own, with every point in it
    from atomique import cli, pipeline

    def default_point(*args, **kwargs):
        raise AssertionError("the sweep scored the default point")
    calls = []

    def own_points(schedule, points, **kwargs):
        calls.append(len(points))
        return apply_schedule(schedule, points, **kwargs)
    monkeypatch.setattr(pipeline, "apply_schedule", default_point)
    monkeypatch.setattr(cli, "apply_schedule", own_points)
    sweep(tmp_path, param, "0.5,1.0,0.9")
    assert calls == [3]


def test_sweep_gate_fidelity_is_monotone(tmp_path):
    path = sweep(tmp_path, "f_2Q", "0.99,0.9975,0.995", out="f2q.csv")
    header, rows = read_csv(path)
    col = header.index("F_2Q")
    vals = [r[col] for r in rows]
    assert vals == sorted(vals)


def test_sweep_coherence_time_is_monotone(tmp_path):
    path = sweep(tmp_path, "T1", "0.5,1.5,3.0", out="t1.csv")
    header, rows = read_csv(path)
    col = header.index("F_mov_deco")
    vals = [r[col] for r in rows]
    assert vals == sorted(vals)


def test_a_pitch_sweep_routes_once_and_scores_each_value_as_its_compile(tmp_path, monkeypatch):
    routes = []

    def counted(*args, **kwargs):
        routes.append(args)
        return route(*args, **kwargs)
    monkeypatch.setattr(pipeline, "route", counted)
    header, rows = read_csv(sweep(tmp_path, "D_site", "30,15,16.3"))
    assert len(routes) == 1
    monkeypatch.undo()
    for value, row in zip([15.0, 16.3, 30.0], rows):
        res = compile_circuit(WorkloadSpec("qaoa-rand", 8, seed=2).generate(),
                              dataclasses.replace(CFG, D_site=value), PARAMS, seed=2)
        report = res.report
        assert row == [value, report.F_total, *(report.factors()[k] for k in header[2:9]),
                       execution_time(res.ledger), report.N_cooling]


def test_a_pitch_sweep_raises_the_routing_error_of_a_value_in_violation(tmp_path, capsys,
                                                                         monkeypatch):
    # a pitch whose geometry fails the audit fails the sweep as a compile at
    # that pitch fails: with route's error for the first stage in violation
    real = stage_router.min_separation_audit

    def too_close_at_30(positions, pairs, config, stage=None):
        found = real(positions, pairs, config, stage)
        return [Violation(0, 1, 0.0, "too_close"), *found] if config.D_site == 30.0 else found
    monkeypatch.setattr(stage_router, "min_separation_audit", too_close_at_30)
    with pytest.raises(RuntimeError) as err:
        compile_circuit(WorkloadSpec("qaoa-rand", 8, seed=2).generate(),
                        dataclasses.replace(CFG, D_site=30.0), PARAMS, seed=2)
    path = tmp_path / "x.csv"
    assert main(["sweep", "--param", "D_site", "--values", "15,30", "--family", "qaoa-rand",
                 "--n", "8", "--seed", "2", "-o", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {err.value}\n"
    assert str(err.value).startswith("stage geometry violates separation: [Violation(i=0, j=1")
    assert not path.exists()


@pytest.mark.parametrize("command", ["compile", "check", "T_per_move", "D_site"])
def test_every_routing_command_refuses_a_geometry_in_violation_before_writing(
        tmp_path, capsys, monkeypatch, command):
    # routing returns its stages unaudited: scoring audits them, before a
    # command writes anything
    real = stage_router.min_separation_audit

    def too_close(positions, pairs, config, stage=None):
        return [Violation(0, 1, 0.0, "too_close"), *real(positions, pairs, config, stage)]
    qasm = write_benchmark(tmp_path, family="qaoa-rand", n=6, secret=None)
    out = tmp_path / "out"
    argv = {"compile": ["compile", str(qasm), "-o", str(out)],
            "check": ["check", str(qasm)]}.get(command, [
        "sweep", "--param", command, "--values", "15,30" if command == "D_site" else "1e-4,3e-4",
        "--family", "qaoa-rand", "--n", "6", "-o", str(out)])
    capsys.readouterr()
    monkeypatch.setattr(stage_router, "min_separation_audit", too_close)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: stage geometry violates separation: "
                                   "[Violation(i=0, j=1, distance_um=0.0, kind='too_close')")
    assert not out.exists()


def test_each_command_walks_the_lanes_once_per_reader(tmp_path, capsys, monkeypatch):
    # scoring is the audit of what was routed: a compile walks the lanes
    # once to score them and once to write them, a sweep once per schedule
    # it scores, and routing never walks the stages it returns
    calls = []
    real = stage_router.lane_gather

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(stage_router, "lane_gather", counted)

    def walks(*argv) -> int:
        calls.clear()
        assert main(list(argv)) == 0
        return len(calls)

    compile_circuit(WorkloadSpec("qaoa-rand", 12, seed=0).generate(), CFG, PARAMS)
    assert len(calls) == 1
    qasm = write_benchmark(tmp_path, family="qaoa-rand", n=12, secret=None)
    family = ["--family", "qaoa-rand", "--n", "12", "-o", str(tmp_path / "x.csv")]
    out = tmp_path / "out"
    assert walks("compile", str(qasm), "-o", str(out)) == 2
    assert walks("sweep", "--param", "T_per_move", "--values", "1e-4,3e-4", *family) == 1
    assert walks("sweep", "--param", "D_site", "--values", "15,20,30", *family) == 3
    assert walks("audit", str(out / "schedule.json")) == 1


def routing_of(schedule) -> str:
    """What routing decided, by `repr`: the placement, the perm, the initial
    lanes and every stage's Raman layers, CZs, lanes and offsets."""
    return repr((schedule.placement, schedule.perm, schedule.initial_row_lanes,
                 schedule.initial_col_lanes,
                 [(s.raman, s.cz, s.row_lanes, s.col_lanes, s.col_offsets)
                  for s in schedule.stages]))


SMALL = {"n_aod": 1, "slm_rows": 5, "slm_cols": 5, "aod_rows": [5], "aod_cols": [5]}


@settings(max_examples=30, deadline=None)
@given(family=st.sampled_from(FAMILIES), n=st.integers(2, 6).map(lambda k: 2 * k),
       seed=st.integers(0, 3), base=st.sampled_from([{}, SMALL]),
       relaxed=st.frozensets(st.sampled_from(["C1", "C2", "C3"])),
       mapper=st.sampled_from(["greedy", "random"]),
       pitches=st.lists(st.sampled_from([15.0, 16.3, 22.5, 30.0, 60.0]),
                        min_size=2, max_size=3, unique=True))
def test_routing_reads_no_pitch(family, n, seed, base, relaxed, mapper, pitches):
    # what lets a D_site sweep route once: every compile that succeeds
    # routes the circuit the same way, whatever the pitch
    circuit = WorkloadSpec(family, n, seed=seed).generate()
    config, _ = load_config({**base, "relaxed": sorted(relaxed)})
    routings = set()
    for pitch in pitches:
        try:
            *_, schedule = build_schedule(circuit, dataclasses.replace(config, D_site=pitch),
                                          seed=seed, mapper=mapper)
        except (RuntimeError, ValueError):
            continue
        routings.add(routing_of(schedule))
    assert len(routings) <= 1


def test_sweep_lattice_pitch_recompiles(tmp_path):
    path = sweep(tmp_path, "D_site", "15,30", out="dsite.csv")
    header, rows = read_csv(path)
    assert len(rows) == 2
    assert rows[0][0] == 15.0 and rows[1][0] == 30.0
    assert rows[1][1] < rows[0][1]  # longer hops hurt fidelity


@pytest.mark.parametrize("value", ["-1e-4", "0", "nan"])
def test_sweep_rejects_a_move_time_the_config_rejects(tmp_path, capsys, monkeypatch, value):
    # each value is checked as ArchConfig checks T_per_move, before the
    # compile: such a point would otherwise score as if nothing moved
    import atomique.cli

    def compiled(*args, **kwargs):
        raise AssertionError("compiled before the values were checked")
    monkeypatch.setattr(atomique.cli, "compile_circuit", compiled)
    path = tmp_path / "x.csv"
    assert main(["sweep", "--param", "T_per_move", f"--values={value},3e-4",
                 "--family", "qaoa-rand", "--n", "8", "-o", str(path)]) == 1
    assert capsys.readouterr().err == "error: T_per_move must be positive\n"
    assert not path.exists()


def test_sweep_rejects_an_infinite_move_time(tmp_path, capsys):
    path = tmp_path / "x.csv"
    assert main(["sweep", "--param", "T_per_move", "--values=inf,3e-4",
                 "--family", "qaoa-rand", "--n", "8", "-o", str(path)]) == 1
    assert capsys.readouterr().err == "error: T_per_move must be finite\n"
    assert not path.exists()


def test_sweep_checks_the_qubit_count_before_generating(tmp_path, capsys):
    # qaoa-rand generation is O(n^2): a huge --n must fail before it
    path = tmp_path / "x.csv"
    t0 = time.perf_counter()
    assert main(["sweep", "--param", "T1", "--values", "1", "--family", "qaoa-rand",
                 "--n", "100000", "-o", str(path)]) == 1
    assert time.perf_counter() - t0 < 0.5
    assert capsys.readouterr().err == "error: 100000 qubits exceed total array capacity\n"
    assert not path.exists()


def test_gen_checks_the_qubit_count_before_generating(tmp_path, capsys, monkeypatch):
    # as sweep: a huge --n fails at once, and nothing is generated or written
    def generate(self):
        raise AssertionError("generated an over-capacity circuit")
    path = tmp_path / "x.qasm"
    with monkeypatch.context() as m:
        m.setattr(cli.WorkloadSpec, "generate", generate)
        assert main(["gen", "--family", "qaoa-rand", "--n", "100000", "-o", str(path)]) == 1
        assert capsys.readouterr().err == "error: 100000 qubits exceed total array capacity\n"
        assert main(["gen", "--family", "bv", "--n", "301", "-o", str(path)]) == 1
    assert not path.exists()
    # the default config holds 300 qubits; --config names a larger one
    assert main(["gen", "--family", "bv", "--n", "300", "-o", str(path)]) == 0
    assert parse_qasm(path.read_text()).n_qubits == 300
    config = tmp_path / "big.json"
    config.write_text(json.dumps({"slm_rows": 11, "slm_cols": 11,
                                  "aod_rows": [10, 10], "aod_cols": [10, 10]}))
    assert main(["gen", "--config", str(config), "--family", "bv", "--n", "321",
                 "-o", str(path)]) == 0
    assert parse_qasm(path.read_text()).n_qubits == 321


@pytest.mark.parametrize("param,values", [("T_per_move", "1e-4,3e-4,5e-4"),
                                          ("T1", "0.5,1.5,3.0"),
                                          ("n_cool_threshold", "0,1,15"),
                                          ("f_2Q", "0.99,0.995,1.0")])
def test_sweep_scores_every_point_in_one_call(tmp_path, monkeypatch, param, values):
    import atomique.cli

    calls = []
    def counted(*args, **kwargs):
        calls.append(args)
        return apply_schedule(*args, **kwargs)
    monkeypatch.setattr(atomique.cli, "apply_schedule", counted)
    header, rows = read_csv(sweep(tmp_path, param, values))
    assert len(calls) == 1 and len(rows) == 3
    # each row is the single-point score of its value
    cfg, params = load_config({})
    schedule = compile_circuit(WorkloadSpec("qaoa-rand", 8, seed=2).generate(), cfg, params,
                               seed=2).schedule
    for value, row in zip(sorted(float(v) for v in values.split(",")), rows):
        if param == "T_per_move":
            [(report, ledger)] = apply_schedule(schedule, [(params, value)])
        else:
            [(report, ledger)] = apply_schedule(
                schedule, [(dataclasses.replace(params, **{param: value}), None)])
        assert row[1] == report.F_total
        assert row[header.index("execution_time_s")] == execution_time(ledger)


def test_sweep_rejects_unknown_parameter(tmp_path):
    with pytest.raises(SystemExit):
        main(["sweep", "--param", "gravity", "--values", "1,2",
              "--family", "bv", "--n", "4", "-o", str(tmp_path / "x.csv")])
