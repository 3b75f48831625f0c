"""End-to-end compilation pipeline and the command-line surface."""

import csv
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from atomique.arch import load_config
from atomique.circuit import Circuit, parse_qasm, to_qasm
from atomique.cli import _write_json, main
from atomique.oracle import equivalent_up_to_permutation
from atomique.pipeline import compile_circuit, random_assignment
from atomique.stage_router import audit_schedule, schedule_to_circuit
from atomique.workloads import WorkloadSpec

CFG, PARAMS = load_config({})

STATS_KEYS = {
    "schema_version", "n_qubits", "n_1q_input", "n_2q_input", "n_1q", "n_2q",
    "added_cx", "two_qubit_depth", "n_stages", "n_raman_layers", "n_coolings",
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


def audit_edited_schedule(tmp_path, capsys, edit):
    """`atomique audit` on a fresh 5-qubit schedule after `edit(doc)`:
    (return code, stdout, stderr)."""
    qasm = write_benchmark(tmp_path)
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


def test_check_command_verifies_unitary(tmp_path, capsys):
    qasm = write_benchmark(tmp_path)
    assert main(["check", str(qasm)]) == 0
    assert "PASS" in capsys.readouterr().out


def test_check_command_rejects_oversize_oracle(tmp_path, capsys):
    qasm = write_benchmark(tmp_path, n=12, secret="10101010101")
    assert main(["check", str(qasm)]) == 1
    assert "oracle limit" in capsys.readouterr().err


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


def test_sweep_lattice_pitch_recompiles(tmp_path):
    path = sweep(tmp_path, "D_site", "15,30", out="dsite.csv")
    header, rows = read_csv(path)
    assert len(rows) == 2
    assert rows[0][0] == 15.0 and rows[1][0] == 30.0
    assert rows[1][1] < rows[0][1]  # longer hops hurt fidelity


def test_sweep_rejects_unknown_parameter(tmp_path):
    with pytest.raises(SystemExit):
        main(["sweep", "--param", "gravity", "--values", "1,2",
              "--family", "bv", "--n", "4", "-o", str(tmp_path / "x.csv")])
