"""End-to-end compilation pipeline and the command-line surface."""

import csv
import dataclasses
import json

import numpy as np
import pytest

from atomique.arch import load_config
from atomique.circuit import Circuit, parse_qasm, to_qasm
from atomique.cli import main
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
