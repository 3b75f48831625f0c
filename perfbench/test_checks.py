"""Self-tests of the benchmark's output checks and trace arithmetic.

Each check must pass a real output of the program and reject a corrupted
copy of it.  Run from the repository root:

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import contextlib
import copy
import csv
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
from atomique.cli import main  # noqa: E402

HW = inputs.HARDWARE
SWEEP_VALUES = [1e-4, 3e-4, 5e-4]


def _cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0


@pytest.fixture(scope="module")
def out(tmp_path_factory):
    """A real compile of an 8-qubit circuit, and a real sweep with the
    schedule `atomique compile` emits for the sweep's circuit."""
    d = tmp_path_factory.mktemp("outputs")
    cfg = d / "config.json"
    cfg.write_text(json.dumps(inputs.config(10)))
    gates = inputs.qaoa_gnp(8, 0.6, np.random.default_rng(5))
    (d / "in.qasm").write_text(inputs.to_qasm(8, gates))
    _cli(["compile", str(d / "in.qasm"), "-o", str(d / "c"), "--emit-qasm", "--config", str(cfg)])
    spec = ["--family", "random-pairs", "--n", "12", "--seed", "3"]
    _cli(["sweep", "--param", "T_per_move", "--values", ",".join(map(repr, SWEEP_VALUES)),
          "--config", str(cfg), *spec, "-o", str(d / "sweep.csv")])
    _cli(["gen", *spec, "-o", str(d / "gen.qasm")])
    _cli(["compile", str(d / "gen.qasm"), "-o", str(d / "g"), "--config", str(cfg), "--seed", "3"])
    return {
        "gates": gates,
        "sched": json.loads((d / "c" / "schedule.json").read_text()),
        "stats": json.loads((d / "c" / "stats.json").read_text()),
        "routed": (d / "c" / "routed.qasm").read_text(),
        "csv": (d / "sweep.csv").read_text(),
        "sweep_sched": json.loads((d / "g" / "schedule.json").read_text()),
    }


def _all(o, sched=None, stats=None):
    sched = o["sched"] if sched is None else sched
    stats = o["stats"] if stats is None else stats
    return (checks.check_geometry(sched) + checks.check_moves(sched)
            + checks.check_gates(sched, stats, o["routed"], inputs.n_two_qubit(o["gates"]))
            + checks.check_scoring(sched, stats, HW)
            + checks.check_statevector(sched, 8, o["gates"], 0))


def test_real_outputs_pass(out):
    assert _all(out) == []
    assert checks.check_sweep_csv(out["csv"], out["sweep_sched"], HW, SWEEP_VALUES) == []


def _gate_stage(sched):
    return next(k for k, s in enumerate(sched["stages"]) if s["cz"])


def test_geometry_rejects_aod_atom_moved_onto_neighbour(out):
    sched = copy.deepcopy(out["sched"])
    k = _gate_stage(sched)
    pos = checks.positions(sched, sched["stages"][k]["aod"])
    placement = sched["placement"]
    gating = {q for pair in sched["stages"][k]["cz"] for q in pair}
    q = next(i for i, (a, _, _) in enumerate(placement) if a > 0 and i not in gating)
    slm = [i for i, (a, _, _) in enumerate(placement) if a == 0]
    p = min(slm, key=lambda i: np.hypot(*(pos[i] - pos[q])))
    a, r, c = placement[q]
    aod = sched["stages"][k]["aod"][a - 1]
    aod["row_lanes"][r] = 2 * placement[p][1]
    aod["col_lanes"][c] = 2 * placement[p][2]
    aod["col_offsets_um"][c] = 0.0
    assert checks.check_geometry(sched)


def test_moves_reject_changed_distance(out):
    sched = copy.deepcopy(out["sched"])
    stage = next(s for s in sched["stages"] if any(d > 0 for d in s["distances_um"]))
    q = next(i for i, d in enumerate(stage["distances_um"]) if d > 0)
    stage["distances_um"][q] += 0.5
    assert checks.check_moves(sched)


def test_gates_reject_dropped_cz(out):
    sched = copy.deepcopy(out["sched"])
    sched["stages"][_gate_stage(sched)]["cz"].pop(0)
    assert checks.check_gates(sched, out["stats"], out["routed"], inputs.n_two_qubit(out["gates"]))


def test_checks_reject_cz_moved_to_another_stage(out):
    sched = copy.deepcopy(out["sched"])
    k = _gate_stage(sched)
    pair = sched["stages"][k]["cz"].pop(0)
    sched["stages"][k + 1]["cz"].append(pair)
    # the gate sequences may still agree; the geometry of both stages cannot
    assert checks.check_geometry(sched)


def test_statevector_rejects_changed_raman_angle(out):
    sched = copy.deepcopy(out["sched"])
    layer = next(layer for s in sched["stages"] for layer in s["raman"] if layer)
    layer[0][1] += 0.1
    assert checks.check_statevector(sched, 8, out["gates"], 0)


@pytest.mark.parametrize("factor", checks.FACTORS + ("F_total",))
def test_scoring_rejects_perturbed_factor(out, factor):
    stats = copy.deepcopy(out["stats"])
    stats["fidelity"][factor] *= 1 - 1e-6
    assert checks.check_scoring(out["sched"], stats, HW)


@pytest.mark.parametrize("column", [0, 1, 5, 9])
def test_sweep_rejects_altered_row(out, column):
    rows = list(csv.reader(out["csv"].splitlines()))
    rows[2][column] = repr(float(rows[2][column]) * (1 + 1e-6) + 1e-12)
    text = "\n".join(",".join(r) for r in rows) + "\n"
    assert checks.check_sweep_csv(text, out["sweep_sched"], HW, SWEEP_VALUES)


def test_self_times_add_up_across_threads():
    """A root with one child in its own thread, then two concurrent
    children in pool threads: busy time splits between them, and the
    self times sum to the root's duration."""
    tr = tracing.Tracer()
    root = ["c.main", None, 0.0, 10.0]
    tr.spans = [root, ["c.a", root, 1.0, 3.0], ["c.b", root, 4.0, 8.0],
                ["c.b", root, 6.0, 9.0]]
    own, total = tr.self_times()
    assert own["c.a"] == pytest.approx(2.0)
    # 4-6 first alone, 6-8 both at half, 8-9 second alone: the union, 5 s
    assert own["c.b"] == pytest.approx(5.0)
    assert own["c.main"] == pytest.approx(10.0 - 2.0 - 5.0)
    assert sum(own.values()) == pytest.approx(10.0)
    assert total["c.b"] == pytest.approx(7.0)


def test_missing_wrapped_name_is_left_out(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + [
        ("atomique.stage_router", "no_such_function", "stage_router.gone", None)])
    tr = tracing.Tracer()
    tr.install()
    tr.uninstall()
    assert tr.missing == ["atomique.stage_router.no_such_function"]


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer = {m[0]: m[1] for m in tracing.LAYER_METRICS}
    layer |= {name: "ratio" for name, *_ in tracing.RATIOS} | {"trace.overhead_ratio": "ratio"}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layer
    assert {w["name"] for w in spec["workloads"]} == set(inputs.WORKLOADS)
