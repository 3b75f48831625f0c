"""Acceptance gate: one test per release criterion, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every verdict line;
without ``-s`` pytest still shows the printed line for any failing criterion.
"""

import dataclasses
import math
import pathlib
import time
from decimal import Decimal

import numpy as np
import pytest

from atomique.arch import load_config
from atomique.array_mapper import greedy_max_kcut
from atomique.circuit import Circuit
from atomique.fidelity import apply_schedule, delta_nvib, move_survival
from atomique.oracle import equivalent_up_to_permutation
from atomique.pipeline import compile_circuit
from atomique.stage_router import audit_schedule, schedule_to_circuit
from atomique.workloads import WorkloadSpec, bv_secret
from kcut_reference import cut_value, kcut_exhaustive
from swap_reference import intra_array_cz
from test_fidelity import one_move_schedule

CFG, PARAMS = load_config({})
README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def verdict(num: int, ok: bool, detail: str) -> bool:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


def full_benchmark_suite():
    return [
        WorkloadSpec("bv", 50, secret=bv_secret(50, 22, seed=0)),
        WorkloadSpec("bv", 70, secret=bv_secret(70, 31, seed=0)),
        WorkloadSpec("qsim-rand", 20, seed=1),
        WorkloadSpec("qsim-rand", 40, seed=1),
        WorkloadSpec("qaoa-regular", 40, seed=1, d=5),
        WorkloadSpec("random-pairs", 100, seed=1, gates_per_qubit=10.0),
    ]


@pytest.fixture(scope="module")
def compiled_suite():
    return [(spec, compile_circuit(spec.generate(), CFG, PARAMS))
            for spec in full_benchmark_suite()]


def test_criterion_01_heating_constants():
    """Each anchor must be reproduced to the precision it is quoted with:
    |got - want| < one unit in its last quoted digit (1e-4 for 0.0054,
    1e-2 for 0.13 and 0.54).

    A fixed relative band cannot serve all three anchors. The closed form
    scales as D^2, so dn(75 um) = 25 * dn(15 um) = dn(150 um) / 4, and the
    anchors themselves imply 25 * 0.0054 = 0.54 / 4 = 0.135 at 75 um, 3.8%
    above the quoted "0.13", which is that value cut to two figures. The
    quoted-digit band is ±1.85% at 15 and 150 um, tighter than a 2% band,
    and still rejects a D^1.9 or D^2.1 scaling at 75 um.
    """
    anchors = {15.0: 0.0054, 75.0: 0.13, 150.0: 0.54}
    got = {d: delta_nvib(d, PARAMS, CFG.T_per_move) for d in anchors}
    band = {d: 10.0 ** Decimal(str(want)).as_tuple().exponent
            for d, want in anchors.items()}
    ok = all(abs(got[d] - want) < band[d] for d, want in anchors.items())
    detail = ", ".join(
        f"dn({d:.0f}um)={got[d]:.4g} vs {want} "
        f"({(got[d] - want) / want:+.1%}, band ±{band[d]:g} = ±{band[d] / want:.2%})"
        for d, want in sorted(anchors.items())
    )
    assert verdict(1, ok, f"heating constants: {detail}"), detail


def test_criterion_02_loss_model():
    checks = [(30.0, 0.708, 1e-3), (20.0, 0.998, 1e-3), (15.0, 0.999998, 1e-5)]
    got = {n: move_survival(n, PARAMS) for n, _, _ in checks}
    ok = all(abs(got[n] - want) <= tol for n, want, tol in checks)
    detail = ", ".join(f"surv({n:.0f})={got[n]:.6f}" for n, _, _ in checks)
    assert verdict(2, ok, f"loss model: {detail}")


def test_criterion_03_decoherence_scaling():
    def one_move(n):
        [(report, _)] = apply_schedule(one_move_schedule(n), [(PARAMS, None)])
        return report.F_mov_deco

    checks = [(10, 0.998), (50, 0.990), (100, 0.980)]
    got = {n: one_move(n) for n, _ in checks}
    ok = all(abs(got[n] - want) <= 1e-3 for n, want in checks)
    detail = ", ".join(f"N={n}: {got[n]:.4f}" for n, _ in checks)
    assert verdict(3, ok, f"one-move decoherence: {detail}")


def test_criterion_04_partition_bound():
    rng = np.random.default_rng(404)
    worst = 1.0
    for _ in range(500):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(2, 4))
        w = np.triu(rng.random((n, n)) * (rng.random((n, n)) < 0.7), 1)
        w = w + w.T
        opt, _ = kcut_exhaustive(w, k)
        got = cut_value(w, greedy_max_kcut(w, k))
        bound = (1 - 1 / k) * opt
        assert got >= bound - 1e-9, f"n={n} k={k}: {got} < {bound}"
        if opt > 0:
            worst = min(worst, got / opt)
    assert verdict(4, True, f"greedy cut >= (1-1/k)*OPT on 500 graphs; "
                            f"worst ratio to OPT {worst:.3f}")


def test_criterion_05_routing_correctness():
    cases = []
    for n in (4, 5, 6):
        cases.append(WorkloadSpec("qaoa-rand", n, seed=n, p=0.7).generate())
        cases.append(WorkloadSpec("qsim-rand", n, seed=n, n_strings=4).generate())
        cases.append(WorkloadSpec("bv", n, seed=n).generate())
        cases.append(WorkloadSpec("random-pairs", n, seed=n, gates_per_qubit=4).generate())
        if (n * 3) % 2 == 0:
            cases.append(WorkloadSpec("qaoa-regular", n, seed=n, d=3).generate())

    rng = np.random.default_rng(505)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        c = Circuit(n)
        for _ in range(int(rng.integers(3, 16))):
            if n >= 2 and rng.random() < 0.5:
                a, b = rng.choice(n, size=2, replace=False)
                c.add("cx" if rng.random() < 0.5 else "cz",
                      (int(a), int(b)))
            else:
                c.add("u", (int(rng.integers(n)),),
                      tuple(float(x) for x in rng.uniform(0, 2 * np.pi, 3)))
        cases.append(c)

    for i, circ in enumerate(cases):
        res = compile_circuit(circ, CFG, PARAMS, seed=i)
        assert equivalent_up_to_permutation(
            res.circuit, schedule_to_circuit(res.schedule), res.schedule.perm, tol=1e-8
        ), f"case {i} diverged from its schedule"
    assert verdict(5, True, f"{len(cases)} schedules (families <= 6 qubits "
                            f"+ 200 fuzz) match the input unitary at 1e-8")


def test_criterion_06_geometric_legality(compiled_suite):
    total = 0
    for spec, res in compiled_suite:
        findings = audit_schedule(res.schedule)
        assert findings == [], f"{spec.family}-{spec.n_qubits}: {findings[:3]}"
        total += len(res.schedule.stages)
    assert verdict(6, True, f"separation audit clean across {total} stages "
                            f"of {len(compiled_suite)} benchmarks")


def test_criterion_07_no_intra_array_gates(compiled_suite):
    for spec, res in compiled_suite:
        bad = intra_array_cz(res.routed)
        assert bad == 0, f"{spec.family}-{spec.n_qubits}: {bad} intra-array CZ"
    assert verdict(7, True, "every two-qubit gate spans two arrays "
                            "on the full benchmark suite")


def test_criterion_08_ablation_direction():
    rows = []
    for i in range(10):
        spec = WorkloadSpec("random-pairs", 12 + 2 * (i % 5), seed=100 + i,
                            gates_per_qubit=4.0)
        circ = spec.generate()
        greedy = compile_circuit(circ, CFG, PARAMS, seed=i)
        rand = compile_circuit(circ, CFG, PARAMS, seed=i, mapper="random")
        serial = compile_circuit(circ, CFG, PARAMS, seed=i, serial=True)
        rows.append((greedy.report.F_total, rand.report.F_total,
                     greedy.schedule.depth, serial.schedule.depth))
    assert all(g >= r for g, r, _, _ in rows), "greedy mapper lost to random"
    assert all(p <= s for _, _, p, s in rows), "parallel router deeper than serial"
    strict = sum(1 for g, r, p, s in rows if g > r and p < s)
    ok = strict >= 0.8 * len(rows)
    assert verdict(8, ok, f"mapper and router ablations improve all {len(rows)} "
                          f"instances, strictly on {strict}")


def test_criterion_09_sensitivity_shape():
    circ = WorkloadSpec("qsim-rand", 20, seed=1).generate()
    res = compile_circuit(circ, CFG, PARAMS)
    durations = [us * 1e-6 for us in range(100, 1001, 100)]
    totals = [
        report.F_total
        for report, _ in apply_schedule(res.schedule, [(PARAMS, t) for t in durations])
    ]
    best = totals.index(max(totals))
    assert 0 < best < len(totals) - 1, f"maximum sits at the {durations[best]} end"

    coarse = dataclasses.replace(CFG, D_site=60.0)
    n_cool_60 = compile_circuit(circ, coarse, PARAMS).report.N_cooling
    assert n_cool_60 >= 1, "no cooling triggered on the 60 um lattice"
    short = WorkloadSpec("qaoa-rand", 12, p=0.6).generate()
    short_res = compile_circuit(short, CFG, PARAMS)
    assert short_res.stats["n_2q"] <= 100
    assert short_res.report.N_cooling == 0, "cooling triggered on a short 15 um run"
    assert verdict(9, True, f"move-time optimum interior at "
                            f"{durations[best]*1e6:.0f} us; {n_cool_60} coolings "
                            f"at 60 um vs 0 at 15 um")


def test_criterion_10_scalability():
    circ = WorkloadSpec("random-pairs", 100, seed=2, gates_per_qubit=20.0).generate()
    t0 = time.perf_counter()
    res = compile_circuit(circ, CFG, PARAMS)
    wall = time.perf_counter() - t0
    ok = wall < 60.0
    assert res.stats["n_2q"] >= 1000
    assert verdict(10, ok, f"100 qubits / {res.stats['n_2q']} two-qubit gates "
                           f"compiled in {wall:.2f}s (< 60s)"), f"{wall:.1f}s"


def test_criterion_11_cross_architecture_comparison_out_of_scope():
    text = README.read_text()
    ok = "cross-architecture" in text.lower() and "not repro" in text.lower()
    assert verdict(11, ok, "cross-architecture speedup headlines depend on "
                           "external baseline compilers and are documented "
                           "as not reproducible here")
