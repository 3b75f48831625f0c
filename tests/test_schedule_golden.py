"""Golden schedule, stats and sweep hashes: a byte-identity check for refactors.

Each ``GOLDEN`` entry is the sha256 of ``schedule_to_dict`` (JSON, sorted
keys) for one seeded circuit compiled under one flag set: the bytes of the
``schedule.json`` that ``atomique compile`` writes, less the final newline.
Each ``GOLDEN_STATS`` entry is the sha256 of the same compile's
``stats.json`` bytes without ``compile_wall_time_s``.  ``GOLDEN_SWEEP`` pins
the CSV that ``atomique sweep`` writes for one small circuit per sweep
parameter.  A change that is meant to keep outputs byte-identical must leave
every hash as it is; a change that is meant to alter them updates the table
and says why.
"""

import dataclasses
import functools
import hashlib
import json

import pytest

from atomique.arch import load_config
from atomique.circuit import to_qasm
from atomique.cli import SWEEP_PARAMS, main
from atomique.pipeline import compile_circuit
from atomique.stage_router import audit_schedule, schedule_from_dict, schedule_to_dict
from atomique.workloads import WorkloadSpec

CIRCUITS = {
    "qaoa-rand-30": WorkloadSpec("qaoa-rand", 30, seed=3, p=0.3),
    "qaoa-regular-40": WorkloadSpec("qaoa-regular", 40, seed=5, d=3),
    "qsim-rand-24": WorkloadSpec("qsim-rand", 24, seed=2, n_strings=8),
    "random-pairs-40": WorkloadSpec("random-pairs", 40, seed=7, gates_per_qubit=4),
    "bv-40": WorkloadSpec("bv", 40, seed=4),
}

# flag set -> (relaxed constraints, compile_circuit keywords)
FLAGS = {
    "default": ((), {}),
    "relax-C1": (("C1",), {}),
    "relax-C2": (("C2",), {}),
    "relax-C3": (("C3",), {}),
    "relax-C2-C3": (("C2", "C3"), {}),
    "serial": ((), {"serial": True}),
    "mapper-random": ((), {"mapper": "random"}),
}

GOLDEN = {
    ("qaoa-rand-30", "default"):
        "c600f1f3afcede73d0437610b22d8a6a40ca70aa21ad1d3b9e1478adf5b8a5c3",
    ("qaoa-rand-30", "relax-C1"):
        "2f72034551ce84fa198640609f949e1681c474f7da9013ab201e5a6d046789d2",
    ("qaoa-rand-30", "relax-C2"):
        "968738de073d6d84fca6d7ff8536bd1b219c2cb0f9fb629fd5e08cad7d6d49ca",
    ("qaoa-rand-30", "relax-C3"):
        "b5ad7e2f2d7c075464a9f2cc696e118cbfea3a6071b823a47d55d45534675121",
    ("qaoa-rand-30", "relax-C2-C3"):
        "094630b228da6284dd80054027c74ecba738ea877ac7f43007495848cb335ffb",
    ("qaoa-rand-30", "serial"):
        "0bd6f7ac5c823f83c7ea7181a3dccc1b1690a78c65849771a942e42d02d5b68b",
    ("qaoa-rand-30", "mapper-random"):
        "7bf7aac8433d7a4fd67fa79ef81acd4dcf7a3e626d307e7631caf5fe891999fa",
    ("qaoa-regular-40", "default"):
        "b45821fadae734dcd0f57c55ef6ee02f9fa51c9bc513e754b4f1b37628d46341",
    ("qaoa-regular-40", "relax-C1"):
        "b9c84a6bbcc090d40c859527d7c8ac8893feab5626cdd74d316628cc31cfd8a3",
    ("qaoa-regular-40", "relax-C2"):
        "3884696b9cf3035fea748e407a7c879f14cb2fb617f3aa9b8fcc31fa55410a7a",
    ("qaoa-regular-40", "relax-C3"):
        "48d5bdce762684d56502fb1c8df93146f406784e16481d1f7f0e8591b83d5ea0",
    ("qaoa-regular-40", "relax-C2-C3"):
        "9cda9b7ddaf6593ecee7ac95a5d4c8d359c7dfce0509778f97a5b16797257f79",
    ("qaoa-regular-40", "serial"):
        "b81be6ad3f670e6654e70d6cf29b0f6db7e381e09f074ae80fb82952fe633481",
    ("qaoa-regular-40", "mapper-random"):
        "6f82bdcfeb6940af19074fab44bb6d3557c35bbbea8ba978fc74cb55fd053279",
    ("qsim-rand-24", "default"):
        "6b4299714d4c425dbe37407622c6d625c96b5c5e82df21740318677f2409de9e",
    ("qsim-rand-24", "relax-C1"):
        "8c581c2bc0914643577f560115ece89a04a6bae528bde51d8ac789a590e37fda",
    ("qsim-rand-24", "relax-C2"):
        "a63e3cffa9a63f3de91a7dc23805bf087b5002d25b3b5df7a908e703dc28f3e5",
    ("qsim-rand-24", "relax-C3"):
        "946a1216783499c323a7fa620e96c053cfc0e0150bc27572761981ce32ffb3b7",
    ("qsim-rand-24", "relax-C2-C3"):
        "2e1d7af2b04e94d9be62921f6684e55f0dec8b3c37e1247ff5855a75a8ac4337",
    ("qsim-rand-24", "serial"):
        "1af5ae2bb52b82c95563c4fb8c5e7a101c2f80865ca00e126d89b9c2ff3714e7",
    ("qsim-rand-24", "mapper-random"):
        "baf1da68c96388470590e8f4a2607a2a73ffcfde72bf5757b1f238d630743214",
    ("random-pairs-40", "default"):
        "74da13477633b0942a2f9aee4bae1d7e67e914760b9bc78c8ba5485020ed6564",
    ("random-pairs-40", "relax-C1"):
        "3a468e18a8faf29e3917407f1d8d97bc4bce24c6fd2aec435009cae801081b48",
    ("random-pairs-40", "relax-C2"):
        "843e09616afa110bc9e585ff67b928af09873f42520a6e4627e2b051cb64ae2a",
    ("random-pairs-40", "relax-C3"):
        "358b7cc542e6778714369656564beb3a85b77ca9cc77def227e6f984dd05e8b8",
    ("random-pairs-40", "relax-C2-C3"):
        "aa734da6e88e73210abbeb334d0203a11b4f0a8043c171aa7b2af4c16124278b",
    ("random-pairs-40", "serial"):
        "eca9ba4f66e3062f608f6d70306b7d7c3d13ba3f2ee30fb88ac1eab4e19b7cf3",
    ("random-pairs-40", "mapper-random"):
        "f608ac8ec9d01a9a19482313a06b3362bd0f9ec7e1f3425b696443421be27c65",
    ("bv-40", "default"):
        "164ff9dcb6aba85298955c8b5bde135bd16768d08de696032a80a8c497b53cb5",
    ("bv-40", "relax-C1"):
        "84c469d96ae75d03ddf824ab00f1294827448bf0eb10944ff117d1cba58873c6",
    ("bv-40", "relax-C2"):
        "e6c8e2546d1e0c2f35f72bc3516156b8ce133da9e811a8ecb9b6d2af37d10424",
    ("bv-40", "relax-C3"):
        "ccf679040d3cdfb245c2f64420afe980705114c67da401b7f080fac68d769a25",
    ("bv-40", "relax-C2-C3"):
        "da8f00849850d75cd40415a04b8b25aadf6ff3cf1fabf7910c4d1a53935d4e07",
    ("bv-40", "serial"):
        "164ff9dcb6aba85298955c8b5bde135bd16768d08de696032a80a8c497b53cb5",
    ("bv-40", "mapper-random"):
        "4c04d95c49d2ace89bebc1c7d27111b4bdc08d02e1dbf823ca5273ab7685e46d",
}


GOLDEN_STATS = {
    ("bv-40", "default"):
        "3975e3bb4ee562eed70851492effda15dfacb1bd6d18da84133bb7f3155aec0b",
    ("bv-40", "mapper-random"):
        "30d33ea4990735f078da754e6811a382e3851d07639fc38dcd76e55a8cafeb89",
    ("bv-40", "relax-C1"):
        "3975e3bb4ee562eed70851492effda15dfacb1bd6d18da84133bb7f3155aec0b",
    ("bv-40", "relax-C2"):
        "3975e3bb4ee562eed70851492effda15dfacb1bd6d18da84133bb7f3155aec0b",
    ("bv-40", "relax-C2-C3"):
        "3975e3bb4ee562eed70851492effda15dfacb1bd6d18da84133bb7f3155aec0b",
    ("bv-40", "relax-C3"):
        "3975e3bb4ee562eed70851492effda15dfacb1bd6d18da84133bb7f3155aec0b",
    ("bv-40", "serial"):
        "3975e3bb4ee562eed70851492effda15dfacb1bd6d18da84133bb7f3155aec0b",
    ("qaoa-rand-30", "default"):
        "91e5546ca7b224fc08d4726a1739904d0efca330de133a9cd1ba7cefcd09c712",
    ("qaoa-rand-30", "mapper-random"):
        "b1fd17e9648759b8170459cae898b82536b8e40606fec906db37f5d5dc7877cb",
    ("qaoa-rand-30", "relax-C1"):
        "0b76b0bb949bf15fcfa06261a41f3c3d5fdd1850eaffc0c2e7f9f310f418aaf8",
    ("qaoa-rand-30", "relax-C2"):
        "4f637381e71574afde164e0123a4160670ff8b09d7788cc0cc901f1f55227bdc",
    ("qaoa-rand-30", "relax-C2-C3"):
        "7c5c66f6458e7d30e3d12b0679ade142f17979094bd7f91712721da0b903ceb6",
    ("qaoa-rand-30", "relax-C3"):
        "d2cefc4b350de57978f47531d77b5b41d0d37de9b789dfece7e223e0d75cc703",
    ("qaoa-rand-30", "serial"):
        "50fabbe75e1088fd41a3287a841d5fddee2903017ea84cea2fac8cfd6081d680",
    ("qaoa-regular-40", "default"):
        "e8877e7a87377d8cf0ffbba67f7505c1a72035f61ec2973ea833718026faddef",
    ("qaoa-regular-40", "mapper-random"):
        "6b8171da59a2f2f5035fa2f2158a29dbf023ee19ed2b3ba3e59b1ccd79cb923b",
    ("qaoa-regular-40", "relax-C1"):
        "867f468fc62dac18f881f19492ddbf78cf1673ea210ef3c882d8cfa990d854f2",
    ("qaoa-regular-40", "relax-C2"):
        "1de67695aa33503fa48475c0308e5203920683434c6778ce5fdf5a31bff2f593",
    ("qaoa-regular-40", "relax-C2-C3"):
        "931e4833cfb25e97f447fb3032346cd00de6bf09a9ff66c571fb46039035f7cc",
    ("qaoa-regular-40", "relax-C3"):
        "434519d2c45ac891c3af45f773090a3f6c429a5df17eaa60b8c911c2722b0f0f",
    ("qaoa-regular-40", "serial"):
        "823ebd319e28639dfda1702157439e3c5f3ebbeeeb108ffacfc56a28464a87a6",
    ("qsim-rand-24", "default"):
        "70b5b72d527f4186180987216e8dd77168e9f0697217b98c2a948a28ce447db0",
    ("qsim-rand-24", "mapper-random"):
        "b40587dd7032b0e0b99314f8eef69c05d29fe446226d53840345fbe8b03bb02f",
    ("qsim-rand-24", "relax-C1"):
        "70b5b72d527f4186180987216e8dd77168e9f0697217b98c2a948a28ce447db0",
    ("qsim-rand-24", "relax-C2"):
        "70b5b72d527f4186180987216e8dd77168e9f0697217b98c2a948a28ce447db0",
    ("qsim-rand-24", "relax-C2-C3"):
        "70b5b72d527f4186180987216e8dd77168e9f0697217b98c2a948a28ce447db0",
    ("qsim-rand-24", "relax-C3"):
        "70b5b72d527f4186180987216e8dd77168e9f0697217b98c2a948a28ce447db0",
    ("qsim-rand-24", "serial"):
        "f1b94451be500f4c43dfb524dc7fe6267010ae154f00e3e7e193229530e84cc3",
    ("random-pairs-40", "default"):
        "322c756dd0b615d7ca4949f5781a4183bcb5517d7ca5346c481492f15549aa4a",
    ("random-pairs-40", "mapper-random"):
        "6c55dbd9eceb0f7f2d755e134a438cea86d28b970138b7f1f2afdc93bc42c731",
    ("random-pairs-40", "relax-C1"):
        "dd867aceebd27c0e81b80188046f80596752b097c7b394633768423f5f3bcf85",
    ("random-pairs-40", "relax-C2"):
        "17d648691f57d8de97acd987c93710d2e84bcae5d6f02098c5d15f28bb05ff12",
    ("random-pairs-40", "relax-C2-C3"):
        "e11851080e05670f36c879276da1b3bedce684e05459052c9284a8ad165f3c21",
    ("random-pairs-40", "relax-C3"):
        "cb6166b3d075a56d514f26aee87940abe3a1b3f4efcd6e52bd8f6edfc33fb172",
    ("random-pairs-40", "serial"):
        "f95443763921da4bbbf89efb0b096352c2b0e75abda78eaa1c01ab133d7b19f8",
}

# flag set -> the `atomique compile` arguments that select it
CLI_FLAGS = {
    "default": [],
    "relax-C1": ["--relax", "C1"],
    "relax-C2": ["--relax", "C2"],
    "relax-C3": ["--relax", "C3"],
    "relax-C2-C3": ["--relax", "C2", "--relax", "C3"],
    "serial": ["--serial-router"],
    "mapper-random": ["--mapper", "random"],
}

# sweep parameter -> values; each but D_site rescoring one compile of
# SWEEP_CIRCUIT
SWEEP_CIRCUIT = ["--family", "qaoa-rand", "--n", "30", "--seed", "3", "--p", "0.3"]
SWEEP_VALUES = {
    "T_per_move": "30e-6,100e-6,200e-6,300e-6,600e-6,1e-3",
    "n_cool_threshold": "0,0.001,0.01,0.1,1,15",
    "f_2Q": "0.9,0.99,0.995,0.999,1.0",
    "T1": "0.01,0.1,0.5,1.5,10",
    "D_site": "15,20,30,45,60",  # recompiles per point
}

GOLDEN_SWEEP = {
    "T_per_move": "f3d200f270bca0df98da9336d0e9da2e80b23e062877ca7197e83d484d8873f4",
    "f_2Q": "32e16c427e6792069b178f429f1c4f319bb2298fbf03cf0cab48013454a9207a",
    "n_cool_threshold": "876460853dc74529091a71bfb33f05a7c3e80a5210f9805f79c8274584bb2731",
    "T1": "73d57f30fa23c799fe307ab21f4b6c140ac4a21a56ee8b61378178af96bff32a",
    "D_site": "49c8254b8d606691137ea94968892545aea7cbed7f3da9aebe98a718d50842e6",
}


@functools.lru_cache(maxsize=None)
def compile_hashes(circuit_name: str, flags: str) -> tuple[str, str, str]:
    """(schedule sha256, stats.json sha256 without compile_wall_time_s,
    the schedule.json text)."""
    relaxed, kwargs = FLAGS[flags]
    cfg, params = load_config({})
    cfg = dataclasses.replace(cfg, relaxed=frozenset(relaxed))
    res = compile_circuit(CIRCUITS[circuit_name].generate(), cfg, params, seed=1, **kwargs)
    text = json.dumps(schedule_to_dict(res.schedule), sort_keys=True)
    blob = text.encode()
    stats = {k: v for k, v in res.stats.items() if k != "compile_wall_time_s"}
    # the bytes `atomique compile` writes to stats.json
    stats_blob = (json.dumps(stats, indent=2, sort_keys=True) + "\n").encode()
    return hashlib.sha256(blob).hexdigest(), hashlib.sha256(stats_blob).hexdigest(), text


def sweep_hash(param: str, out_dir) -> str:
    path = out_dir / f"{param}.csv"
    rc = main(["sweep", "--param", param, "--values", SWEEP_VALUES[param],
               *SWEEP_CIRCUIT, "-o", str(path)])
    assert rc == 0
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_the_golden_table_covers_every_circuit_and_flag_set():
    assert set(GOLDEN) == {(c, f) for c in CIRCUITS for f in FLAGS}
    assert set(GOLDEN_STATS) == set(GOLDEN)
    assert set(GOLDEN_SWEEP) == set(SWEEP_VALUES) == set(SWEEP_PARAMS)


@pytest.mark.parametrize("circuit_name,flags", sorted(GOLDEN))
def test_schedule_bytes_match_the_golden_hash(circuit_name, flags):
    assert compile_hashes(circuit_name, flags)[0] == GOLDEN[(circuit_name, flags)]


@pytest.mark.parametrize("circuit_name,flags", sorted(GOLDEN_STATS))
def test_stats_bytes_match_the_golden_hash(circuit_name, flags):
    assert compile_hashes(circuit_name, flags)[1] == GOLDEN_STATS[(circuit_name, flags)]


@pytest.mark.parametrize("circuit_name,flags", sorted(GOLDEN))
def test_every_golden_schedule_audits_clean_after_loading(circuit_name, flags):
    # geometry, stored distances and move times, from the saved file
    text = compile_hashes(circuit_name, flags)[2]
    assert audit_schedule(schedule_from_dict(json.loads(text))) == []


@pytest.mark.parametrize("param", sorted(SWEEP_VALUES))
def test_sweep_csv_bytes_match_the_golden_hash(param, tmp_path):
    assert sweep_hash(param, tmp_path) == GOLDEN_SWEEP[param]


@pytest.mark.parametrize("circuit_name,flags", [
    ("qaoa-rand-30", "default"), ("qsim-rand-24", "relax-C2-C3"),
    ("random-pairs-40", "serial"), ("bv-40", "mapper-random"),
])
def test_compile_command_writes_the_json_module_bytes(circuit_name, flags, tmp_path):
    # the files `atomique compile` writes, not only json.dumps of the payload
    qasm = tmp_path / "in.qasm"
    qasm.write_text(to_qasm(CIRCUITS[circuit_name].generate()))
    out = tmp_path / "out"
    assert main(["compile", str(qasm), "-o", str(out), "--seed", "1",
                 *CLI_FLAGS[flags]]) == 0
    schedule_bytes = (out / "schedule.json").read_bytes()
    assert schedule_bytes.endswith(b"}\n")
    assert hashlib.sha256(schedule_bytes[:-1]).hexdigest() == GOLDEN[(circuit_name, flags)]
    stats_lines = (out / "stats.json").read_bytes().splitlines(keepends=True)
    stats = json.loads(b"".join(stats_lines))
    del stats["compile_wall_time_s"]
    want = (json.dumps(stats, indent=2, sort_keys=True) + "\n").encode()
    assert b"".join(line for line in stats_lines
                    if not line.startswith(b'  "compile_wall_time_s": ')) == want
    assert hashlib.sha256(want).hexdigest() == GOLDEN_STATS[(circuit_name, flags)]
