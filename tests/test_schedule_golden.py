"""Golden schedule, stats, sweep and render hashes: a byte-identity check for refactors.

Each ``GOLDEN`` entry is the sha256 of ``schedule_to_dict`` (JSON, sorted
keys) for one seeded circuit compiled under one flag set: the bytes of the
``schedule.json`` that ``atomique compile`` writes, less the final newline.
Each ``GOLDEN_STATS`` entry is the sha256 of the same compile's
``stats.json`` bytes without ``compile_wall_time_s``.  ``GOLDEN_SWEEP`` pins
the CSV that ``atomique sweep`` writes for one small circuit per sweep
parameter, and ``GOLDEN_RENDER`` the SVG frames that ``atomique render``
writes for two compiled schedules.  A change that is meant to keep outputs
byte-identical must leave every hash as it is; a change that is meant to
alter them updates the table and says why.
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
        "b94981fe5b9c0117d3899333f8e042d0ab354324e6a3e07eb8eca1df88bb1b37",
    ("qaoa-rand-30", "relax-C1"):
        "2f72034551ce84fa198640609f949e1681c474f7da9013ab201e5a6d046789d2",
    ("qaoa-rand-30", "relax-C2"):
        "9d329c4d7b36174fae4f3f32f0cdf15c4fdc4dbd6ead641cd0c638da685a496f",
    ("qaoa-rand-30", "relax-C3"):
        "53eb68e5c00dc7a7550376b98d52102714464d61ff96d4fb2b3d63ce71150522",
    ("qaoa-rand-30", "relax-C2-C3"):
        "326365aebbf518beeacc839dd62049ec1a70f29dea6e77e88b917c73d702ff75",
    ("qaoa-rand-30", "serial"):
        "0bd6f7ac5c823f83c7ea7181a3dccc1b1690a78c65849771a942e42d02d5b68b",
    ("qaoa-rand-30", "mapper-random"):
        "fd6219bb92c47e01f6e58e52c8f633294beeaf8d8827ca9c7cab9b335c607531",
    ("qaoa-regular-40", "default"):
        "1c16eeebaa299aec6efc35124836df3d174866a056821b9428aae831cb1d98d1",
    ("qaoa-regular-40", "relax-C1"):
        "ac20554750ea650b321450f511c749774253720f8aa31a26a9130caf56333aba",
    ("qaoa-regular-40", "relax-C2"):
        "f95a9045b044282482c197ad058777c76284917497d505127a09ddf3677b1a32",
    ("qaoa-regular-40", "relax-C3"):
        "bda548009c56e8b2a996c8e81afb331012909a366d7645a99a3fc889c897e6d4",
    ("qaoa-regular-40", "relax-C2-C3"):
        "0472de9a4d63377aed35ae648744dc075d39279301dc1ee53e3323801e7aa5e4",
    ("qaoa-regular-40", "serial"):
        "b81be6ad3f670e6654e70d6cf29b0f6db7e381e09f074ae80fb82952fe633481",
    ("qaoa-regular-40", "mapper-random"):
        "e9c765bafff005e696b73a55b6f25630ef7e5c41d340fd4e6556c1bd3c321b9a",
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
        "09738061a8055c8b2e0363177359c41e545632cb93759725ccfa1ad5506ff688",
    ("random-pairs-40", "relax-C1"):
        "be868abafeac82ce214076d80c52081e7580c444607197dbefda195bee170780",
    ("random-pairs-40", "relax-C2"):
        "9a5c836fad50201d0948d81f453b3140345414c0671f143964be12c48427749e",
    ("random-pairs-40", "relax-C3"):
        "cf897e7b1d95b9b1d46b6ad2b8467bf5a88cd7fb31ab79e7e4aaa51bf11d2d17",
    ("random-pairs-40", "relax-C2-C3"):
        "d163eac9008f1bbf314ca8d31ad95ec4926c341eb6e9db7f1b93262b7ff9460c",
    ("random-pairs-40", "serial"):
        "eca9ba4f66e3062f608f6d70306b7d7c3d13ba3f2ee30fb88ac1eab4e19b7cf3",
    ("random-pairs-40", "mapper-random"):
        "ecd669fd52e1469dec6f1f723936496ee652203fd3eca3c86605e2ce0f3931ba",
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
        "c8933624b48e669f1ae1008610eeb40eacd8cc4fdf46ef00f08f6ecc1ecb7351",
    ("bv-40", "mapper-random"):
        "1fb2a72c29e45039d102b666bc09d5a68aca820e1331d1b7627cac6285d364a2",
    ("bv-40", "relax-C1"):
        "c8933624b48e669f1ae1008610eeb40eacd8cc4fdf46ef00f08f6ecc1ecb7351",
    ("bv-40", "relax-C2"):
        "c8933624b48e669f1ae1008610eeb40eacd8cc4fdf46ef00f08f6ecc1ecb7351",
    ("bv-40", "relax-C2-C3"):
        "c8933624b48e669f1ae1008610eeb40eacd8cc4fdf46ef00f08f6ecc1ecb7351",
    ("bv-40", "relax-C3"):
        "c8933624b48e669f1ae1008610eeb40eacd8cc4fdf46ef00f08f6ecc1ecb7351",
    ("bv-40", "serial"):
        "c8933624b48e669f1ae1008610eeb40eacd8cc4fdf46ef00f08f6ecc1ecb7351",
    ("qaoa-rand-30", "default"):
        "0c47f48e73131fb0ff3c01f62a18dd4ab8926d9ae3f719240b4f92685e75b72f",
    ("qaoa-rand-30", "mapper-random"):
        "a376a3a026a2b54f4301688554b6e90c132b2c259eb20bd2535c60eae697e8b2",
    ("qaoa-rand-30", "relax-C1"):
        "06df23eadd4a9b87f0cf2c46157330f925094b6510c86ff96c01ccc87b23e68a",
    ("qaoa-rand-30", "relax-C2"):
        "1f5138f6b9c3dce4e3a8446032115c555737fae7b9f56a23b7edbfcc7423262a",
    ("qaoa-rand-30", "relax-C2-C3"):
        "f0adb9ed17163f2dd931104598055dc67a66625cee9874135bfdfb26ddb18401",
    ("qaoa-rand-30", "relax-C3"):
        "219eb51d537eb1dbb894cf0c051ac109a3afd6756f95fa97a34bd5ef298a14c3",
    ("qaoa-rand-30", "serial"):
        "21069df45e9e395ea556bf98ddda26d0bf7e7f86aeeb764301047e9f78774e41",
    ("qaoa-regular-40", "default"):
        "ef9e8505c3b34637ca15b4982e9f5537cc8e8ac1ca5e31135ecbaf83ffef2668",
    ("qaoa-regular-40", "mapper-random"):
        "d990c56344b94cf012e8321c8a2ef119e0b41a992f847d6ff8c4016f90300388",
    ("qaoa-regular-40", "relax-C1"):
        "a755573aad6e9a7312d3565cfcf25788f202a2e0482711da6487b6d5dff186a5",
    ("qaoa-regular-40", "relax-C2"):
        "a7c341d15265125f138deec9b0dca06bedafd5e0a949a39e700e7512dbb5d53e",
    ("qaoa-regular-40", "relax-C2-C3"):
        "38ef626d6f9b225495f6d99e0846bf83d414a5f010a0f795a5d66ce21b50e964",
    ("qaoa-regular-40", "relax-C3"):
        "ad0efa892666954cb5cc486f9b87c19eec5879af4f27c56c82bbdcfa43824b53",
    ("qaoa-regular-40", "serial"):
        "631a42b7e2aba48eccb6f526844bf60cf43b03659fee369abd58bb39acbc34c3",
    ("qsim-rand-24", "default"):
        "a2a561d54dbdaba5f6530237555240a2e37db7add6426cc7058bfcdd9dc996b1",
    ("qsim-rand-24", "mapper-random"):
        "6a6e030b12a3d6face48f2541e351a84d2c43c1579af216a83ac28f66ed93a83",
    ("qsim-rand-24", "relax-C1"):
        "a2a561d54dbdaba5f6530237555240a2e37db7add6426cc7058bfcdd9dc996b1",
    ("qsim-rand-24", "relax-C2"):
        "a2a561d54dbdaba5f6530237555240a2e37db7add6426cc7058bfcdd9dc996b1",
    ("qsim-rand-24", "relax-C2-C3"):
        "a2a561d54dbdaba5f6530237555240a2e37db7add6426cc7058bfcdd9dc996b1",
    ("qsim-rand-24", "relax-C3"):
        "a2a561d54dbdaba5f6530237555240a2e37db7add6426cc7058bfcdd9dc996b1",
    ("qsim-rand-24", "serial"):
        "9cb62f9eb5cc4c548a516b47b218874fdc188a45543ebcded67f401a47da8ffa",
    ("random-pairs-40", "default"):
        "6000ecf2a3352e99256eeedc22d4c30165618e03986aab0aa4d9ea8fee21b131",
    ("random-pairs-40", "mapper-random"):
        "4c84ab919dcfbf7c035654365407a6fb0c472264e9ec9fcda6ad08e185a063f5",
    ("random-pairs-40", "relax-C1"):
        "40f8d3b3bf1e718af2923ea28a049051c4961d41db95be3aa2e8523bcc3dd81a",
    ("random-pairs-40", "relax-C2"):
        "18adc31c17ab76e120f3a741cecb11400640cdc5bdb5fcda7c11ea85aa7747bd",
    ("random-pairs-40", "relax-C2-C3"):
        "6183d195571f9986fc8d202cffa34da9b71563713a8ff69a38657d70bb30cc9f",
    ("random-pairs-40", "relax-C3"):
        "70faab2e86456eff324cb1e148a182b4bc584444bb0fa3f17d7ef557fcf9503b",
    ("random-pairs-40", "serial"):
        "736a4c6ae5b583055895b3bd8b011ae26b889f61d72ee46662dfcd90ff4ec60b",
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

# sweep parameter -> values; each rescoring one routing of SWEEP_CIRCUIT
# (D_site re-derives the move distances per value)
SWEEP_CIRCUIT = ["--family", "qaoa-rand", "--n", "30", "--seed", "3", "--p", "0.3"]
SWEEP_VALUES = {
    "T_per_move": "30e-6,100e-6,200e-6,300e-6,600e-6,1e-3",
    "n_cool_threshold": "0,0.001,0.01,0.1,1,15",
    "f_2Q": "0.9,0.99,0.995,0.999,1.0",
    "T1": "0.01,0.1,0.5,1.5,10",
    "D_site": "15,20,30,45,60",  # the bytes a compile per value gave
}

GOLDEN_SWEEP = {
    "T_per_move": "e106d6b70fb1b3bd779ece3ec1126d351baa78904ed549d3e7216a803854d51a",
    "f_2Q": "af350fcc171504017ef908eb86c04faacb39f4a28eead8649545c81db1826587",
    "n_cool_threshold": "f262830c9a95155058c6a4946f80283d19dfd097aa8b85e8b2e79ecef6fba4dd",
    "T1": "3e85a128f6e6fcfc5c6fa3ad6a238f0863b8dd17ab3221709498b4e7ab5eefc7",
    "D_site": "9119f12830dd303f558eebcbc62dbad7acb79d3dc07155bc0c0a8d821fa3c2d2",
}


# (circuit, flag set) -> (frame count, sha256 of the "<name> <sha256>\n"
# line of every frame, in name order).  Re-recorded when the lattice became
# one SVG pattern fill instead of a circle per SLM site; every other line of
# every frame is unchanged.
GOLDEN_RENDER = {
    ("qaoa-rand-30", "default"):
        (178, "8a80bcb0cd62bd47fb39ff1fea744c0cf544e36390ee53cf0f9ee3b76f52efa2"),
    ("qaoa-regular-40", "relax-C1"):
        (49, "bad04d60c67562a175e7c38318dd05eea2f0093f5944a61dcb2cdc82d9c99767"),
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


def render_hash(circuit_name: str, flags: str, tmp_path) -> tuple[int, str]:
    """(frame count, manifest sha256) of `atomique render` run on the
    schedule.json of `atomique compile`."""
    qasm, out, frames = tmp_path / "in.qasm", tmp_path / "out", tmp_path / "frames"
    qasm.write_text(to_qasm(CIRCUITS[circuit_name].generate()))
    assert main(["compile", str(qasm), "-o", str(out), "--seed", "1",
                 *CLI_FLAGS[flags]]) == 0
    assert main(["render", str(out / "schedule.json"), "-o", str(frames)]) == 0
    paths = sorted(frames.iterdir())
    manifest = "".join(f"{p.name} {hashlib.sha256(p.read_bytes()).hexdigest()}\n"
                       for p in paths)
    return len(paths), hashlib.sha256(manifest.encode()).hexdigest()


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


@pytest.mark.parametrize("circuit_name,flags", sorted(GOLDEN_RENDER))
def test_render_frames_match_the_golden_hash(circuit_name, flags, tmp_path):
    assert render_hash(circuit_name, flags, tmp_path) == GOLDEN_RENDER[(circuit_name, flags)]


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
