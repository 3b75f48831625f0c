"""The block loader against the stage-by-stage one (`load_reference`).

`schedule_from_dict` runs each check over LOAD_BLOCK stages at a time, and
loads a failing block again one stage at a time through the same checks.
On schedules of more than one block with faults injected at random stages
and fields, it must raise what the stage-by-stage loader raises (class and
message), and a file that loads must give `Stage` fields, stored columns
and total move distance equal by `repr`.
"""

import functools
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from atomique.arch import load_config
from atomique.pipeline import compile_circuit
from atomique.stage_router import LOAD_BLOCK, schedule_from_dict, schedule_to_dict
from atomique.workloads import WorkloadSpec
from load_reference import schedule_from_dict as reference_load


@functools.lru_cache(maxsize=None)
def schedule_text(family: str, n: int) -> str:
    cfg, params = load_config({})
    res = compile_circuit(WorkloadSpec(family, n, seed=n).generate(), cfg, params, seed=1)
    assert len(res.schedule.stages) > LOAD_BLOCK
    return json.dumps(schedule_to_dict(res.schedule))


def _set(key, value):
    def edit(s):
        s[key] = value
    return edit


def _append(key, value):
    def edit(s):
        s[key] = [*s[key], value]
    return edit


def _distance(value):
    def edit(s):
        s["distances_um"][0] = value
    return edit


def _resize_distances(delta):
    def edit(s):
        s["distances_um"] = s["distances_um"][:-1] if delta < 0 else s["distances_um"] + [0.0]
    return edit


def _raman(gate):
    def edit(s):
        s["raman"] = [*s["raman"], [gate]]
    return edit


def _aod(t, key, i, value):
    def edit(s):
        s["aod"][t][key][i] = value
    return edit


def _aod_key(t, key, value):
    def edit(s):
        s["aod"][t][key] = value
    return edit


def _del(key):
    def edit(s):
        del s[key]
    return edit


# every way the loader rejects a stage, plus edits it accepts (marked valid);
# `None` replaces the whole stage
FAULTS = [
    _resize_distances(-1), _resize_distances(+1),
    _distance("0.0"), _distance(True), _distance(None), _distance(10 ** 400),
    _set("distances_um", None),
    _set("move_time_s", "3e-4"), _set("move_time_s", True), _set("move_time_s", None),
    _set("move_time_s", [1]),
    _append("cz", [0, 99]), _append("cz", [-1, 0]), _append("cz", [2, 2]),
    _append("cz", [0.9, 1]), _append("cz", [True, 1]), _append("cz", [0, 1, 2]),
    _append("cz", 5), _set("cz", [[0, 1], [1, 2]]), _set("cz", [[0, 1], [0, 1]]),
    _raman([99, 0.5, 0.0, 0.0]), _raman([-1, 0.5, 0.0, 0.0]), _raman([1.0, 0.5, 0.0, 0.0]),
    _raman([True, 0.5, 0.0, 0.0]), _raman([0, "1", "x", None]), _raman([0, 0.5, 0.0]),
    _raman([0, 0.5, 0.0, 0.0, 0.0]), _raman([0, True, 0.0, 0.0]), _raman([]),
    _set("cooling", [2]), _set("cooling", [-1]), _set("cooling", [0.0]),
    _set("cooling", [True]), _set("cooling", 5),
    _aod(0, "row_lanes", 0, "3"), _aod(0, "col_lanes", 1, True), _aod(1, "row_lanes", 2, 3.0),
    _aod(1, "col_offsets_um", 0, "0"), _aod(0, "col_offsets_um", 3, None),
    _aod(1, "col_offsets_um", 1, False), _aod_key(0, "row_lanes", "ab"),
    _aod_key(1, "col_lanes", 5), _aod_key(0, "col_offsets_um", {"a": 1}),
    _del("cz"), _del("raman"), _del("cooling"), _del("aod"), _del("distances_um"),
    _del("move_time_s"), None,
    lambda s: s.__setitem__("aod", s["aod"][:1]),
    lambda s: s.__setitem__("aod", s["aod"] * 2),
]
VALID = [
    _aod(0, "row_lanes", 0, 7), _aod(1, "col_lanes", 3, None), _aod(0, "col_offsets_um", 2, 1.25),
    _aod(1, "col_offsets_um", 0, 2), _set("cooling", [0, 1]), _set("move_time_s", 0),
    _distance(0), _set("raman", [[[0, 1, 2, 3]], [[1, 0.5, -0.5, 0.25]]]),
]


@st.composite
def edited_docs(draw):
    """A compiled schedule's JSON dict with one to three edits, each at a
    different random stage: a fault from FAULTS or an accepted edit from
    VALID."""
    doc = json.loads(schedule_text(*draw(st.sampled_from([("qaoa-rand", 14),
                                                          ("qsim-rand", 8)]))))
    stages = doc["stages"]
    for k in draw(st.lists(st.integers(0, len(stages) - 1), min_size=1, max_size=3,
                           unique=True)):
        edit = draw(st.sampled_from(FAULTS + VALID))
        if edit is None:
            stages[k] = draw(st.sampled_from([None, [], 7]))
        else:
            edit(stages[k])
    return doc


def outcome(load, doc):
    """('raised', class, message) or ('loaded', every Stage field by repr)."""
    try:
        schedule = load(doc)
    except Exception as exc:  # noqa: BLE001 - the outcome is what is compared
        return ("raised", type(exc), str(exc))
    fields = [(s.raman, s.cz, s.row_lanes, s.col_lanes, s.col_offsets, d.dtype, d.shape,
               d.tolist(), t, s.cooling)
              for s, d, t in zip(schedule.stages, schedule.stored_distances_um,
                                 schedule.stored_move_times_s, strict=True)]
    return ("loaded", repr(fields), repr((schedule.perm, schedule.initial_row_lanes,
                                          schedule.initial_col_lanes,
                                          schedule.overlap_rejections,
                                          schedule.total_distance_um)))


@settings(max_examples=300, deadline=None)
@given(doc=edited_docs())
def test_block_loader_matches_the_stage_by_stage_loader(doc):
    assert outcome(schedule_from_dict, doc) == outcome(reference_load, doc)


def test_valid_schedules_load_equal_to_the_stage_by_stage_loader():
    for family, n in [("qaoa-rand", 14), ("qsim-rand", 8)]:
        doc = json.loads(schedule_text(family, n))
        got = outcome(schedule_from_dict, doc)
        assert got[0] == "loaded" and got == outcome(reference_load, doc)


def test_the_first_bad_stage_is_reported_across_blocks():
    # a cz fault in the first block and a lane fault in the second: the
    # lane fault fails the second block's type pass, the cz fault is first
    doc = json.loads(schedule_text("qaoa-rand", 14))
    doc["stages"][3]["cz"].append([0, 99])
    doc["stages"][LOAD_BLOCK + 1]["aod"][0]["row_lanes"][0] = "3"
    want = outcome(reference_load, doc)
    assert want[:2] == ("raised", ValueError) and want[2].startswith("stage 3: cz [0, 99]")
    assert outcome(schedule_from_dict, doc) == want
    # and within one block, a cz fault after a lane fault loses to it
    doc = json.loads(schedule_text("qaoa-rand", 14))
    doc["stages"][5]["aod"][1]["col_offsets_um"][0] = None
    doc["stages"][9]["cz"].append([2, 2])
    want = outcome(reference_load, doc)
    assert want == ("raised", ValueError, "stage 5: col_offsets_um needs numbers")
    assert outcome(schedule_from_dict, doc) == want
    # a stage with its cz key deleted in the second block loses to a type
    # fault in the first
    doc = json.loads(schedule_text("qaoa-rand", 14))
    doc["stages"][7]["move_time_s"] = "3e-4"
    del doc["stages"][LOAD_BLOCK + 2]["cz"]
    want = outcome(reference_load, doc)
    assert want == ("raised", ValueError, "stage 7: move_time_s '3e-4' is not a number")
    assert outcome(schedule_from_dict, doc) == want
    # within one block, a malformed stage loses to an earlier faulty one,
    # and names its stage when it is the first
    doc = json.loads(schedule_text("qaoa-rand", 14))
    doc["stages"][4]["cooling"] = [2]
    doc["stages"][6]["aod"] = 5
    want = outcome(reference_load, doc)
    assert want == ("raised", ValueError,
                    "stage 4: cooling [2] needs int AOD indices in range(2)")
    assert outcome(schedule_from_dict, doc) == want
    del doc["stages"][4]
    assert outcome(schedule_from_dict, doc) == outcome(reference_load, doc) == (
        "raised", ValueError, "stage 5: object of type 'int' has no len()")
    # within one stage, a cz pair out of range wins over a malformed pair
    # after it, and loses to one before it
    for pairs, message in [([[0, 99], [0, 1, 2]], "cz [0, 99] needs"),
                           ([[0, 1, 2], [0, 99]], "too many values to unpack")]:
        doc = json.loads(schedule_text("qaoa-rand", 14))
        doc["stages"][LOAD_BLOCK]["cz"] = pairs
        want = outcome(reference_load, doc)
        assert want[2].startswith(f"stage {LOAD_BLOCK}: {message}")
        assert outcome(schedule_from_dict, doc) == want
    # LOAD_BLOCK + 1 stages: the last block holds one stage
    doc = json.loads(schedule_text("qaoa-rand", 14))
    del doc["stages"][LOAD_BLOCK + 1:]
    assert outcome(schedule_from_dict, doc) == outcome(reference_load, doc)
    assert outcome(schedule_from_dict, doc)[0] == "loaded"
    doc["stages"][LOAD_BLOCK]["distances_um"].pop()
    want = outcome(reference_load, doc)
    assert want == ("raised", ValueError,
                    f"stage {LOAD_BLOCK}: distances_um needs one number per qubit")
    assert outcome(schedule_from_dict, doc) == want
    # a lane fault in `initial`, the same lane check as a stage's
    doc = json.loads(schedule_text("qaoa-rand", 14))
    doc["initial"]["aod"][1]["col_lanes"][0] = 1.0
    want = outcome(reference_load, doc)
    assert want == ("raised", ValueError, "initial: col_lanes needs int or null lanes")
    assert outcome(schedule_from_dict, doc) == want
