import json
import math
import re
import warnings
from dataclasses import fields

import numpy as np
import pytest

from atomique.arch import (
    ArchConfig,
    AtomCoord,
    HardwareParams,
    arch_to_dict,
    atom_positions,
    lane_gather,
    load_config,
    min_separation_audit,
    move_distances,
    slm_position,
)


def total_capacity(cfg: ArchConfig) -> int:
    return sum(cfg.array_capacity(a) for a in range(cfg.n_arrays))


def config_to_dict(arch: ArchConfig, hw: HardwareParams) -> dict:
    """One JSON-ready dict for both dataclasses, as `load_config` reads it."""
    out = arch_to_dict(arch)
    for f in fields(HardwareParams):
        out["lambda" if f.name == "lam" else f.name] = getattr(hw, f.name)
    return out


def test_defaults_valid():
    cfg = ArchConfig()
    assert cfg.n_arrays == 3
    assert cfg.s_min == pytest.approx(6.25)
    assert total_capacity(cfg) == 300


def test_slm_positions():
    cfg = ArchConfig()
    assert slm_position(0, 0, cfg) == (0.0, 0.0)
    assert slm_position(2, 3, cfg) == (45.0, 30.0)


def test_capacity_and_shape():
    cfg = ArchConfig(n_aod=2, slm_rows=4, slm_cols=5, aod_rows=(2, 3), aod_cols=(6, 7))
    assert cfg.array_capacity(0) == 20
    assert cfg.array_capacity(1) == 12
    assert cfg.array_capacity(2) == 21
    assert cfg.array_shape(2) == (3, 7)


def test_scalar_aod_shape_broadcast():
    cfg = ArchConfig(n_aod=3, aod_rows=4, aod_cols=5)
    assert cfg.aod_rows == (4, 4, 4)
    assert cfg.aod_cols == (5, 5, 5)


def test_validation_errors():
    with pytest.raises(ValueError):
        ArchConfig(n_aod=0)
    with pytest.raises(ValueError):
        ArchConfig(delta=3.0)  # >= r_b
    with pytest.raises(ValueError):
        ArchConfig(D_site=10.0)  # lanes too dense
    with pytest.raises(ValueError):
        ArchConfig(aod_rows=(4,))  # wrong arity for n_aod=2
    with pytest.raises(ValueError):
        ArchConfig(relaxed=frozenset({"C9"}))


def test_hardware_validation():
    with pytest.raises(ValueError):
        HardwareParams(f_2Q=0.0)
    with pytest.raises(ValueError):
        HardwareParams(P_loss_transfer=1.0)
    with pytest.raises(ValueError):
        HardwareParams(n_cool_threshold=40.0)  # above n_vib_max


FLOAT_KEYS = ("D_site", "r_b", "delta", "T_per_move", "f_1Q", "f_2Q", "t_1Q", "t_2Q", "T1",
              "P_loss_transfer", "T_transfer", "x_zpf", "omega0", "lambda", "n_vib_max",
              "n_cool_threshold")


@pytest.mark.parametrize("key,value", [
    *((key, float("nan")) for key in FLOAT_KEYS),
    ("aod_rows", [2.7, 3]), ("aod_cols", 2.0), ("aod_rows", [True, 3]),
    ("n_aod", 2.0), ("slm_rows", True), ("slm_cols", 10.5),
])
def test_load_config_rejects_a_nan_or_a_non_int_size(key, value):
    with pytest.raises(ValueError, match=key):
        load_config({key: value})


@pytest.mark.parametrize("key", [
    "D_site", "r_b", "T_per_move", "t_1Q", "t_2Q", "T1", "T_transfer", "x_zpf", "omega0",
    "lambda", "n_vib_max", "n_cool_threshold"])
def test_load_config_rejects_an_infinite_time_or_length(key):
    with pytest.raises(ValueError, match=f"^{key} must be finite$"):
        load_config({key: float("inf")})
    with pytest.raises(ValueError, match=f"^{key} must be "):
        load_config({key: float("-inf")})


def test_the_float_keys_are_every_float_field():
    assert set(FLOAT_KEYS) == {"lambda" if f.name == "lam" else f.name
                               for cls in (ArchConfig, HardwareParams)
                               for f in fields(cls) if f.type == "float"}


@pytest.mark.parametrize("value", [True, False, "15", None, [1.0], {"um": 15.0}])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_load_config_rejects_a_bool_or_a_non_number(key, value):
    with pytest.raises(ValueError, match=f"^{key} must be a number, not "):
        load_config({key: value})


@pytest.mark.parametrize("value", [np.float64(20.0), np.float32(20.0), np.int64(20), 20])
def test_a_numpy_number_or_an_int_is_a_number(value):
    cfg, hw = load_config({"D_site": value, "T1": value})
    assert cfg.D_site == hw.T1 == 20.0


@pytest.mark.parametrize("raw", ["cfg.json", ["D_site", 20.0], 15.0, None])
def test_load_config_takes_only_a_json_object(raw):
    message = f"^config needs a JSON object, not {type(raw).__name__}$"
    with pytest.raises(ValueError, match=message):
        load_config(raw)


@pytest.mark.parametrize("value", ["C1", 5, None, {"C1": 1}, ["C1", 3], [["C1"]], True])
def test_load_config_takes_relaxed_only_as_a_list_of_names(value):
    with pytest.raises(ValueError, match=f"^relaxed must be a list of constraint names, "
                                         f"not {re.escape(repr(value))}$"):
        load_config({"relaxed": value})


@pytest.mark.parametrize("value", [["C1", "C3"], ("C3", "C1"), {"C1", "C3"},
                                   frozenset({"C1", "C3"}), ["C3", "C1", "C3"]])
def test_relaxed_takes_a_list_tuple_or_set_of_names(value):
    assert ArchConfig(relaxed=value).relaxed == frozenset({"C1", "C3"})
    assert load_config({"relaxed": value})[0].relaxed == frozenset({"C1", "C3"})


def test_infinite_values_are_rejected_together_and_alone():
    with pytest.raises(ValueError, match="^D_site must be finite$"):
        load_config({"T_per_move": float("inf"), "D_site": float("inf")})
    with pytest.raises(ValueError, match="^T1 must be finite$"):
        HardwareParams(T1=float("inf"))
    with pytest.raises(ValueError, match="^T_per_move must be finite$"):
        ArchConfig(T_per_move=float("inf"))


def shaped(rows: tuple, cols: tuple, **kw) -> ArchConfig:
    """A config of one AOD per entry of `rows`, with those rows and `cols`
    columns."""
    return ArchConfig(n_aod=len(rows), aod_rows=rows, aod_cols=cols, **kw)


def test_atom_positions_mixed():
    cfg = shaped((1, 1), (1, 1))
    placement = {0: AtomCoord(0, 1, 2), 1: AtomCoord(1, 0, 0)}
    lanes = lane_gather(placement, cfg)([[[1], [None]]], [[[3], [None]]], [[[-0.5], [0.0]]])
    assert lanes.tolist() == [[4.0, 0.0, 2.0], [3.0, -0.5, 1.0]]
    pos = atom_positions(lanes, cfg)
    assert pos[0] == pytest.approx([30.0, 15.0])
    assert pos[1] == pytest.approx([22.0, 7.5])
    # static sites sit exactly where slm_position puts them
    assert tuple(pos[0]) == slm_position(1, 2, cfg)


def test_atom_lanes_rejects_an_occupied_row_without_a_lane():
    with pytest.raises(ValueError):
        lane_gather({0: AtomCoord(1, 0, 0)}, shaped((1,), (1,)))([[[None]]], [[[1]]])


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
def test_atom_lanes_rejects_a_lane_or_offset_that_is_not_finite(bad):
    gather = lane_gather({0: AtomCoord(1, 0, 0)}, shaped((1,), (1,)))
    for rows, cols, offsets in (([[[bad]]], [[[1]]], None), ([[[1]]], [[[bad]]], None),
                                ([[[1]]], [[[1]]], [[[bad]]])):
        with pytest.raises(ValueError, match="not finite"):
            gather(rows, cols, offsets)


def test_atom_lanes_of_a_block_stack_its_stages():
    placement = {0: AtomCoord(0, 1, 2), 1: AtomCoord(2, 1, 0), 2: AtomCoord(1, 0, 1)}
    gather = lane_gather(placement, shaped((1, 2), (2, 1)))
    stages = [([[1], [None, 5]], [[None, 3], [7]], [[0.0, -0.5], [0.25]]),
              ([[9], [None, 11]], [[None, 13], [15]], [[0.0, 0.5], [-0.0]])]
    block = gather(*zip(*stages))
    one_by_one = [gather([r], [c], [o]) for r, c, o in stages]
    assert block.tobytes() == np.concatenate(one_by_one).tobytes()
    assert block.tolist() == [[4.0, 0.0, 2.0], [7.0, 0.25, 5.0], [3.0, -0.5, 1.0],
                              [4.0, 0.0, 2.0], [15.0, -0.0, 11.0], [13.0, 0.5, 9.0]]


def test_atom_lanes_rejects_lane_lists_that_do_not_line_up():
    placement = {0: AtomCoord(1, 0, 0), 1: AtomCoord(2, 1, 0)}
    gather = lane_gather(placement, shaped((1, 2), (1, 1)))
    with pytest.raises(ValueError, match="config's lengths"):  # same total, other split
        gather([[[1], [3, 5]], [[1, 3], [5]]], [[[1], [3]]] * 2)
    with pytest.raises(ValueError, match="^atom 1 sits outside array 2$"):  # it has no row 1
        lane_gather(placement, shaped((1, 1), (1, 1)))


def lengths(t, key, widths="2, 1"):
    """The gather's message for a list of AOD t under `key` that is not of
    the config's lengths."""
    return rf"^AOD {t} {key}: lanes need one list per AOD, of the config's lengths \[{widths}\]$"


def test_a_lane_gather_takes_lists_of_the_configs_lengths_only():
    # AOD 0 has two rows and AOD 1 one; the one atom sits on AOD 0's row 0,
    # so row 1 is empty, but its entry must be there all the same
    gather = lane_gather({0: AtomCoord(1, 0, 0)}, shaped((2, 1), (1, 1)))
    cols = [[[3], [None]]]
    assert gather([[[1, None], [None]]], cols).tolist() == [[3.0, 0.0, 1.0]]
    for rows, t in (([[1, None, None], [None]], 0),  # one entry long
                    ([[1], [None]], 0),              # one entry short, for the empty row
                    ([[1, None], [None, 3]], 1),     # one entry long on AOD 1
                    ([[1, None], [None], []], 2),    # a list for an AOD the config lacks
                    ([[1, None]], 1)):               # no list for AOD 1
        with pytest.raises(ValueError, match=lengths(t, "row_lanes")):
            gather([rows], cols)
    # any stage of a block, and the columns and offsets as much as the rows
    with pytest.raises(ValueError, match=lengths(0, "row_lanes")):
        gather([[[1, None], [None]], [[1], [None]]], cols * 2)
    with pytest.raises(ValueError, match=lengths(1, "col_lanes", "1, 1")):
        gather([[[1, None], [None]]], [[[3], []]])
    with pytest.raises(ValueError, match=lengths(0, "col_offsets_um", "1, 1")):
        gather([[[1, None], [None]]], cols, [[[0.0, 0.0], [0.0]]])


def test_a_lane_gather_names_the_list_that_gives_an_atom_no_lane():
    # atom 0 on AOD 0, atom 1 on AOD 1: the list of the first atom without
    # a finite value is named, its column lane, offset and row lane in turn
    gather = lane_gather({0: AtomCoord(1, 0, 0), 1: AtomCoord(2, 0, 0)},
                         shaped((1, 1), (1, 1)))
    tail = ": an occupied AOD row or column has no lane, or a lane or offset that is not finite$"
    for rows, cols, offs, where in (([[1], [None]], [[1], [3]], None, "AOD 1 row_lanes"),
                                    ([[1], [3]], [[1], [None]], None, "AOD 1 col_lanes"),
                                    ([[1], [3]], [[1], [3]], [[math.inf], [0.0]],
                                     "AOD 0 col_offsets_um"),
                                    ([[1], [None]], [[None], [3]], None, "AOD 0 col_lanes")):
        with pytest.raises(ValueError, match=f"^{where}{tail}"):
            gather([rows], [cols], None if offs is None else [offs])


def test_move_distances_come_from_lane_deltas():
    # D_site/2 = 8.15 is not dyadic: lane deltas times half-pitch and
    # differences of positions round differently
    cfg = shaped((1, 1), (1, 1), D_site=16.3)
    placement = {0: AtomCoord(0, 0, 0), 1: AtomCoord(1, 0, 0)}
    gather = lane_gather(placement, cfg)
    prev = gather([[[7], [None]]], [[[1], [None]]])
    new = gather([[[7], [None]]], [[[3], [None]]], [[[-0.5], [0.0]]])
    got = move_distances(prev, new, cfg)
    assert got[0] == 0.0
    assert got[1] == 2 * 8.15 - 0.5 == 15.8
    moved = atom_positions(new, cfg) - atom_positions(prev, cfg)
    assert np.hypot(*moved[1]) != got[1]


def test_audit_clean_lattice():
    cfg = ArchConfig()
    pos = np.array([[x * 15.0, y * 15.0] for x in range(3) for y in range(3)])
    assert min_separation_audit(pos, [], cfg) == []


def test_audit_too_close():
    cfg = ArchConfig()
    pos = np.array([[0.0, 0.0], [4.0, 0.0]])
    out = min_separation_audit(pos, [], cfg)
    assert len(out) == 1
    v = out[0]
    assert (v.i, v.j, v.kind) == (0, 1, "too_close")
    assert v.distance_um == pytest.approx(4.0)


def test_audit_intended_pair_rules():
    cfg = ArchConfig()
    pos = np.array([[0.0, 0.0], [0.5, 0.0]])
    assert min_separation_audit(pos, [(0, 1)], cfg) == []
    # same pair pulled outside the blockade radius
    pos2 = np.array([[0.0, 0.0], [5.0, 0.0]])
    out = min_separation_audit(pos2, [(0, 1)], cfg)
    assert [v.kind for v in out] == ["pair_too_far"]


def test_audit_reports_never_raises():
    cfg = ArchConfig()
    pos = np.zeros((4, 2))  # everything stacked at the origin
    out = min_separation_audit(pos, [], cfg)
    assert len(out) == 6


@pytest.mark.parametrize("far", [1e300, -1e18])
def test_audit_finds_a_coincident_pair_beside_a_huge_position(far):
    cfg = ArchConfig()
    pos = np.array([[30.0, 15.0], [far, far], [30.0, 15.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow in the cell keys
        out = min_separation_audit(pos, [], cfg)
    assert [(v.i, v.j, v.distance_um, v.kind) for v in out] == [(0, 2, 0.0, "too_close")]


def test_audit_raises_on_a_position_that_is_not_finite():
    cfg = ArchConfig()
    with pytest.raises(ValueError, match="finite"):
        min_separation_audit(np.array([[0.0, 0.0], [np.inf, 0.0]]), [(0, 1)], cfg)


def test_load_config_roundtrip(tmp_path):
    cfg = ArchConfig(n_aod=2, slm_rows=4, slm_cols=4, aod_rows=(3, 4),
                     aod_cols=(4, 4), relaxed=frozenset({"C3"}))
    hw = HardwareParams(f_2Q=0.99, lam=0.2)
    d = config_to_dict(cfg, hw)
    assert d["lambda"] == pytest.approx(0.2)
    assert d["relaxed"] == ["C3"]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(d))
    cfg2, hw2 = load_config(json.loads(path.read_text()))
    assert cfg2 == cfg
    assert hw2 == hw


def test_load_config_dict_and_unknown_key():
    cfg, hw = load_config({"D_site": 20.0, "f_2Q": 0.999})
    assert cfg.D_site == 20.0
    assert hw.f_2Q == 0.999
    with pytest.raises(ValueError):
        load_config({"bogus": 1})


def test_arch_to_dict_subset():
    cfg = ArchConfig()
    d = arch_to_dict(cfg)
    assert "f_2Q" not in d
    cfg2, _ = load_config(d)
    assert cfg2 == cfg
