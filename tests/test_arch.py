import json

import numpy as np
import pytest

from atomique.arch import (
    ArchConfig,
    AtomCoord,
    HardwareParams,
    arch_to_dict,
    atom_lanes,
    atom_positions,
    config_to_dict,
    load_config,
    min_separation_audit,
    move_distances,
    slm_position,
)


def test_defaults_valid():
    cfg = ArchConfig()
    assert cfg.n_arrays == 3
    assert cfg.s_min == pytest.approx(6.25)
    assert cfg.total_capacity() == 300


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


def test_atom_positions_mixed():
    cfg = ArchConfig()
    placement = {0: AtomCoord(0, 1, 2), 1: AtomCoord(1, 0, 0)}
    lanes = atom_lanes(placement, [[1], [None]], [[3], [None]], [[-0.5], [0.0]])
    assert lanes.tolist() == [[4.0, 0.0, 2.0], [3.0, -0.5, 1.0]]
    pos = atom_positions(lanes, cfg)
    assert pos[0] == pytest.approx([30.0, 15.0])
    assert pos[1] == pytest.approx([22.0, 7.5])
    # static sites sit exactly where slm_position puts them
    assert tuple(pos[0]) == slm_position(1, 2, cfg)


def test_atom_lanes_rejects_an_occupied_row_without_a_lane():
    with pytest.raises(ValueError):
        atom_lanes({0: AtomCoord(1, 0, 0)}, [[None]], [[1]])


def test_move_distances_come_from_lane_deltas():
    # D_site/2 = 8.15 is not dyadic: lane deltas times half-pitch and
    # differences of positions round differently
    cfg = ArchConfig(D_site=16.3)
    placement = {0: AtomCoord(0, 0, 0), 1: AtomCoord(1, 0, 0)}
    prev = atom_lanes(placement, [[7], [None]], [[1], [None]])
    new = atom_lanes(placement, [[7], [None]], [[3], [None]], [[-0.5], [0.0]])
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


def test_load_config_roundtrip(tmp_path):
    cfg = ArchConfig(n_aod=2, slm_rows=4, slm_cols=4, aod_rows=(3, 4),
                     aod_cols=(4, 4), relaxed=frozenset({"C3"}))
    hw = HardwareParams(f_2Q=0.99, lam=0.2)
    d = config_to_dict(cfg, hw)
    assert d["lambda"] == pytest.approx(0.2)
    assert d["relaxed"] == ["C3"]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(d))
    cfg2, hw2 = load_config(str(path))
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
