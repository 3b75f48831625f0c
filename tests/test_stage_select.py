"""Incremental stage selection, park-lane assignment and lane synthesis
against the whole-stage reference in `select_reference.py`."""

from hypothesis import given, settings
from hypothesis import strategies as st

import select_reference as ref
from atomique.arch import ArchConfig, AtomCoord
from atomique.stage_router import (
    _ArrayIndex,
    _assign_park_lanes,
    _Pins,
    _gate_pins,
    _odd_between,
    initial_lanes,
    select_parallel_gates,
    synthesize_motion,
)


@st.composite
def stage_inputs(draw):
    """A random placement on small arrays, a front of cross-array CZs with
    random descendant counts, a relax set and the serial flag."""
    n_aod = draw(st.integers(1, 3))
    side = draw(st.integers(2, 5))
    relaxed = frozenset(draw(st.sets(st.sampled_from(["C1", "C2", "C3"]))))
    cfg = ArchConfig(n_aod=n_aod, slm_rows=side, slm_cols=side,
                     aod_rows=(side,) * n_aod, aod_cols=(side,) * n_aod, relaxed=relaxed)
    sites = [(a, r, c) for a in range(n_aod + 1) for r in range(side) for c in range(side)]
    chosen = draw(st.lists(st.sampled_from(sites), min_size=2,
                           max_size=min(len(sites), 40), unique=True))
    placement = {q: AtomCoord(*site) for q, site in enumerate(chosen)}
    cross = [(a, b) for a in placement for b in placement
             if placement[a].array != placement[b].array]
    pairs = draw(st.lists(st.sampled_from(cross), max_size=24, unique=True)) if cross else []
    gis = draw(st.permutations(range(len(pairs))))
    front = sorted(zip(gis, pairs))
    desc = draw(st.lists(st.integers(0, 4), min_size=len(pairs), max_size=len(pairs)))
    return placement, cfg, front, desc, draw(st.booleans())


def select(front, placement, index, cfg, desc, serial=False):
    """Selection as `route` runs it: the front by descending descendant
    count (ties: lower gate index), only its first CZ if serial."""
    order = sorted(front, key=lambda fg: (-desc[fg[0]], fg[0]))
    gate_pins = {gi: _gate_pins(pair, placement, cfg) for gi, pair in front}
    return select_parallel_gates(order[:1] if serial else order, gate_pins, index, cfg)


@settings(max_examples=400, deadline=None)
@given(stage_inputs())
def test_selection_matches_the_whole_stage_reference(inputs):
    placement, cfg, front, desc, serial = inputs
    index = _ArrayIndex(placement, cfg)
    got_acc, got_pins, got_rej = select(front, placement, index, cfg, desc, serial)
    want_acc, want_pins, want_rej = ref.select_parallel_gates(front, placement, index,
                                                              cfg, desc, serial)
    assert got_acc == want_acc
    assert got_rej == want_rej
    assert got_pins.rows == want_pins.rows
    assert got_pins.cols == want_pins.cols
    assert got_pins.offsets == want_pins.offsets


@settings(max_examples=400, deadline=None)
@given(stage_inputs(), st.data())
def test_synthesis_matches_the_full_range_reference(inputs, data):
    # previous lanes: the initial ones, or random ints (even, odd, crossing)
    placement, cfg, front, desc, _ = inputs  # not serial: one gate leaves no interior gap
    index = _ArrayIndex(placement, cfg)
    _, pins, _ = select(front, placement, index, cfg, desc)
    prev = initial_lanes(cfg, index)
    if data.draw(st.booleans()):
        lanes = st.integers(-3, 2 * cfg.slm_rows + 3)
        prev = tuple([[None if lane is None else data.draw(lanes) for lane in per_t]
                      for per_t in axis] for axis in prev)
    got = synthesize_motion(pins, *prev, index, cfg)
    assert got == ref.synthesize_motion(pins, *prev, index, cfg)
    # route() drops gates until synthesis succeeds; with no pins it must
    assert synthesize_motion(_Pins(), *prev, index, cfg) is not None


def synthesize_as_route(accepted, pins, prev, index, cfg, gate_pins):
    """Synthesis as `route` runs it (drop the last accepted gate until the
    parked rows fit), checked against the reference on every call."""
    while True:
        got = synthesize_motion(pins, *prev, index, cfg)
        assert got == ref.synthesize_motion(pins, *prev, index, cfg)
        if got is not None:
            return got
        accepted.pop()
        pins = _Pins()
        for gi, _ in accepted:
            pins.add(gate_pins[gi])


@settings(max_examples=300, deadline=None)
@given(stage_inputs(), st.data())
def test_two_stages_in_a_row_match_the_reference(inputs, data):
    # the second stage starts from the first's lanes, so its segments see
    # anchors that moved and old lanes off the initial interleave
    placement, cfg, front, desc, _ = inputs
    index = _ArrayIndex(placement, cfg)
    gate_pins = {gi: _gate_pins(pair, placement, cfg) for gi, pair in front}
    prev = initial_lanes(cfg, index)
    for _ in range(2):
        accepted, pins, _ = select(front, placement, index, cfg, desc)
        rows, cols, _ = synthesize_as_route(accepted, pins, prev, index, cfg, gate_pins)
        prev = rows, cols
        front = data.draw(st.permutations(front)).copy()
        front = sorted(front[:data.draw(st.integers(0, len(front)))])
        desc = data.draw(st.lists(st.integers(0, 4), min_size=len(desc),
                                  max_size=len(desc)))


@st.composite
def lane_inputs(draw):
    """Full AODs, random pins in any order (anchors cross, gaps are tight)
    and random previous lanes, all on a few lanes."""
    n_aod = draw(st.integers(1, 3))
    side = draw(st.integers(2, 6))
    relaxed = frozenset(draw(st.sets(st.sampled_from(["C1", "C2", "C3"]))))
    cfg = ArchConfig(n_aod=n_aod, slm_rows=side, slm_cols=side,
                     aod_rows=(side,) * n_aod, aod_cols=(side,) * n_aod, relaxed=relaxed)
    placement = {q: AtomCoord(1 + q // side, q % side, q % side) for q in range(n_aod * side)}
    lanes = st.integers(-2, 2 * side + 2)
    pins = _Pins()
    for axis in (pins.rows, pins.cols):
        for t in range(n_aod):
            for i in range(side):
                if draw(st.booleans()):
                    axis[(t, i)] = draw(lanes)
    prev = [[[draw(lanes) for _ in range(side)] for _ in range(n_aod)] for _ in range(2)]
    return pins, prev, _ArrayIndex(placement, cfg), cfg


@settings(max_examples=400, deadline=None)
@given(lane_inputs())
def test_synthesis_matches_the_full_range_reference_on_crossed_pins(inputs):
    # selected pins rarely cross or leave a tight gap; these do both often
    pins, prev, index, cfg = inputs
    assert synthesize_motion(pins, *prev, index, cfg) == \
        ref.synthesize_motion(pins, *prev, index, cfg)


lanes_strategy = st.sets(st.integers(-15, 15), max_size=24).map(
    lambda s: sorted(2 * v + 1 for v in s))


@settings(max_examples=600, deadline=None)
@given(lanes_strategy, st.lists(st.integers(-33, 33), max_size=12), st.booleans())
def test_park_lanes_match_the_full_table(lanes, old, sort_old):
    # sorted `old` with repeats is what a segment holds once C3 is relaxed
    if sort_old:
        old = sorted(old)
    assert _assign_park_lanes(old, lanes) == ref._assign_park_lanes(old, lanes)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_park_lanes_match_the_full_table_near_the_identity(data):
    # old lanes mostly drawn from the candidates: hits the zero-cost case
    # and its near misses (a repeat, one lane off, one order swap)
    lanes = data.draw(lanes_strategy.filter(bool))
    old = sorted(data.draw(st.lists(st.sampled_from(lanes), max_size=len(lanes) + 1)))
    tweak = data.draw(st.sampled_from(["none", "shift", "swap"]))
    if old and tweak == "shift":
        k = data.draw(st.integers(0, len(old) - 1))
        old[k] += data.draw(st.sampled_from([-2, -1, 1, 2]))
    elif len(old) > 1 and tweak == "swap":
        k = data.draw(st.integers(0, len(old) - 2))
        old[k], old[k + 1] = old[k + 1], old[k]
    assert _assign_park_lanes(old, lanes) == ref._assign_park_lanes(old, lanes)


def test_identity_assignment_returns_the_old_lanes():
    assert _assign_park_lanes([3, 7, 11], [1, 3, 5, 7, 9, 11]) == [3, 7, 11]
    assert _assign_park_lanes([3, 3], [1, 3, 5]) == ref._assign_park_lanes([3, 3], [1, 3, 5])
    assert _assign_park_lanes([1, 3, 5], [1, 3]) is None


def test_odd_between_counts_the_odd_integers_strictly_between():
    for lo in range(-20, 20):
        for hi in range(-20, 20):
            assert _odd_between(lo, hi) == sum(x % 2 for x in range(lo + 1, hi))
