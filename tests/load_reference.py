"""Stage-by-stage reference for `atomique.stage_router.schedule_from_dict`.

The loader as it was before it checked stages in blocks: every check runs
per stage, in the order cz, raman, cooling after distances_um and
move_time_s and before the lanes, and any error a stage's content raises
(a failed check, or a malformed entry such as a missing key) is a
ValueError that starts "stage k: ".  The package's block loader must raise
the same exception, with the same message, on any input, and load any
valid one to `Stage` fields and stored columns equal by `repr`.
"""

from itertools import chain

import numpy as np

from atomique.arch import AtomCoord, load_config
from atomique.circuit import Gate
from atomique.stage_router import Schedule, Stage


def _is_index(x, bound: int) -> bool:
    """Whether x is an int (a bool is not) in range(bound)."""
    return type(x) is int and 0 <= x < bound


_NUMBER = {int, float}         # JSON value types of a number (a bool is not one)
_LANE = {int, type(None)}      # ... and of a lane: an int, or null for an empty row


def _aod_lists(where: str, aods, n_aod: int, *keys: str) -> list:
    """Per key, its list from each of the n_aod entries of `aods`: lanes are
    ints or null, `col_offsets_um` entries numbers.  ValueError naming
    `where` and the key otherwise."""
    if len(aods) != n_aod:
        raise ValueError(f"{where}: aod needs {n_aod} entries, one per AOD, not {len(aods)}")
    out = [[list(a[key]) for a in aods] for key in keys]
    for key, lists in zip(keys, out):
        types, what = ((_NUMBER, "numbers") if key == "col_offsets_um"
                       else (_LANE, "int or null lanes"))
        if not set(map(type, chain.from_iterable(lists))) <= types:
            raise ValueError(f"{where}: {key} needs {what}")
    return out


def schedule_from_dict(d: dict) -> Schedule:
    """Rebuild a Schedule from its JSON form (audit / render / check).

    Raises ValueError on a `placement` entry whose array is not an int in
    range(n_arrays) or whose row or col is not an int inside that array, a
    `cz` or `raman` qubit that is not an int in range(n_qubits), a qubit
    named twice by one stage's `cz` pairs, a `cooling` entry that is not an
    int in range(n_aod), an `n_qubits` that is not the int count of
    `placement`, or a `perm` that is not a permutation of range(n_qubits)
    by int entries; also on a non-number `move_time_s`, `distances_um` or
    `col_offsets_um` entry, a lane neither int nor null, an `aod` list of
    other than n_aod entries, a raman gate without three numeric angles,
    an `overlap_rejections` not an int >= 0 (a bool is no int), or a top
    level or `config` not a JSON object (a config path is never opened)."""
    if not isinstance(d, dict):
        raise ValueError(f"schedule needs a JSON object, not {type(d).__name__}")
    if d.get("schema_version") != 1:
        raise ValueError(f"unsupported schema_version {d.get('schema_version')!r}")
    config, _ = load_config(d["config"])
    placement = {}
    for q, (a, r, c) in enumerate(d["placement"]):
        if not (_is_index(a, config.n_arrays)
                and all(map(_is_index, (r, c), config.array_shape(a)))):
            raise ValueError(f"placement {q}: {[a, r, c]!r} needs an int array in "
                             f"range({config.n_arrays}) and an int row and col inside it")
        placement[q] = AtomCoord(a, r, c)
    n = len(placement)
    if type(d["n_qubits"]) is not int or d["n_qubits"] != n:
        raise ValueError(f"n_qubits {d['n_qubits']!r} but {n} placement entries")
    if not (all(_is_index(q, n) for q in d["perm"]) and sorted(d["perm"]) == list(range(n))):
        raise ValueError(f"perm is not a permutation of range({n})")
    stages, distances, move_times = [], [], []
    for k, s in enumerate(d["stages"]):
        try:
            if len(s["distances_um"]) != n or not set(map(type, s["distances_um"])) <= _NUMBER:
                raise ValueError(f"stage {k}: distances_um needs one number per qubit")
            if type(s["move_time_s"]) not in _NUMBER:
                raise ValueError(f"stage {k}: move_time_s {s['move_time_s']!r} is not a number")
            cz, named = [], set()
            for a, b in s["cz"]:
                if not (_is_index(a, n) and _is_index(b, n)) or a == b or {a, b} & named:
                    raise ValueError(f"stage {k}: cz {[a, b]} needs two distinct int qubits "
                                     f"in range({n}) that no other cz of the stage names")
                named |= {a, b}
                cz.append((a, b))
            raman = [[Gate("u", (q,), tuple(params)) for q, *params in layer]
                     for layer in s["raman"]]
            for q in (g.qubits[0] for layer in raman for g in layer):
                if not _is_index(q, n):
                    raise ValueError(f"stage {k}: raman gate on qubit {q!r}, not an int in range({n})")
            angles = [g.params for layer in raman for g in layer]
            if (set(map(len, angles)) - {3}
                    or not set(map(type, chain.from_iterable(angles))) <= _NUMBER):
                raise ValueError(f"stage {k}: raman gates need three numeric angles each")
            if not all(_is_index(t, config.n_aod) for t in s["cooling"]):
                raise ValueError(f"stage {k}: cooling {s['cooling']!r} needs int AOD "
                                 f"indices in range({config.n_aod})")
            lanes = _aod_lists(f"stage {k}", s["aod"], config.n_aod,
                               "row_lanes", "col_lanes", "col_offsets_um")
            stages.append(Stage(raman, cz, *lanes, list(s["cooling"])))
            distances.append(np.asarray(s["distances_um"], dtype=float))
            move_times.append(float(s["move_time_s"]))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            # a stage's content raises as a ValueError that names the stage
            if str(exc).startswith(f"stage {k}: "):
                raise
            raise ValueError(f"stage {k}: {exc}") from exc
    rejections = d["metrics"]["overlap_rejections"]
    if type(rejections) is not int or rejections < 0:
        raise ValueError(f"metrics: overlap_rejections {rejections!r} is not an int >= 0")
    total = 0.0
    for row in distances:
        total += row.sum()
    return Schedule(config, placement, stages, list(d["perm"]),
                    *_aod_lists("initial", d["initial"]["aod"], config.n_aod,
                                "row_lanes", "col_lanes"), rejections,
                    total_distance_um=float(total), stored_distances_um=distances,
                    stored_move_times_s=move_times)
