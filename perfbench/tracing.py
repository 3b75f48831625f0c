"""Per-layer tracing from outside the program.

`Tracer.install` replaces public functions of atomique's modules with timing
wrappers, in the module namespace where their callers look them up (for
example ``atomique.pipeline.route``, which ``compile_circuit`` calls), and
`uninstall` puts the originals back.  A name that no longer exists is
recorded in ``missing`` and its metrics are left out, so a later change that
renames a function degrades the trace instead of failing the run.

Spans are kept in memory.  Self time is computed afterwards by a sweep over
span boundaries: at each instant the wall time goes to the innermost spans
then running (a span with a running child waits on it), shared equally when
`sweep`'s pool threads run several at once, so self times add up to the
command's wall time.  A span started by a pool thread has the span the
main thread is in as its parent.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict


def _swaps(tr, args, out):
    tr.count("swap_router.swaps", out.added_cx // 3)


def _stages(tr, args, out):
    tr.count("stage_router.stages", len(out.stages))


def _select(tr, args, out):
    tr.count("stage_router.front_cz", len(args[0]))
    tr.count("stage_router.accepted_cz", len(out[0]))


def _synth(tr, args, out):
    tr.count("stage_router.synth_calls", 1)
    tr.count("stage_router.synth_failed", out is None)


def _scan(tr, args, out):
    m = len(args[0])
    tr.count("kernels.scan_calls", 1)
    tr.count("kernels.scan_pairs", m * (m - 1) // 2)


def _rescore(tr, args, out):
    tr.count("fidelity.rescore_calls", 1)


# (module, attribute, layer, counter): the wrapped callables
TARGETS = [
    ("atomique.cli", "cmd_compile", "cli", None),
    ("atomique.cli", "cmd_audit", "cli", None),
    ("atomique.cli", "cmd_sweep", "cli", None),
    ("atomique.cli", "parse_qasm", "circuit.parse", None),
    ("atomique.cli", "compile_circuit", "pipeline", None),
    ("atomique.cli", "schedule_to_dict", "stage_router.to_dict", None),
    ("atomique.cli", "schedule_from_dict", "stage_router.from_dict", None),
    ("atomique.cli", "audit_schedule", "stage_router.audit", None),
    ("atomique.cli", "apply_schedule", "fidelity.rescore", _rescore),
    ("atomique.pipeline", "to_basis", "circuit.to_basis", None),
    ("atomique.pipeline", "assign_arrays", "array_mapper.assign", None),
    ("atomique.pipeline", "route_inter_array", "swap_router.route", _swaps),
    ("atomique.pipeline", "place_atoms", "atom_mapper.place", None),
    ("atomique.pipeline", "route", "stage_router.route", _stages),
    ("atomique.pipeline", "apply_schedule", "fidelity.apply", None),
    ("atomique.stage_router", "select_parallel_gates", "stage_router.select", _select),
    ("atomique.stage_router", "synthesize_motion", "stage_router.synth", _synth),
    ("atomique.stage_router", "atom_positions", "arch.positions", None),
    ("atomique.stage_router", "min_separation_audit", "arch.audit", None),
    ("atomique.kernels", "separation_scan", "kernels.scan", _scan),
]

# Reported per-layer metrics: (name, unit, kind, command, layer).  kind
# "self" is the layer's self time, "total" its inclusive time, "count" a
# counter; "main" is the span around the whole `atomique.cli.main` call,
# whose self time is the wall time no wrapped function covers.
LAYER_METRICS = [
    ("compile.circuit.parse_s", "s", "self", "compile", "circuit.parse"),
    ("compile.circuit.to_basis_s", "s", "self", "compile", "circuit.to_basis"),
    ("compile.array_mapper.assign_s", "s", "self", "compile", "array_mapper.assign"),
    ("compile.swap_router.route_s", "s", "self", "compile", "swap_router.route"),
    ("compile.swap_router.swaps", "count", "count", "compile", "swap_router.swaps"),
    ("compile.atom_mapper.place_s", "s", "self", "compile", "atom_mapper.place"),
    ("compile.stage_router.route_self_s", "s", "self", "compile", "stage_router.route"),
    ("compile.stage_router.select_s", "s", "self", "compile", "stage_router.select"),
    ("compile.stage_router.front_cz", "count", "count", "compile", "stage_router.front_cz"),
    ("compile.stage_router.accepted_cz", "count", "count", "compile", "stage_router.accepted_cz"),
    ("compile.stage_router.synth_s", "s", "self", "compile", "stage_router.synth"),
    ("compile.stage_router.synth_calls", "count", "count", "compile", "stage_router.synth_calls"),
    ("compile.stage_router.synth_failed", "count", "count", "compile", "stage_router.synth_failed"),
    ("compile.stage_router.stages", "count", "count", "compile", "stage_router.stages"),
    ("compile.arch.positions_s", "s", "self", "compile", "arch.positions"),
    ("compile.arch.audit_s", "s", "self", "compile", "arch.audit"),
    ("compile.kernels.scan_s", "s", "self", "compile", "kernels.scan"),
    ("compile.kernels.scan_calls", "count", "count", "compile", "kernels.scan_calls"),
    ("compile.kernels.scan_pairs", "count", "count", "compile", "kernels.scan_pairs"),
    ("compile.fidelity.apply_s", "s", "self", "compile", "fidelity.apply"),
    ("compile.stage_router.to_dict_s", "s", "self", "compile", "stage_router.to_dict"),
    ("compile.pipeline.self_s", "s", "self", "compile", "pipeline"),
    ("compile.cli.self_s", "s", "self", "compile", "cli"),
    ("compile.uncovered_s", "s", "self", "compile", "main"),
    ("audit.stage_router.from_dict_s", "s", "self", "audit", "stage_router.from_dict"),
    ("audit.stage_router.audit_self_s", "s", "self", "audit", "stage_router.audit"),
    ("audit.arch.positions_s", "s", "self", "audit", "arch.positions"),
    ("audit.arch.audit_s", "s", "self", "audit", "arch.audit"),
    ("audit.kernels.scan_s", "s", "self", "audit", "kernels.scan"),
    ("audit.kernels.scan_pairs", "count", "count", "audit", "kernels.scan_pairs"),
    ("audit.cli.self_s", "s", "self", "audit", "cli"),
    ("audit.uncovered_s", "s", "self", "audit", "main"),
    ("sweep.compile_s", "s", "total", "sweep", "pipeline"),
    ("sweep.fidelity.apply_s", "s", "self", "sweep", "fidelity.rescore"),
    ("sweep.fidelity.apply_calls", "count", "count", "sweep", "fidelity.rescore_calls"),
    ("sweep.cli.self_s", "s", "self", "sweep", "cli"),
    ("sweep.uncovered_s", "s", "self", "sweep", "main"),
]

# Ratios of two reported metrics: (name, numerator, denominator).  The share
# of ready CZs the selector accepts, and of motion syntheses that fail and
# make the router drop a gate and synthesize again.
RATIOS = [
    ("compile.stage_router.accept_ratio", "compile.stage_router.accepted_cz",
     "compile.stage_router.front_cz"),
    ("compile.stage_router.synth_failed_ratio", "compile.stage_router.synth_failed",
     "compile.stage_router.synth_calls"),
]

# counters that belong to a wrapped layer, for reporting them as missing
_COUNTER_LAYER = {"swap_router.swaps": "swap_router.route",
                  "stage_router.stages": "stage_router.route",
                  "stage_router.front_cz": "stage_router.select",
                  "stage_router.accepted_cz": "stage_router.select",
                  "stage_router.synth_calls": "stage_router.synth",
                  "stage_router.synth_failed": "stage_router.synth",
                  "kernels.scan_calls": "kernels.scan",
                  "kernels.scan_pairs": "kernels.scan",
                  "fidelity.rescore_calls": "fidelity.rescore"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, parent span or None, t0, t1]
        self.counts: dict[str, int] = defaultdict(int)
        self.command = ""
        self.missing: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._saved: list[tuple] = []

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def begin(self, layer: str) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        span = [f"{self.command}.{layer}", parent, time.perf_counter(), None]
        self.spans.append(span)
        stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[3] = time.perf_counter()
        self._stack().pop()

    def count(self, name: str, value) -> None:
        with self._lock:
            self.counts[f"{self.command}.{name}"] += value

    def _wrap(self, fn, layer, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.begin(layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(span)
            if counter is not None:
                counter(self, args, out)
            return out
        return wrapper

    def install(self) -> None:
        self.missing = []
        for module_name, attr, layer, counter in TARGETS:
            try:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, layer, counter))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved = []

    def self_times(self) -> tuple[dict, dict]:
        """(self time, inclusive time) per span name."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        parent = [index[id(s[1])] if s[1] is not None else -1 for s in self.spans]
        events = sorted([(s[2], 1, i) for i, s in enumerate(self.spans)]
                        + [(s[3], 0, i) for i, s in enumerate(self.spans)])
        running_children = [0] * len(self.spans)
        running = [False] * len(self.spans)
        leaves: set[int] = set()
        own = [0.0] * len(self.spans)
        last = None
        for t, starts, i in events:
            if leaves:
                share = (t - last) / len(leaves)
                for j in leaves:
                    own[j] += share
            last = t
            p = parent[i]
            if starts:
                running[i] = True
                leaves.add(i)
                if p >= 0:
                    running_children[p] += 1
                    leaves.discard(p)
            else:
                running[i] = False
                leaves.discard(i)
                if p >= 0:
                    running_children[p] -= 1
                    if running_children[p] == 0 and running[p]:
                        leaves.add(p)
        self_t: dict[str, float] = defaultdict(float)
        total_t: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            self_t[s[0]] += own[i]
            total_t[s[0]] += s[3] - s[2]
        return self_t, total_t

    def metrics(self) -> dict:
        """The reported per-layer values, minus those of missing layers."""
        self_t, total_t = self.self_times()
        gone = {layer for m, a, layer, _ in TARGETS
                if f"{m}.{a}" in self.missing and layer != "cli"}
        out = {}
        for name, unit, kind, command, layer in LAYER_METRICS:
            if (_COUNTER_LAYER.get(layer, layer) in gone
                    or layer == "cli" and f"atomique.cli.cmd_{command}" in self.missing):
                continue
            key = f"{command}.{layer}"
            if kind == "count":
                value = self.counts.get(key, 0)
            else:
                value = (self_t if kind == "self" else total_t).get(key, 0.0)
            out[name] = (value, unit)
        for name, num, den in RATIOS:
            if num in out and out[den][0]:
                out[name] = (out[num][0] / out[den][0], "ratio")
        return out

    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(int)
