"""The benchmark's per-layer tracer wraps atomique functions by name.

`perfbench/tracing.py` lists them in `TARGETS` as (module, attribute, layer,
counter) and skips a name that no longer resolves, so a rename would drop
that layer's metrics without failing anything.  These tests read `TARGETS`
from the file's syntax tree (the file is not imported) and check that every
name still resolves, and that the stage router still looks up the wrapped
selection and synthesis through its module globals.
"""

import ast
import importlib
from pathlib import Path

from atomique import stage_router

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _targets() -> list[tuple[str, str]]:
    for node in ast.parse(TRACING.read_text()).body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]):
            return [(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts]
    raise AssertionError(f"no TARGETS list in {TRACING}")


def test_every_traced_name_resolves():
    targets = _targets()
    assert ("atomique.stage_router", "select_parallel_gates") in targets
    assert ("atomique.stage_router", "synthesize_motion") in targets
    missing = [(module, attr) for module, attr in targets
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []


def test_route_calls_the_wrapped_stage_passes_through_module_globals():
    # a wrapper installed on the module is seen only by a global lookup
    names = stage_router.route.__code__.co_names
    assert "select_parallel_gates" in names
    assert "synthesize_motion" in names
