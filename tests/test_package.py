"""The package root exports nothing: each name has one import path, its
defining module, and `import atomique` loads no submodule.

Each check runs in a fresh interpreter, since this test session has
already imported the package.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(p.stem for p in (SRC / "atomique").glob("*.py") if p.stem != "__init__")


def _run(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_importing_the_root_loads_no_submodule_and_no_numpy():
    loaded = _run("import json, sys\n"
                  "import atomique\n"
                  "print(json.dumps(sorted(k for k in sys.modules\n"
                  "                        if k == 'numpy' or k.startswith('atomique.'))))")
    assert json.loads(loaded) == []


def test_every_module_imports_alone():
    # the package is dropped before each import, so no module can rely on
    # another having been imported first
    assert MODULES
    failed = _run("import importlib, json, sys, traceback\n"
                  "failed = {}\n"
                  f"for name in {MODULES!r}:\n"
                  "    for key in [k for k in sys.modules\n"
                  "                if k == 'atomique' or k.startswith('atomique.')]:\n"
                  "        del sys.modules[key]\n"
                  "    try:\n"
                  "        importlib.import_module('atomique.' + name)\n"
                  "    except Exception:\n"
                  "        failed[name] = traceback.format_exc()\n"
                  "print(json.dumps(failed))")
    assert json.loads(failed) == {}
