"""`atomique`'s help, usage and error text, pinned byte for byte.

``cli_golden.json`` holds, per argv, the stdout, stderr and exit code of
`main` with COLUMNS=80, as the CLI gave them when it built every
subcommand's arguments on every call: top-level and per-subcommand help,
no arguments, an unknown subcommand, missing arguments, bad choices and an
unknown option after a valid subcommand.  `main` now builds only the
arguments of the subcommands argv names, and must print the same.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from atomique import cli

GOLDEN = json.loads((Path(__file__).with_name("cli_golden.json")).read_text())


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"argv": argv, "stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


def test_the_golden_text_covers_every_subcommand():
    helped = {case["argv"][0] for case in GOLDEN if case["argv"][1:] == ["--help"]}
    assert helped == set(cli.COMMANDS)
    assert {"frobnicate"} < {arg for case in GOLDEN for arg in case["argv"]}


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: " ".join(case["argv"]) or "(none)")
def test_cli_text_matches_the_golden_text(case, tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)  # `compile audit` reads a file named audit
    assert run(case["argv"]) == case


def test_main_adds_arguments_only_to_the_subcommand_argv_names(monkeypatch, tmp_path):
    built = []
    for name, (help_text, add) in list(cli.COMMANDS.items()):
        def recording(p, name=name, add=add):
            built.append(name)
            add(p)
        monkeypatch.setitem(cli.COMMANDS, name, (help_text, recording))
    monkeypatch.chdir(tmp_path)
    assert cli.main(["audit", "missing.json"]) == 1
    assert built == ["audit"]
    built.clear()
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    assert built == list(cli.COMMANDS)
