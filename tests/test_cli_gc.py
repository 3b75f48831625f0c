"""`atomique`'s commands run with the cyclic garbage collector paused.

`main` pauses the collector for the subcommand and leaves it as it found
it, enabled or disabled, whether the command succeeds, fails or is
interrupted.  The pause stays bounded: the cyclic garbage a command leaves
for the next collection is the same at any input size.
"""

import contextlib
import gc
import io

import pytest

from atomique import cli


@pytest.fixture
def collector():
    """Puts the collector back as it was before the test."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


def _gen_argv(tmp_path):
    return ["gen", "--family", "bv", "--n", "4", "-o", str(tmp_path / "bv.qasm")]


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("outcome", ["success", "error", "interrupt"])
def test_main_leaves_the_collector_as_it_found_it(tmp_path, monkeypatch, collector,
                                                  enabled, outcome):
    during = []
    gen = cli.cmd_gen

    def spy(args):
        during.append(gc.isenabled())
        if outcome == "interrupt":
            raise KeyboardInterrupt
        if outcome == "error":
            raise ValueError("bad input")
        return gen(args)

    monkeypatch.setattr(cli, "cmd_gen", spy)
    if enabled:
        gc.enable()
    else:
        gc.disable()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        if outcome == "interrupt":
            with pytest.raises(KeyboardInterrupt):
                cli.main(_gen_argv(tmp_path))
        else:
            assert cli.main(_gen_argv(tmp_path)) == (outcome == "error")
    assert during == [False]
    assert gc.isenabled() is enabled


def _cyclic_garbage(argv) -> int:
    """Objects the next collection frees after `main(argv)` runs with the
    collector off; the command must succeed."""
    gc.collect()
    gc.disable()
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    return gc.collect()


@pytest.fixture(scope="module")
def qaoa_inputs(tmp_path_factory):
    """{n: (qasm path, its schedule.json)} for qaoa-regular at 20 and 120 qubits."""
    work = tmp_path_factory.mktemp("gc")
    files = {}
    for n in (20, 120):
        qasm, out = work / f"q{n}.qasm", work / f"out{n}"
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["gen", "--family", "qaoa-regular", "--n", str(n),
                             "-o", str(qasm)]) == 0
            assert cli.main(["compile", str(qasm), "-o", str(out)]) == 0
        files[n] = (str(qasm), str(out / "schedule.json"))
    return files


@pytest.mark.parametrize("command", ["compile", "audit"])
def test_a_command_leaves_the_same_cyclic_garbage_at_any_size(qaoa_inputs, tmp_path,
                                                              collector, command):
    counts = [_cyclic_garbage(["compile", qasm, "-o", str(tmp_path)] if command == "compile"
                              else ["audit", schedule])
              for qasm, schedule in qaoa_inputs.values()]
    assert counts[0] == counts[1]


def test_a_sweep_leaves_the_same_cyclic_garbage_at_any_point_count(tmp_path, collector):
    counts = [_cyclic_garbage(["sweep", "--param", "D_site", "--values", values,
                               "--family", "qaoa-rand", "--n", "6",
                               "-o", str(tmp_path / "sweep.csv")])
              for values in ("15,16", "15,16,17,18,19,20")]
    assert counts[0] == counts[1]
