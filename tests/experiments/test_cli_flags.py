"""The preset-or-JSON grid options of ``run``/``sweep``/``worker``.

``--fault-model``, ``--dynamic`` and ``--sinr`` each take a preset name
or an inline JSON object.  Malformed JSON is a user error: exit status
2 and one ``error:`` line naming the flag, never a traceback.
"""

from __future__ import annotations

import pytest

from repro.experiments.__main__ import main

FLAGS = ["--fault-model", "--dynamic", "--sinr"]


def _argv(command, tmp_path, topologies=("grid",), algorithm="decay_bfs",
          serial=True):
    argv = [command, "--topologies", *topologies, "--algorithms", algorithm,
            "--sizes", "16", "--seeds", "1"] + (["--serial"] if serial else [])
    if command in ("sweep", "worker"):
        argv += ["--out", str(tmp_path / "store")]
    if command == "worker":
        argv += ["--worker-id", "0", "--num-workers", "1"]
    return argv


@pytest.mark.parametrize("command", ["run", "sweep", "worker"])
@pytest.mark.parametrize("flag", FLAGS)
def test_malformed_inline_json_is_one_error_line(flag, command, tmp_path,
                                                 capsys):
    status = main(_argv(command, tmp_path) + [flag, "{not json"])
    captured = capsys.readouterr()
    assert status == 2
    lines = [line for line in captured.err.splitlines() if line]
    assert len(lines) == 1
    assert lines[0].startswith(
        f"error: {flag} is neither a preset nor valid JSON"
    )
    assert "Traceback" not in captured.err + captured.out


def _one_error_line(capsys):
    captured = capsys.readouterr()
    lines = [line for line in captured.err.splitlines() if line]
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in captured.err + captured.out
    return lines[0]


@pytest.mark.parametrize("command", ["run", "sweep", "worker"])
def test_invariant_sample_on_lb_tier_refused_before_the_store(
        command, tmp_path, capsys):
    argv = _argv(command, tmp_path)
    argv[argv.index("decay_bfs")] = "trivial_bfs"
    status = main(argv + ["--invariant-sample", "1"])
    assert status == 2
    line = _one_error_line(capsys)
    assert "invariant_sample" in line and "'trivial_bfs'" in line
    assert not (tmp_path / "store").exists()


@pytest.mark.parametrize("command", ["run", "sweep", "worker"])
@pytest.mark.parametrize("max_workers", ["0", "-3"])
@pytest.mark.parametrize("topologies,serial", [
    (["grid"], True), (["grid"], False), (["grid", "path"], False),
], ids=["one-unit-serial", "one-unit", "several-units-pooled"])
def test_non_positive_max_workers_is_one_error_line(
        command, max_workers, topologies, serial, tmp_path, capsys):
    # One trivial_bfs cell is one unit; two cells are two units, which
    # without --serial go to a process pool.
    argv = _argv(command, tmp_path, topologies, "trivial_bfs", serial)
    status = main(argv + ["--max-workers", max_workers])
    assert status == 2
    line = _one_error_line(capsys)
    assert line == (f"error: max_workers must be a positive int or None, "
                    f"got {max_workers}")


@pytest.mark.parametrize("argv", [
    ["list"],
    ["run", "--topologies", "grid", "--algorithms", "trivial_bfs",
     "--sizes", "16", "--seeds", "2", "--serial"],
], ids=["list", "run"])
def test_a_reader_that_closes_early_ends_the_command_quietly(argv):
    """``python -m repro.experiments list | head -1``: the pipe closes
    before the command has printed everything.  It exits 0 with nothing
    on stderr, not with a ``BrokenPipeError`` traceback."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.experiments", *argv], env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert err == b""
