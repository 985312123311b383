"""The preset-or-JSON grid options of ``run``/``sweep``/``worker``.

``--fault-model``, ``--dynamic`` and ``--sinr`` each take a preset name
or an inline JSON object.  Malformed JSON is a user error: exit status
2 and one ``error:`` line naming the flag, never a traceback.
"""

from __future__ import annotations

import pytest

from repro.experiments.__main__ import main

FLAGS = ["--fault-model", "--dynamic", "--sinr"]


def _argv(command, tmp_path):
    argv = [command, "--topologies", "grid", "--algorithms", "decay_bfs",
            "--sizes", "16", "--seeds", "1", "--serial"]
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
