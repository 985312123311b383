"""CLI behavior: exit codes, self-clean tree, and the
acceptance-criterion injection checks (a planted violation must
fail the lint run with the right rule ID)."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

from repro.lintkit.cli import main


def _plant(repo_root, tmp_path, relpath, extra):
    """Copy a real module into a scratch tree and append a violation."""
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    shutil.copy(repo_root / relpath, target)
    with open(target, "a", encoding="utf-8") as handle:
        handle.write(extra)
    return target


def test_self_clean_on_shipped_tree(repo_root):
    """`python -m repro.lintkit src/repro scripts` exits 0 on the tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(repo_root / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.lintkit", "src/repro", "scripts"],
        cwd=str(repo_root), env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_injected_random_call_fails_with_det001(repo_root, tmp_path, capsys):
    _plant(repo_root, tmp_path, "src/repro/primitives/decay.py",
           "\nimport random\n_BAD = random.random()\n")
    code = main(["--root", str(tmp_path), "--select", "DET001",
                 "src/repro/primitives/decay.py"])
    out = capsys.readouterr().out
    assert code == 1
    assert "DET001" in out and "decay.py" in out


def test_injected_set_iteration_fails_with_det002(repo_root, tmp_path,
                                                  capsys):
    _plant(repo_root, tmp_path, "src/repro/experiments/results.py",
           "\ndef _unsorted():\n    return [v for v in {1, 2, 3}]\n")
    code = main(["--root", str(tmp_path), "--select", "DET002",
                 "src/repro/experiments/results.py"])
    out = capsys.readouterr().out
    assert code == 1
    assert "DET002" in out and "results.py" in out


def test_unknown_rule_is_a_usage_error(tmp_path, capsys):
    code = main(["--root", str(tmp_path), "--select", "NOPE001",
                 str(tmp_path)])
    assert code == 2
    assert "unknown rule" in capsys.readouterr().err


def test_missing_path_is_a_usage_error(tmp_path, capsys):
    code = main(["--root", str(tmp_path), "no/such/dir"])
    assert code == 2


def test_list_rules_names_the_shipped_set(capsys):
    assert main(["--list-rules"]) == 0
    listed = [line.split()[0]
              for line in capsys.readouterr().out.splitlines()]
    assert listed == ["DET001", "DET002", "DET003", "DOC001", "DUR001",
                      "HASH001"]


def test_report_lines_are_ruff_style(tmp_path, capsys):
    bad = tmp_path / "src" / "repro" / "mod.py"  # inside DET001's scope
    bad.parent.mkdir(parents=True)
    bad.write_text("import random\nx = random.random()\n", encoding="utf-8")
    main(["--root", str(tmp_path), "--select", "DET001", str(bad)])
    line = capsys.readouterr().out.splitlines()[0]
    assert line.startswith("src/repro/mod.py:2:5: DET001 ")
