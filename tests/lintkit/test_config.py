"""Config semantics: glob scoping."""

from __future__ import annotations

from repro.lintkit.config import LintConfig


def test_glob_scoping_semantics():
    config = LintConfig(root="/x", scopes={
        "A": ("src/repro/**",),
        "B": ("src/*.py",),
    })
    assert config.applies("A", "src/repro/radio/faults.py")
    assert config.applies("A", "src/repro/rng.py")
    assert not config.applies("A", "tests/test_rng.py")
    assert config.applies("B", "src/top.py")
    assert not config.applies("B", "src/nested/mod.py")  # * stays in-segment
    assert not config.applies("UNKNOWN", "src/top.py")
