"""Per-rule fixture tests: every rule triggers where it must and stays
quiet where it must not, plus targeted semantics for the trickier
corners (option-driven exemptions, allowed writers, compare=False)."""

from __future__ import annotations

import pytest

RULES = [
    "DET001", "DET002", "DET003", "DUR001", "REG001", "HASH001", "DOC001",
]


@pytest.mark.parametrize("rule_id", RULES)
def test_rule_triggers_on_fixture(rule_id, lint_one, fixture_dir):
    findings = lint_one(rule_id, fixture_dir / f"{rule_id}_trigger.py")
    assert findings, f"{rule_id} found nothing in its trigger fixture"
    assert all(f.rule == rule_id for f in findings)


@pytest.mark.parametrize("rule_id", RULES)
def test_rule_quiet_on_clean_fixture(rule_id, lint_one, fixture_dir):
    assert lint_one(rule_id, fixture_dir / f"{rule_id}_clean.py") == []


def test_det001_names_each_banned_call(lint_one, fixture_dir):
    findings = lint_one("DET001", fixture_dir / "DET001_trigger.py")
    hit = "\n".join(f.message for f in findings)
    assert "numpy.random.seed" in hit
    assert "random.random" in hit
    assert "time.time" in hit
    assert len(findings) == 3


def test_det001_resolves_import_aliases(lint_one, write_module):
    path = write_module(
        "from numpy import random as npr\n"
        "def f():\n"
        "    return npr.standard_normal(3)\n"
    )
    findings = lint_one("DET001", path)
    assert len(findings) == 1
    assert "numpy.random.standard_normal" in findings[0].message


def test_det002_flags_loop_comprehension_and_conversion(
        lint_one, fixture_dir):
    findings = lint_one("DET002", fixture_dir / "DET002_trigger.py")
    kinds = sorted(f.message.split(" ", 1)[0] for f in findings)
    assert kinds == ["comprehension", "conversion", "for-loop"]


def test_det003_exempts_configured_canonical_module(
        lint_one, fixture_dir):
    trigger = fixture_dir / "DET003_trigger.py"
    assert lint_one("DET003", trigger)  # violates by default
    exempt = {"DET003": {"canonical-modules": ("DET003_trigger.py",)}}
    assert lint_one("DET003", trigger, options=exempt) == []


def test_dur001_allowed_writers_cover_exact_qualname(
        lint_one, fixture_dir):
    clean = fixture_dir / "DUR001_clean.py"
    assert lint_one("DUR001", clean) == []
    # Without the allow-list even the helper itself is a finding.
    findings = lint_one("DUR001", clean,
                        options={"DUR001": {"allowed-writers": ()}})
    assert {f.rule for f in findings} == {"DUR001"}
    assert len(findings) == 2  # open(.., "w") and os.replace


def test_hash001_reports_drift_both_directions(lint_one, fixture_dir):
    findings = lint_one("HASH001", fixture_dir / "HASH001_trigger.py")
    messages = "\n".join(f.message for f in findings)
    assert "'drift'" in messages and "missing" in messages
    assert "'batch_replicas'" in messages and "compare=False" in messages
    assert "'execution'" in messages
    assert len(findings) == 3


def test_doc001_reports_unresolved_targets(lint_one, fixture_dir):
    findings = lint_one("DOC001", fixture_dir / "DOC001_trigger.py")
    targets = "\n".join(f.message for f in findings)
    assert "missing_function" in targets
    assert "also_missing" in targets
    assert len(findings) == 2


def test_doc001_import_failure_is_a_finding(lint_one, write_module):
    path = write_module(
        '"""Docstring with a ref: :func:`len`."""\n'
        'raise RuntimeError("side effect at import time")\n'
    )
    findings = lint_one("DOC001", path)
    assert len(findings) == 1
    assert "failed to import" in findings[0].message
