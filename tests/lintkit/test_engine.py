"""Engine-level behavior: suppressions, alias resolution, module
names, parse failures, and deterministic report ordering."""

from __future__ import annotations

import ast

from repro.lintkit import make_rules
from repro.lintkit.config import LintConfig
from repro.lintkit.engine import (
    ModuleContext,
    PARSE_RULE_ID,
    collect_import_aliases,
    dotted_target,
    lint_file,
    suppressed_rules,
)


def _config(root, rule_id="DET001"):
    return LintConfig(root=str(root), scopes={rule_id: ("**",)})


def test_named_suppression_silences_only_that_rule(write_module, tmp_path):
    path = write_module(
        "import random\n"
        "a = random.random()  # lintkit: ignore[DET001]\n"
        "b = random.random()  # lintkit: ignore[DET999]\n"
        "c = random.random()\n"
    )
    findings = lint_file(str(path), _config(tmp_path), make_rules(("DET001",)))
    assert [f.line for f in findings] == [3, 4]


def test_bare_suppression_silences_every_rule(write_module, tmp_path):
    path = write_module(
        "import random\n"
        "a = random.random()  # lintkit: ignore\n"
    )
    assert lint_file(str(path), _config(tmp_path),
                     make_rules(("DET001",))) == []


def test_suppressed_rules_parsing():
    assert suppressed_rules("x = 1") is None
    assert suppressed_rules("x  # lintkit: ignore") == set()
    assert suppressed_rules("x  # lintkit: ignore[DET001, DUR001]") == {
        "DET001", "DUR001",
    }


def test_syntax_error_reports_parse_rule(write_module, tmp_path):
    path = write_module("def broken(:\n")
    findings = lint_file(str(path), _config(tmp_path), make_rules(("DET001",)))
    assert len(findings) == 1
    assert findings[0].rule == PARSE_RULE_ID


def test_out_of_scope_file_is_skipped(write_module, tmp_path):
    path = write_module("import random\nrandom.random()\n")
    config = LintConfig(root=str(tmp_path),
                        scopes={"DET001": ("src/elsewhere/**",)})
    assert lint_file(str(path), config, make_rules(("DET001",))) == []


def test_import_alias_table():
    tree = ast.parse(
        "import numpy as np\n"
        "import os.path\n"
        "from numpy import random as npr\n"
        "from . import sibling\n"
    )
    aliases = collect_import_aliases(tree)
    assert aliases["np"] == "numpy"
    assert aliases["os"] == "os"  # ``import os.path`` binds ``os``
    assert aliases["npr"] == "numpy.random"
    assert aliases["sibling"] == "..sibling"


def test_dotted_target_resolution():
    aliases = {"np": "numpy"}
    expr = ast.parse("np.random.seed", mode="eval").body
    assert dotted_target(expr, aliases) == "numpy.random.seed"
    call_result = ast.parse("f().attr", mode="eval").body
    assert dotted_target(call_result, aliases) is None


def test_module_name_derivation(tmp_path):
    config = LintConfig(root=str(tmp_path))
    tree = ast.parse("")

    def ctx(relpath):
        return ModuleContext(path=relpath, relpath=relpath, source="",
                             tree=tree, config=config)

    assert ctx("src/repro/radio/faults.py").module_name == "repro.radio.faults"
    assert ctx("src/repro/lintkit/__init__.py").module_name == "repro.lintkit"
    assert ctx("scripts/fabric_sim.py").module_name is None


def test_findings_order_is_by_location(write_module, tmp_path):
    path = write_module(
        "import random\n"
        "b = random.random()\n"
        "a = random.random()\n"
    )
    findings = lint_file(str(path), _config(tmp_path), make_rules(("DET001",)))
    assert [f.line for f in sorted(findings)] == [2, 3]
