"""AST-based determinism & durability linter for this repository.

The reproduction's guarantees — bit-identical engine equivalence,
byte-identical store merges, position-pure seeds, canonical JSON,
crash-durable appends — are *invariants of the source tree*, not just
of the test suite.  This package states them as static-analysis rules
and checks them mechanically on every run of::

    python -m repro.lintkit

Rules (see :mod:`repro.lintkit.rules`): DET001 ambient nondeterminism,
DET002 unordered iteration feeding serialized output, DET003
non-canonical JSON, DUR001 raw writes bypassing the durable-write
helpers, HASH001 spec/hash field sync, DOC001 docstring
cross-references.  Scoping and options are the tables of
:mod:`repro.lintkit.config`, their only copy; inline suppressions are
``# lintkit: ignore[RULE]`` (:mod:`repro.lintkit.engine`).  There is
no baseline of grandfathered findings: a violation is fixed or
suppressed inline with a reason.

The rules are the fixed table :data:`~repro.lintkit.rules.RULES`: a new
invariant is a new :class:`~repro.lintkit.base.Rule` subclass and one
more entry there.
"""

from .base import Finding, Rule
from .cli import main
from .config import LintConfig
from .engine import ModuleContext, lint_file, lint_paths
from .rules import make_rules, rule_ids

__all__ = [
    "Finding",
    "LintConfig",
    "ModuleContext",
    "Rule",
    "lint_file",
    "lint_paths",
    "main",
    "make_rules",
    "rule_ids",
]
