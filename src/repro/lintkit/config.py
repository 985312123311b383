"""Lint configuration: per-rule file scoping and rule options.

The tables below are the linter's whole configuration, and its only
copy.  Rule scopes are *path globs* (``**`` crosses directory
boundaries), so each invariant applies exactly where the architecture
says it holds (e.g. the durability rule only inside the store/fabric
layer).  :class:`LintConfig` anchors them at a root directory; tests
that lint fixtures pass their own ``scopes`` and ``options``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Mapping, Tuple

#: Default lint targets (what a bare ``python -m repro.lintkit`` checks).
DEFAULT_PATHS: Tuple[str, ...] = ("src/repro", "scripts")

#: Directories whose children are importable packages (DOC001 derives
#: dotted module names from these).
DEFAULT_PACKAGE_ROOTS: Tuple[str, ...] = ("src",)

#: Which files each rule applies to.  These globs are the machine
#: version of ARCHITECTURE.md's invariant scoping: determinism rules
#: cover the whole library, the serialization-order rule covers the
#: modules whose output is hashed or serialized, and the durability
#: rule covers exactly the store/fabric write path.
DEFAULT_SCOPES: Mapping[str, Tuple[str, ...]] = {
    "DET001": ("src/repro/**",),
    "DET002": (
        "src/repro/experiments/results.py",
        "src/repro/experiments/store.py",
        "src/repro/experiments/fabric.py",
        "src/repro/analysis/**",
    ),
    "DET003": ("src/repro/**", "scripts/**"),
    "DUR001": (
        "src/repro/experiments/store.py",
        "src/repro/experiments/fabric.py",
    ),
    "HASH001": ("src/repro/experiments/spec.py",),
    "DOC001": ("src/repro/**",),
}

#: Per-rule options (see each rule's docstring for semantics).
DEFAULT_OPTIONS: Mapping[str, Mapping[str, Any]] = {
    "DET003": {
        # The one module allowed to define the canonical serialization
        # (and therefore to call json.dumps however it needs to).
        "canonical-modules": ("src/repro/experiments/results.py",),
    },
    "DUR001": {
        # Qualified names of the durable-write helpers; raw write-mode
        # opens anywhere else in scope are findings.
        "allowed-writers": (
            "SweepStore._create",
            "SweepStore._append_docs",
            "SweepStore._load_shards",
        ),
    },
    "HASH001": {
        "spec-class": "ExperimentSpec",
        "serializer": "to_dict",
    },
}


def _glob_to_regex(pattern: str) -> "re.Pattern[str]":
    """Translate a path glob to a compiled regex (fullmatch semantics).

    ``**`` matches across directory separators, ``*`` and ``?`` within
    one path segment — the ruff/gitignore dialect, enough for scoping.
    """
    out = []
    i = 0
    while i < len(pattern):
        ch = pattern[i]
        if ch == "*":
            if pattern[i:i + 2] == "**":
                out.append(".*")
                i += 2
                continue
            out.append("[^/]*")
        elif ch == "?":
            out.append("[^/]")
        else:
            out.append(re.escape(ch))
        i += 1
    return re.compile("".join(out) + r"\Z")


@dataclass(frozen=True)
class LintConfig:
    """Resolved lint configuration for one run.

    ``root`` anchors every relative path in the run: lint targets,
    scope globs, the package roots, and the ``path`` column of every
    finding are all relative to it, so reports are stable no matter
    where the tool is invoked from.
    """

    root: str
    scopes: Mapping[str, Tuple[str, ...]] = field(
        default_factory=lambda: dict(DEFAULT_SCOPES)
    )
    options: Mapping[str, Mapping[str, Any]] = field(
        default_factory=lambda: dict(DEFAULT_OPTIONS)
    )

    def applies(self, rule_id: str, relpath: str) -> bool:
        """Whether a rule is in scope for a root-relative posix path."""
        globs = self.scopes.get(rule_id)
        if not globs:
            return False
        return any(_glob_to_regex(g).match(relpath) for g in globs)

    def rule_option(self, rule_id: str, key: str, default: Any = None) -> Any:
        """One rule's configured option (or ``default``)."""
        return self.options.get(rule_id, {}).get(key, default)
