"""The visitor engine: parse modules, run rules, apply suppressions.

One :class:`ModuleContext` per linted file carries the parsed AST plus
the shared static-analysis helpers every rule needs: a parent map
(``ast`` has no parent pointers), the module's import-alias table
(``import numpy as np`` makes ``np.random.seed`` resolve to
``numpy.random.seed``), and the dotted module name derived from the
package roots (what DOC001 imports).

Suppressions are inline, same-line, and explicit::

    risky_call()  # lintkit: ignore[DET001]

A bare ``# lintkit: ignore`` (no rule list) suppresses every rule on
the line; the committed suppression policy (README) requires naming
the rule.  Suppression comments are matched against the *finding's*
line, so a rule must report the line of the offending expression.
"""

from __future__ import annotations

import ast
import os
import re
import sys
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..errors import ConfigurationError
from .base import Finding, Rule
from .config import DEFAULT_PACKAGE_ROOTS, LintConfig

#: Rule id attached to files the engine cannot parse at all.  Not a
#: registered rule: an unparseable file violates every invariant at
#: once, so it is reported unconditionally whenever any rule is in
#: scope for the file.
PARSE_RULE_ID = "LINT000"

_SUPPRESS_RE = re.compile(
    r"#\s*lintkit:\s*ignore(?:\[(?P<rules>[A-Za-z0-9_,\s]*)\])?"
)


def suppressed_rules(line: str) -> Optional[Set[str]]:
    """The rule ids suppressed on a source line.

    Returns ``None`` when the line carries no suppression comment, the
    empty set for a bare ``# lintkit: ignore`` (suppress everything),
    and the named ids otherwise.
    """
    match = _SUPPRESS_RE.search(line)
    if match is None:
        return None
    raw = match.group("rules")
    if raw is None:
        return set()
    return {part.strip() for part in raw.split(",") if part.strip()}


def collect_import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Map local names to the dotted path they import.

    ``import numpy as np`` maps ``np`` to ``numpy``; ``from numpy
    import random as npr`` maps ``npr`` to ``numpy.random``; relative
    imports are prefixed with their dots so they can never collide
    with absolute stdlib/third-party paths.
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                local = name.asname or name.name.split(".")[0]
                # ``import a.b`` binds the *top* package a.
                target = name.name if name.asname else name.name.split(".")[0]
                aliases[local] = target
        elif isinstance(node, ast.ImportFrom):
            prefix = "." * node.level + (node.module or "")
            for name in node.names:
                if name.name == "*":
                    continue
                local = name.asname or name.name
                aliases[local] = f"{prefix}.{name.name}" if prefix else name.name
    return aliases


def dotted_target(expr: ast.expr, aliases: Dict[str, str]) -> Optional[str]:
    """Resolve an attribute chain to a dotted path through the aliases.

    ``np.random.seed`` with ``{"np": "numpy"}`` resolves to
    ``numpy.random.seed``; chains rooted in anything but a plain name
    (``self.rng.random``, ``obj().attr``) resolve to ``None`` — rules
    only reason about names they can statically pin to a module.
    """
    parts: List[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    parts.reverse()
    head = aliases.get(parts[0])
    if head is not None:
        parts = head.split(".") + parts[1:]
    return ".".join(parts)


@dataclass
class ModuleContext:
    """One parsed module plus the shared analysis caches."""

    path: str
    relpath: str
    source: str
    tree: ast.Module
    config: LintConfig
    lines: List[str] = field(init=False)
    _parents: Optional[Dict[ast.AST, ast.AST]] = field(default=None, init=False)
    _aliases: Optional[Dict[str, str]] = field(default=None, init=False)

    def __post_init__(self) -> None:
        self.lines = self.source.splitlines()

    @property
    def module_name(self) -> Optional[str]:
        """The dotted import name, if the file sits under a package root.

        ``src/repro/radio/faults.py`` with package root ``src`` is
        ``repro.radio.faults``; ``__init__`` files name their package.
        Files outside every package root (scripts, fixtures) have no
        module name and are imported by location instead (DOC001).
        """
        for root in DEFAULT_PACKAGE_ROOTS:
            prefix = root.rstrip("/") + "/"
            if not self.relpath.startswith(prefix):
                continue
            inner = self.relpath[len(prefix):]
            if not inner.endswith(".py"):
                return None
            parts = inner[:-len(".py")].split("/")
            if parts[-1] == "__init__":
                parts = parts[:-1]
            if parts and all(p.isidentifier() for p in parts):
                return ".".join(parts)
        return None

    def parents(self) -> Dict[ast.AST, ast.AST]:
        """Child-to-parent map over the whole tree (built once)."""
        if self._parents is None:
            self._parents = {}
            for parent in ast.walk(self.tree):
                for child in ast.iter_child_nodes(parent):
                    self._parents[child] = parent
        return self._parents

    def parent_of(self, node: ast.AST) -> Optional[ast.AST]:
        """The AST parent of ``node`` (``None`` for the module)."""
        return self.parents().get(node)

    def import_aliases(self) -> Dict[str, str]:
        """The module's import-alias table (built once)."""
        if self._aliases is None:
            self._aliases = collect_import_aliases(self.tree)
        return self._aliases

    def call_target(self, call: ast.Call) -> Optional[str]:
        """The dotted path a call resolves to, or ``None``."""
        return dotted_target(call.func, self.import_aliases())

    def line_text(self, line: int) -> str:
        """Source text of a 1-based line (empty when out of range)."""
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1]
        return ""


def _relpath(path: str, root: str) -> str:
    """Root-relative posix path; absolute posix when outside the root."""
    abspath = os.path.abspath(path)
    try:
        rel = os.path.relpath(abspath, root)
    except ValueError:  # different drive (windows)
        rel = abspath
    rel = rel.replace(os.sep, "/")
    if rel.startswith("../"):
        return abspath.replace(os.sep, "/")
    return rel


def expand_paths(paths: Iterable[str], root: str) -> List[str]:
    """Expand files/directories to a sorted list of ``.py`` files.

    Relative inputs are resolved against ``root`` (the config anchor),
    so invocations agree regardless of the caller's working directory.
    """
    out: Set[str] = set()
    for path in paths:
        abspath = path if os.path.isabs(path) else os.path.join(root, path)
        if os.path.isdir(abspath):
            for dirpath, dirnames, filenames in os.walk(abspath):
                dirnames.sort()
                dirnames[:] = [d for d in dirnames if d != "__pycache__"]
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        out.add(os.path.join(dirpath, name))
        elif os.path.exists(abspath):
            out.add(abspath)
        else:
            raise ConfigurationError(f"no such file or directory: {path}")
    return sorted(out)


def lint_file(path: str, config: LintConfig,
              rules: List[Rule]) -> List[Finding]:
    """Run every in-scope rule over one file, honoring suppressions."""
    relpath = _relpath(path, config.root)
    in_scope = [rule for rule in rules if config.applies(rule.rule_id, relpath)]
    if not in_scope:
        return []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read {path}: {exc}") from None
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Finding(
            path=relpath, line=exc.lineno or 1, col=(exc.offset or 1),
            rule=PARSE_RULE_ID,
            message=f"file does not parse: {exc.msg}",
        )]
    ctx = ModuleContext(
        path=path, relpath=relpath, source=source, tree=tree, config=config
    )
    findings: List[Finding] = []
    for rule in in_scope:
        findings.extend(rule.check(ctx))
    kept = []
    for finding in findings:
        ignored = suppressed_rules(ctx.line_text(finding.line))
        if ignored is not None and (not ignored or finding.rule in ignored):
            continue
        kept.append(finding)
    return kept


def ensure_importable(config: LintConfig) -> None:
    """Put the package roots on ``sys.path`` (for DOC001)."""
    for root in DEFAULT_PACKAGE_ROOTS:
        abspath = os.path.join(config.root, root)
        if os.path.isdir(abspath) and abspath not in sys.path:
            sys.path.insert(0, abspath)


def lint_paths(paths: Iterable[str], config: LintConfig,
               rules: List[Rule]) -> Tuple[List[Finding], int]:
    """Lint files/directories; returns (sorted findings, files checked)."""
    ensure_importable(config)
    files = expand_paths(paths, config.root)
    findings: List[Finding] = []
    for path in files:
        findings.extend(lint_file(path, config, rules))
    return sorted(findings), len(files)
