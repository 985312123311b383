"""Findings and the rule protocol.

A *rule* is a named invariant checker: it receives one parsed module
(:class:`~repro.lintkit.engine.ModuleContext`) and yields
:class:`Finding` objects for every violation it can prove from the
AST.  The rules themselves, and the fixed table naming them, live in
:mod:`repro.lintkit.rules`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .engine import ModuleContext


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location.

    Ordering is ``(path, line, col, rule)`` so reports are stable
    regardless of rule execution order — the linter's own output is
    held to the determinism discipline it enforces.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        """The ruff-style report line: ``path:line:col: RULE message``."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def baseline_key(self) -> Tuple[str, str, str]:
        """The identity used by baseline matching.

        Deliberately excludes line/column so a grandfathered finding
        survives unrelated edits above it; see
        :mod:`repro.lintkit.baseline`.
        """
        return (self.path, self.rule, self.message)


class Rule(ABC):
    """Base class for lint rules.

    Subclasses set :attr:`rule_id` and :attr:`summary`, then implement
    :meth:`check`.  A rule instance is constructed once per run and
    invoked once per in-scope module.
    """

    #: Stable identifier, e.g. ``"DET001"`` — what suppressions,
    #: baselines, ``--select``, and scope configuration refer to.
    rule_id: str = ""

    #: One-line description shown by ``--list-rules``.
    summary: str = ""

    @abstractmethod
    def check(self, ctx: "ModuleContext") -> Iterator[Finding]:
        """Yield findings for one module."""

    def finding(self, ctx: "ModuleContext", line: int, col: int,
                message: str) -> Finding:
        """Build a finding for this rule at a location in ``ctx``."""
        return Finding(path=ctx.relpath, line=line, col=col,
                       rule=self.rule_id, message=message)
