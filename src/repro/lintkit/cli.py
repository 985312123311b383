"""The ``python -m repro.lintkit`` command line.

Exit codes follow the ruff convention:

- ``0`` — no findings (after inline suppressions);
- ``1`` — at least one finding was reported;
- ``2`` — usage or configuration error (unknown rule, unreadable
  target).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Sequence

from ..errors import ConfigurationError
from .config import DEFAULT_PATHS, LintConfig
from .engine import lint_paths
from .rules import get_rule, make_rules, rule_ids


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lintkit",
        description=(
            "AST-based determinism & durability linter for this repo's "
            "invariants (see ARCHITECTURE.md, 'Mechanically-checked "
            "invariants')."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to lint (default: src/repro scripts)",
    )
    parser.add_argument(
        "--select", action="append", default=[], metavar="RULES",
        help="comma-separated rule ids to run (default: all registered)",
    )
    parser.add_argument(
        "--root", default=None, metavar="DIR",
        help="config root; relative paths, scopes and report paths are "
             "anchored here (default: current directory)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list registered rules and exit",
    )
    return parser


def _selected_ids(select: Sequence[str]) -> List[str]:
    ids: List[str] = []
    for chunk in select:
        for part in chunk.split(","):
            part = part.strip()
            if part and part not in ids:
                ids.append(part)
    for rule_id in ids:
        get_rule(rule_id)  # fail loudly on unknown ids
    return ids


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id in rule_ids():
            print(f"{rule_id}  {get_rule(rule_id).summary}")
        return 0

    try:
        config = LintConfig(root=os.path.abspath(args.root or os.getcwd()))
        rules = make_rules(tuple(_selected_ids(args.select)))
        paths = list(args.paths) or list(DEFAULT_PATHS)
        findings, checked = lint_paths(paths, config, rules)
    except ConfigurationError as exc:
        print(f"lintkit: error: {exc}", file=sys.stderr)
        return 2

    for finding in findings:
        print(finding.render())
    if findings:
        noun = "finding" if len(findings) == 1 else "findings"
        print(f"{len(findings)} {noun} in {checked} files", file=sys.stderr)
        return 1
    return 0
