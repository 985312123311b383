"""The ``python -m repro.lintkit`` command line.

Exit codes follow the ruff convention:

- ``0`` — no findings (after suppressions and baseline);
- ``1`` — at least one finding was reported;
- ``2`` — usage or configuration error (unknown rule, bad baseline,
  unreadable target, malformed ``[tool.lintkit]``).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from ..errors import ConfigurationError
from .baseline import apply_baseline, load_baseline, write_baseline
from .config import load_config
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
        help="files or directories to lint (default: [tool.lintkit] paths)",
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
        "--baseline", default=None, metavar="FILE",
        help="baseline file of grandfathered findings "
             "(default: [tool.lintkit] baseline)",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore any configured baseline file",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="write current findings to the baseline file and exit 0",
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
        config = load_config(root=args.root)
        rules = make_rules(tuple(_selected_ids(args.select)))
        paths = list(args.paths) or list(config.paths)
        findings, checked = lint_paths(paths, config, rules)

        baseline_file = args.baseline or config.baseline_path()
        if args.write_baseline:
            if baseline_file is None:
                raise ConfigurationError(
                    "no baseline file configured; pass --baseline FILE"
                )
            count = write_baseline(baseline_file, findings)
            print(f"wrote {count} baseline entr"
                  f"{'y' if count == 1 else 'ies'} to {baseline_file}")
            return 0

        if baseline_file is not None and not args.no_baseline:
            findings, _ = apply_baseline(findings, load_baseline(baseline_file))
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
