"""Lint configuration: per-rule file scoping and rule options.

The committed configuration lives in ``pyproject.toml`` under
``[tool.lintkit]`` — rule scopes are *path globs* (``**`` crosses
directory boundaries), so each invariant applies exactly where the
architecture says it holds (e.g. the durability rule only inside the
store/fabric layer).  The defaults baked into this module mirror the
committed ``pyproject.toml`` byte-for-byte in meaning: on interpreters
without a TOML parser (Python 3.10 with no ``tomli``) the linter falls
back to them and behaves identically — ``tests/lintkit/test_config.py``
asserts the two never drift.

Configuration keys (all optional)::

    [tool.lintkit]
    paths = ["src/repro", "scripts"]     # default lint targets
    package-roots = ["src"]              # import roots for DOC001
    baseline = ".lintkit-baseline"       # grandfathered findings

    [tool.lintkit.scopes]
    DET001 = ["src/repro/**"]            # rule id -> path globs

    [tool.lintkit.options.DUR001]
    allowed-writers = ["SweepStore._create"]
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from ..errors import ConfigurationError

#: Default lint targets (what a bare ``python -m repro.lintkit`` checks).
DEFAULT_PATHS: Tuple[str, ...] = ("src/repro", "scripts")

#: Directories whose children are importable packages (DOC001 derives
#: dotted module names from these).
DEFAULT_PACKAGE_ROOTS: Tuple[str, ...] = ("src",)

#: Default baseline file (relative to the config root); the committed
#: baseline is empty — every invariant violation in the tree is fixed,
#: not grandfathered.
DEFAULT_BASELINE = ".lintkit-baseline"

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
    scope globs, the baseline file, and the ``path`` column of every
    finding are all relative to it, so reports are stable no matter
    where the tool is invoked from.
    """

    root: str
    paths: Tuple[str, ...] = DEFAULT_PATHS
    package_roots: Tuple[str, ...] = DEFAULT_PACKAGE_ROOTS
    baseline: Optional[str] = DEFAULT_BASELINE
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

    def baseline_path(self) -> Optional[str]:
        """Absolute path of the configured baseline file, if any."""
        if self.baseline is None:
            return None
        return os.path.join(self.root, self.baseline)


def _load_toml(path: str) -> Optional[Dict[str, Any]]:
    """Parse a TOML file, or ``None`` when no parser is available.

    Python 3.11+ ships :mod:`tomllib`; on 3.10 we accept an installed
    ``tomli`` and otherwise fall back to the baked-in defaults (which
    the test suite pins to the committed ``pyproject.toml``).
    """
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        try:
            import tomli as tomllib  # type: ignore[import-not-found, no-redef]
        except ModuleNotFoundError:
            return None
    try:
        with open(path, "rb") as handle:
            return dict(tomllib.load(handle))
    except OSError as exc:
        raise ConfigurationError(f"cannot read {path}: {exc}") from None
    except tomllib.TOMLDecodeError as exc:
        raise ConfigurationError(f"invalid TOML in {path}: {exc}") from None


def _str_tuple(value: Any, where: str) -> Tuple[str, ...]:
    if isinstance(value, str):
        return (value,)
    if isinstance(value, (list, tuple)) and all(
        isinstance(v, str) for v in value
    ):
        return tuple(value)
    raise ConfigurationError(
        f"{where} must be a string or list of strings, got {value!r}"
    )


def load_config(root: Optional[str] = None,
                pyproject: Optional[str] = None) -> LintConfig:
    """Build the run configuration.

    ``root`` defaults to the current directory; ``pyproject`` defaults
    to ``<root>/pyproject.toml``.  A missing file, a missing
    ``[tool.lintkit]`` table, or an interpreter without a TOML parser
    all yield the baked-in defaults.
    """
    root = os.path.abspath(root or os.getcwd())
    pyproject = pyproject or os.path.join(root, "pyproject.toml")
    section: Mapping[str, Any] = {}
    if os.path.exists(pyproject):
        document = _load_toml(pyproject)
        if document is not None:
            tool = document.get("tool")
            if isinstance(tool, Mapping):
                found = tool.get("lintkit", {})
                if not isinstance(found, Mapping):
                    raise ConfigurationError(
                        f"[tool.lintkit] in {pyproject} must be a table"
                    )
                section = found

    paths = DEFAULT_PATHS
    if "paths" in section:
        paths = _str_tuple(section["paths"], "[tool.lintkit] paths")
    package_roots = DEFAULT_PACKAGE_ROOTS
    if "package-roots" in section:
        package_roots = _str_tuple(
            section["package-roots"], "[tool.lintkit] package-roots"
        )
    baseline: Optional[str] = DEFAULT_BASELINE
    if "baseline" in section:
        raw = section["baseline"]
        if raw is not None and not isinstance(raw, str):
            raise ConfigurationError(
                f"[tool.lintkit] baseline must be a string, got {raw!r}"
            )
        baseline = raw

    scopes: Dict[str, Tuple[str, ...]] = dict(DEFAULT_SCOPES)
    raw_scopes = section.get("scopes", {})
    if not isinstance(raw_scopes, Mapping):
        raise ConfigurationError("[tool.lintkit.scopes] must be a table")
    for rule_id, globs in raw_scopes.items():
        scopes[str(rule_id)] = _str_tuple(
            globs, f"[tool.lintkit.scopes] {rule_id}"
        )

    options: Dict[str, Dict[str, Any]] = {
        rule_id: dict(opts) for rule_id, opts in DEFAULT_OPTIONS.items()
    }
    raw_options = section.get("options", {})
    if not isinstance(raw_options, Mapping):
        raise ConfigurationError("[tool.lintkit.options] must be a table")
    for rule_id, opts in raw_options.items():
        if not isinstance(opts, Mapping):
            raise ConfigurationError(
                f"[tool.lintkit.options.{rule_id}] must be a table"
            )
        merged = options.setdefault(str(rule_id), {})
        for key, value in opts.items():
            merged[str(key)] = (
                tuple(value) if isinstance(value, list) else value
            )

    return LintConfig(
        root=root,
        paths=paths,
        package_roots=package_roots,
        baseline=baseline,
        scopes=scopes,
        options=options,
    )
