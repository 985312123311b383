"""Every Markdown file the code cites exists.

Docstrings and comments send readers to ``*.md`` files for the reasons
the code does not show.  A citation counts as resolved when the file is
at the repository root or beside the file that cites it.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CITING_DIRS = ("src", "examples", "benchmarks", "tests")
CITATION = re.compile(r"[A-Za-z0-9_./-]+\.md\b")


def _citations(root):
    for top in CITING_DIRS:
        for path in sorted((root / top).rglob("*")):
            if not path.is_file() or "__pycache__" in path.parts:
                continue
            try:
                text = path.read_text(encoding="utf-8")
            except UnicodeDecodeError:
                continue
            for lineno, line in enumerate(text.splitlines(), 1):
                for name in CITATION.findall(line):
                    yield path, lineno, name


def _missing(root, citations):
    return [
        f"{path.relative_to(root)}:{lineno}: {name}"
        for path, lineno, name in citations
        if not (root / name).is_file() and not (path.parent / name).is_file()
    ]


def test_cited_markdown_files_exist():
    citations = list(_citations(ROOT))
    assert citations, "the scan found no citations at all"
    missing = _missing(ROOT, citations)
    assert not missing, "cited Markdown files that do not exist:\n" + "\n".join(missing)


def test_missing_citation_is_reported(tmp_path):
    # The names are spelt with MD so this file's own scan passes.
    MD = ".md"
    (tmp_path / f"ROOT{MD}").write_text("")
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / f"NOTES{MD}").write_text("")
    (pkg / "mod.py").write_text(
        f'"""See ROOT{MD} and NOTES{MD}."""\n# The reason is in DESIGN{MD}.\n'
    )
    assert _missing(tmp_path, _citations(tmp_path)) == [
        f"src/pkg/mod.py:2: DESIGN{MD}"
    ]
