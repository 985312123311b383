"""Committed result documents stay valid at their own schema version.

One document per schema version the read side up-converts:
``BENCH_engine.json`` (v1, the engine-comparison record),
``fixtures/schema_v2_record.json`` (v2, a replica-batching throughput
record kept as a fixture when its benchmark was retired) and
``BENCH_churn.json`` (v3, the churn robustness curve).
Each must validate byte for byte, and a one-byte edit that leaves the
JSON well formed but non-canonical must be rejected.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.experiments import validate_file

ROOT = Path(__file__).resolve().parents[2]

DOCUMENTS = [
    (ROOT / "BENCH_engine.json", 1),
    (Path(__file__).resolve().parent / "fixtures" / "schema_v2_record.json",
     2),
    (ROOT / "BENCH_churn.json", 3),
]


@pytest.mark.parametrize("path, version", DOCUMENTS,
                         ids=[p.name for p, _ in DOCUMENTS])
def test_committed_document_validates(path, version):
    results = validate_file(str(path))
    assert results
    data = json.loads(path.read_text(encoding="utf-8"))
    assert {entry["schema_version"] for entry in data["results"]} == {version}


@pytest.mark.parametrize("path", [p for p, _ in DOCUMENTS],
                         ids=[p.name for p, _ in DOCUMENTS])
def test_one_byte_non_canonical_edit_is_rejected(path, tmp_path):
    # Rename the first result's "kind" key: still well-formed JSON, but
    # re-serializing the parsed result restores the key.
    text = path.read_text(encoding="utf-8")
    edited = text.replace('"kind"', '"kinD"', 1)
    assert len(edited) == len(text)
    assert sum(a != b for a, b in zip(text, edited)) == 1
    target = tmp_path / path.name
    target.write_text(edited, encoding="utf-8")
    with pytest.raises(ConfigurationError,
                       match=r"results\[0\]: .*not canonical") as info:
        validate_file(str(target))
    assert "\n" not in str(info.value)
