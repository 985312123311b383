"""Smoke tests keeping the benchmark scripts alive under plain pytest.

The ``benchmarks/`` scripts are not collected by the tier-1 run (their
filenames don't match ``test_*.py``), so a refactor could silently
break them.  Each benchmark module therefore exposes a ``smoke()``
entry point — a tiny-``n``, single-seed pass over every code path the
full benchmark exercises — and these tests load the modules by file
path and run it.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def _load(module_name: str):
    """Import a benchmark script by path under a collision-free name."""
    path = BENCHMARKS / f"{module_name}.py"
    spec = importlib.util.spec_from_file_location(f"_smoke_{module_name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.modules.pop(spec.name, None)
    return module


def test_bench_bfs_energy_smoke():
    module = _load("bench_bfs_energy")
    result = module.smoke(n=64)
    assert result["pair"]["trivial"] == result["pair"]["D"] == 63
    engines = result["engines"]["results"]
    assert [entry["spec"]["engine"] for entry in engines] == ["reference", "fast"]
    # Differential guarantee holds at smoke scale too: the whole
    # RunResult document (output + metrics) matches across tiers.
    assert engines[0]["output"] == engines[1]["output"]
    assert engines[0]["metrics"] == engines[1]["metrics"]


def test_bench_diameter_approx_smoke():
    module = _load("bench_diameter_approx")
    two, th = module.smoke()
    assert two.spec.algorithm == "two_approx_diameter"
    assert th.max_lb_energy > two.max_lb_energy


def test_bench_store_smoke():
    module = _load("bench_store")
    row = module.smoke(n=16)
    assert row["cells"] == 9
    assert row["stored_s"] > 0 and row["resume_s"] >= 0


def test_bench_robustness_smoke():
    module = _load("bench_robustness")
    rows = module.smoke(n=24)
    assert [r["drop_p"] for r in rows] == [0.0, 0.5]
    assert rows[0]["completion"] == 1.0
    assert rows[1]["dropped"] > 0


def test_bench_decay_smoke():
    module = _load("bench_decay")
    rows = module.smoke()
    assert len(rows) == 1
    delta, f_label, slots, sender_slots, successes = rows[0]
    assert delta == 4
    assert slots > 0
    assert sender_slots >= 0


def test_bench_churn_smoke():
    module = _load("bench_churn")
    rows = module.smoke(n=16, seeds=1)
    # Both churn mechanisms, both anchored at full completion for rate 0.
    mechanisms = {r["mechanism"] for r in rows}
    assert mechanisms == {"fault", "membership"}
    for row in rows:
        if row["churn_rate"] == 0.0:
            assert row["completion"] == 1.0
    # Clean-invariant assertion runs inside smoke(); pin the row shape
    # the committed BENCH_churn.json relies on.
    assert {"mechanism", "algorithm", "churn_rate", "completion",
            "statuses"} <= set(rows[0])
