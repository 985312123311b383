"""Backend benchmark: heterogeneous mega-batch vs. replica batching.

Replica batching (PR 5, ``bench_batch.py``) fuses sibling seeds of
**one** cell — it cannot touch the dominant heterogeneous workload,
where a sweep grid spans many topologies and sizes with only a seed or
two each.  The mega-batch backend lifts that restriction: adjacent
cells share one :class:`~repro.radio.kernels.megabatch.MegaBatchPlan`,
so every running lane of every cell joins a single fused gather per
slot instead of one per cell per slot.

This benchmark measures end-to-end ``run_specs`` wall time for the
identical heterogeneous spec list both ways — PR 5 replica batching
(its best effort on the grid) vs. ``ExecutionPolicy(backend=
"megabatch")`` — in-process serial execution on both sides so the
comparison is packing-vs-packing, not pool-vs-pool.  Each arm takes
the best of three trials, which is standard practice for wall-clock
comparisons on shared machines.

The results are *byte-identical* by construction — asserted here, and
enforced in depth by ``tests/experiments/test_batch_equivalence.py``
and ``tests/props/test_mega_properties.py`` — so the speedup column is
the whole story.

Committed record: ``BENCH_backend.json`` (RunResult schema, validated
in CI).  Regenerate deliberately with
``python benchmarks/bench_backend.py``.  Headline target: >= 2x sweep
throughput on the 60-cell heterogeneous grid (12 topologies x 5 sizes,
one seed each — exactly the shape replica batching cannot fuse).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.analysis import format_table
from repro.experiments import (
    SCHEMA_VERSION,
    ExecutionPolicy,
    ExperimentSpec,
    run_specs,
)

try:
    from conftest import run_once
except ImportError:  # imported outside the benchmarks dir (smoke tests)
    def run_once(benchmark, fn):
        return fn()

#: The heterogeneous grid: every deterministic (batch-eligible) family,
#: several sizes each.  Small instances on purpose — the fixed per-cell
#: per-slot product overhead replica batching cannot amortize is the
#: cost being measured, and it dominates exactly at this scale.
BACKEND_BENCH_TOPOLOGIES = (
    "grid", "star", "cycle", "path", "wheel", "barbell",
    "hypercube", "star_of_paths", "binary_tree", "caterpillar",
    "complete", "lollipop",
)
BACKEND_BENCH_SIZES = (8, 10, 12, 14, 16)
BACKEND_BENCH_DEPTH = 8
BACKEND_BENCH_TRIALS = 3
BACKEND_BENCH_RESULTS = (
    Path(__file__).resolve().parents[1] / "BENCH_backend.json"
)

#: Secondary row: two seeds per cell, so replica batching has its own
#: fusion to offer and the record shows mega's advantage is the
#: *cross-cell* packing, not an artifact of unbatched baselines.
BACKEND_BENCH_SECONDARY_SEEDS = 2

#: Acceptance floor for the headline (one seed per cell) row.
BACKEND_BENCH_TARGET = 2.0


def _grid_specs(topologies=BACKEND_BENCH_TOPOLOGIES,
                sizes=BACKEND_BENCH_SIZES, seeds=1,
                depth=BACKEND_BENCH_DEPTH):
    """The heterogeneous sweep grid: every cell a different topology."""
    return [
        ExperimentSpec(
            topology=topology,
            n=n,
            algorithm="decay_bfs",
            algorithm_params={"depth_budget": depth, "record_labels": False},
            engine="fast",
            seed=seed,
        )
        for topology in topologies
        for n in sizes
        for seed in range(seeds)
    ]


def _best_of(fn, trials=BACKEND_BENCH_TRIALS):
    """Best wall time over ``trials`` runs; returns (seconds, result)."""
    best, out = float("inf"), None
    for _ in range(trials):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best, out = elapsed, result
    return best, out


def backend_comparison(topologies=BACKEND_BENCH_TOPOLOGIES,
                       sizes=BACKEND_BENCH_SIZES, seeds=1,
                       depth=BACKEND_BENCH_DEPTH,
                       trials=BACKEND_BENCH_TRIALS):
    """One row: the same grid replica-batched vs. mega-batched.

    Returns the row dict plus the first cell's two result documents
    (byte-identical, differing only in the opt-in timing block).
    """
    specs = _grid_specs(topologies, sizes, seeds=seeds, depth=depth)
    policy = ExecutionPolicy(backend="megabatch", mega_batch=len(specs))
    batched_s, batched = _best_of(
        lambda: run_specs(specs, parallel=False), trials)
    mega_s, mega = _best_of(
        lambda: run_specs(specs, parallel=False, policy=policy), trials)
    for ref, got in zip(batched, mega):
        assert got.to_dict() == ref.to_dict(), (
            f"mega result diverged from replica-batched "
            f"({ref.spec.topology}, n={ref.spec.n}, seed {ref.spec.seed})"
        )
    row = {
        "topologies": len(topologies),
        "sizes": len(sizes),
        "seeds_per_cell": seeds,
        "cells": len(specs),
        "batched_s": round(batched_s, 3),
        "mega_s": round(mega_s, 3),
        "speedup": round(batched_s / mega_s, 2),
    }
    return row, batched.results[0], mega.results[0]


def backend_throughput_document(topologies=BACKEND_BENCH_TOPOLOGIES,
                                sizes=BACKEND_BENCH_SIZES,
                                depth=BACKEND_BENCH_DEPTH,
                                trials=BACKEND_BENCH_TRIALS):
    """The full benchmark record in the ``BENCH_*.json`` shape."""
    rows = []
    results = []
    for seeds in (BACKEND_BENCH_SECONDARY_SEEDS, 1):
        row, batched_result, mega_result = backend_comparison(
            topologies, sizes, seeds=seeds, depth=depth, trials=trials
        )
        rows.append(row)
        if seeds == 1:
            results = [
                batched_result.to_dict(include_timing=True),
                mega_result.to_dict(include_timing=True),
            ]
    return {
        "benchmark": "backend-throughput: heterogeneous mega-batched sweep "
                     "grids (PR 5 replica batching vs one block-diagonal "
                     "engine run per slot)",
        "schema_version": SCHEMA_VERSION,
        "speedup": rows[-1]["speedup"],
        "target": BACKEND_BENCH_TARGET,
        "rows": rows,
        "results": results,
    }


def _print_rows(rows, title):
    headers = ["topologies", "sizes", "seeds/cell", "cells",
               "batched_s", "mega_s", "speedup"]
    print(format_table(
        headers,
        [[r["topologies"], r["sizes"], r["seeds_per_cell"], r["cells"],
          r["batched_s"], r["mega_s"], f'{r["speedup"]}x'] for r in rows],
        title=title,
    ))


def test_backend_throughput(benchmark):
    """Tentpole target: >= 2x on the heterogeneous one-seed-per-cell grid.

    The committed record lives in ``BENCH_backend.json``; regenerate it
    deliberately with ``python benchmarks/bench_backend.py`` rather
    than as a test side effect, so stray runs can't dirty the tree.
    """
    document = run_once(benchmark, backend_throughput_document)
    print()
    _print_rows(document["rows"],
                title="Mega batching (heterogeneous decay_bfs grids)")
    assert document["speedup"] >= BACKEND_BENCH_TARGET


def smoke(sizes=(8, 10), seeds=2):
    """Tiny pass over every entry point (pytest-collectable via
    ``tests/test_benchmark_smoke.py``): byte-identity plus a positive
    speedup measurement, no target assertion at toy scale."""
    row, batched_result, mega_result = backend_comparison(
        topologies=("grid", "star", "cycle"), sizes=sizes, seeds=seeds,
        depth=3, trials=1,
    )
    assert batched_result.to_dict() == mega_result.to_dict()
    assert row["speedup"] > 0
    assert row["cells"] == 3 * len(sizes) * seeds
    return row


if __name__ == "__main__":  # standalone: regenerate the benchmark record
    import argparse

    parser = argparse.ArgumentParser(
        description="Heterogeneous mega-batch backend benchmark (writes the "
                    "RunResult-schema record; defaults regenerate "
                    "BENCH_backend.json)"
    )
    parser.add_argument("--sizes", type=int, nargs="+",
                        default=list(BACKEND_BENCH_SIZES),
                        help="size knobs per family (CI smoke uses fewer)")
    parser.add_argument("--depth", type=int, default=BACKEND_BENCH_DEPTH)
    parser.add_argument("--trials", type=int, default=BACKEND_BENCH_TRIALS,
                        help="wall-clock trials per arm (best-of)")
    parser.add_argument("--out", default=str(BACKEND_BENCH_RESULTS),
                        help="output path (default: BENCH_backend.json)")
    args = parser.parse_args()
    outcome = backend_throughput_document(
        sizes=tuple(args.sizes), depth=args.depth, trials=args.trials,
    )
    _print_rows(outcome["rows"],
                title="Mega batching (heterogeneous decay_bfs grids)")
    text = json.dumps(outcome, indent=2, sort_keys=True, allow_nan=False) + "\n"
    Path(args.out).write_text(text)
    print(f"wrote {args.out} (headline speedup {outcome['speedup']}x, "
          f"target {outcome['target']}x)")
