"""Churn robustness benchmark: completion curves as membership decays.

How much of the graph does each BFS tier still settle when a growing
fraction of the devices crashes mid-run — and, separately, when devices
*leave the topology* through the dynamic-membership layer (taking their
edges with them)?  Two churn mechanisms, one completion metric:

- **fault churn** — a generated crash-only
  :class:`~repro.radio.faults.ChurnSchedule` kills ``rate * (n-1)``
  non-source devices early in the run (the devices stay wired, they
  just fall silent); swept for every slot-capable BFS algorithm;
- **membership churn** — a :class:`~repro.radio.dynamic.DynamicSchedule`
  with ``leave_fraction=rate`` removes the same population *and its
  edges* via the time-indexed topology, with the online invariant
  checker sampling every 4th slot (the committed record is therefore a
  living schema-v3 artifact: its ``invariants`` blocks must validate —
  and be violation-free — in CI).

Completion is ``settled / n`` averaged over seeds.  There is no
speedup/target pair here: the committed record's headline is the
decay_bfs completion curve endpoint at 30% churn.

Committed record: ``BENCH_churn.json`` (RunResult schema, validated in
CI).  Regenerate deliberately with ``python benchmarks/bench_churn.py``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.analysis import format_table
from repro.experiments import SCHEMA_VERSION, ExperimentSpec, run_specs
from repro.experiments.spec import ExecutionPolicy
from repro.radio.dynamic import DynamicSchedule
from repro.radio.faults import ChurnSchedule, FaultModel

try:
    from conftest import run_once
except ImportError:  # imported outside the benchmarks dir (smoke tests)
    def run_once(benchmark, fn):
        return fn()

CHURN_RATES = (0.0, 0.1, 0.2, 0.3)
CHURN_ALGORITHMS = ("trivial_bfs", "decay_bfs", "recursive_bfs")
CHURN_BENCH_N = 64
CHURN_BENCH_SEEDS = 3
CHURN_BENCH_RESULTS = Path(__file__).resolve().parents[1] / "BENCH_churn.json"

#: Membership-churn runs sample the invariant checker this often.
CHURN_INVARIANT_SAMPLE = 4

#: Crash schedule layout: victim i falls at slot CRASH_START + i * CRASH_EVERY,
#: early enough to hit the BFS wavefront mid-flight.
CRASH_START = 2
CRASH_EVERY = 3


def _crash_schedule(rate, n, seed=0):
    """A crash-only ChurnSchedule killing ``rate*(n-1)`` non-source devices.

    Victims and crash order are a pure function of ``(rate, n, seed)``
    so the committed record regenerates identically.  Vertex 0 (the
    BFS source) is never a victim.
    """
    victims = int(round(rate * (n - 1)))
    if victims == 0:
        return None
    picks = np.random.default_rng(seed).choice(n - 1, size=victims,
                                               replace=False)
    events = tuple(
        (CRASH_START + i * CRASH_EVERY, "crash", int(v) + 1)
        for i, v in enumerate(sorted(int(p) for p in picks))
    )
    return FaultModel((ChurnSchedule(events=events),))


def _leave_schedule(rate):
    """Membership churn: the same fraction leaves the topology itself."""
    if rate == 0.0:
        return None
    return DynamicSchedule(leave_fraction=rate, leave_start=CRASH_START,
                           leave_every=CRASH_EVERY)


def _completion_row(mechanism, algorithm, rate, results):
    n = results[0].n
    completion = sum(r.output["settled"] / r.n for r in results) / len(results)
    statuses = sorted({r.status for r in results})
    return {
        "mechanism": mechanism,
        "algorithm": algorithm,
        "churn_rate": rate,
        "n": n,
        "seeds": len(results),
        "completion": round(completion, 4),
        "statuses": statuses,
    }


def churn_curves(n=CHURN_BENCH_N, seeds=CHURN_BENCH_SEEDS, rates=CHURN_RATES,
                 algorithms=CHURN_ALGORITHMS):
    """All (mechanism x algorithm x rate) completion rows, plus the
    representative result documents the committed record embeds."""
    rows = []
    kept = []
    for algorithm in algorithms:
        for rate in rates:
            specs = [
                ExperimentSpec(
                    topology="grid", n=n, algorithm=algorithm, seed=seed,
                    fault_model=_crash_schedule(rate, n),
                )
                for seed in range(seeds)
            ]
            sweep = run_specs(specs, parallel=False)
            rows.append(_completion_row("fault", algorithm, rate,
                                        list(sweep)))
            if algorithm == "decay_bfs" and rate == rates[-1]:
                kept.append(sweep.results[0].to_dict(include_timing=True))

    # Membership churn runs on the slot tier (decay_bfs) with the online
    # invariant checker sampling — the committed record carries live
    # schema-v3 invariants blocks, all violation-free.
    policy = ExecutionPolicy(invariant_sample=CHURN_INVARIANT_SAMPLE)
    for rate in rates:
        specs = [
            ExperimentSpec(
                topology="grid", n=n, algorithm="decay_bfs", seed=seed,
                dynamic=_leave_schedule(rate),
            )
            for seed in range(seeds)
        ]
        sweep = run_specs(specs, parallel=False, policy=policy)
        results = list(sweep)
        for result in results:
            assert result.invariants is not None
            assert result.invariants["violations"] == {}, (
                f"invariant violation under membership churn rate {rate}: "
                f"{result.invariants}"
            )
        rows.append(_completion_row("membership", "decay_bfs", rate,
                                    results))
        if rate == rates[-1]:
            kept.append(results[0].to_dict(include_timing=True))
    return rows, kept


def churn_document(n=CHURN_BENCH_N, seeds=CHURN_BENCH_SEEDS,
                   rates=CHURN_RATES, algorithms=CHURN_ALGORITHMS):
    """The full benchmark record in the ``BENCH_*.json`` shape."""
    start = time.perf_counter()
    rows, results = churn_curves(n=n, seeds=seeds, rates=rates,
                                 algorithms=algorithms)
    elapsed = time.perf_counter() - start
    decay = {
        row["churn_rate"]: row["completion"]
        for row in rows
        if row["mechanism"] == "fault" and row["algorithm"] == "decay_bfs"
    }
    headline = (
        f"decay_bfs completion {decay[rates[0]]:g} -> {decay[rates[-1]]:g} "
        f"as fault churn 0 -> {int(rates[-1] * 100)}%"
    )
    return {
        "benchmark": "churn robustness: completion (settled/n) vs churn rate, "
                     "fault-layer crashes and dynamic-membership leaves",
        "schema_version": SCHEMA_VERSION,
        "headline": headline,
        "invariant_sample": CHURN_INVARIANT_SAMPLE,
        "wall_time_s": round(elapsed, 3),
        "rows": rows,
        "results": results,
    }


def _print_rows(rows, title):
    headers = ["mechanism", "algorithm", "churn", "n", "seeds",
               "completion", "statuses"]
    print(format_table(
        headers,
        [[r["mechanism"], r["algorithm"], f'{r["churn_rate"]:.0%}', r["n"],
          r["seeds"], r["completion"], ",".join(r["statuses"])]
         for r in rows],
        title=title,
    ))


def test_churn_completion(benchmark):
    """Churn curves are monotone-ish and anchored: zero churn completes.

    The committed record lives in ``BENCH_churn.json``; regenerate it
    deliberately with ``python benchmarks/bench_churn.py`` rather than
    as a test side effect, so stray runs can't dirty the tree.
    """
    document = run_once(benchmark, churn_document)
    print()
    _print_rows(document["rows"], title="Churn robustness (completion vs rate)")
    for row in document["rows"]:
        if row["churn_rate"] == 0.0:
            assert row["completion"] == 1.0, row
            assert row["statuses"] == ["ok"], row
        assert 0.0 < row["completion"] <= 1.0, row


def smoke(n=16, seeds=1):
    """Tiny pass over both churn mechanisms (pytest-collectable via
    ``tests/test_benchmark_smoke.py``): curve shape, completion bounds,
    and clean invariants at toy scale."""
    rows, results = churn_curves(
        n=n, seeds=seeds, rates=(0.0, 0.25),
        algorithms=("trivial_bfs", "decay_bfs"),
    )
    assert {row["mechanism"] for row in rows} == {"fault", "membership"}
    for row in rows:
        assert 0.0 < row["completion"] <= 1.0, row
        if row["churn_rate"] == 0.0:
            assert row["completion"] == 1.0, row
    assert any("invariants" in doc for doc in results)
    return rows


if __name__ == "__main__":  # standalone: regenerate the benchmark record
    import argparse

    parser = argparse.ArgumentParser(
        description="Churn robustness benchmark (writes the RunResult-schema "
                    "record; defaults regenerate BENCH_churn.json)"
    )
    parser.add_argument("--n", type=int, default=CHURN_BENCH_N,
                        help="instance size (CI smoke uses tiny n)")
    parser.add_argument("--seeds", type=int, default=CHURN_BENCH_SEEDS)
    parser.add_argument("--out", default=str(CHURN_BENCH_RESULTS),
                        help="output path (default: BENCH_churn.json)")
    args = parser.parse_args()
    outcome = churn_document(n=args.n, seeds=args.seeds)
    _print_rows(outcome["rows"], title="Churn robustness (completion vs rate)")
    text = json.dumps(outcome, indent=2, sort_keys=True, allow_nan=False) + "\n"
    Path(args.out).write_text(text)
    print(f"wrote {args.out} ({outcome['headline']})")
