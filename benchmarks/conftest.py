"""Shared helpers for the benchmark harness.

Each benchmark regenerates the measurement behind one of the paper's
claims and prints the series/table the claim describes (run with
``pytest benchmarks/ --benchmark-only -s`` to see them).  Timing is
measured with pytest-benchmark in ``pedantic`` single-shot mode: the
quantities of interest are the *simulated* energy/time readings, not
wall-clock, so one round suffices.
"""

from __future__ import annotations

import pytest


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark and return its value."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
