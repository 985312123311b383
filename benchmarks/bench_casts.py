"""Experiments L3.1 + L3.2: cast costs and the G* simulation overhead.

L3.1: Up-cast/Down-cast charge each vertex O(log n) LB participations.
L3.2: one simulated Local-Broadcast on G* costs each physical vertex
O(log n) participations on G.
"""

from __future__ import annotations

import math

import pytest

from repro.analysis import format_table
from repro.clustering import (
    CastEngine,
    ClusterLBGraph,
    SlotAssignment,
    mpx_clustering,
)
from repro.primitives import PhysicalLBGraph
from repro.radio import topology

from conftest import run_once


def _stack(n_side, beta=1 / 2, seed=0):
    g = topology.grid_graph(n_side, n_side)
    lbg = PhysicalLBGraph(g, seed=seed)
    clustering = mpx_clustering(g, beta, seed=seed, radius_multiplier=1.0)
    slots = SlotAssignment.sample(
        clustering.clusters(), beta, g.number_of_nodes(), seed=seed + 1
    )
    return g, lbg, clustering, slots


def test_cast_costs(benchmark):
    """L3.1: per-vertex cast energy ~ |S_C| = O(log n)."""

    def run():
        rows = []
        for side in (12, 20, 28):
            g, lbg, clustering, slots = _stack(side)
            engine = CastEngine(lbg, clustering, slots)
            engine.down_cast({c: "m" for c in clustering.clusters()})
            down_max = lbg.ledger.max_lb()
            engine.up_cast(
                {v: "x" for v in g.nodes}, clustering.clusters()
            )
            total_max = lbg.ledger.max_lb()
            rows.append(
                [
                    g.number_of_nodes(),
                    round(math.log2(g.number_of_nodes()), 1),
                    round(slots.mean_size(), 1),
                    down_max,
                    total_max,
                ]
            )
        return rows

    rows = run_once(benchmark, run)
    print()
    print(
        format_table(
            ["n", "log2 n", "mean |S_C|", "down-cast max LB", "+ up-cast max LB"],
            rows,
            title="L3.1: cast energy per vertex (grids, beta=1/2)",
        )
    )
    # O(log n): max participations within a constant times |S_C|.
    for r in rows:
        assert r[3] <= 4 * r[2] + 4
        assert r[4] <= 10 * r[2] + 10


def test_simulated_lb_overhead(benchmark):
    """L3.2: per-vertex cost of one LB on G* is O(log n)."""

    def run():
        rows = []
        for side in (12, 20, 28):
            g, lbg, clustering, slots = _stack(side)
            star = ClusterLBGraph(lbg, clustering, slots)
            q = star.as_nx_graph()
            a, b = next(iter(q.edges))
            star.local_broadcast({a: "m"}, [b])
            rows.append(
                [
                    g.number_of_nodes(),
                    len(clustering.members),
                    round(slots.mean_size(), 1),
                    lbg.ledger.max_lb(),
                ]
            )
        return rows

    rows = run_once(benchmark, run)
    print()
    print(
        format_table(
            ["n", "clusters", "mean |S_C|", "max LB per phys. vertex"],
            rows,
            title="L3.2: one simulated G* Local-Broadcast (grids, beta=1/2)",
        )
    )
    for r in rows:
        assert r[3] <= 6 * r[2] + 6
