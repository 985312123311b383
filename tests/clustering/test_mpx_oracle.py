"""Bucketed MPX against the round-by-round scan it replaced.

The oracles below are the MPX loops as first written: every round
rescans the unclustered set for new centers and builds every unclustered
vertex's clustered-neighbour list.  The bucketed implementation must
reproduce them exactly: the partition, the layers, the member sets, the
rounds used, the generator's end state (the same draws in the same
order) and, for the distributed protocol, the energy ledger.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Set, Tuple

import pytest

from repro.clustering import (
    Clustering,
    ShiftParameters,
    Shifts,
    distributed_mpx,
    mpx_clustering,
)
from repro.errors import SimulationError
from repro.primitives import PhysicalLBGraph
from repro.radio import topology
from repro.rng import make_rng

FAMILIES = topology.scenario_names()
SEEDS = (0, 7, 31)
BETAS = (1 / 2, 1 / 4, 1 / 8)
MULTIPLIERS = (1.0, 4.0)
N = 40


def oracle_mpx(graph, beta, seed=None, n_global=None, radius_multiplier=4.0,
               shifts=None):
    """The per-round rescan MPX loop (no buckets, no neighbour counts)."""
    n = n_global if n_global is not None else graph.number_of_nodes()
    params = ShiftParameters(beta=beta, n=max(2, n), radius_multiplier=radius_multiplier)
    rng = make_rng(seed)
    if shifts is None:
        shifts = Shifts.sample(graph.nodes, params, seed=rng)

    center_of: Dict[Hashable, Hashable] = {}
    layer_of: Dict[Hashable, int] = {}
    members: Dict[Hashable, Set[Hashable]] = {}
    unclustered: Set[Hashable] = set(graph.nodes)
    horizon = params.horizon

    rounds_used = 0
    for round_index in range(1, horizon + 1):
        if not unclustered:
            break
        rounds_used = round_index
        for v in sorted(
            (v for v in unclustered if shifts.start_time[v] == round_index), key=repr
        ):
            center_of[v] = v
            layer_of[v] = 0
            members[v] = {v}
            unclustered.discard(v)
        joiners: List[Tuple[Hashable, Hashable]] = []
        for v in unclustered:
            clustered_neighbors = [u for u in graph.neighbors(v) if u in center_of]
            if clustered_neighbors:
                pick = clustered_neighbors[int(rng.integers(len(clustered_neighbors)))]
                joiners.append((v, pick))
        for v, parent in joiners:
            cluster = center_of[parent]
            center_of[v] = cluster
            layer_of[v] = layer_of[parent] + 1
            members[cluster].add(v)
            unclustered.discard(v)

    if unclustered:
        raise SimulationError("oracle left vertices unclustered")
    return Clustering(beta=beta, n_global=n, center_of=center_of,
                      layer_of=layer_of, members=members, shifts=shifts,
                      rounds_used=rounds_used)


def oracle_distributed_mpx(lbg, beta, seed=None, radius_multiplier=4.0):
    """The Lemma 2.5 protocol with the per-round center rescan."""
    rng = make_rng(seed)
    vertices = sorted(lbg.vertices(), key=repr)
    n = max(2, lbg.n_global)
    params = ShiftParameters(beta=beta, n=n, radius_multiplier=radius_multiplier)
    shifts = Shifts.sample(vertices, params, seed=rng)

    center_of: Dict[Hashable, Hashable] = {}
    layer_of: Dict[Hashable, int] = {}
    members: Dict[Hashable, Set[Hashable]] = {}
    unclustered: Set[Hashable] = set(vertices)
    horizon = params.horizon

    for round_index in range(1, horizon + 1):
        for v in sorted(
            (v for v in unclustered if shifts.start_time[v] == round_index), key=repr
        ):
            center_of[v] = v
            layer_of[v] = 0
            members[v] = {v}
            unclustered.discard(v)
        senders = {v: (center_of[v], layer_of[v]) for v in center_of}
        receivers = list(unclustered)
        heard = lbg.local_broadcast(senders, receivers)
        for v, (cluster_id, layer) in heard.items():
            center_of[v] = cluster_id
            layer_of[v] = layer + 1
            members[cluster_id].add(v)
            unclustered.discard(v)

    for v in sorted(unclustered, key=repr):
        center_of[v] = v
        layer_of[v] = 0
        members[v] = {v}
    return Clustering(beta=beta, n_global=n, center_of=center_of,
                      layer_of=layer_of, members=members, shifts=shifts,
                      rounds_used=horizon)


def assert_same_clustering(got: Clustering, want: Clustering) -> None:
    # Dict and set comparisons ignore order; the lists pin it too.
    assert list(got.center_of.items()) == list(want.center_of.items())
    assert list(got.layer_of.items()) == list(want.layer_of.items())
    assert list(got.members) == list(want.members)
    assert got.members == want.members
    assert [list(m) for m in got.members.values()] == [
        list(m) for m in want.members.values()
    ]
    assert got.rounds_used == want.rounds_used
    assert got.shifts == want.shifts
    assert got.n_global == want.n_global


@pytest.mark.parametrize("family", FAMILIES)
def test_mpx_matches_oracle(family):
    for seed in SEEDS:
        graph = topology.scenario(family, N, seed=seed)
        for beta in BETAS:
            for multiplier in MULTIPLIERS:
                rng_new, rng_old = make_rng(seed), make_rng(seed)
                got = mpx_clustering(graph, beta, seed=rng_new,
                                     radius_multiplier=multiplier)
                want = oracle_mpx(graph, beta, seed=rng_old,
                                  radius_multiplier=multiplier)
                assert_same_clustering(got, want)
                assert rng_new.bit_generator.state == rng_old.bit_generator.state


@pytest.mark.parametrize("family", FAMILIES)
def test_mpx_with_supplied_shifts_matches_oracle(family):
    for seed in SEEDS:
        graph = topology.scenario(family, N, seed=seed)
        n = graph.number_of_nodes()
        for beta in BETAS:
            for multiplier in MULTIPLIERS:
                params = ShiftParameters(beta=beta, n=max(2, n),
                                         radius_multiplier=multiplier)
                shifts = Shifts.sample(graph.nodes, params, seed=seed + 1000)
                rng_new, rng_old = make_rng(seed), make_rng(seed)
                got = mpx_clustering(graph, beta, seed=rng_new,
                                     radius_multiplier=multiplier, shifts=shifts)
                want = oracle_mpx(graph, beta, seed=rng_old,
                                  radius_multiplier=multiplier, shifts=shifts)
                assert_same_clustering(got, want)
                assert rng_new.bit_generator.state == rng_old.bit_generator.state


def test_mpx_with_n_global_matches_oracle():
    graph = topology.grid_graph(9, 11)
    for seed in SEEDS:
        got = mpx_clustering(graph, 1 / 4, seed=seed, n_global=5000)
        want = oracle_mpx(graph, 1 / 4, seed=seed, n_global=5000)
        assert_same_clustering(got, want)


def test_mpx_on_non_integer_vertices_matches_oracle():
    """Tuple vertices exercise the ``repr`` ordering of a round's centers."""
    import networkx as nx

    graph = nx.grid_2d_graph(7, 9)
    for seed in SEEDS:
        for beta in BETAS:
            got = mpx_clustering(graph, beta, seed=seed)
            want = oracle_mpx(graph, beta, seed=seed)
            assert_same_clustering(got, want)


@pytest.mark.parametrize("family", ["grid", "geometric", "tree", "star", "complete"])
def test_distributed_mpx_matches_oracle(family):
    for seed in SEEDS:
        graph = topology.scenario(family, N, seed=seed)
        for beta in BETAS:
            lbg_new = PhysicalLBGraph(graph, seed=seed)
            lbg_old = PhysicalLBGraph(graph, seed=seed)
            rng_new, rng_old = make_rng(seed), make_rng(seed)
            got = distributed_mpx(lbg_new, beta, seed=rng_new)
            want = oracle_distributed_mpx(lbg_old, beta, seed=rng_old)
            assert_same_clustering(got, want)
            assert rng_new.bit_generator.state == rng_old.bit_generator.state
            assert lbg_new.ledger.snapshot() == lbg_old.ledger.snapshot()
            assert lbg_new.ledger.lb_rounds == lbg_old.ledger.lb_rounds
            assert (lbg_new.rng.bit_generator.state
                    == lbg_old.rng.bit_generator.state)
