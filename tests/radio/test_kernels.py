"""The slot kernel: one integer CSR gather, pinned against a plain loop.

Every vectorized tier resolves a slot through
:func:`repro.radio.kernels.counts_codes_blocks`.  Its contract is exact
int64 counts and codes per listener, so it must agree **bitwise** with
the most literal implementation there is — one loop over transmitters,
adding each one's row into the counts and codes — on any topology, any
transmitter set, and any mix of lanes and members fused into one call.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.radio import topology
from repro.radio.engine import ENGINES, available_engines, make_network
from repro.radio.fast_engine import CompiledTopology
from repro.radio.kernels import (
    CSRAdjacency,
    MegaBatchPlan,
    counts_codes_blocks,
    default_kernel,
    gather_edges,
    sinr_arbitrate_many,
)
from repro.radio.kernels.sinr_csr import SinrCsr
from repro.radio.sinr import (
    SinrField,
    SinrParams,
    named_sinr_params,
    resolve_sinr,
)

TOPOLOGIES = [("grid", 25), ("star", 17), ("barbell", 18), ("wheel", 20),
              ("path", 12), ("complete", 9)]


def loop_counts_codes(adj, tx_idx):
    """The oracle: one row at a time, int64 accumulation."""
    counts = np.zeros(adj.n, dtype=np.int64)
    codes = np.zeros(adj.n, dtype=np.int64)
    indptr, indices = adj.indptr, adj.indices
    for i in tx_idx:
        nbrs = indices[indptr[i]:indptr[i + 1]]
        counts[nbrs] += 1
        codes[nbrs] += i + 1
    return counts, codes


def _compile(graph):
    index = {v: i for i, v in enumerate(graph.nodes)}
    return CSRAdjacency.from_graph(graph, index)


def _adjacency(name, n, seed=0):
    return _compile(topology.scenario(name, n, seed=seed))


def _tx_sets(adj, seed=0):
    """A spread of transmitter sets: empty, singleton, random, full."""
    rng = np.random.default_rng(seed)
    full = np.arange(adj.n, dtype=np.int64)
    some = rng.choice(adj.n, size=max(1, adj.n // 3), replace=False)
    return [np.zeros(0, dtype=np.int64), full[:1], some.astype(np.int64), full]


def _assert_pair(got, adj, tx):
    counts, codes = got
    want_counts, want_codes = loop_counts_codes(adj, tx)
    assert counts.dtype == np.int64 and codes.dtype == np.int64
    np.testing.assert_array_equal(counts, want_counts)
    np.testing.assert_array_equal(codes, want_codes)


# ---------------------------------------------------------------------------
# The gather against the loop
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", topology.scenario_names())
def test_gather_matches_loop_on_every_family(name):
    adj = _adjacency(name, 24, seed=5)
    for tx in _tx_sets(adj, seed=1):
        (pair,) = counts_codes_blocks([(adj, tx)])
        _assert_pair(pair, adj, tx)


@pytest.mark.parametrize("name,n", TOPOLOGIES)
def test_compiled_topology_single_and_many_lanes(name, n):
    topo = CompiledTopology(topology.scenario(name, n))
    tx_lists = _tx_sets(topo.adjacency, seed=n)
    for tx in tx_lists:
        _assert_pair(topo.counts_codes(tx), topo.adjacency, tx)
    many = topo.counts_codes_many(tx_lists)
    assert len(many) == len(tx_lists)
    for pair, tx in zip(many, tx_lists):
        _assert_pair(pair, topo.adjacency, tx)


@pytest.mark.parametrize("name", topology.scenario_names())
def test_fused_blocks_match_loop_on_every_family(name):
    """Each family's blocks keep their own edges and columns when fused.

    The family's lanes (two graph seeds, every transmitter set, listed
    in reverse order) sit between two blocks of another topology, so
    every offset the gather applies is non-trivial.
    """
    other = _adjacency("star", 17)
    blocks = [(other, np.arange(other.n, dtype=np.int64))]
    for seed in (5, 9):
        adj = _adjacency(name, 24, seed=seed)
        for tx in _tx_sets(adj, seed=seed):
            blocks.append((adj, tx[::-1].copy()))
    blocks.append((other, np.array([0], dtype=np.int64)))

    gathered = gather_edges(blocks)
    assert gathered.size == sum(adj.n for adj, _ in blocks)
    start = 0
    for (adj, tx), (pos, lens), (off, n) in zip(
        blocks, gathered.edges, gathered.spans
    ):
        assert n == adj.n
        rows = [adj.row(i) for i in tx]
        np.testing.assert_array_equal(lens, [row.size for row in rows])
        want = np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64)
        np.testing.assert_array_equal(adj.indices[pos], want)
        stop = start + int(lens.sum())
        np.testing.assert_array_equal(gathered.cols[start:stop], want + off)
        np.testing.assert_array_equal(
            gathered.codes[start:stop], np.repeat(tx + 1, lens)
        )
        start = stop
    assert start == gathered.cols.size

    for pair, (adj, tx) in zip(counts_codes_blocks(blocks), blocks):
        _assert_pair(pair, adj, tx)


def test_empty_lanes_and_empty_calls():
    topo = CompiledTopology(topology.scenario("grid", 16))
    empty = np.zeros(0, dtype=np.int64)
    lanes = [empty, np.array([5], dtype=np.int64), empty]
    for pair, tx in zip(topo.counts_codes_many(lanes), lanes):
        _assert_pair(pair, topo.adjacency, tx)
    assert topo.counts_codes_many([]) == []
    assert counts_codes_blocks([]) == []


def test_isolated_vertices():
    graph = nx.Graph()
    graph.add_nodes_from(range(8))
    graph.add_edges_from([(0, 1), (1, 2), (5, 6)])  # 3, 4 and 7 isolated
    adj = _compile(graph)
    for tx in ([3, 4, 7], [0, 3, 5], list(range(8))):
        tx = np.asarray(tx, dtype=np.int64)
        (pair,) = counts_codes_blocks([(adj, tx)])
        _assert_pair(pair, adj, tx)
        assert pair[0][[3, 4, 7]].tolist() == [0, 0, 0]


def test_unique_sender_decode_invariant():
    """Where count == 1, code - 1 is the unique transmitting neighbor."""
    topo = CompiledTopology(topology.scenario("star", 17))
    tx = np.array([1, 2], dtype=np.int64)  # two leaves transmit
    counts, codes = topo.counts_codes(tx)
    assert counts[0] == 2 and (counts == 2).sum() == 1  # only the hub
    unique = counts == 1
    assert not unique.any() or np.isin(codes[unique] - 1, tx).all()


def test_patch_rows_resolves_on_the_new_adjacency():
    graph = topology.scenario("path", 6)
    topo = CompiledTopology(graph)
    topo.patch_rows({0: np.array([1, 5], dtype=np.int64),
                     5: np.array([0, 4], dtype=np.int64)})
    graph.add_edge(0, 5)
    tx = np.array([0, 2], dtype=np.int64)
    _assert_pair(topo.counts_codes(tx), _compile(graph), tx)


def test_default_kernel_names_the_gather():
    assert default_kernel().name == "numpy"


# ---------------------------------------------------------------------------
# CSR compilation
# ---------------------------------------------------------------------------

def test_csr_adjacency_matches_scipy_layout():
    scipy_sparse = pytest.importorskip("scipy.sparse")

    graph = topology.scenario("grid", 25)
    index = {v: i for i, v in enumerate(graph.nodes)}
    adj = _adjacency("grid", 25)
    ref = scipy_sparse.csr_array(
        nx.to_scipy_sparse_array(graph, nodelist=list(index), format="csr",
                                 dtype=np.int64)
    )
    ref.sort_indices()
    np.testing.assert_array_equal(adj.indptr, ref.indptr)
    np.testing.assert_array_equal(adj.indices, ref.indices)
    assert adj.nnz == 2 * graph.number_of_edges()


# ---------------------------------------------------------------------------
# Mega-batch plans: mixed members in one call
# ---------------------------------------------------------------------------

def test_mega_plan_mixed_members_match_loop():
    adjs = [_adjacency(name, n) for name, n in TOPOLOGIES]
    plan = MegaBatchPlan(adjs)
    requests = []
    for m, adj in enumerate(adjs):
        for tx in _tx_sets(adj, seed=m):
            requests.append((m, tx))
    # Interleave members, repeat some, and keep the empty lanes.
    requests = requests[::2] + requests[1::2] + requests[:3]
    resolved = plan.counts_codes_many(requests)
    assert len(resolved) == len(requests)
    for (m, tx), pair in zip(requests, resolved):
        _assert_pair(pair, adjs[m], tx)


def test_mega_plan_order_independent():
    plan = MegaBatchPlan([_adjacency("grid", 25), _adjacency("star", 17)])
    a = (0, np.array([0, 3], dtype=np.int64))
    b = (1, np.array([1], dtype=np.int64))
    ab = plan.counts_codes_many([a, b])
    ba = plan.counts_codes_many([b, a])
    for (ca, xa), (cb, xb) in zip(ab, reversed(ba)):
        np.testing.assert_array_equal(ca, cb)
        np.testing.assert_array_equal(xa, xb)


def test_mega_plan_requires_members():
    with pytest.raises(ConfigurationError, match="at least one member"):
        MegaBatchPlan([])


# ---------------------------------------------------------------------------
# SINR arbitration shares the gather
# ---------------------------------------------------------------------------

def test_sinr_counts_match_loop_across_fused_blocks():
    blocks = []
    for m, (name, n) in enumerate(TOPOLOGIES[:3]):
        graph = topology.scenario(name, n)
        adj = _compile(graph)
        csr = SinrCsr.compile(SinrField(graph, SinrParams()), adj,
                              list(graph.nodes))
        for tx in _tx_sets(adj, seed=m):
            blocks.append((csr, tx, np.zeros(tx.shape, dtype=np.int64)))
    for (csr, tx, _), (counts, _, deliver) in zip(
        blocks, sinr_arbitrate_many(blocks)
    ):
        want_counts, _ = loop_counts_codes(csr, tx)
        np.testing.assert_array_equal(counts, want_counts)
        assert not deliver[want_counts == 0].any()


@pytest.mark.parametrize("preset", sorted(named_sinr_params()))
def test_sinr_arbitration_matches_reference_listener(preset):
    """Fused SINR arbitration == :func:`resolve_sinr` at every listener.

    Random power levels on geometric and geometry-free topologies; the
    reference resolves each listener from its transmitting neighbors'
    ``gain * power`` signals in plain Python ints.
    """
    params = named_sinr_params()[preset]
    rng = np.random.default_rng(7)
    blocks, fields = [], []
    for name, n in [("geometric", 24), ("poisson_cluster", 24), ("grid", 25)]:
        graph = topology.scenario(name, n, seed=3)
        vertices = list(graph.nodes)
        adj = CSRAdjacency.from_graph(
            graph, {v: i for i, v in enumerate(vertices)}
        )
        field = SinrField(graph, params)
        csr = SinrCsr.compile(field, adj, vertices)
        for tx in _tx_sets(adj, seed=n):
            levels = rng.integers(0, params.levels, size=tx.size)
            blocks.append((csr, tx, levels.astype(np.int64)))
            fields.append((field, vertices))

    outcomes = set()
    for (csr, tx, levels), (field, vertices), (counts, winner, deliver) in zip(
        blocks, fields, sinr_arbitrate_many(blocks)
    ):
        level_of = dict(zip(tx.tolist(), levels.tolist()))
        for v in range(csr.n):
            contributions = [
                (u, field.gain(vertices[u], vertices[v])
                 * params.power_levels[level_of[u]])
                for u in csr.row(v).tolist() if u in level_of
            ]
            ref = resolve_sinr(contributions, params)
            assert counts[v] == len(contributions)
            assert bool(deliver[v]) == ref.received
            if ref.received:
                assert winner[v] - 1 == ref.message
            outcomes.add(ref.feedback)
    assert len(outcomes) == 3  # silence, delivery and noise all occur


# ---------------------------------------------------------------------------
# Engine registry
# ---------------------------------------------------------------------------

def test_engine_registry_surface():
    assert set(available_engines()) >= {"reference", "fast"}
    for name in available_engines():
        assert ENGINES[name].name == name
    with pytest.raises(ConfigurationError, match="unknown engine"):
        make_network(topology.scenario("path", 6), engine="warp")


def test_make_network_uses_registry():
    graph = topology.scenario("path", 6)
    assert make_network(graph, engine="fast").name == "fast"
    assert make_network(graph, engine="reference").name == "reference"
    with pytest.raises(ConfigurationError, match="unknown engine"):
        make_network(graph, engine="warp")
