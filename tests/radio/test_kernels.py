"""The slot kernel: one integer CSR gather, pinned against a plain loop.

Every vectorized tier resolves a slot through
:func:`repro.radio.kernels.gather_edges` and
:func:`repro.radio.kernels.counts_codes`: the fast engine over its own
CSR, the lockstep executor over the stacked CSR of a
:class:`~repro.radio.kernels.MegaBatchPlan` with each lane shifted into
its own column range.  The contract is exact int64 counts and codes per
listener, so the gather must agree **bitwise** with the most literal
implementation there is — one loop over transmitters, adding each
one's row into the counts and codes — on any topology, any transmitter
set, and any mix of lanes and members stacked into one call.
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
    counts_codes,
    default_kernel,
    gather_edges,
    sinr_arbitrate,
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


def _resolve(adj, tx):
    """One lane alone: the gather over its own CSR, no shift."""
    tx = np.asarray(tx, dtype=np.int64)
    return counts_codes(gather_edges(adj, tx, tx + 1), adj.n)


def _stacked(adjs, lanes):
    """Resolve ``lanes`` — ``(member, tx)`` pairs — over the stacked CSR
    of ``adjs``, lane ``j`` in its own column range, as the lockstep
    executor does: one gather, and one block reduction with every
    transmission in slot 0 and every column listening.  Returns the
    plan, the gather, per-lane column bases, the per-column counts and
    codes, and the grouped edges."""
    plan = MegaBatchPlan(adjs)
    sizes = [adjs[m].n for m, _ in lanes]
    bases = np.cumsum([0] + sizes)[:-1]
    size = int(sum(sizes))
    rows = [plan.row_base[m] + tx for m, tx in lanes]
    codes = [tx + 1 for _, tx in lanes]
    shifts = [np.full(tx.size, b) for (_, tx), b in zip(lanes, bases)]
    flat = [np.concatenate(x) if x else np.zeros(0, dtype=np.int64)
            for x in (rows, codes, shifts)]
    gathered = gather_edges(plan.stack, *flat)
    groups = plan.counts_codes_many(
        *flat, np.zeros(flat[0].size, dtype=np.int64),
        np.ones(size, dtype=np.int64))
    counts, codes = _scatter(size, groups.keys, groups.counts, groups.codes)
    return plan, gathered, bases, counts, codes, groups


def _scatter(size, keys, *values):
    """Per-group ``values`` as per-column vectors (zero off the keys)."""
    out = np.zeros((len(values), size), dtype=np.int64)
    out[:, keys] = values
    return out


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
        _assert_pair(_resolve(adj, tx), adj, tx)


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
    """Each family's lanes keep their own edges and columns when stacked.

    The family's lanes (two graph seeds, every transmitter set, listed
    in reverse order) sit between two lanes of another topology, so
    every row and column offset the gather applies is non-trivial.
    """
    other = _adjacency("star", 17)
    adjs = [other, _adjacency(name, 24, seed=5), _adjacency(name, 24, seed=9)]
    lanes = [(0, np.arange(other.n, dtype=np.int64))]
    for m, seed in ((1, 5), (2, 9)):
        for tx in _tx_sets(adjs[m], seed=seed):
            lanes.append((m, tx[::-1].copy()))
    lanes.append((0, np.array([0], dtype=np.int64)))

    plan, gathered, bases, counts, codes, _ = _stacked(adjs, lanes)
    assert plan.stack.n == sum(adj.n for adj in adjs)
    start = sender = 0
    for (m, tx), off in zip(lanes, bases):
        adj = adjs[m]
        rows = [adj.row(i) for i in tx]
        stop = start + sum(row.size for row in rows)
        np.testing.assert_array_equal(gathered.lens[sender:sender + tx.size],
                                      [row.size for row in rows])
        sender += tx.size
        want = np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64)
        np.testing.assert_array_equal(plan.stack.indices[gathered.pos[start:stop]],
                                      want)
        np.testing.assert_array_equal(gathered.cols[start:stop], want + off)
        np.testing.assert_array_equal(
            gathered.codes[start:stop],
            np.repeat(tx + 1, [row.size for row in rows]),
        )
        _assert_pair((counts[off:off + adj.n], codes[off:off + adj.n]), adj, tx)
        start = stop
    assert start == gathered.cols.size


def test_empty_lanes_and_empty_calls():
    topo = CompiledTopology(topology.scenario("grid", 16))
    empty = np.zeros(0, dtype=np.int64)
    lanes = [empty, np.array([5], dtype=np.int64), empty]
    for pair, tx in zip(topo.counts_codes_many(lanes), lanes):
        _assert_pair(pair, topo.adjacency, tx)
    assert topo.counts_codes_many([]) == []
    counts, codes = _resolve(topo.adjacency, empty)
    assert not counts.any() and not codes.any()
    _, gathered, _, counts, codes, groups = _stacked([topo.adjacency], [])
    assert gathered.cols.size == counts.size == codes.size == 0
    assert groups.keys.size == groups.pos.size == 0


def test_isolated_vertices():
    graph = nx.Graph()
    graph.add_nodes_from(range(8))
    graph.add_edges_from([(0, 1), (1, 2), (5, 6)])  # 3, 4 and 7 isolated
    adj = _compile(graph)
    for tx in ([3, 4, 7], [0, 3, 5], list(range(8))):
        tx = np.asarray(tx, dtype=np.int64)
        pair = _resolve(adj, tx)
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
    requests = []
    for m, adj in enumerate(adjs):
        for tx in _tx_sets(adj, seed=m):
            requests.append((m, tx))
    # Interleave members, repeat some, and keep the empty lanes.
    requests = requests[::2] + requests[1::2] + requests[:3]
    _, _, bases, counts, codes, _ = _stacked(adjs, requests)
    for (m, tx), off in zip(requests, bases):
        n = adjs[m].n
        _assert_pair((counts[off:off + n], codes[off:off + n]), adjs[m], tx)


def test_mega_plan_order_independent():
    adjs = [_adjacency("grid", 25), _adjacency("star", 17)]
    a = (0, np.array([0, 3], dtype=np.int64))
    b = (1, np.array([1], dtype=np.int64))
    _, _, _, ab_counts, ab_codes, _ = _stacked(adjs, [a, b])
    _, _, _, ba_counts, ba_codes, _ = _stacked(adjs, [b, a])
    for got, swapped in ((ab_counts, ba_counts), (ab_codes, ba_codes)):
        np.testing.assert_array_equal(got[:25], swapped[17:])
        np.testing.assert_array_equal(got[25:], swapped[:17])


def test_block_groups_match_loop_per_slot_and_column():
    """A block of several slots in one call: every (slot, column) key a
    listening column is reached in carries the loop's count and code
    for that slot, keys ascend, and a column stops receiving at its
    ``until`` slot."""
    adjs = [_adjacency("grid", 25), _adjacency("wheel", 20)]
    plan = MegaBatchPlan(adjs)
    bases, size = [0, 25], 45
    rng = np.random.default_rng(11)
    until = rng.integers(0, 4, size=size)
    rows, codes, shifts, slots, want = [], [], [], [], {}
    for slot in range(4):
        for m, (adj, off) in enumerate(zip(adjs, bases)):
            tx = np.flatnonzero(rng.random(adj.n) < 0.3).astype(np.int64)
            rows.append(plan.row_base[m] + tx)
            codes.append(tx + 1)
            shifts.append(np.full(tx.size, off))
            slots.append(np.full(tx.size, slot))
            for c, (count, code) in enumerate(zip(*loop_counts_codes(adj, tx))):
                if count and slot < until[off + c]:
                    want[slot * size + off + c] = (count, code)
    groups = plan.counts_codes_many(*(np.concatenate(x) for x in (
        rows, codes, shifts, slots)), until)
    assert groups.keys.tolist() == sorted(want)
    assert list(zip(groups.counts.tolist(), groups.codes.tolist())) == [
        want[k] for k in sorted(want)]
    assert 0 < len(want) < sum(x.size for x in rows)


def test_mega_plan_stacks_once_and_shares_one_member():
    """A one-member plan is its member's arrays, with no gain array for
    a binary member; a stacked plan lays the members' rows, edges and
    gains end to end (zero gains on binary members' edges)."""
    graph = topology.scenario("geometric", 20, seed=1)
    adj = _compile(graph)
    csr = SinrCsr.compile(SinrField(graph, SinrParams()), adj, list(graph.nodes))
    binary = MegaBatchPlan([adj])
    assert binary.stack is adj and binary.gains is None
    sinr = MegaBatchPlan([csr])
    assert sinr.stack is csr and sinr.gains is csr.gains
    star = _adjacency("star", 9)
    both = MegaBatchPlan([star, csr])
    assert both.row_base.tolist() == [0, star.n]
    np.testing.assert_array_equal(
        both.stack.indptr, np.concatenate([star.indptr, csr.indptr[1:] + star.nnz]))
    np.testing.assert_array_equal(
        both.stack.indices, np.concatenate([star.indices, csr.indices]))
    np.testing.assert_array_equal(
        both.gains, np.concatenate([np.zeros(star.nnz, dtype=np.int64), csr.gains]))


def test_mega_plan_requires_members():
    with pytest.raises(ConfigurationError, match="at least one member"):
        MegaBatchPlan([])


# ---------------------------------------------------------------------------
# SINR arbitration shares the gather
# ---------------------------------------------------------------------------

def _arbitrate_stacked(blocks):
    """Arbitrate every ``(csr, tx, levels)`` block as one lane of one
    stacked gather, as the lockstep executor does; per block
    ``(counts, winner, deliver)``."""
    csrs = [csr for csr, _, _ in blocks]
    plan, _, bases, counts, _, groups = _stacked(
        csrs, [(m, tx) for m, (_, tx, _) in enumerate(blocks)])
    sizes = [csr.n for csr in csrs]
    mult = np.zeros(int(sum(sizes)), dtype=np.int64)
    for (csr, tx, levels), off in zip(blocks, bases):
        mult[off + tx] = csr.mults[levels]
    lane_base = np.repeat(bases, sizes)
    signal = plan.gains[groups.pos] * mult[
        lane_base[groups.cols] + groups.edge_codes - 1]
    winner, deliver = _scatter(int(sum(sizes)), groups.keys, *sinr_arbitrate_many(
        signal, groups,
        np.repeat([csr.threshold_milli for csr in csrs], sizes)[groups.keys],
        np.repeat([csr.noise_floor for csr in csrs], sizes)[groups.keys],
    ))
    return [
        (counts[off:off + csr.n], winner[off:off + csr.n],
         deliver[off:off + csr.n].astype(bool))
        for csr, off in zip(csrs, bases)
    ]


def test_sinr_counts_match_loop_across_fused_blocks():
    blocks = []
    for m, (name, n) in enumerate(TOPOLOGIES[:3]):
        graph = topology.scenario(name, n)
        adj = _compile(graph)
        csr = SinrCsr.compile(SinrField(graph, SinrParams()), adj,
                              list(graph.nodes))
        for tx in _tx_sets(adj, seed=m):
            blocks.append((csr, tx, np.zeros(tx.shape, dtype=np.int64)))
    for (csr, tx, levels), stacked in zip(blocks, _arbitrate_stacked(blocks)):
        want_counts, _ = loop_counts_codes(csr, tx)
        alone = sinr_arbitrate(csr, tx, levels)
        for got, want in zip(stacked, alone):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(stacked[0], want_counts)
        assert not stacked[2][want_counts == 0].any()


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
        blocks, fields, _arbitrate_stacked(blocks)
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
