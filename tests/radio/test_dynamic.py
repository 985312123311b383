"""Dynamic membership: schedule validation, compiled-timeline determinism,
and bit-identical patch application by both engines.

The experiment-layer differential suite
(``tests/experiments/test_dynamic_results.py``) proves byte-identical
RunResults; this module pins the layer underneath — the
:class:`DynamicSchedule` config surface, the :class:`DynamicTopology`
compile/advance contract, and the incremental CSR row patching the fast
engine applies (:meth:`CSRAdjacency.with_row_updates`).
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.core import decay_bfs
from repro.errors import ConfigurationError, SimulationError
from repro.radio import make_network, topology
from repro.radio.dynamic import (
    DynamicSchedule,
    DynamicTopology,
    TopologyPatch,
    build_dynamic_topology,
    coerce_dynamic_schedule,
    named_dynamic_schedules,
)
from repro.radio.kernels.base import CSRAdjacency


# ---------------------------------------------------------------------------
# DynamicSchedule: validation, round-trip, coercion
# ---------------------------------------------------------------------------

class TestDynamicSchedule:
    def test_defaults_are_null(self):
        sched = DynamicSchedule()
        assert sched.is_null()
        assert coerce_dynamic_schedule(sched) is None
        assert coerce_dynamic_schedule("none") is None
        assert coerce_dynamic_schedule(None) is None

    @pytest.mark.parametrize("field,value", [
        ("join_fraction", -0.1),
        ("join_fraction", 1.5),
        ("leave_fraction", "half"),
        ("rewire_fraction", True),
        ("join_start", 0),
        ("join_every", -1),
        ("attach_edges", 0),
        ("leave_start", 1.5),
        ("rewire_period", -2),
    ])
    def test_bad_knobs_rejected(self, field, value):
        with pytest.raises(ConfigurationError):
            DynamicSchedule(**{field: value})

    def test_rewire_period_without_fraction_rejected(self):
        with pytest.raises(ConfigurationError, match="rewire_fraction"):
            DynamicSchedule(rewire_period=4)

    def test_round_trip_through_dict(self):
        for name, sched in named_dynamic_schedules().items():
            assert DynamicSchedule.from_dict(sched.to_dict()) == sched, name

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigurationError, match="unknown dynamic"):
            DynamicSchedule.from_dict({"join_fraction": 0.5, "bogus": 1})

    def test_coerce_accepts_all_forms(self):
        preset = named_dynamic_schedules()["churn_mix"]
        assert coerce_dynamic_schedule("churn_mix") == preset
        assert coerce_dynamic_schedule(preset.to_dict()) == preset
        assert coerce_dynamic_schedule(preset) is preset

    def test_coerce_rejects_unknown_preset_and_type(self):
        with pytest.raises(ConfigurationError, match="unknown dynamic"):
            coerce_dynamic_schedule("no_such_preset")
        with pytest.raises(ConfigurationError):
            coerce_dynamic_schedule(42)

    def test_hashable_and_picklable(self):
        import pickle
        sched = named_dynamic_schedules()["join_wave"]
        assert hash(sched) == hash(DynamicSchedule.from_dict(sched.to_dict()))
        assert pickle.loads(pickle.dumps(sched)) == sched


# ---------------------------------------------------------------------------
# CSRAdjacency incremental row patching
# ---------------------------------------------------------------------------

class TestCSRRowUpdates:
    def _compile(self, graph):
        index = {v: v for v in sorted(graph.nodes)}
        return CSRAdjacency.from_graph(graph, index)

    def test_with_row_updates_matches_full_recompile(self):
        rng = np.random.default_rng(5)
        graph = nx.gnp_random_graph(12, 0.3, seed=3)
        csr = self._compile(graph)

        # Mutate the graph: drop vertex 4's edges, wire 4-0 and 4-7.
        mutated = graph.copy()
        mutated.remove_edges_from(list(mutated.edges(4)))
        mutated.add_edge(4, 0)
        mutated.add_edge(4, 7)

        touched = {4, 0, 7} | set(graph.neighbors(4))
        updates = {
            v: np.array(sorted(mutated.neighbors(v)), dtype=np.int64)
            for v in touched
        }
        patched = csr.with_row_updates(updates)
        recompiled = self._compile(mutated)
        np.testing.assert_array_equal(patched.indptr, recompiled.indptr)
        np.testing.assert_array_equal(patched.indices, recompiled.indices)
        # The original is untouched (persistent-structure contract).
        np.testing.assert_array_equal(
            csr.indices, self._compile(graph).indices
        )

    def test_row_returns_sorted_neighbors(self):
        graph = nx.path_graph(5)
        csr = self._compile(graph)
        np.testing.assert_array_equal(csr.row(2), [1, 3])
        np.testing.assert_array_equal(csr.row(0), [1])

    def test_empty_updates_is_identity(self):
        graph = nx.cycle_graph(6)
        csr = self._compile(graph)
        patched = csr.with_row_updates({})
        np.testing.assert_array_equal(patched.indptr, csr.indptr)
        np.testing.assert_array_equal(patched.indices, csr.indices)


# ---------------------------------------------------------------------------
# DynamicTopology: compile determinism and the advance() contract
# ---------------------------------------------------------------------------

def _drain(dyn, slots):
    """Advance ``dyn`` through ``slots`` slots, returning the patches."""
    return [dyn.advance(s) for s in range(slots)]


class TestDynamicTopology:
    def test_identical_inputs_compile_identical_timelines(self):
        graph = topology.scenario("grid", 25, seed=7)
        sched = named_dynamic_schedules()["churn_mix"]
        a = DynamicTopology(sched, graph, seed=11)
        b = DynamicTopology(sched, graph, seed=11)
        ga, gb = a.initial_graph(), b.initial_graph()
        assert sorted(ga.edges) == sorted(gb.edges)
        assert a.inactive == b.inactive
        assert a.max_degree_bound == b.max_degree_bound
        assert _drain(a, 40) == _drain(b, 40)
        assert a.expected_adjacency() == b.expected_adjacency()

    def test_different_seeds_differ(self):
        graph = topology.scenario("grid", 25, seed=7)
        sched = named_dynamic_schedules()["churn_mix"]
        a = DynamicTopology(sched, graph, seed=1)
        b = DynamicTopology(sched, graph, seed=2)
        assert a.inactive != b.inactive or _drain(a, 40) != _drain(b, 40)

    def test_vertex_zero_never_joins_or_leaves(self):
        graph = topology.scenario("expander", 30, seed=3)
        sched = DynamicSchedule(join_fraction=0.9, leave_fraction=0.1)
        for seed in range(5):
            dyn = DynamicTopology(sched, graph, seed=seed)
            assert 0 not in dyn.inactive
            for patch in _drain(dyn, 80):
                if patch is not None:
                    assert 0 not in patch.joined
                    assert 0 not in patch.left
            assert 0 not in dyn.inactive

    def test_advance_out_of_order_rejected(self):
        graph = topology.scenario("path", 8, seed=0)
        dyn = DynamicTopology(
            DynamicSchedule(join_fraction=0.25), graph, seed=0
        )
        dyn.advance(0)
        with pytest.raises(SimulationError, match="expected 1"):
            dyn.advance(0)
        with pytest.raises(SimulationError, match="in order"):
            dyn.advance(5)

    def test_initial_graph_excludes_joiner_edges(self):
        graph = topology.scenario("grid", 16, seed=2)
        sched = DynamicSchedule(join_fraction=0.25, join_start=3)
        dyn = DynamicTopology(sched, graph, seed=4)
        initial = dyn.initial_graph()
        assert initial.number_of_nodes() == 16  # full vertex set, always
        for v in dyn.inactive:
            assert initial.degree(v) == 0
        # A fresh object per call: mutating one copy never leaks.
        other = dyn.initial_graph()
        initial.add_edge(0, 15)
        assert not other.has_edge(0, 15)

    def test_patch_edges_canonical(self):
        graph = topology.scenario("grid", 25, seed=7)
        sched = named_dynamic_schedules()["churn_mix"]
        dyn = DynamicTopology(sched, graph, seed=11)
        for patch in _drain(dyn, 40):
            if patch is None:
                continue
            assert list(patch.added) == sorted(set(patch.added))
            assert list(patch.removed) == sorted(set(patch.removed))
            for u, v in patch.added + patch.removed:
                assert u < v

    def test_leavers_lose_all_edges_joiners_gain_attachments(self):
        graph = topology.scenario("grid", 25, seed=7)
        sched = named_dynamic_schedules()["churn_mix"]
        dyn = DynamicTopology(sched, graph, seed=11)
        for patch in _drain(dyn, 60):
            if patch is None:
                continue
            adj = dyn.expected_adjacency()
            for v in patch.left:
                assert adj[v] == frozenset()
            # A joiner arrives with at most attach_edges fresh links of
            # its own in this slot's patch (it may gain more later when
            # subsequent joiners attach *to* it).
            for v in patch.joined:
                own = sum(1 for e in patch.added if v in e)
                assert 1 <= own <= sched.attach_edges * len(patch.joined)

    def test_max_degree_bound_exact_without_mobility(self):
        graph = topology.scenario("grid", 25, seed=7)
        sched = named_dynamic_schedules()["churn_mix"]
        dyn = DynamicTopology(sched, graph, seed=11)
        bound = dyn.max_degree_bound
        observed = max(
            len(nbrs) for nbrs in dyn.expected_adjacency().values()
        )
        replay = DynamicTopology(sched, graph, seed=11)
        for slot in range(60):
            replay.advance(slot)
            observed = max(
                observed,
                max(len(n) for n in replay.expected_adjacency().values()),
            )
        assert observed == bound

    def test_max_degree_bound_trivial_with_mobility(self):
        graph = topology.scenario("geometric", 20, seed=5)
        dyn = DynamicTopology(
            named_dynamic_schedules()["mobility"], graph, seed=0
        )
        assert dyn.max_degree_bound == 19

    def test_mobility_requires_geometric_scenario(self):
        graph = topology.scenario("grid", 16, seed=0)
        with pytest.raises(ConfigurationError, match="geometric"):
            DynamicTopology(
                named_dynamic_schedules()["mobility"], graph, seed=0
            )

    def test_mobility_rewires_deterministically(self):
        graph = topology.scenario("geometric", 24, seed=5)
        sched = DynamicSchedule(rewire_period=4, rewire_fraction=0.25)
        a = DynamicTopology(sched, graph, seed=9)
        b = DynamicTopology(sched, graph, seed=9)
        patches_a = _drain(a, 20)
        patches_b = _drain(b, 20)
        assert patches_a == patches_b
        assert any(
            p is not None and (p.added or p.removed) for p in patches_a
        ), "mobility produced no rewiring in 20 slots"

    def test_mobility_links_by_the_generator_predicate(self):
        graph = topology.scenario("geometric", 60, seed=2)
        radius = graph.graph["radius"]
        dyn = DynamicTopology(
            DynamicSchedule(rewire_period=2, rewire_fraction=0.3), graph,
            seed=4)
        movers = set()
        for slot in range(12):
            before = dict(dyn._pos)
            dyn.advance(slot)
            pos = dyn._pos
            moved = {v for v in pos if pos[v] != before[v]}
            movers |= moved
            adjacency = dyn.expected_adjacency()
            for v in moved:
                assert adjacency[v] == {
                    u for u in pos if u != v and topology.within_radius(
                        pos[u][0] - pos[v][0], pos[u][1] - pos[v][1], radius)
                }, (slot, v)
        assert movers, "mobility moved no vertex in 12 slots"

    def test_non_contiguous_labels_rejected(self):
        graph = nx.Graph()
        graph.add_edge("a", "b")
        with pytest.raises(ConfigurationError, match="contiguous"):
            DynamicTopology(DynamicSchedule(join_fraction=0.5), graph)

    def test_build_returns_none_for_null(self):
        graph = topology.scenario("path", 6, seed=0)
        assert build_dynamic_topology(None, graph) is None
        assert build_dynamic_topology("none", graph) is None
        assert build_dynamic_topology(DynamicSchedule(), graph) is None
        built = build_dynamic_topology("join_wave", graph, seed=1)
        assert isinstance(built, DynamicTopology)


# ---------------------------------------------------------------------------
# Engine integration: both engines apply identical patch sequences
# ---------------------------------------------------------------------------

ENGINE_NAMES = ("reference", "fast")


def _run_dynamic_bfs(engine_name, preset, seed=13, family="grid", n=25):
    graph = topology.scenario(family, n, seed=7)
    dyn = build_dynamic_topology(preset, graph, seed=seed)
    net = make_network(graph if dyn is None else dyn.initial_graph(),
                       engine=engine_name, dynamic=dyn)
    labels = decay_bfs(net, 0, depth_budget=n, seed=99)
    return labels, net


class TestEngineIntegration:
    @pytest.mark.parametrize("preset", ["join_wave", "leave_wave", "churn_mix"])
    def test_engines_agree_under_dynamic_topology(self, preset):
        ref_labels, ref_net = _run_dynamic_bfs("reference", preset)
        fast_labels, fast_net = _run_dynamic_bfs("fast", preset)
        assert ref_labels == fast_labels
        assert ref_net.slot == fast_net.slot
        assert ref_net.ledger.snapshot() == fast_net.ledger.snapshot()
        assert ref_net.adjacency_snapshot() == fast_net.adjacency_snapshot()

    @pytest.mark.parametrize("engine_name", ENGINE_NAMES)
    def test_engine_snapshot_tracks_expected_adjacency(self, engine_name):
        graph = topology.scenario("grid", 25, seed=7)
        dyn = build_dynamic_topology("churn_mix", graph, seed=13)
        net = make_network(dyn.initial_graph(), engine=engine_name,
                           dynamic=dyn)
        decay_bfs(net, 0, depth_budget=25, seed=99)
        assert net.adjacency_snapshot() == dyn.expected_adjacency()

    @pytest.mark.parametrize("engine_name", ENGINE_NAMES)
    def test_max_degree_uses_dynamic_bound(self, engine_name):
        graph = topology.scenario("grid", 25, seed=7)
        dyn = build_dynamic_topology("churn_mix", graph, seed=13)
        net = make_network(dyn.initial_graph(), engine=engine_name,
                           dynamic=dyn)
        assert net.max_degree == dyn.max_degree_bound

    def test_dynamic_vertex_count_mismatch_rejected(self):
        graph = topology.scenario("grid", 25, seed=7)
        dyn = build_dynamic_topology("churn_mix", graph, seed=13)
        smaller = topology.scenario("path", 10, seed=0)
        with pytest.raises(ConfigurationError, match="25 vertices"):
            make_network(smaller, engine="reference", dynamic=dyn)
