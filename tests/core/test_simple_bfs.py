"""Tests for the baseline BFS algorithms."""

import math

import networkx as nx
import pytest

from repro.core import decay_bfs, trivial_bfs
from repro.errors import ConfigurationError
from repro.primitives import PhysicalLBGraph
from repro.radio import RadioNetwork, topology


class TestTrivialBFS:
    def test_matches_networkx(self, lbg_path50, path50):
        labels = trivial_bfs(lbg_path50, [0], 49)
        truth = nx.single_source_shortest_path_length(path50, 0)
        assert all(labels[v] == truth[v] for v in path50)

    def test_grid(self, lbg_grid8, grid8):
        labels = trivial_bfs(lbg_grid8, [0], 20)
        truth = nx.single_source_shortest_path_length(grid8, 0)
        assert all(labels[v] == truth[v] for v in grid8)

    def test_multi_source(self, lbg_grid8, grid8):
        sources = [0, 63]
        labels = trivial_bfs(lbg_grid8, sources, 20)
        truth = nx.multi_source_dijkstra_path_length(grid8, sources)
        assert all(labels[v] == truth[v] for v in grid8)

    def test_depth_budget_truncates(self, lbg_path50):
        labels = trivial_bfs(lbg_path50, [0], 10)
        assert labels[10] == 10
        assert math.isinf(labels[11])

    def test_active_set_restricts_paths(self, path50):
        """Distances are within the induced subgraph G[A]."""
        lbg = PhysicalLBGraph(path50, seed=0)
        active = set(range(20))  # cut the path at 19|20
        labels = trivial_bfs(lbg, [0], 49, active=active)
        assert labels[19] == 19
        assert 25 not in labels  # outside active: not reported

    def test_active_gap_unreachable(self, path50):
        lbg = PhysicalLBGraph(path50, seed=0)
        active = set(range(10)) | set(range(20, 30))  # hole at 10..19
        labels = trivial_bfs(lbg, [0], 49, active=active)
        assert all(math.isinf(labels[v]) for v in range(20, 30))

    def test_energy_linear_in_distance(self, lbg_path50):
        """The Theta(D) energy profile: far vertices listen every round."""
        trivial_bfs(lbg_path50, [0], 49)
        assert lbg_path50.ledger.device(49).lb_participations >= 48

    def test_no_sources_rejected(self, lbg_path50):
        with pytest.raises(ConfigurationError):
            trivial_bfs(lbg_path50, [], 10)

    def test_zero_budget(self, lbg_path50):
        labels = trivial_bfs(lbg_path50, [0], 0)
        assert labels[0] == 0
        assert math.isinf(labels[1])


class TestDecayBFS:
    def test_matches_networkx_on_path(self):
        g = topology.path_graph(12)
        net = RadioNetwork(g)
        labels = decay_bfs(net, 0, 11, failure_probability=1e-4, seed=0)
        truth = nx.single_source_shortest_path_length(g, 0)
        assert all(labels[v] == truth[v] for v in g)

    def test_matches_networkx_on_grid(self):
        g = topology.grid_graph(4, 5)
        net = RadioNetwork(g)
        labels = decay_bfs(net, 0, 10, failure_probability=1e-4, seed=1)
        truth = nx.single_source_shortest_path_length(g, 0)
        assert all(labels[v] == truth[v] for v in g)

    def test_multi_source(self):
        """API symmetry with trivial_bfs: an iterable of sources works."""
        g = topology.grid_graph(4, 5)
        net = RadioNetwork(g)
        sources = [0, 19]
        labels = decay_bfs(net, sources, 10, failure_probability=1e-4, seed=3)
        truth = nx.multi_source_dijkstra_path_length(g, sources)
        assert all(labels[v] == truth[v] for v in g)

    def test_multi_source_set(self):
        g = topology.path_graph(15)
        net = RadioNetwork(g)
        labels = decay_bfs(net, {0, 14}, 14, failure_probability=1e-4, seed=4)
        assert labels[7] == 7.0
        assert labels[0] == labels[14] == 0.0

    def test_empty_sources_rejected(self):
        g = topology.path_graph(3)
        with pytest.raises(ConfigurationError):
            decay_bfs(RadioNetwork(g), [], 5)

    def test_stray_source_in_iterable_rejected(self):
        g = topology.path_graph(3)
        with pytest.raises(ConfigurationError):
            decay_bfs(RadioNetwork(g), [0, 99], 5)

    def test_absent_string_source_not_decomposed(self):
        """A typo'd string vertex must fail, not split into characters."""
        g = nx.relabel_nodes(topology.path_graph(3), {0: "a", 1: "b", 2: "c"})
        net = RadioNetwork(g)
        assert decay_bfs(net, "a", 2, seed=0)["b"] == 1.0
        with pytest.raises(ConfigurationError):
            decay_bfs(net, "ac", 2)

    def test_absent_tuple_source_not_decomposed(self):
        """Tuple-labelled vertices are single sources, never collections."""
        g = nx.relabel_nodes(topology.path_graph(3), {i: (0, i) for i in range(3)})
        net = RadioNetwork(g)
        assert decay_bfs(net, (0, 0), 2, seed=0)[(0, 1)] == 1.0
        with pytest.raises(ConfigurationError):
            decay_bfs(net, (0, 9), 2)

    def test_slot_energy_accumulates(self):
        g = topology.path_graph(10)
        net = RadioNetwork(g)
        decay_bfs(net, 0, 9, seed=2)
        assert net.ledger.max_slots() > 0
        # Time is O(D log Delta log 1/f) slots.
        assert net.ledger.time_slots > 9

    def test_unknown_source(self):
        g = topology.path_graph(3)
        net = RadioNetwork(g)
        with pytest.raises(ConfigurationError):
            decay_bfs(net, 99, 5)

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_one_stream_holder_equals_an_eager_spawn_per_phase(self, engine):
        """``decay_bfs`` derives phase ``p``'s device streams lazily from
        one holder; that is byte-identical to handing the protocol
        Generator to every phase, which spawns ``n`` children eagerly."""
        from repro.core.simple_bfs import _settle, _wavefront_round
        from repro.primitives.decay import run_decay_local_broadcast
        from repro.radio import make_network
        from repro.rng import make_rng

        g = topology.scenario("grid", 36)
        lazy_net = make_network(g, engine=engine)
        lazy = decay_bfs(lazy_net, 0, 12, failure_probability=1e-2, seed=7)

        eager_net = make_network(g, engine=engine)
        rng = make_rng(7)
        eager = {0: 0.0}
        for d in range(12):
            round_ = _wavefront_round(eager, d, g.nodes)
            if round_ is None:
                break
            _settle(eager, run_decay_local_broadcast(
                eager_net, *round_, failure_probability=1e-2, seed=rng))
        assert rng.bit_generator.seed_seq.n_children_spawned == 36 * d
        for v in g.nodes:
            eager.setdefault(v, math.inf)
        assert list(lazy.items()) == list(eager.items())
        assert lazy_net.slot == eager_net.slot
        assert lazy_net.ledger.snapshot() == eager_net.ledger.snapshot()
