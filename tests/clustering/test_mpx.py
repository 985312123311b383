"""Tests for centralized MPX clustering (Section 2)."""

import math

import networkx as nx
import pytest

from repro.clustering import Clustering, ShiftParameters, Shifts, mpx_clustering
from repro.errors import ConfigurationError
from repro.radio import topology


class TestPartitionInvariants:
    def test_covers_all_vertices(self, grid8):
        c = mpx_clustering(grid8, beta=1 / 4, seed=0)
        assert set(c.center_of) == set(grid8.nodes)
        assert sum(len(m) for m in c.members.values()) == grid8.number_of_nodes()

    def test_validate_passes(self, grid8):
        c = mpx_clustering(grid8, beta=1 / 4, seed=1)
        c.validate(grid8)  # raises on violation

    def test_clusters_connected(self, geo120):
        c = mpx_clustering(geo120, beta=1 / 4, seed=2)
        for cluster, members in c.members.items():
            assert nx.is_connected(geo120.subgraph(members))

    def test_layers_are_bfs_layers(self, path50):
        c = mpx_clustering(path50, beta=1 / 4, seed=3)
        for v in path50:
            cluster = c.center_of[v]
            assert c.layer_of[v] == nx.shortest_path_length(
                path50.subgraph(c.members[cluster]), cluster, v
            )

    def test_radius_bounded_by_horizon(self, path50):
        c = mpx_clustering(path50, beta=1 / 4, seed=4, radius_multiplier=2.0)
        horizon = c.shifts.params.horizon
        assert c.max_layer <= horizon


class TestDistributionProperties:
    def test_cut_fraction_scales_with_beta(self):
        """MPX cuts an O(beta) fraction of edges (Section 2)."""
        g = topology.grid_graph(24, 24)
        def mean_cut(beta, trials=6):
            return sum(
                mpx_clustering(g, beta, seed=s).cut_fraction(g)
                for s in range(trials)
            ) / trials
        low = mean_cut(1 / 16)
        high = mean_cut(1 / 2)
        assert low < high  # monotone in beta
        assert low < 0.5

    def test_smaller_beta_fewer_clusters(self):
        g = topology.grid_graph(20, 20)
        few = mpx_clustering(g, 1 / 8, seed=0)
        many = mpx_clustering(g, 1 / 2, seed=0)
        assert len(few.members) <= len(many.members)

    def test_reproducible(self, grid8):
        a = mpx_clustering(grid8, 1 / 4, seed=9)
        b = mpx_clustering(grid8, 1 / 4, seed=9)
        assert a.center_of == b.center_of
        assert a.layer_of == b.layer_of


class TestQuotient:
    def test_quotient_nodes_are_clusters(self, grid8):
        c = mpx_clustering(grid8, 1 / 4, seed=5)
        q = c.quotient_graph(grid8)
        assert set(q.nodes) == c.clusters()

    def test_quotient_edges_cross_clusters(self, grid8):
        c = mpx_clustering(grid8, 1 / 4, seed=5)
        q = c.quotient_graph(grid8)
        for a, b in q.edges:
            assert a != b

    def test_quotient_connected_when_base_connected(self, geo120):
        c = mpx_clustering(geo120, 1 / 4, seed=6)
        q = c.quotient_graph(geo120)
        assert nx.is_connected(q)

    def test_cut_edges_match_quotient(self, grid8):
        c = mpx_clustering(grid8, 1 / 4, seed=7)
        cut = c.cut_edges(grid8)
        q = c.quotient_graph(grid8)
        assert {
            frozenset((c.center_of[u], c.center_of[v])) for u, v in cut
        } == {frozenset(e) for e in q.edges}


class TestValidation:
    def test_empty_graph_rejected(self):
        with pytest.raises(ConfigurationError):
            mpx_clustering(nx.Graph(), 1 / 4)

    def test_non_integer_inv_beta_rejected(self, path50):
        with pytest.raises(ConfigurationError):
            mpx_clustering(path50, 0.3)

    def test_shifts_missing_vertices_rejected(self):
        graph = topology.path_graph(6)
        shifts = Shifts.sample(range(4), ShiftParameters(beta=1 / 4, n=6), seed=0)
        with pytest.raises(ConfigurationError) as info:
            mpx_clustering(graph, 1 / 4, seed=0, shifts=shifts)
        message = str(info.value)
        assert "\n" not in message
        assert "no start time for 2 of 6 graph vertices" in message

    @pytest.mark.parametrize("params", [
        ShiftParameters(beta=1 / 2, n=6),
        ShiftParameters(beta=1 / 4, n=100),
        ShiftParameters(beta=1 / 4, n=6, radius_multiplier=2.0),
    ])
    def test_shifts_under_other_parameters_rejected(self, params):
        graph = topology.path_graph(6)
        shifts = Shifts.sample(graph.nodes, params, seed=0)
        with pytest.raises(ConfigurationError) as info:
            mpx_clustering(graph, 1 / 4, seed=0, shifts=shifts)
        message = str(info.value)
        assert "\n" not in message
        assert "shifts were sampled under" in message

    def test_matching_shifts_accepted(self):
        graph = topology.path_graph(6)
        params = ShiftParameters(beta=1 / 4, n=100, radius_multiplier=2.0)
        shifts = Shifts.sample(graph.nodes, params, seed=0)
        c = mpx_clustering(graph, 1 / 4, seed=0, n_global=100,
                           radius_multiplier=2.0, shifts=shifts)
        assert c.shifts is shifts

    def test_inv_beta_property(self, path50):
        c = mpx_clustering(path50, 1 / 8, seed=0)
        assert c.inv_beta == 8

    def test_cluster_radius(self, path50):
        c = mpx_clustering(path50, 1 / 4, seed=0)
        for cluster in c.clusters():
            assert c.cluster_radius(cluster) == max(
                c.layer_of[v] for v in c.members[cluster]
            )
