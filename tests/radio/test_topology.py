"""Tests for topology generators."""

import math

import networkx as nx
import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.radio import topology
from repro.rng import make_rng


class TestBasicFamilies:
    def test_path(self):
        g = topology.path_graph(10)
        assert g.number_of_nodes() == 10
        assert nx.diameter(g) == 9

    def test_cycle(self):
        g = topology.cycle_graph(10)
        assert nx.diameter(g) == 5

    def test_grid_dimensions(self):
        g = topology.grid_graph(3, 4)
        assert g.number_of_nodes() == 12
        assert nx.diameter(g) == 5
        assert set(g.nodes) == set(range(12))  # relabelled to ints

    def test_complete(self):
        g = topology.complete_graph(6)
        assert nx.diameter(g) == 1

    def test_star(self):
        g = topology.star_graph(7)
        assert max(d for _, d in g.degree) == 7

    def test_binary_tree(self):
        g = topology.binary_tree(4)
        assert g.number_of_nodes() == 2**5 - 1

    def test_invalid_sizes(self):
        with pytest.raises(ConfigurationError):
            topology.path_graph(0)
        with pytest.raises(ConfigurationError):
            topology.cycle_graph(2)
        with pytest.raises(ConfigurationError):
            topology.grid_graph(0, 5)


class TestCompleteMinusEdge:
    def test_diameter_two(self):
        g, e = topology.complete_minus_edge(8, seed=0)
        assert nx.diameter(g) == 2
        assert not g.has_edge(*e)

    def test_specified_edge(self):
        g, e = topology.complete_minus_edge(5, edge=(1, 3))
        assert e == (1, 3)
        assert not g.has_edge(1, 3)

    def test_random_edge_valid(self):
        for s in range(5):
            g, (u, v) = topology.complete_minus_edge(6, seed=s)
            assert u != v
            assert 0 <= u < 6 and 0 <= v < 6

    def test_too_small(self):
        with pytest.raises(ConfigurationError):
            topology.complete_minus_edge(2)


class TestRandomFamilies:
    def test_geometric_connected(self):
        g = topology.random_geometric(150, seed=0)
        assert nx.is_connected(g)
        assert g.number_of_nodes() > 100  # giant component keeps most

    def test_geometric_reproducible(self):
        g1 = topology.random_geometric(80, seed=5)
        g2 = topology.random_geometric(80, seed=5)
        assert set(g1.edges) == set(g2.edges)

    def test_tree_is_tree(self):
        g = topology.random_tree(60, seed=1)
        assert nx.is_tree(g)
        assert g.number_of_nodes() == 60

    def test_erdos_renyi_connected(self):
        g = topology.erdos_renyi(100, seed=2)
        assert nx.is_connected(g)


def _oracle_geometric(n, radius, seed):
    """``random_geometric`` as networkx builds it: ``random_geometric_graph``
    on the same positions, then the giant component's subgraph -> copy ->
    relabel, unconditionally."""
    rng = make_rng(seed)
    positions = {i: (float(x), float(y))
                 for i, (x, y) in enumerate(rng.random(size=(n, 2)))}
    graph = nx.random_geometric_graph(n, radius, pos=positions)
    largest = max(nx.connected_components(graph), key=len)
    giant = graph.subgraph(largest).copy()
    giant = nx.relabel_nodes(
        giant, {v: i for i, v in enumerate(giant.nodes)}, copy=True)
    giant.graph["radius"] = float(radius)
    return giant


def _assert_identical(got, want):
    assert list(got.nodes(data=True)) == list(want.nodes(data=True))
    for v in want:  # neighbor order and edge data, per vertex
        assert list(got.adj[v].items()) == list(want.adj[v].items()), v
    assert got.graph == want.graph


def _threshold_radius(n, multiplier):
    return multiplier * math.sqrt(2.0 * math.log(max(2, n)) / (math.pi * n))


class TestGeometricBuilder:
    """The cell-bucket generator against networkx, vertex for vertex."""

    # Multipliers 0.3 and 0.6 leave many components, with ties between
    # equal-size ones; 1.3 is the ``geometric`` default, 4.0 the
    # ``dense_geometric`` one.
    @pytest.mark.parametrize("multiplier", [0.3, 0.6, 1.3, 4.0])
    @pytest.mark.parametrize("n", [1, 2, 40, 300, 2000])
    def test_matches_networkx(self, n, multiplier):
        # The networkx oracle takes 0.5-3 s a seed on the connected
        # n=2000 fields (20k-200k edges), so those two cells run two
        # seeds; every other cell runs eight.
        seeds = range(2) if n == 2000 and multiplier > 1 else range(8)
        radius = _threshold_radius(n, multiplier)
        for seed in seeds:
            _assert_identical(topology.random_geometric(n, radius, seed),
                              _oracle_geometric(n, radius, seed))

    @pytest.mark.parametrize("radius", [math.sqrt(2.0), 3.0, 1e-9])
    @pytest.mark.parametrize("n", [2, 40])
    def test_extreme_radii_match_networkx(self, n, radius):
        # Radius >= sqrt(2) links every pair of the unit square; 1e-9
        # leaves n singletons, a tie the giant-component cut breaks
        # towards the lowest vertex.
        for seed in range(8):
            _assert_identical(topology.random_geometric(n, radius, seed),
                              _oracle_geometric(n, radius, seed))

    @pytest.mark.parametrize("points, radius", [
        # A lattice of pitch ``radius``: axis neighbors lie at distance
        # exactly ``radius``, on the boundaries of radius-side cells.
        ([(0.25 * i, 0.25 * j) for i in range(5) for j in range(5)], 0.25),
        # A 3-4-5 lattice: diagonal neighbors, up-right and down-right,
        # lie at distance exactly ``radius`` = 5/16.
        ([(3 / 16 * i, 4 / 16 * j) for i in range(6) for j in range(5)],
         5 / 16),
        # Coincident points, and points one radius apart on both axes.
        ([(0.5, 0.5), (0.5, 0.5), (0.0, 0.5), (1.0, 0.5), (0.5, 0.0),
          (0.5, 1.0)], 0.5),
    ])
    def test_hand_placed_pairs_match_networkx(self, points, radius):
        order = make_rng(0).permutation(len(points))
        xy = np.array([points[i] for i in order])
        want = nx.random_geometric_graph(
            len(xy), radius, pos=dict(enumerate(map(tuple, xy.tolist()))))
        u, v = topology._geometric_pairs(xy, radius)
        assert list(zip(u.tolist(), v.tolist())) == sorted(
            (min(e), max(e)) for e in want.edges)

    @pytest.mark.parametrize("radius", [-0.5, 0.0, -0.0, math.nan, math.inf,
                                        -math.inf])
    def test_bad_radius_rejected(self, radius):
        with pytest.raises(ConfigurationError, match="radius") as info:
            topology.random_geometric(50, radius=radius, seed=1)
        assert "\n" not in str(info.value)

    def test_bad_multiplier_rejected(self):
        for multiplier in (0.0, -1.0):
            with pytest.raises(ConfigurationError, match="multiplier"):
                topology.dense_geometric(50, seed=1, multiplier=multiplier)
        with pytest.raises(ConfigurationError, match="radius"):
            topology.dense_geometric(50, seed=1, multiplier=math.nan)


class TestGridBuilder:
    """The integer grid builder against the relabelled networkx grid."""

    @pytest.mark.parametrize("rows, cols", [
        (1, 1), (1, 2), (1, 9), (2, 1), (9, 1),  # 1 x k and k x 1
        (2, 2), (5, 5), (16, 16),  # square
        (2, 3), (3, 2), (4, 7), (7, 4), (16, 32),  # non-square
    ] + sorted({topology._near_square(n) for n in
                (1, 2, 3, 5, 8, 16, 24, 32, 63, 64, 100, 256, 512, 1000)}))
    def test_matches_relabelled_networkx(self, rows, cols):
        got = topology.grid_graph(rows, cols)
        want = topology._relabel(nx.grid_2d_graph(rows, cols))
        _assert_identical(got, want)
        assert list(got.edges(data=True)) == list(want.edges(data=True))


class TestStructuredFamilies:
    def test_caterpillar(self):
        g = topology.caterpillar(10, 3)
        assert g.number_of_nodes() == 10 + 30
        assert nx.is_tree(g)

    def test_barbell(self):
        g = topology.barbell(5, 6)
        assert nx.is_connected(g)
        assert g.number_of_nodes() == 16

    def test_lollipop(self):
        g = topology.lollipop(5, 10)
        assert nx.is_connected(g)


class TestArboricity:
    def test_tree_arboricity_one(self):
        g = topology.random_tree(50, seed=3)
        assert topology.arboricity_upper_bound(g) == 1

    def test_clique_arboricity(self):
        g = topology.complete_graph(10)
        assert topology.arboricity_upper_bound(g) == 9

    def test_empty(self):
        assert topology.arboricity_upper_bound(nx.Graph()) == 0
