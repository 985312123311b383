"""Property tests for the named scenario table.

Every family must uphold the module contract: a connected graph with
contiguous integer labels ``0..m-1`` (``m`` approximately the requested
``n``), deterministic under a fixed seed, seed-independent exactly when
:data:`~repro.radio.topology.SCENARIOS` says so, and lookups must fail
loudly for unknown names.
"""

from __future__ import annotations

import networkx as nx
import pytest

from repro.errors import ConfigurationError
from repro.radio import topology

SIZES = (8, 21, 40)
SEEDS = (0, 1, 7)
# Families that ignore the seed (batching fuses their seeds onto one
# graph), and families whose construction consumes randomness: same
# seed must give the same graph, different seeds must differ.
DETERMINISTIC = tuple(name for name in topology.scenario_names()
                      if topology.SCENARIOS[name][1])
STOCHASTIC = tuple(name for name in topology.scenario_names()
                   if not topology.SCENARIOS[name][1])


def _layout(name, n, seed):
    """Everything a batched run shares between the seeds of a cell:
    node order, node data and edge order."""
    graph = topology.scenario(name, n, seed=seed)
    return list(graph.nodes(data=True)), list(graph.edges(data=True))


@pytest.mark.parametrize("name", topology.scenario_names())
@pytest.mark.parametrize("n", SIZES)
def test_family_contract(name, n):
    graph = topology.scenario(name, n, seed=5)
    assert graph.number_of_nodes() >= 1
    assert nx.is_connected(graph)
    assert set(graph.nodes) == set(range(graph.number_of_nodes()))


@pytest.mark.parametrize("name", topology.scenario_names())
def test_family_tracks_requested_size(name):
    """The size knob is honored at least up to family-shape rounding."""
    small = topology.scenario(name, 8, seed=1).number_of_nodes()
    large = topology.scenario(name, 64, seed=1).number_of_nodes()
    assert large > small


@pytest.mark.parametrize("name", STOCHASTIC)
def test_stochastic_families_deterministic_per_seed(name):
    a = topology.scenario(name, 32, seed=9)
    b = topology.scenario(name, 32, seed=9)
    assert sorted(a.edges) == sorted(b.edges)


@pytest.mark.parametrize("name", DETERMINISTIC)
@pytest.mark.parametrize("n", SIZES)
def test_deterministic_families_ignore_the_seed(name, n):
    """Batching fuses the seeds of a deterministic family onto one
    compiled topology, so every seed must build the very same graph."""
    first, *rest = (_layout(name, n, seed) for seed in SEEDS)
    for other in rest:
        assert other == first


@pytest.mark.parametrize("name", STOCHASTIC)
def test_stochastic_families_depend_on_the_seed(name):
    assert any(
        _layout(name, n, seed) != _layout(name, n, SEEDS[0])
        for n in SIZES for seed in SEEDS[1:]
    )


def test_issue_families_registered():
    """The families the engine benchmarks sweep are all present."""
    names = set(topology.scenario_names())
    assert {"expander", "small_world", "barbell", "star_of_paths",
            "power_law"} <= names


def test_unknown_name_raises():
    with pytest.raises(ConfigurationError):
        topology.scenario("no-such-family", 10)


def test_invalid_size_raises():
    with pytest.raises(ConfigurationError):
        topology.scenario("path", 0)


def test_star_of_paths_shape():
    graph = topology.star_of_paths(4, 5)
    assert graph.number_of_nodes() == 21  # hub + 4 * 5
    assert graph.degree[0] == 4
    assert nx.diameter(graph) == 10
    assert nx.is_connected(graph)


def test_star_of_paths_validation():
    with pytest.raises(ConfigurationError):
        topology.star_of_paths(1, 5)
    with pytest.raises(ConfigurationError):
        topology.star_of_paths(3, 0)


def test_expander_is_regular_even_for_odd_n():
    for n in (9, 12, 15):
        graph = topology.expander(n, 4, seed=2)
        degrees = {d for _, d in graph.degree}
        assert degrees == {4}
        assert graph.number_of_nodes() == n


def test_power_law_has_hubs():
    graph = topology.power_law(200, m=2, seed=3)
    degrees = sorted((d for _, d in graph.degree), reverse=True)
    assert degrees[0] >= 4 * degrees[len(degrees) // 2]
