"""The diameter algorithms' default depth budget is ``diam(G) + 2``.

``_diameter_budget`` computes the diameter with networkx's bounding
search instead of all-pairs BFS; the integer must equal the all-pairs
``nx.diameter`` on every registered scenario family.
"""

from __future__ import annotations

from types import SimpleNamespace

import networkx as nx
import pytest

from repro.experiments.registry import _diameter_budget
from repro.radio import topology


@pytest.mark.parametrize("n", (12, 48))
@pytest.mark.parametrize("family", topology.scenario_names())
def test_budget_is_all_pairs_diameter_plus_two(family, n):
    graph = topology.scenario(family, n, seed=n)
    ctx = SimpleNamespace(graph=graph, params={})
    assert _diameter_budget(ctx) == nx.diameter(graph) + 2


def test_explicit_budget_wins():
    ctx = SimpleNamespace(graph=nx.path_graph(5), params={"depth_budget": 9})
    assert _diameter_budget(ctx) == 9
