"""A graph is freed at its last reference, without the cyclic collector.

networkx caches its ``edges`` and ``degree`` views on the graph, and
each view points back at it: a graph whose ``graph.edges`` or
``graph.degree`` was read lives on until a cyclic collection, so a
sweep can hold the last cell's graph while it builds the next.  The
readers of a run's graph use a fresh view or
:func:`repro.radio.topology.degrees` instead.  (``topology._relabel``
still calls ``nx.relabel_nodes``, which reads the cached view of a
builder's unlabelled temporary: that one waits for the collector.)
Each test runs with the collector disabled and checks, through a weak
reference, that the graph dies with its last reference.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.primitives.lb_graph import PhysicalLBGraph
from repro.radio import topology
from repro.radio.sinr import SinrField, SinrParams


def _freed_without_gc(use) -> bool:
    """Build a small geometric graph, pass it to ``use``, drop every
    reference, and report whether the graph was freed at once."""
    gc.collect()
    gc.disable()
    try:
        graph = topology.random_geometric(40, seed=3)
        ref = weakref.ref(graph)
        use(graph)
        del graph
        return ref() is None
    finally:
        gc.enable()


def test_reading_the_edge_view_pins_the_graph():
    """The mechanism itself, so the tests below are not vacuous."""
    assert not _freed_without_gc(lambda g: list(g.edges))
    assert not _freed_without_gc(lambda g: list(g.degree))
    assert _freed_without_gc(lambda g: (list(g.nodes), dict(g.adj)))


@pytest.mark.parametrize("use", [
    lambda g: SinrField(g, SinrParams()),
    lambda g: PhysicalLBGraph(g).degree_bound(),
], ids=["sinr_field", "lb_degree_bound"])
def test_reader_leaves_the_graph_collectable(use):
    assert _freed_without_gc(use)

