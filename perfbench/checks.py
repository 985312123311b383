"""Per-cell correctness checks against a networkx oracle.

Every stored result document must pass ``validate_result_dict``.  BFS
labels (slot-tier ``decay_bfs`` and LB-tier ``recursive_bfs``) are
compared with ``nx.single_source_shortest_path_length`` up to the depth
budget: equal on a fault-free channel, never below it under faults.  A
``two_approx_diameter`` estimate must lie in ``[diam/2, diam]``.
"""

from __future__ import annotations

import math

import networkx as nx
from repro.experiments import decode_labels, validate_result_dict
from repro.radio.topology import scenario_is_deterministic

BFS_ALGORITHMS = ("decay_bfs", "recursive_bfs")


class GraphCache:
    """Oracle graphs, rebuilt from the spec once per distinct topology."""

    def __init__(self):
        self._graphs = {}

    def get(self, spec):
        key = (spec.topology, spec.n)
        if not scenario_is_deterministic(spec.topology):
            key += (spec.seed,)
        if key not in self._graphs:
            self._graphs[key] = spec.build_graph()
        return self._graphs[key]


def check_bfs(doc, spec, graph):
    params = spec.params()
    sources = params.get("sources", [0])
    budget = int(params.get("depth_budget", graph.number_of_nodes()))
    truth = nx.multi_source_dijkstra_path_length(graph, set(sources), cutoff=budget)
    labels = decode_labels(doc["output"]["labels"])
    if set(labels) != set(graph.nodes):
        return "labels do not cover the vertex set"
    faulty = spec.fault_model is not None
    complete = len(truth) == graph.number_of_nodes()
    if not faulty and (doc["status"] == "ok") != complete:
        return f"fault-free cell has status {doc['status']!r}"
    for v, label in labels.items():
        expected = float(truth.get(v, math.inf))
        if faulty and label < expected:
            return f"vertex {v!r}: label {label} below distance {expected}"
        if not faulty and label != expected:
            return f"vertex {v!r}: label {label} != distance {expected}"
    return None


def check_diameter(doc, graph):
    diam = nx.diameter(graph)
    estimate = doc["output"]["estimate"]
    if not diam / 2 <= estimate <= diam:
        return f"estimate {estimate} outside [{diam / 2}, {diam}]"
    return None


def check_cell(doc, graphs):
    """The first problem with one stored document, or ``None``."""
    try:
        result = validate_result_dict(doc)
    except Exception as exc:  # any rejection is a failed cell
        return f"validate_result_dict: {exc}"
    spec = result.spec
    graph = graphs.get(spec)
    if spec.algorithm in BFS_ALGORITHMS:
        return check_bfs(doc, spec, graph)
    if spec.algorithm == "two_approx_diameter":
        return check_diameter(doc, graph)
    return f"no oracle for algorithm {spec.algorithm!r}"
