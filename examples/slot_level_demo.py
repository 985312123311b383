"""Slot-level fidelity demo: Recursive-BFS over real Decay rounds.

Every Local-Broadcast the algorithm issues — wavefront advances and the
inter-cluster legs of the G* simulation — executes as a genuine Decay
protocol on the slot simulator, collisions included (intra-cluster
casts and the clustering shortcut remain cost-charged, as the module
docstrings of `repro.clustering.casts` and `repro.clustering.distributed`
explain; `use_distributed_clustering=True` makes the clustering
slot-real too).
The run reports both cost currencies (slots and LB participations) plus
the Lemma 2.4 worst-case conversion between them.

Run:  python examples/slot_level_demo.py
"""

import networkx as nx

from repro.core import BFSParameters, RecursiveBFS
from repro.primitives import DecayLBGraph, LBCostModel
from repro.radio import RadioNetwork, topology


def main() -> None:
    g = topology.grid_graph(6, 8)
    n = g.number_of_nodes()
    diameter = nx.diameter(g)
    print(f"{n}-device grid, diameter {diameter}; LB calls run as real "
          "Decay protocols")

    net = RadioNetwork(g)
    lbg = DecayLBGraph(net, failure_probability=1e-5, seed=0)
    params = BFSParameters(beta=1 / 4, max_depth=1, radius_multiplier=1.0)
    labels = RecursiveBFS(params, seed=1).compute(lbg, [0], diameter)

    truth = nx.single_source_shortest_path_length(g, 0)
    correct = all(labels[v] == truth[v] for v in g)
    print(f"labels correct vs networkx ground truth: {correct}")

    ledger = net.ledger
    print(f"slot-level:   max energy {ledger.max_slots()} slots, "
          f"time {ledger.time_slots} slots")
    print(f"LB-unit view: max energy {ledger.max_lb()} participations, "
          f"{ledger.lb_rounds} LB rounds")
    model = LBCostModel(max_degree=net.max_degree, failure_probability=1e-5)
    print(f"Lemma 2.4 worst-case conversion of the LB view: "
          f"{model.max_slot_estimate(ledger)} slots "
          f"(measured {ledger.max_slots()} — the protocol's early-exit "
          "paths keep real costs below the worst case)")


if __name__ == "__main__":
    main()
