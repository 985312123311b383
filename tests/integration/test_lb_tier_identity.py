"""Byte identity of the Local-Broadcast tier.

The LB tier (MPX clustering, ``PhysicalLBGraph.local_broadcast``, the
wavefront loops of ``trivial_bfs`` and Recursive-BFS, the grid builder)
is tuned for speed under one rule: every document stays byte for byte
what the straightforward loops produced.  Two guards:

- ``LB_DOCUMENTS_SHA256`` was recorded from the round-by-round scan
  loops (per-round MPX rescans, receiver-side Local-Broadcast, senders
  rebuilt from the whole distance map, the relabelled networkx grid)
  over a fixed cell list that covers Recursive-BFS at both depths, the
  2-approximate diameter, trivial BFS and MPX, with and without faults;
- the trivial wavefront BFS runs against its first-written loop as an
  oracle, labels, ledger and generator state.

The digest was recorded under numpy 2.4.6 and networkx 3.6.1 and does
not depend on ``PYTHONHASHSEED``.  If a library upgrade alone moves it
(a changed random stream), re-record it only after checking that the
commit that recorded it produces the new value too.
"""

from __future__ import annotations

import hashlib
import math
from typing import Dict, Hashable

import pytest

from repro.core import trivial_bfs
from repro.experiments import ExperimentSpec, run_specs
from repro.primitives import PhysicalLBGraph
from repro.radio import topology
from repro.radio.faults import named_fault_models

CELLS = (
    ("grid", 64, "recursive_bfs", {}, None),
    ("grid", 100, "recursive_bfs", {"beta": 0.25, "max_depth": 1}, None),
    ("grid", 64, "two_approx_diameter", {}, None),
    ("geometric", 80, "recursive_bfs", {}, None),
    ("star_of_paths", 64, "trivial_bfs", {}, None),
    ("tree", 64, "mpx_clustering", {}, None),
    ("grid", 64, "recursive_bfs", {}, "lossy_mixed"),
    ("geometric", 64, "trivial_bfs", {}, "drop30"),
    ("expander", 48, "mpx_clustering", {}, "jam_hubs"),
)

LB_DOCUMENTS_SHA256 = (
    "02215af8caabfc93335acb3257525dfa6bb49d92e87ff7c2200e0decc4cebf34"
)


def test_lb_documents_are_pinned():
    specs = [
        ExperimentSpec(topology=family, n=n, algorithm=algorithm,
                       algorithm_params=params, fault_model=fault, seed=seed)
        for family, n, algorithm, params, fault in CELLS
        for seed in (1, 2)
    ]
    results = run_specs(specs, parallel=False)
    blob = "\n".join(result.to_json() for result in results).encode()
    assert hashlib.sha256(blob).hexdigest() == LB_DOCUMENTS_SHA256


def oracle_trivial_bfs(lbg, sources, depth_budget) -> Dict[Hashable, float]:
    """Wavefront BFS with the senders rebuilt from the whole ``dist``."""
    source_set = set(sources)
    active_set = set(lbg.vertices())
    dist: Dict[Hashable, float] = {s: 0.0 for s in source_set}
    for d in range(depth_budget):
        senders = {u: ("bfs", d) for u, du in dist.items() if du == d}
        if not senders:
            break
        receivers = [v for v in active_set if v not in dist]
        if not receivers:
            break
        heard = lbg.local_broadcast(senders, receivers)
        for v, (_, hop) in heard.items():
            dist[v] = float(hop) + 1.0
    for v in active_set:
        dist.setdefault(v, math.inf)
    return dist


@pytest.mark.parametrize("fault", [None, "drop30", "lossy_mixed"])
@pytest.mark.parametrize("family", ["grid", "geometric", "star_of_paths"])
def test_trivial_bfs_matches_oracle(family, fault):
    model = named_fault_models()[fault] if fault else None
    for seed in (0, 5):
        graph = topology.scenario(family, 60, seed=seed)

        def make():
            return PhysicalLBGraph(graph, failure_probability=0.1, seed=seed,
                                   faults=model, fault_seed=seed + 1)

        new, old = make(), make()
        sources = [0, graph.number_of_nodes() - 1]
        got = trivial_bfs(new, sources, 40)
        want = oracle_trivial_bfs(old, sources, 40)
        assert list(got.items()) == list(want.items())
        assert new.ledger.snapshot() == old.ledger.snapshot()
        assert new.ledger.lb_rounds == old.ledger.lb_rounds
        assert new.rng.bit_generator.state == old.rng.bit_generator.state
