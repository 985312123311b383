"""Differential equivalence: the fast engine vs the reference engine.

The vectorized :class:`FastRadioNetwork` claims *bit-for-bit* agreement
with the reference :class:`RadioNetwork` under identical seeds.  These
tests enforce that claim across a grid of (topology family x collision
model x seed) for every slot-level protocol tier in the library:

- raw randomized devices (covers every channel-feedback path,
  including RECEIVER_CD silence/noise discrimination);
- the Decay Local-Broadcast primitive (Lemma 2.4);
- slot-level Decay-BFS;
- leader election and distributed MPX clustering running through
  ``DecayLBGraph`` on top of either engine.

Compared quantities: protocol outputs, executed slot counts, the full
per-device energy ledger, and the complete event trace.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.clustering import distributed_mpx
from repro.core import decay_bfs
from repro.primitives import DecayLBGraph, FloodingLeaderElection, run_decay_local_broadcast
from repro.radio import (
    Action,
    CollisionModel,
    Device,
    EventTrace,
    FastRadioNetwork,
    RadioNetwork,
    SlotEngineBase,
    available_engines,
    make_network,
    message_of_ints,
    topology,
)

ENGINE_NAMES = ("reference", "fast")
FAMILIES = ("path", "star", "grid", "expander", "small_world",
            "star_of_paths", "power_law", "geometric")
MODELS = (CollisionModel.NO_CD, CollisionModel.RECEIVER_CD)
SEEDS = (0, 1, 2)


def _build(name, n, seed, engine, model=CollisionModel.NO_CD):
    graph = topology.scenario(name, n, seed=seed)
    trace = EventTrace()
    net = make_network(graph, engine=engine, collision_model=model, trace=trace)
    return graph, net, trace


def _fingerprint(net, trace):
    return (net.slot, net.ledger.time_slots, net.ledger.snapshot(), list(trace))


class _FuzzDevice(Device):
    """Randomized device logging every channel feedback it perceives."""

    HORIZON = 24

    def __init__(self, vertex, rng):
        super().__init__(vertex, rng)
        self.log = []

    def step(self, slot):
        if slot >= self.HORIZON:
            self.halted = True
            return Action.idle()
        roll = self.rng.random()
        if roll < 0.35:
            return Action.transmit(
                message_of_ints(self.vertex, slot, kind="fuzz")
            )
        if roll < 0.75:
            return Action.listen()
        return Action.idle()

    def receive(self, slot, reception):
        sender = reception.message.sender if reception.message else None
        self.log.append((slot, reception.feedback, sender))


class TestRawDeviceEquivalence:
    """Randomized populations hit every arbitration branch."""

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_fuzz_grid(self, family, model, seed):
        outcomes = []
        for engine in ENGINE_NAMES:
            _, net, trace = _build(family, 36, seed, engine, model)
            devices = net.spawn_devices(_FuzzDevice, seed=seed + 100)
            executed = net.run(devices, max_slots=_FuzzDevice.HORIZON + 1)
            logs = {v: d.log for v, d in devices.items()}
            outcomes.append((executed, logs, _fingerprint(net, trace)))
        assert outcomes[0] == outcomes[1]


class TestDecayEquivalence:
    """Lemma 2.4 Local-Broadcast is engine-independent."""

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_local_broadcast_grid(self, family, model, seed):
        outcomes = []
        for engine in ENGINE_NAMES:
            graph, net, trace = _build(family, 40, seed, engine, model)
            rng = np.random.default_rng(seed)
            vertices = sorted(graph.nodes)
            k = max(1, len(vertices) // 4)
            senders = {int(v) for v in rng.choice(vertices, size=k, replace=False)}
            receivers = [v for v in vertices if v not in senders]
            messages = {u: message_of_ints(u, u, kind="eq") for u in senders}
            heard = run_decay_local_broadcast(
                net, messages, receivers,
                failure_probability=1 / 64, seed=seed + 1,
            )
            outcomes.append((heard, _fingerprint(net, trace)))
        assert outcomes[0] == outcomes[1]


class TestBFSEquivalence:
    """Slot-level Decay-BFS: identical distances, slots, energy, trace."""

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_decay_bfs_grid(self, family, seed):
        outcomes = []
        for engine in ENGINE_NAMES:
            graph, net, trace = _build(family, 40, seed, engine)
            dist = decay_bfs(
                net, 0, 30, failure_probability=1e-4, seed=seed + 7
            )
            outcomes.append((dist, _fingerprint(net, trace)))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("family", ("path", "geometric"))
    def test_decay_bfs_engine_kwarg(self, family):
        """The threaded engine= parameter builds the backend itself."""
        graph = topology.scenario(family, 30, seed=4)
        budget = nx.diameter(graph) + 1
        dists = [
            decay_bfs(graph, 0, budget, failure_probability=1e-4,
                      seed=9, engine=engine)
            for engine in ENGINE_NAMES
        ]
        assert dists[0] == dists[1]
        truth = nx.single_source_shortest_path_length(graph, 0)
        assert all(dists[0][v] == truth[v] for v in graph)


class TestStackEquivalence:
    """LBGraph-tier algorithms on DecayLBGraph over either engine."""

    @pytest.mark.parametrize("family", ("path", "grid", "small_world"))
    @pytest.mark.parametrize("seed", (0, 1))
    def test_leader_election(self, family, seed):
        outcomes = []
        for engine in ENGINE_NAMES:
            graph = topology.scenario(family, 24, seed=seed)
            net = make_network(graph, engine=engine)
            lbg = DecayLBGraph(net, failure_probability=1e-4, seed=seed)
            diam = nx.diameter(graph)
            result = FloodingLeaderElection(rounds=3 * diam + 3).run(
                lbg, seed=seed + 5
            )
            outcomes.append(
                (result.leader, result.rounds, net.slot, net.ledger.snapshot())
            )
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("seed", (0, 1))
    def test_cluster_stack_from_graph(self, seed):
        """ClusterLBGraph.from_graph threads engine= down to the slots."""
        from repro.clustering import (
            ClusterLBGraph,
            SlotAssignment,
            mpx_clustering,
        )

        outcomes = []
        for engine in ENGINE_NAMES:
            graph = topology.scenario("grid", 36, seed=seed)
            clustering = mpx_clustering(
                graph, 1 / 2, seed=seed, radius_multiplier=1.0
            )
            slots = SlotAssignment.sample(
                clustering.clusters(), 1 / 2, graph.number_of_nodes(),
                seed=seed + 1,
            )
            star = ClusterLBGraph.from_graph(
                graph, clustering, slots, engine=engine,
                failure_probability=1e-4, lb_seed=seed + 3,
            )
            assert star.parent.network.name == engine
            quotient = star.as_nx_graph()
            heard = {}
            if quotient.number_of_edges():
                a, b = min(quotient.edges)
                heard = star.local_broadcast({a: ("m", a)}, [b])
            outcomes.append(
                (heard, star.ledger.snapshot(), star.parent.network.slot)
            )
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("seed", (0, 1))
    def test_distributed_clustering(self, seed):
        outcomes = []
        for engine in ENGINE_NAMES:
            graph = topology.scenario("grid", 25, seed=seed)
            lbg = DecayLBGraph(graph, failure_probability=1e-4,
                               seed=seed, engine=engine)
            clustering = distributed_mpx(
                lbg, 1 / 2, seed=seed + 3, radius_multiplier=1.0
            )
            outcomes.append(
                (clustering.center_of, lbg.network.slot,
                 lbg.ledger.snapshot())
            )
        assert outcomes[0] == outcomes[1]


class TestEngineSelection:
    """The registry and protocol plumbing around the two engines."""

    def test_available_engines(self):
        assert available_engines() == ("fast", "reference")

    def test_make_network_types(self):
        g = topology.path_graph(4)
        assert isinstance(make_network(g, engine="reference"), RadioNetwork)
        assert isinstance(make_network(g, engine="fast"), FastRadioNetwork)

    def test_unknown_engine_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            make_network(topology.path_graph(4), engine="warp")

    def test_engines_satisfy_protocol(self):
        g = topology.path_graph(4)
        for engine in ENGINE_NAMES:
            assert isinstance(make_network(g, engine=engine), SlotEngineBase)

    def test_engine_kwarg_conflicts_with_network(self):
        from repro.errors import ConfigurationError

        net = make_network(topology.path_graph(4))
        with pytest.raises(ConfigurationError):
            run_decay_local_broadcast(net, {}, [0], engine="fast")
        with pytest.raises(ConfigurationError):
            decay_bfs(net, 0, 2, engine="fast")

    def test_fast_engine_handles_tuple_labels(self):
        """The index map supports arbitrary hashable vertices."""
        g = nx.grid_2d_graph(3, 3)  # nodes are (row, col) tuples
        outcomes = []
        for engine in ENGINE_NAMES:
            trace = EventTrace()
            net = make_network(g, engine=engine, trace=trace)
            devices = net.spawn_devices(_FuzzDevice, seed=13)
            net.run(devices, max_slots=_FuzzDevice.HORIZON + 1)
            outcomes.append(
                ({v: d.log for v, d in devices.items()},
                 _fingerprint(net, trace))
            )
        assert outcomes[0] == outcomes[1]
