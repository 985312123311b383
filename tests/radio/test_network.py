"""Tests for the slot-level RadioNetwork executor."""

import networkx as nx
import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.radio import (
    Action,
    CollisionModel,
    Device,
    Event,
    EventTrace,
    FastRadioNetwork,
    Message,
    MessageSizePolicy,
    RadioNetwork,
    ReplicaBatchedNetwork,
    SinrParams,
    make_network,
)
from repro.errors import MessageTooLargeError
from repro.radio.engine import ENGINES


class OneShotSender(Device):
    """Transmits once at slot 0, then halts."""

    def step(self, slot):
        if slot == 0:
            return Action.transmit(Message(sender=self.vertex, payload="hi", bits=2))
        self.halted = True
        return Action.idle()


class AlwaysListener(Device):
    def __init__(self, vertex, rng):
        super().__init__(vertex, rng)
        self.heard = []

    def step(self, slot):
        return Action.listen()

    def receive(self, slot, reception):
        if reception.received:
            self.heard.append(reception.message)


class Sleeper(Device):
    def __init__(self, vertex, rng):
        super().__init__(vertex, rng)
        self.halted = True


def _devices(network, roles):
    return network.spawn_devices(
        lambda v, rng: roles[v](v, rng), seed=0
    )


@pytest.mark.parametrize("engine", sorted(ENGINES))
class TestDelivery:
    """The channel rule on each serial engine, pinned by value."""

    def test_single_transmitter_heard(self, engine):
        g = nx.path_graph(2)
        net = make_network(g, engine=engine)
        devices = _devices(net, {0: OneShotSender, 1: AlwaysListener})
        net.run(devices, max_slots=1)
        assert len(devices[1].heard) == 1
        assert devices[1].heard[0].sender == 0
        assert net.fault_counters.delivered == 1
        assert net.ledger.snapshot() == {0: (1, 0, 0, 0), 1: (0, 1, 0, 0)}

    def test_collision_blocks_delivery(self, engine):
        g = nx.star_graph(2)  # center 0, leaves 1, 2
        net = make_network(g, engine=engine)
        devices = _devices(net, {0: AlwaysListener, 1: OneShotSender, 2: OneShotSender})
        net.run(devices, max_slots=1)
        assert devices[0].heard == []
        assert net.fault_counters.delivered == 0
        assert net.ledger.snapshot() == {
            0: (0, 1, 0, 0), 1: (1, 0, 0, 0), 2: (1, 0, 0, 0),
        }

    def test_non_neighbor_not_heard(self, engine):
        g = nx.path_graph(3)  # 0-1-2
        net = make_network(g, engine=engine)
        devices = _devices(net, {0: OneShotSender, 1: Sleeper, 2: AlwaysListener})
        net.run(devices, max_slots=1)
        assert devices[2].heard == []
        # The halted sleeper is never stepped, so never charged.
        assert net.ledger.snapshot() == {0: (1, 0, 0, 0), 2: (0, 1, 0, 0)}


class TestEnergyAccounting:
    def test_transmit_and_listen_charged(self):
        g = nx.path_graph(2)
        net = RadioNetwork(g)
        devices = _devices(net, {0: OneShotSender, 1: AlwaysListener})
        net.run(devices, max_slots=3)
        assert net.ledger.device(0).transmit_slots == 1
        assert net.ledger.device(1).listen_slots == 3

    def test_sleeping_is_free(self):
        g = nx.path_graph(2)
        net = RadioNetwork(g)
        devices = _devices(net, {0: Sleeper, 1: Sleeper})
        executed = net.run(devices, max_slots=10)
        assert executed == 0  # all halted -> early exit
        assert net.ledger.max_slots() == 0

    def test_time_advances(self):
        g = nx.path_graph(2)
        net = RadioNetwork(g)
        devices = _devices(net, {0: AlwaysListener, 1: AlwaysListener})
        net.run(devices, max_slots=5)
        assert net.ledger.time_slots == 5


class TestPolicies:
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_size_policy_enforced(self, engine):
        g = nx.path_graph(2)
        net = make_network(g, engine=engine, size_policy=MessageSizePolicy(1))
        devices = _devices(net, {0: AlwaysListener, 1: OneShotSender})
        with pytest.raises(MessageTooLargeError):
            net.run(devices, max_slots=1)
        # The slot raised before its batch charge: the listener stepped
        # ahead of the offending transmitter is not charged either.
        assert net.ledger.snapshot() == {}
        assert net.slot == 0

    def test_missing_devices_rejected(self):
        g = nx.path_graph(3)
        net = RadioNetwork(g)
        with pytest.raises(ConfigurationError):
            net.run({0: Sleeper(0, np.random.default_rng(0))}, max_slots=1)

    def test_extra_devices_rejected(self):
        """Devices keyed by vertices outside the graph are a config bug.

        Regression test: extras used to be silently ignored, so a typo'd
        device mapping could drop participants without any signal.
        """
        g = nx.path_graph(3)
        for engine in ("reference", "fast"):
            net = make_network(g, engine=engine)
            devices = {
                v: Sleeper(v, np.random.default_rng(v)) for v in (0, 1, 2, 99)
            }
            with pytest.raises(ConfigurationError, match="absent from the graph"):
                net.run(devices, max_slots=1)

    def test_empty_graph_rejected(self):
        with pytest.raises(ConfigurationError):
            RadioNetwork(nx.Graph())

    def test_directed_graph_rejected(self):
        """The RN model has symmetric links; both engines would also
        resolve collisions from opposite edge directions on a DiGraph,
        so directed topologies are rejected outright."""
        g = nx.DiGraph([(0, 1)])
        for engine in ("reference", "fast"):
            with pytest.raises(ConfigurationError, match="undirected"):
                make_network(g, engine=engine)

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_trace_records_events(self, engine):
        g = nx.path_graph(2)
        trace = EventTrace()
        net = make_network(g, engine=engine, trace=trace)
        devices = _devices(net, {0: OneShotSender, 1: AlwaysListener})
        net.run(devices, max_slots=1)
        assert list(trace) == [
            Event(0, "transmit", 0, ""), Event(0, "receive", 1, ""),
        ]

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_stop_when(self, engine):
        g = nx.path_graph(2)
        net = make_network(g, engine=engine)
        devices = _devices(net, {0: AlwaysListener, 1: AlwaysListener})
        executed = net.run(devices, max_slots=100, stop_when=lambda: net.slot >= 7)
        assert executed == 7

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_max_degree(self, engine):
        g = nx.star_graph(9)
        assert make_network(g, engine=engine).max_degree == 9


# Every executor tier validates its channel settings through one shared
# helper, so the coercion and both errors are identical across them.
EXECUTORS = {
    "reference": RadioNetwork,
    "fast": FastRadioNetwork,
    "replica-batch": lambda graph, **kw: ReplicaBatchedNetwork(graph, 2, **kw),
}


@pytest.mark.parametrize("make", list(EXECUTORS.values()), ids=list(EXECUTORS))
class TestChannelArguments:
    def test_model_name_coerced(self, make):
        net = make(nx.path_graph(3), collision_model="receiver_cd")
        assert net.collision_model is CollisionModel.RECEIVER_CD
        sinr = make(nx.path_graph(3), collision_model="sinr")
        assert sinr.collision_model is CollisionModel.SINR
        assert sinr.sinr == SinrParams()

    def test_unknown_model_rejected(self, make):
        with pytest.raises(ConfigurationError) as info:
            make(nx.path_graph(3), collision_model="full_duplex")
        assert str(info.value) == (
            "unknown collision model 'full_duplex'; known: "
            + ", ".join(m.value for m in CollisionModel)
        )

    def test_sinr_params_with_binary_model_rejected(self, make):
        with pytest.raises(ConfigurationError) as info:
            make(nx.path_graph(3), collision_model=CollisionModel.NO_CD,
                 sinr=SinrParams())
        assert str(info.value) == (
            "sinr params require collision_model=CollisionModel.SINR, "
            "got 'no_cd'"
        )
