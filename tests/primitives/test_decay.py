"""Tests for the slot-level Decay protocol (Lemma 2.4)."""

import math

import networkx as nx
import pytest

from repro.errors import ConfigurationError
from repro.radio import RadioNetwork, make_network, message_of_ints, topology
from repro.radio.batch_engine import MegaBatchedNetwork, ReplicaBatchedNetwork
from repro.primitives import DecayParameters, run_decay_local_broadcast
from repro.primitives.decay import run_decay_local_broadcast_mega


class TestDecayParameters:
    def test_shape(self):
        p = DecayParameters.for_network(max_degree=16, failure_probability=1 / 256)
        assert p.window == math.ceil(math.log2(16)) + 1
        assert p.iterations == 8
        assert p.total_slots == p.window * p.iterations

    def test_degree_one(self):
        p = DecayParameters.for_network(max_degree=1, failure_probability=0.5)
        assert p.window >= 1
        assert p.iterations >= 1

    def test_invalid_failure_prob(self):
        with pytest.raises(ValueError):
            DecayParameters.for_network(4, 0.0)
        with pytest.raises(ValueError):
            DecayParameters.for_network(4, 1.0)


class TestSingleSender:
    def test_delivery_on_edge(self):
        g = nx.path_graph(2)
        net = RadioNetwork(g)
        out = run_decay_local_broadcast(
            net, {0: message_of_ints(0, 7)}, [1], failure_probability=1e-3, seed=0
        )
        assert 1 in out
        assert out[1].payload == (7,)

    def test_no_sender_no_delivery(self):
        g = nx.path_graph(3)
        net = RadioNetwork(g)
        out = run_decay_local_broadcast(net, {}, [1, 2], seed=0)
        assert out == {}

    def test_disjointness_enforced(self):
        g = nx.path_graph(2)
        net = RadioNetwork(g)
        with pytest.raises(ValueError):
            run_decay_local_broadcast(
                net, {0: message_of_ints(0, 1)}, [0, 1], seed=0
            )


class TestContention:
    def test_star_delivery_with_many_senders(self):
        """Lemma 2.4: even with Delta senders, the hub hears w.h.p."""
        g = topology.star_graph(16)
        successes = 0
        trials = 30
        for s in range(trials):
            net = RadioNetwork(g)
            messages = {
                leaf: message_of_ints(leaf, leaf) for leaf in range(1, 17)
            }
            out = run_decay_local_broadcast(
                net, messages, [0], failure_probability=1 / 64, seed=s
            )
            successes += int(0 in out)
        assert successes >= trials - 2  # failure prob 1/64 per trial

    def test_success_rate_improves_with_lower_f(self):
        g = topology.star_graph(8)
        def rate(f, trials=40):
            wins = 0
            for s in range(trials):
                net = RadioNetwork(g)
                messages = {l: message_of_ints(l, l) for l in range(1, 9)}
                out = run_decay_local_broadcast(
                    net, messages, [0], failure_probability=f, seed=1000 + s
                )
                wins += int(0 in out)
            return wins / trials
        assert rate(1 / 256) >= rate(0.5) - 0.1


class TestEnergyProfile:
    def test_sender_energy_bounded_by_iterations(self):
        """Senders spend exactly `iterations` transmit slots (Lemma 2.4)."""
        g = nx.path_graph(2)
        net = RadioNetwork(g)
        f = 1 / 256
        run_decay_local_broadcast(
            net, {0: message_of_ints(0, 1)}, [1], failure_probability=f, seed=0
        )
        params = DecayParameters.for_network(net.max_degree, f)
        assert net.ledger.device(0).transmit_slots <= params.iterations

    def test_receiver_stops_after_hearing(self):
        """A receiver that hears early spends < total_slots energy."""
        g = nx.path_graph(2)
        totals = []
        for s in range(10):
            net = RadioNetwork(g)
            run_decay_local_broadcast(
                net, {0: message_of_ints(0, 1)}, [1],
                failure_probability=1 / 1024, seed=s,
            )
            totals.append(net.ledger.device(1).listen_slots)
        params = DecayParameters.for_network(1, 1 / 1024)
        # At least some run should stop well before the full window.
        assert min(totals) < params.total_slots

    def test_nonparticipants_spend_nothing(self):
        g = nx.path_graph(4)
        net = RadioNetwork(g)
        run_decay_local_broadcast(
            net, {0: message_of_ints(0, 1)}, [1], seed=0
        )
        assert net.ledger.device(3).slots == 0


class TestRoundMembersMustBeVertices:
    """A sender or receiver that is not a vertex is refused in one line
    before any slot runs: no slot passes and no energy is charged."""

    CASES = [({0: message_of_ints(0, 7)}, [99], "receiver 99"),
             ({42: message_of_ints(0, 7)}, [1], "sender 42")]

    @staticmethod
    def _untouched(slot, ledger):
        assert slot == 0
        assert ledger.time_slots == 0
        assert ledger.snapshot() == {}

    @pytest.mark.parametrize("messages, receivers, named", CASES)
    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_serial_engines(self, engine, messages, receivers, named):
        net = make_network(nx.path_graph(3), engine=engine)
        with pytest.raises(ConfigurationError, match=named) as info:
            run_decay_local_broadcast(net, messages, receivers, seed=0)
        assert "\n" not in str(info.value)
        self._untouched(net.slot, net.ledger)

    @pytest.mark.parametrize("messages, receivers, named", CASES)
    def test_lanes(self, messages, receivers, named):
        member = ReplicaBatchedNetwork(nx.path_graph(3), replicas=2)
        rounds = {(0, 0): ({0: message_of_ints(0, 7)}, [1]),
                  (0, 1): (messages, receivers)}
        with pytest.raises(ConfigurationError, match=named) as info:
            run_decay_local_broadcast_mega(MegaBatchedNetwork([member]),
                                           rounds, seeds={(0, 0): 0, (0, 1): 0})
        assert "\n" not in str(info.value)
        for lane in member.lanes:
            self._untouched(lane.slot, lane.ledger)
