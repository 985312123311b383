"""Sender-side ``PhysicalLBGraph.local_broadcast`` against the receiver scan.

The oracle is the delivery loop as first written: every receiver builds
its list of heard sending neighbours.  The sender-side version first
forms the set of vertices next to a heard sender and builds lists only
there.  Under every fault kind (dead, dropped, jammed) and with
injected Local-Broadcast failures both must deliver the same messages
in the same order, charge the same ledger, count the same fault events
and leave the generator in the same state.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Hashable

import pytest

from repro.primitives import PhysicalLBGraph
from repro.radio import topology
from repro.radio.faults import (
    ChurnSchedule,
    FaultModel,
    IIDDrop,
    Jammer,
    named_fault_models,
)


def oracle_local_broadcast(lbg: PhysicalLBGraph, messages, receivers) -> Dict[Hashable, Any]:
    """The receiver-side delivery loop, run on ``lbg``'s own state."""
    receiver_list = list(receivers)
    sender_set = set(messages)
    counters = lbg.fault_counters
    jammed: frozenset = frozenset()
    if lbg._fault_runtime is not None:
        plan = lbg._fault_runtime.plan(lbg._lb_round)
        jammed = plan.jammed
        if plan.dead:
            sender_set = {u for u in sender_set if u not in plan.dead}
            receiver_list = [v for v in receiver_list if v not in plan.dead]
        if plan.dropped:
            lost = {u for u in sender_set if u in plan.dropped}
            counters.dropped += len(lost)
            heard_from = sender_set - lost
        else:
            heard_from = sender_set
    else:
        heard_from = sender_set
    lbg._lb_round += 1

    lbg.ledger.charge_lb(sender_set, receiver_list)

    delivered: Dict[Hashable, Any] = {}
    for v in receiver_list:
        if v in jammed:
            counters.jammed += 1
            continue
        sending_neighbors = [u for u in lbg._adjacency[v] if u in heard_from]
        if not sending_neighbors:
            continue
        if lbg.failure_probability > 0.0 and (
            lbg.rng.random() < lbg.failure_probability
        ):
            continue
        chosen = sending_neighbors[int(lbg.rng.integers(len(sending_neighbors)))]
        delivered[v] = messages[chosen]
        counters.delivered += 1
    return delivered


FAULTS = {
    "none": None,
    "dead": FaultModel((ChurnSchedule(events=(
        (1, "crash", 0), (2, "crash", 5), (2, "crash", 6), (9, "revive", 5),
    )),)),
    "drop": FaultModel((IIDDrop(0.3),)),
    "jam": FaultModel((Jammer(k=3, period=3, active=2),)),
    "lossy_mixed": named_fault_models()["lossy_mixed"],
}


def _rounds(graph, seed, count=24):
    """A seeded sequence of (messages, receivers) rounds.

    Alternates BFS-like wavefronts (few senders, many receivers) with
    random disjoint splits (many senders), so both the sparse and the
    dense sender case are exercised.
    """
    draw = random.Random(seed)
    nodes = list(graph.nodes)
    rounds = []
    frontier = {nodes[0]}
    settled = set(frontier)
    for r in range(count):
        if r % 2 == 0 and frontier:
            senders = sorted(frontier)
            receivers = [v for v in nodes if v not in settled]
            frontier = {u for s in frontier for u in graph.neighbors(s)} - settled
            settled |= frontier
        else:
            shuffled = nodes[:]
            draw.shuffle(shuffled)
            cut = draw.randrange(1, len(nodes))
            senders = shuffled[:cut]
            receivers = shuffled[cut:cut + draw.randrange(0, len(nodes) - cut + 1)]
        messages = {u: ("m", r, u) for u in senders}
        rounds.append((messages, receivers))
    return rounds


def _pair(graph, fault, failure_probability, seed):
    def make():
        return PhysicalLBGraph(graph, failure_probability=failure_probability,
                               seed=seed, faults=fault, fault_seed=seed + 1)
    return make(), make()


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("failure_probability", [0.0, 0.2])
@pytest.mark.parametrize("family", ["grid", "geometric", "star", "complete", "tree"])
def test_local_broadcast_matches_oracle(family, failure_probability, fault):
    for seed in (0, 11):
        graph = topology.scenario(family, 36, seed=seed)
        new, old = _pair(graph, FAULTS[fault], failure_probability, seed)
        for messages, receivers in _rounds(graph, seed):
            got = new.local_broadcast(messages, receivers)
            want = oracle_local_broadcast(old, messages, receivers)
            assert list(got.items()) == list(want.items())
        assert new.ledger.snapshot() == old.ledger.snapshot()
        assert new.ledger.lb_rounds == old.ledger.lb_rounds
        assert new.fault_counters == old.fault_counters
        assert new.rng.bit_generator.state == old.rng.bit_generator.state
