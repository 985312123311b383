"""Array Decay lanes against the serial device engines.

A batched lane holds no devices: :func:`run_decay_local_broadcast_mega`
turns each lane's round into a
:class:`~repro.radio.batch_engine.LaneSchedule` (the senders' transmit
slots, drawn from their own streams, and the receivers that listen
until their first reception), and
:meth:`~repro.radio.batch_engine.MegaBatchedNetwork.run_lockstep` runs
the schedules as arrays.  Every lane must equal the same seeds run on
the serial fast *and* reference engines, which still step real
:class:`~repro.primitives.decay.DecaySender` /
:class:`~repro.primitives.decay.DecayReceiver` devices: labels, heard
maps (in order), ledger snapshots, fault counters and slot counts, and
the same error when a message breaks the RN[b] limit or a sender picks
a power level off the SINR ladder — raised, among several lanes, for
the sender that first transmits alive, by slot and then by lane key.
"""

from __future__ import annotations

import networkx as nx
import pytest

from repro.core.simple_bfs import decay_bfs, decay_bfs_mega
from repro.errors import MessageTooLargeError, SimulationError
from repro.primitives.decay import (
    DecayParameters,
    run_decay_local_broadcast,
    run_decay_local_broadcast_mega,
)
from repro.radio import (
    ChurnSchedule,
    CollisionModel,
    EnergyLedger,
    FaultModel,
    MegaBatchedNetwork,
    ReplicaBatchedNetwork,
    make_network,
    message_of_ints,
    topology,
)
from repro.radio.faults import named_fault_models
from repro.radio.message import MessageSizePolicy
from repro.radio.sinr import SinrParams

ENGINES = ("fast", "reference")
#: (collision model, standing SINR power level).
CHANNELS = (
    (CollisionModel.NO_CD, 0),
    (CollisionModel.RECEIVER_CD, 0),
    (CollisionModel.SINR, 0),
    (CollisionModel.SINR, 2),
)
CHANNEL_IDS = ["no_cd", "receiver_cd", "sinr-p0", "sinr-p2"]
#: Preset -> the fault counters it must move in some lane.
PRESETS = {
    None: (),
    "drop10": ("dropped",),
    "jam_hubs": ("jammed",),
    "lossy_mixed": ("crashed", "dropped", "jammed"),
}
#: (family, n, depth budget, failure probability) per member: different
#: max degrees (so different Decay lengths) and a depth budget that
#: retires the star's lanes long before the geometric ones.
MEMBERS = (
    ("geometric", 30, 30, 1 / 16),
    ("star_of_paths", 25, 2, 1 / 64),
)
REPLICAS = 2


def _graph(member, named=False):
    """Member ``member``'s topology; ``named`` relabels vertex ``i`` as
    ``"v<i>"`` (same vertex order), so that iterating a set of vertices
    is no longer index order."""
    family, n, _, _ = MEMBERS[member]
    graph = topology.scenario(family, n, seed=member)
    return nx.relabel_nodes(graph, lambda v: f"v{v}") if named else graph


def _seeds(member, replica):
    """(device seed, fault seed) of one lane."""
    return 100 + 10 * member + replica, 500 + 10 * member + replica


def _faults(preset):
    return None if preset is None else named_fault_models()[preset]


def _serial_bfs(engine, model, power, faults, member, replica,
                size_policy=None):
    _, _, depth, f = MEMBERS[member]
    device_seed, fault_seed = _seeds(member, replica)
    net = make_network(_graph(member), engine=engine, collision_model=model,
                       faults=faults, fault_seed=fault_seed,
                       size_policy=size_policy)
    labels = decay_bfs(net, [0], depth, failure_probability=f,
                       seed=device_seed, tx_power=power)
    return (labels, net.slot, net.ledger.snapshot(), net.ledger.time_slots,
            net.fault_counters.as_dict())


def _mega(model, faults, size_policy=None, named=False):
    members = [
        ReplicaBatchedNetwork(
            _graph(m, named), REPLICAS, collision_model=model,
            size_policy=size_policy,
            ledgers=[EnergyLedger() for _ in range(REPLICAS)], faults=faults,
            fault_seeds=[_seeds(m, r)[1] for r in range(REPLICAS)],
        )
        for m in range(len(MEMBERS))
    ]
    return MegaBatchedNetwork(members)


def _mega_bfs(model, power, faults):
    net = _mega(model, faults)
    labels = decay_bfs_mega(
        net,
        sources={m: [0] for m in range(len(MEMBERS))},
        depth_budgets={m: MEMBERS[m][2] for m in range(len(MEMBERS))},
        failure_probabilities={m: MEMBERS[m][3] for m in range(len(MEMBERS))},
        seeds={(m, r): _seeds(m, r)[0]
               for m in range(len(MEMBERS)) for r in range(REPLICAS)},
        tx_power=power,
    )
    return {
        key: (lane_labels, net.lane(key).slot, net.lane(key).ledger.snapshot(),
              net.lane(key).ledger.time_slots,
              net.lane(key).fault_counters.as_dict())
        for key, lane_labels in labels.items()
    }


@pytest.mark.parametrize("preset", list(PRESETS), ids=lambda p: p or "none")
@pytest.mark.parametrize("model, power", CHANNELS, ids=CHANNEL_IDS)
def test_bfs_lanes_match_serial_engines(model, power, preset):
    faults = _faults(preset)
    lanes = _mega_bfs(model, power, faults)
    for (m, r), lane in sorted(lanes.items()):
        for engine in ENGINES:
            assert lane == _serial_bfs(engine, model, power, faults, m, r), (
                engine, m, r)
    for name in PRESETS[preset]:
        assert sum(lane[4][name] for lane in lanes.values()) > 0, name
    assert sum(lane[4]["delivered"] for lane in lanes.values()) > 0
    # The star's lanes retire after two phases, the geometric ones later.
    slots = {key: lane[1] for key, lane in lanes.items()}
    assert max(slots[(1, r)] for r in range(REPLICAS)) < min(
        slots[(0, r)] for r in range(REPLICAS))


def _round(member, replica):
    """A fixed ``(messages, receivers)`` round on the named graph: every
    other vertex sends.  Replica 0's senders include vertex 2, which
    ``lossy_mixed`` crashes from slot 10 to 39."""
    vertices = list(_graph(member, named=True).nodes)
    messages = {u: message_of_ints(u, 7, kind="lane")
                for u in vertices[replica::2]}
    return messages, [v for v in vertices if v not in messages]


@pytest.mark.parametrize("preset", ["drop10", "lossy_mixed"])
@pytest.mark.parametrize("model, power", CHANNELS, ids=CHANNEL_IDS)
def test_one_round_heard_maps_match_in_order(model, power, preset):
    """One Local-Broadcast per lane: the heard map lists its receivers
    in the serial run's order (the receiver set's), not just the same
    pairs."""
    faults = _faults(preset)
    net = _mega(model, faults, named=True)
    keys = [(m, r) for m in range(len(MEMBERS)) for r in range(REPLICAS)]
    heard = run_decay_local_broadcast_mega(
        net, {key: _round(*key) for key in keys},
        failure_probability={m: MEMBERS[m][3] for m in range(len(MEMBERS))},
        seeds={key: _seeds(*key)[0] for key in keys}, tx_power=power,
    )
    for key in keys:
        m, r = key
        device_seed, fault_seed = _seeds(m, r)
        for engine in ENGINES:
            serial = make_network(_graph(m, named=True), engine=engine,
                                  collision_model=model, faults=faults,
                                  fault_seed=fault_seed)
            want = run_decay_local_broadcast(
                serial, *_round(m, r), failure_probability=MEMBERS[m][3],
                seed=device_seed, tx_power=power,
            )
            assert list(heard[key].items()) == list(want.items()), (engine, key)
            lane = net.lane(key)
            assert (lane.slot, lane.ledger.snapshot(),
                    lane.fault_counters.as_dict()) == (
                serial.slot, serial.ledger.snapshot(),
                serial.fault_counters.as_dict()), (engine, key)


def test_size_limit_raises_the_serial_error():
    """RN[b]: a BFS message's size grows with its hop, and the limit
    admits hops 0 and 1 only, so the geometric lanes fail in phase 2 at
    their first transmission.  Every phase starts all active lanes
    together, so the batch raises the serial error (which names the
    sender) of the lane that fails first by (phase, slot within it,
    lane key)."""
    policy = MessageSizePolicy(limit_bits=message_of_ints(0, 1).bits)
    failures = []
    for m in range(len(MEMBERS)):
        graph = _graph(m)
        phase = DecayParameters.for_network(
            max(d for _, d in graph.degree), MEMBERS[m][3]).total_slots
        for r in range(REPLICAS):
            outcomes = set()
            for engine in ENGINES:
                net = make_network(graph, engine=engine, size_policy=policy)
                try:
                    decay_bfs(net, [0], MEMBERS[m][2],
                              failure_probability=MEMBERS[m][3],
                              seed=_seeds(m, r)[0])
                except MessageTooLargeError as exc:
                    outcomes.add((divmod(net.slot, phase), str(exc)))
                else:
                    outcomes.add(None)
            assert len(outcomes) == 1
            outcome = outcomes.pop()
            if outcome is not None:
                failures.append((outcome[0], (m, r), outcome[1]))
    assert failures
    net = _mega(CollisionModel.NO_CD, None, size_policy=policy)
    with pytest.raises(MessageTooLargeError) as info:
        decay_bfs_mega(
            net, sources={0: [0], 1: [0]},
            depth_budgets={m: MEMBERS[m][2] for m in range(len(MEMBERS))},
            failure_probabilities={m: MEMBERS[m][3]
                                   for m in range(len(MEMBERS))},
            seeds={(m, r): _seeds(m, r)[0]
                   for m in range(len(MEMBERS)) for r in range(REPLICAS)},
        )
    assert str(info.value) == min(failures)[2]


#: Out-of-range SINR power level per member, for the power-check cases.
BAD_LEVELS = (len(SinrParams().power_levels), len(SinrParams().power_levels) + 3)


def _violating_lane(violation, member, crashed, engine=None):
    """One lane (member ``member``, alone when ``engine`` names a serial
    engine) whose one sender, vertex 1, breaks the RN[b] limit or picks
    an out-of-range power level; ``crashed`` takes it down from slot 0
    until the end of its first Decay iteration, so its first scheduled
    slots are dead.  Returns ``(network, round, tx_power)``."""
    graph = topology.scenario("grid", 16)
    window = DecayParameters.for_network(
        max(d for _, d in graph.degree), 1 / 16).window
    faults = FaultModel((ChurnSchedule(
        events=((0, "crash", 1), (window, "revive", 1))),)) if crashed else None
    model = CollisionModel.NO_CD if violation == "size" else CollisionModel.SINR
    policy = MessageSizePolicy(limit_bits=message_of_ints(0, 1).bits)
    messages = {1: message_of_ints(1, 10 ** 6 if violation == "size" else 1,
                                   kind=f"member{member}")}
    receivers = [v for v in graph.nodes if v != 1]
    power = 0 if violation == "size" else BAD_LEVELS[member]
    kwargs = dict(collision_model=model, size_policy=policy, faults=faults)
    if engine is None:
        net = ReplicaBatchedNetwork(graph, 1, fault_seeds=[0], **kwargs)
    else:
        net = make_network(graph, engine=engine, fault_seed=0, **kwargs)
    return net, (messages, receivers), power


@pytest.mark.parametrize("violation", ["size", "power"])
@pytest.mark.parametrize("crashed", [(True, False), (False, False)],
                         ids=["lower-key-crashed", "same-slot"])
def test_check_errors_follow_slot_then_lane_key(violation, crashed):
    """Both lanes break a check.  The batch raises the serial engines'
    exact error of the lane whose sender first transmits while alive:
    by slot, then by lane key.  When the lower key's sender is crashed
    through its first scheduled slots, the other lane's error comes
    first; when both transmit first in the same slot, the lower key's
    does."""
    error = MessageTooLargeError if violation == "size" else SimulationError
    first = []
    for member in (0, 1):
        outcomes = set()
        for engine in ENGINES:
            net, round_, power = _violating_lane(
                violation, member, crashed[member], engine)
            with pytest.raises(error) as info:
                run_decay_local_broadcast(net, *round_, failure_probability=1 / 16,
                                          seed=42, tx_power=power)
            outcomes.add((net.slot, type(info.value), str(info.value)))
        assert len(outcomes) == 1
        first.append((*outcomes.pop(), member))
    if crashed[0]:
        assert first[0][0] > first[1][0]
    else:
        assert first[0][0] == first[1][0]
    lanes = [_violating_lane(violation, m, crashed[m]) for m in (0, 1)]
    mega = MegaBatchedNetwork([net for net, _, _ in lanes])
    with pytest.raises(error) as info:
        run_decay_local_broadcast_mega(
            mega, {(m, 0): lanes[m][1] for m in (0, 1)},
            failure_probability=1 / 16, seeds={(0, 0): 42, (1, 0): 42},
            tx_power={m: lanes[m][2] for m in (0, 1)},
        )
    slot, kind, message, _ = min(first, key=lambda f: (f[0], f[3]))
    assert (type(info.value), str(info.value)) == (kind, message)
