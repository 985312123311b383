"""Replica-batched engine: bit-identity to serial runs, lane semantics.

The contract under test (see ``src/repro/radio/batch_engine.py``): a
replica lane of :class:`ReplicaBatchedNetwork`, driven as a one-member
:class:`MegaBatchedNetwork`, produces **byte-identical** state to the
same seed executed alone on a serial engine — labels, executed slot
counts, per-device energy snapshots, and fault counters — for every
fault preset and collision model.  Batching is an execution strategy,
never an observable.

The identical contract holds across *heterogeneous* members: every
``(member, replica)`` lane of a mega batch must match its own serial
run bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.simple_bfs import decay_bfs, decay_bfs_mega
from repro.errors import ConfigurationError
from repro.primitives.decay import (
    run_decay_local_broadcast,
    run_decay_local_broadcast_batch,
)
from repro.radio import (
    CollisionModel,
    EnergyLedger,
    MegaBatchedNetwork,
    ReplicaBatchedNetwork,
    make_network,
    topology,
)
from repro.radio.batch_engine import LaneSchedule
from repro.radio.faults import named_fault_models
from repro.radio.message import message_of_ints
from repro.rng import make_rng, spawn_streams

PRESETS = sorted(named_fault_models())
COLLISION_MODELS = [CollisionModel.NO_CD, CollisionModel.RECEIVER_CD]
REPLICAS = 4
#: No transmission: a schedule's empty ``slots`` and ``senders``.
NO_SLOTS = np.zeros(0, dtype=np.int64)


def _fault_model(preset):
    model = named_fault_models()[preset]
    return None if model.is_null() else model


def _replica_streams(seed):
    """The (fault stream, protocol stream) pair one replica derives.

    Mirrors the experiment layer's derivation: stream 3 of the master
    seed feeds fault injection (its first child drives the slot view),
    stream 2 drives the protocol.
    """
    streams = spawn_streams(make_rng(seed), 4)
    slot_faults, _ = spawn_streams(streams[3], 2)
    return slot_faults, streams[2]


def _serial_bfs(graph, seed, collision_model, faults, depth):
    fault_seed, protocol_rng = _replica_streams(seed)
    net = make_network(graph, engine="fast", collision_model=collision_model,
                       faults=faults, fault_seed=fault_seed)
    labels = decay_bfs(net, [0], depth, seed=protocol_rng)
    return (labels, net.slot, net.ledger.snapshot(),
            net.fault_counters.as_dict(), net.ledger.time_slots)


def _batched_bfs(graph, seeds, collision_model, faults, depth):
    ledgers = [EnergyLedger() for _ in seeds]
    fault_seeds, rngs = [], []
    for seed in seeds:
        fault_seed, protocol_rng = _replica_streams(seed)
        fault_seeds.append(fault_seed)
        rngs.append(protocol_rng)
    net = ReplicaBatchedNetwork(graph, len(seeds),
                                collision_model=collision_model,
                                ledgers=ledgers, faults=faults,
                                fault_seeds=fault_seeds)
    labels = decay_bfs_mega(
        MegaBatchedNetwork([net]), sources={0: [0]}, depth_budgets={0: depth},
        seeds={(0, r): rng for r, rng in enumerate(rngs)},
    )
    return net, ledgers, [labels[(0, r)] for r in range(len(seeds))]


@pytest.mark.parametrize("collision_model", COLLISION_MODELS,
                         ids=[m.value for m in COLLISION_MODELS])
@pytest.mark.parametrize("preset", PRESETS)
def test_batched_bfs_bit_identical_to_serial(preset, collision_model):
    """Labels, slots, ledgers, and fault counters match per replica."""
    graph = topology.scenario("star_of_paths", 24)
    faults = _fault_model(preset)
    seeds = list(range(REPLICAS))
    net, ledgers, labels = _batched_bfs(graph, seeds, collision_model,
                                        faults, depth=24)
    for r, seed in enumerate(seeds):
        ref_labels, ref_slot, ref_snapshot, ref_faults, ref_time = _serial_bfs(
            graph, seed, collision_model, faults, depth=24
        )
        assert labels[r] == ref_labels
        assert net.lane(r).slot == ref_slot
        assert ledgers[r].snapshot() == ref_snapshot
        assert ledgers[r].time_slots == ref_time
        assert net.lane(r).fault_counters.as_dict() == ref_faults


def test_batched_local_broadcast_matches_serial():
    """One Decay round: per-lane heard maps equal the serial primitive."""
    graph = topology.scenario("wheel", 20)
    messages = {0: message_of_ints(0, 7, kind="bfs")}
    receivers = [v for v in graph.nodes if v != 0]
    seeds = list(range(REPLICAS))

    serial = []
    for seed in seeds:
        net = make_network(graph, engine="fast")
        heard = run_decay_local_broadcast(net, messages, receivers,
                                          seed=make_rng(seed))
        serial.append((heard, net.slot, net.ledger.snapshot()))

    ledgers = [EnergyLedger() for _ in seeds]
    net = ReplicaBatchedNetwork(graph, REPLICAS, ledgers=ledgers)
    heard_by_lane = run_decay_local_broadcast_batch(
        net,
        {r: (messages, receivers) for r in range(REPLICAS)},
        seeds={r: make_rng(seed) for r, seed in enumerate(seeds)},
    )
    for r in range(REPLICAS):
        ref_heard, ref_slot, ref_snapshot = serial[r]
        assert heard_by_lane[r] == ref_heard
        assert net.lane(r).slot == ref_slot
        assert ledgers[r].snapshot() == ref_snapshot


def test_lanes_can_finish_at_different_depths():
    """A lane whose wavefront exhausts early freezes its slot clock."""
    from repro.radio.faults import FaultModel, IIDDrop

    # 90% loss on a path: most wavefronts stall at seed-dependent
    # depths, so replica slot clocks genuinely diverge.
    graph = topology.scenario("path", 12)
    faults = FaultModel((IIDDrop(0.9),))
    seeds = [0, 1, 3]
    net, _, labels = _batched_bfs(graph, seeds, CollisionModel.NO_CD,
                                  faults, depth=12)
    for r, seed in enumerate(seeds):
        ref_labels, ref_slot, _, _, _ = _serial_bfs(
            graph, seed, CollisionModel.NO_CD, faults, depth=12
        )
        assert labels[r] == ref_labels
        assert net.lane(r).slot == ref_slot
    # The lockstep driver must not equalize clocks across lanes.
    slots = {net.lane(r).slot for r in range(len(seeds))}
    assert len(slots) > 1


def _listener():
    """A lane schedule with one receiver and no sender: it listens for
    its whole budget."""
    return LaneSchedule(slots=NO_SLOTS, senders=NO_SLOTS, messages={},
                        receivers=[0])


def test_unknown_replica_lane_is_rejected():
    net = ReplicaBatchedNetwork(topology.scenario("path", 6), 2)
    with pytest.raises(ConfigurationError, match="unknown replica"):
        net.run_lockstep({5: _listener()}, max_slots=1)
    with pytest.raises(ConfigurationError, match="unknown replica"):
        MegaBatchedNetwork([net]).run_lockstep({(0, -1): _listener()}, 1)
    assert [lane.slot for lane in net.lanes] == [0, 0]


def test_a_lane_without_participants_runs_no_slot():
    """The serial stop rule: a round with no sender and no receiver is
    over before its first slot, whatever its budget."""
    net = ReplicaBatchedNetwork(topology.scenario("path", 6), 2)
    empty = LaneSchedule(slots=NO_SLOTS, senders=NO_SLOTS, messages={},
                         receivers=[])
    assert net.run_lockstep({0: empty, 1: _listener()}, 4) == {0: 0, 1: 4}
    assert [lane.slot for lane in net.lanes] == [0, 4]
    assert [lane.ledger.time_slots for lane in net.lanes] == [0, 4]
    assert net.lane(1).ledger.snapshot() == {0: (0, 4, 0, 0)}


def test_constructor_validation():
    graph = topology.scenario("path", 4)
    with pytest.raises(ConfigurationError, match="replicas"):
        ReplicaBatchedNetwork(graph, 0)
    with pytest.raises(ConfigurationError, match="ledger"):
        ReplicaBatchedNetwork(graph, 3, ledgers=[EnergyLedger()])
    with pytest.raises(ConfigurationError, match="fault seed"):
        ReplicaBatchedNetwork(graph, 3, fault_seeds=[None])
    import networkx as nx
    with pytest.raises(ConfigurationError, match="undirected"):
        ReplicaBatchedNetwork(nx.DiGraph([(0, 1)]), 2)


def test_lane_indices_take_numpy_ints_and_refuse_bools():
    """Lane keys and the replica count accept any integer type but
    ``bool``: ``True == 1`` would silently run (and report) lane 1."""
    graph = topology.scenario("path", 6)
    for replicas in (True, np.True_):
        with pytest.raises(ConfigurationError, match="not a bool") as info:
            ReplicaBatchedNetwork(graph, replicas)
        assert "\n" not in str(info.value)
    net = ReplicaBatchedNetwork(graph, np.int64(2))
    assert type(net.replicas) is int and len(net.lanes) == 2
    mega = MegaBatchedNetwork([net])

    for key in [(True, 0), (0, True), (0, np.True_)]:
        with pytest.raises(ConfigurationError, match="not a bool") as info:
            mega.run_lockstep({key: _listener()}, 3)
        assert "\n" not in str(info.value)
    with pytest.raises(ConfigurationError, match="not a bool"):
        net.run_lockstep({True: _listener()}, 3)
    assert [lane.slot for lane in net.lanes] == [0, 0]

    executed = mega.run_lockstep({(np.int64(0), np.int64(1)): _listener()},
                                 np.int64(3))
    assert executed == {(0, 1): 3}
    assert all(type(i) is int for key in executed for i in key)
    assert [lane.slot for lane in net.lanes] == [0, 3]
    executed = net.run_lockstep({np.int32(0): _listener()}, 2)
    assert executed == {0: 2} and type(next(iter(executed))) is int
    assert [lane.slot for lane in net.lanes] == [2, 3]


def test_single_replica_batch_degenerates_to_fast_engine():
    """R=1 is legal and still bit-identical to a serial run."""
    graph = topology.scenario("barbell", 18)
    net, ledgers, labels = _batched_bfs(graph, [3], CollisionModel.RECEIVER_CD,
                                        _fault_model("jam_hubs"), depth=18)
    ref_labels, ref_slot, ref_snapshot, ref_faults, _ = _serial_bfs(
        graph, 3, CollisionModel.RECEIVER_CD, _fault_model("jam_hubs"), depth=18
    )
    assert labels[0] == ref_labels
    assert net.lane(0).slot == ref_slot
    assert ledgers[0].snapshot() == ref_snapshot
    assert net.lane(0).fault_counters.as_dict() == ref_faults


# ---------------------------------------------------------------------------
# Heterogeneous mega batching
# ---------------------------------------------------------------------------

MEGA_MEMBERS = [("grid", 25, 24), ("star", 17, 8), ("cycle", 30, 30)]


def _mega_bfs(collision_model, faults, member_order=None):
    """Run Decay-BFS over three heterogeneous members, 2 lanes each."""
    members_spec = (
        MEGA_MEMBERS if member_order is None
        else [MEGA_MEMBERS[i] for i in member_order]
    )
    seeds = list(range(2))
    member_nets, all_ledgers = [], []
    for name, n, _depth in members_spec:
        graph = topology.scenario(name, n)
        ledgers = [EnergyLedger() for _ in seeds]
        fault_seeds = [_replica_streams(s)[0] for s in seeds]
        member_nets.append(ReplicaBatchedNetwork(
            graph, len(seeds), collision_model=collision_model,
            ledgers=ledgers, faults=faults, fault_seeds=fault_seeds))
        all_ledgers.append(ledgers)
    net = MegaBatchedNetwork(member_nets)
    labels = decay_bfs_mega(
        net,
        sources={m: [0] for m in range(len(members_spec))},
        depth_budgets={m: depth for m, (_, _, depth) in
                       enumerate(members_spec)},
        seeds={(m, r): _replica_streams(s)[1]
               for m in range(len(members_spec))
               for r, s in enumerate(seeds)},
    )
    return members_spec, seeds, net, all_ledgers, labels


@pytest.mark.parametrize("collision_model", COLLISION_MODELS,
                         ids=[m.value for m in COLLISION_MODELS])
@pytest.mark.parametrize("preset", PRESETS)
def test_mega_bfs_bit_identical_to_serial(preset, collision_model):
    """Every lane of every member matches its own serial run exactly."""
    faults = _fault_model(preset)
    members_spec, seeds, net, ledgers, labels = _mega_bfs(
        collision_model, faults)
    for m, (name, n, depth) in enumerate(members_spec):
        graph = topology.scenario(name, n)
        for r, seed in enumerate(seeds):
            ref_labels, ref_slot, ref_snapshot, ref_faults, ref_time = (
                _serial_bfs(graph, seed, collision_model, faults, depth)
            )
            assert labels[(m, r)] == ref_labels
            assert net.lane((m, r)).slot == ref_slot
            assert ledgers[m][r].snapshot() == ref_snapshot
            assert ledgers[m][r].time_slots == ref_time
            assert net.lane((m, r)).fault_counters.as_dict() == ref_faults


def test_mega_member_order_never_changes_lane_results():
    """Packing order is an execution detail, not an observable."""
    forward = _mega_bfs(CollisionModel.RECEIVER_CD,
                        _fault_model("lossy_mixed"))
    shuffled = _mega_bfs(CollisionModel.RECEIVER_CD,
                         _fault_model("lossy_mixed"), member_order=[2, 0, 1])
    order = [2, 0, 1]
    for pos, m in enumerate(order):
        for r in range(2):
            assert shuffled[4][(pos, r)] == forward[4][(m, r)]
            assert (shuffled[2].lane((pos, r)).slot
                    == forward[2].lane((m, r)).slot)
            assert (shuffled[3][pos][r].snapshot()
                    == forward[3][m][r].snapshot())


def test_mega_lane_key_and_budget_validation():
    graph_a = topology.scenario("path", 6)
    graph_b = topology.scenario("star", 5)
    net = MegaBatchedNetwork([
        ReplicaBatchedNetwork(graph_a, 1),
        ReplicaBatchedNetwork(graph_b, 1),
    ])
    schedules = {(m, 0): _listener() for m in range(2)}
    with pytest.raises(ConfigurationError, match="missing a budget"):
        net.run_lockstep(schedules, max_slots={(0, 0): 4})
    with pytest.raises(ConfigurationError, match="unknown member"):
        net.run_lockstep({(7, 0): _listener()}, max_slots=1)
    with pytest.raises(ConfigurationError, match="int pairs"):
        net.run_lockstep({"lane0": _listener()}, max_slots=1)
    with pytest.raises(ConfigurationError, match="at least one member"):
        MegaBatchedNetwork([])
    # Heterogeneous budgets: lanes retire at their own limits.
    executed = net.run_lockstep(schedules,
                                max_slots={(0, 0): 3, (1, 0): 5})
    assert executed == {(0, 0): 3, (1, 0): 5}


# ---------------------------------------------------------------------------
# Argument handling: numpy scalars, one-line errors
# ---------------------------------------------------------------------------

def _scalar_runs(failure_probability, tx_power):
    """Labels/heard maps and ledgers of the serial, replica-delegation and
    mega Decay entry points.  A binary model: the SINR executors validate
    power levels as Python ints on every tier alike."""
    model = CollisionModel.RECEIVER_CD
    grid = topology.scenario("grid", 16)
    star = topology.scenario("star", 9)
    runs = []

    net = make_network(grid, engine="fast", collision_model=model)
    labels = decay_bfs(net, [0], 8, failure_probability=failure_probability,
                       seed=make_rng(5), tx_power=tx_power)
    runs.append((labels, net.slot, net.ledger.snapshot()))

    replicas = ReplicaBatchedNetwork(grid, 2, collision_model=model)
    messages = {0: message_of_ints(0, 0, kind="bfs")}
    receivers = [v for v in grid.nodes if v != 0]
    heard = run_decay_local_broadcast_batch(
        replicas, {r: (messages, receivers) for r in range(2)},
        failure_probability=failure_probability,
        seeds={r: make_rng(r) for r in range(2)}, tx_power=tx_power,
    )
    runs.append((heard, [(lane.slot, lane.ledger.snapshot())
                         for lane in replicas.lanes]))

    mega = MegaBatchedNetwork([
        ReplicaBatchedNetwork(grid, 2, collision_model=model),
        ReplicaBatchedNetwork(star, 1, collision_model=model),
    ])
    labels = decay_bfs_mega(
        mega, sources={0: [0], 1: [0]}, depth_budgets={0: 8, 1: 3},
        failure_probabilities=failure_probability,
        seeds={key: make_rng(7 + i)
               for i, key in enumerate([(0, 0), (0, 1), (1, 0)])},
        tx_power=tx_power,
    )
    runs.append((labels, {key: (mega.lane(key).slot,
                                mega.lane(key).ledger.snapshot())
                          for key in labels}))
    return runs


@pytest.mark.parametrize("failure_probability, tx_power", [
    (np.float32(0.01), np.int64(0)),
    (np.float64(0.05), np.int32(2)),
], ids=["float32-int64", "float64-int32"])
def test_numpy_scalar_arguments_match_python_scalars(failure_probability,
                                                     tx_power):
    """Scalar-or-mapping parameters accept numpy scalars as scalars."""
    got = _scalar_runs(failure_probability, tx_power)
    want = _scalar_runs(float(failure_probability), int(tx_power))
    assert got == want


def test_mega_bfs_missing_member_sources_is_a_configuration_error():
    net = MegaBatchedNetwork([
        ReplicaBatchedNetwork(topology.scenario("path", 6), 1),
        ReplicaBatchedNetwork(topology.scenario("star", 5), 1),
    ])
    with pytest.raises(ConfigurationError, match="no sources for member 1") as info:
        decay_bfs_mega(net, sources={0: [0]}, depth_budgets={0: 3, 1: 3})
    assert "\n" not in str(info.value)


def test_mega_lockstep_rejects_a_bool_budget():
    net = MegaBatchedNetwork([
        ReplicaBatchedNetwork(topology.scenario("path", 6), 1)])
    with pytest.raises(ConfigurationError, match="max_slots") as info:
        net.run_lockstep({(0, 0): _listener()}, max_slots=True)
    assert "\n" not in str(info.value)
