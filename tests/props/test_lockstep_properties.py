"""Property: every lockstep lane equals its own serial run.

:meth:`~repro.radio.batch_engine.MegaBatchedNetwork.run_lockstep` runs
every running lane of every member as a few array passes per block of
slots: one global vector per quantity, each lane in its own column
range, and one stacked gather for all senders of a block.  Whatever the
mix — binary and SINR
members in one network, different Decay lengths per member, crash,
drop and jam faults, lanes that sit out a call, lanes with senders but
no receivers or with no participants at all — each lane must equal the
same seeds run alone, call after call, on both serial device engines:
heard maps (in order), per-device energy, fault counters and slot
clocks.  Two successive calls on one network check that the clocks and
fault streams carry over, and a fixed case cut into blocks of a few
slots checks that block boundaries change nothing.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.primitives.decay import (
    DecayParameters,
    run_decay_local_broadcast,
    run_decay_local_broadcast_mega,
)
from repro.radio import (
    ChurnSchedule,
    CollisionModel,
    FaultModel,
    IIDDrop,
    Jammer,
    MegaBatchedNetwork,
    ReplicaBatchedNetwork,
    make_network,
    message_of_ints,
    topology,
)
from repro.radio import batch_engine
from repro.radio.kernels import MegaBatchPlan
from repro.radio.sinr import SinrParams

ENGINES = ("fast", "reference")
#: (family, n) per member.
MEMBERS = (("grid", 16), ("geometric", 14), ("star", 9))
REPLICAS = 3
KEYS = [(m, r) for m in range(len(MEMBERS)) for r in range(REPLICAS)]
FAULTS = ("none", "drop", "jam", "crash", "mixed")
LEVELS = len(SinrParams().power_levels)


def _graph(member):
    family, n = MEMBERS[member]
    return topology.scenario(family, n, seed=member)


def _faults(kind, window):
    """A fault model: ``crash`` takes vertex 1 down from slot 0 until
    slot ``window`` (the member's Decay iteration length), so a sender
    there is dead at its first scheduled slot, and vertex 3 for good
    from slot 2."""
    churn = ChurnSchedule(events=(
        (0, "crash", 1), (window, "revive", 1), (2, "crash", 3),
    ))
    return {
        "none": None,
        "drop": FaultModel((IIDDrop(0.3),)),
        "jam": FaultModel((Jammer(k=1, period=3, active=2),)),
        "crash": FaultModel((churn,)),
        "mixed": FaultModel((IIDDrop(0.2), Jammer(k=1, period=4, active=1),
                             churn)),
    }[kind]


def _round(key, roles):
    """``roles[i]`` is vertex ``i``'s part: ``s`` sends, ``r`` listens,
    ``-`` sleeps."""
    messages = {i: message_of_ints(i, key[0], key[1], kind="prop")
                for i, role in enumerate(roles) if role == "s"}
    return messages, [i for i, role in enumerate(roles) if role == "r"]


def _lane_state(net):
    """A lane's ``(slot, energy, time, counters)``; ``net`` is a lane
    or a serial engine (they share the attribute names)."""
    return (net.slot, net.ledger.snapshot(), net.ledger.time_slots,
            net.fault_counters.as_dict())


def _check(members, calls, seed):
    """Run ``calls`` on one mega network and every lane alone on both
    serial engines; compare after every call.

    ``members[m] = (model, faults kind, failure probability, power)``;
    each call maps a lane key to its roles string.
    """
    graphs = [_graph(m) for m in range(len(MEMBERS))]
    faults = [
        _faults(kind, DecayParameters.for_network(
            max(d for _, d in graph.degree), f).window)
        for graph, (_, kind, f, _) in zip(graphs, members)
    ]

    def fault_seed(key):
        return seed + 7 * key[0] + key[1]

    net = MegaBatchedNetwork([
        ReplicaBatchedNetwork(
            graph, REPLICAS, collision_model=model, faults=model_faults,
            fault_seeds=[fault_seed((m, r)) for r in range(REPLICAS)],
        )
        for m, (graph, (model, _, _, _), model_faults) in enumerate(
            zip(graphs, members, faults))
    ])
    serial = {
        (key, engine): make_network(
            graphs[key[0]], engine=engine, collision_model=members[key[0]][0],
            faults=faults[key[0]], fault_seed=fault_seed(key))
        for key in KEYS for engine in ENGINES
    }
    for call, lanes in enumerate(calls):
        rounds = {key: _round(key, roles) for key, roles in lanes.items()}
        seeds = {key: seed * 100 + call * 10 + key[0] * REPLICAS + key[1]
                 for key in rounds}
        heard = run_decay_local_broadcast_mega(
            net, rounds,
            failure_probability={m: spec[2] for m, spec in enumerate(members)},
            seeds=seeds,
            tx_power={m: spec[3] for m, spec in enumerate(members)},
        )
        for key, (messages, receivers) in rounds.items():
            _, _, f, power = members[key[0]]
            for engine in ENGINES:
                want = run_decay_local_broadcast(
                    serial[key, engine], messages, receivers,
                    failure_probability=f, seed=seeds[key], tx_power=power)
                assert list(heard[key].items()) == list(want.items()), (
                    call, key, engine)
        for key in KEYS:
            for engine in ENGINES:
                assert _lane_state(net.lane(key)) == _lane_state(
                    serial[key, engine]), (call, key, engine)
    return net


_MODELS = st.sampled_from([CollisionModel.NO_CD, CollisionModel.RECEIVER_CD])


@st.composite
def _members(draw):
    """Member 0 binary, member 1 SINR, member 2 either."""
    models = [draw(_MODELS), CollisionModel.SINR,
              draw(st.sampled_from([*CollisionModel]))]
    return [
        (model, draw(st.sampled_from(FAULTS)),
         draw(st.sampled_from([1 / 4, 1 / 16, 1 / 64])),
         draw(st.integers(0, LEVELS - 1))
         if model is CollisionModel.SINR else 0)
        for model in models
    ]


@st.composite
def _calls(draw):
    """Two calls, each on a non-empty subset of the lanes; replica 0's
    vertex 1 always sends."""
    calls = []
    for _ in range(2):
        lanes = {}
        for key in sorted(draw(st.sets(st.sampled_from(KEYS), min_size=1))):
            n = MEMBERS[key[0]][1]
            roles = draw(st.text(alphabet="-sr", min_size=n, max_size=n))
            if key[1] == 0:
                roles = roles[:1] + "s" + roles[2:]
            lanes[key] = roles
        calls.append(lanes)
    return calls


@given(members=_members(), calls=_calls(), seed=st.integers(0, 50))
@settings(max_examples=12, deadline=None)
def test_every_lane_matches_its_serial_runs(members, calls, seed):
    _check(members, calls, seed)


def _fixed_mix():
    """One fixed run through every case the property names: a sender
    dead at its first scheduled slot (lane (0, 0), vertex 1), a lane
    with senders but no receivers ((0, 1)), a lane with no participants
    ((0, 2)), a member of which only some lanes run, and lanes whose
    second call continues their clocks and fault streams."""
    members = [
        (CollisionModel.NO_CD, "crash", 1 / 16, 0),
        (CollisionModel.SINR, "mixed", 1 / 64, 1),
        (CollisionModel.RECEIVER_CD, "jam", 1 / 4, 0),
    ]
    first = {
        (0, 0): "rs" + "r" * 14,
        (0, 1): "s-s-" + "-" * 12,
        (0, 2): "-" * 16,
        (1, 0): "s" + "r" * 13,
        (1, 1): "srsr" + "r" * 10,
        (2, 0): "s" + "r" * 8,
    }
    second = {
        (0, 0): "sr" * 8,
        (1, 2): "r" * 5 + "s" + "r" * 8,
        (2, 0): "r" * 8 + "s",
        (2, 1): "-s" + "r" * 7,
    }
    return _check(members, [first, second], seed=3)


def test_fixed_mix_covers_every_case():
    net = _fixed_mix()
    lanes = {key: net.lane(key) for key in KEYS}
    assert lanes[(0, 2)].slot == 0
    assert lanes[(2, 2)].slot == 0
    assert lanes[(0, 0)].fault_counters.crashed > 0
    assert sum(lane.fault_counters.dropped for lane in lanes.values()) > 0
    assert sum(lane.fault_counters.jammed for lane in lanes.values()) > 0
    # Decay lengths differ by member, and the second call adds on.
    assert len({lanes[(m, 1)].slot for m in (0, 1)}) == 2
    assert lanes[(0, 0)].slot == lanes[(0, 1)].slot * 2


def test_fixed_mix_across_blocks(monkeypatch):
    """The fixed run again, each lockstep call cut into blocks of a few
    slots: every lane still equals its serial runs."""
    monkeypatch.setattr(batch_engine, "BLOCK_CELLS", 64)
    blocks = []
    reduce = MegaBatchPlan.counts_codes_many

    def recorded(plan, rows, codes, shifts, slots, until):
        blocks.append(int(until.max()))
        return reduce(plan, rows, codes, shifts, slots, until)

    monkeypatch.setattr(MegaBatchPlan, "counts_codes_many", recorded)
    net = _fixed_mix()
    # Every block is shorter than the shortest round (member 2's, two
    # iterations of four slots), so every round spans several blocks.
    assert min(lane.slot for lane in net.members[2].lanes if lane.slot) == 8
    assert len(blocks) > 4 and max(blocks) < 8
