"""Differential: randomized raw devices on the two serial engines.

Decay devices stop listening at their first reception, so the Decay
equivalence suites never drive an engine through long, mixed feedback
sequences.  Here randomized devices (each slot: transmit at a random
power level, listen, or idle) run on two topologies under every
collision model and three fault presets, and the serial fast engine's
device loop (:meth:`~repro.radio.fast_engine.FastRadioNetwork.step`)
must equal the reference engine: per-device feedback logs, ledger
snapshots, fault counters and slot counts.  The two serial engines are
the oracle: every static fast ``decay_bfs`` spec runs on the array
lanes, which run Decay rounds, not devices, and
``tests/radio/test_decay_lanes.py`` pins them against both engines.

The serial engines are also stepped one :meth:`step` at a time, with
the ledger, fault counters and trace compared after every slot, so
neither engine can defer its energy charges past the slot that spent
them.
"""

from __future__ import annotations

import pytest

from repro.radio import (
    Action,
    CollisionModel,
    Device,
    EventTrace,
    make_network,
    message_of_ints,
    topology,
)
from repro.radio.faults import named_fault_models
from repro.radio.sinr import SinrParams

MODELS = (CollisionModel.NO_CD, CollisionModel.RECEIVER_CD, CollisionModel.SINR)
#: Preset -> the fault counters it must move in every lane.
PRESETS = {
    "drop10": ("dropped",),
    "jam_hubs": ("jammed",),
    "lossy_mixed": ("crashed", "dropped", "jammed"),
}
HORIZON = 24
LEVELS = len(SinrParams().power_levels)
#: (family, n, slot budget) per topology.  The second budget ends the
#: run before the devices halt.
MEMBERS = (("geometric", 30, HORIZON + 1), ("grid", 25, 17))
REPLICAS = 2


class _FuzzDevice(Device):
    """Randomized device logging every channel feedback it perceives."""

    def __init__(self, vertex, rng):
        super().__init__(vertex, rng)
        self.log = []

    def step(self, slot):
        if slot >= HORIZON:
            self.halted = True
            return Action.idle()
        roll = self.rng.random()
        if roll < 0.35:
            power = int(self.rng.integers(LEVELS))
            return Action.transmit(
                message_of_ints(self.vertex, slot, kind="fuzz"), power=power
            )
        if roll < 0.75:
            return Action.listen()
        return Action.idle()

    def receive(self, slot, reception):
        sender = reception.message.sender if reception.message else None
        self.log.append((slot, reception.feedback, sender))


def _graph(member):
    family, n, _ = MEMBERS[member]
    return topology.scenario(family, n, seed=member)


def _lane_seeds(member, replica):
    """(device seed, fault seed) of one lane."""
    return 100 + 10 * member + replica, 500 + 10 * member + replica


def _outcome(executed, devices, slot, ledger, counters):
    return (
        executed,
        {v: d.log for v, d in devices.items()},
        slot,
        ledger.snapshot(),
        ledger.time_slots,
        counters.as_dict(),
    )


def _serial(engine, model, faults, member, replica):
    device_seed, fault_seed = _lane_seeds(member, replica)
    net = make_network(_graph(member), engine=engine, collision_model=model,
                       faults=faults, fault_seed=fault_seed)
    devices = net.spawn_devices(_FuzzDevice, seed=device_seed)
    executed = net.run(devices, max_slots=MEMBERS[member][2])
    return _outcome(executed, devices, net.slot, net.ledger, net.fault_counters)


@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("model", MODELS, ids=[m.value for m in MODELS])
def test_serial_engines_match_on_every_seed(model, preset):
    """Both topologies, two device/fault seed pairs each: the fast
    engine equals the reference engine over the whole run."""
    faults = named_fault_models()[preset]
    runs = {
        (m, r): _serial("fast", model, faults, m, r)
        for m in range(len(MEMBERS)) for r in range(REPLICAS)
    }
    for (m, r), fast in sorted(runs.items()):
        assert fast == _serial("reference", model, faults, m, r), (m, r)
    for *_, counters in runs.values():
        assert all(counters[name] > 0 for name in PRESETS[preset]), counters
    # The fuzz populations reach every feedback path the model has.
    feedback = {
        entry[1]
        for _, logs, *_ in runs.values()
        for log in logs.values()
        for entry in log
    }
    assert len(feedback) == (2 if model is CollisionModel.NO_CD else 3)


@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("model", MODELS, ids=[m.value for m in MODELS])
def test_serial_engines_agree_after_every_slot(model, preset):
    """Ledger, fault counters, trace and logs agree slot by slot."""
    faults = named_fault_models()[preset]
    device_seed, fault_seed = _lane_seeds(0, 0)
    runs = []
    for engine in ("reference", "fast"):
        trace = EventTrace()
        net = make_network(_graph(0), engine=engine, collision_model=model,
                           trace=trace, faults=faults, fault_seed=fault_seed)
        runs.append((net, trace, net.spawn_devices(_FuzzDevice, seed=device_seed)))
    for _ in range(HORIZON + 1):
        states = []
        for net, trace, devices in runs:
            net.step(devices)
            states.append((
                net.slot,
                net.ledger.time_slots,
                net.ledger.snapshot(),
                net.fault_counters.as_dict(),
                list(trace),
                {v: list(d.log) for v, d in devices.items()},
            ))
        assert states[0] == states[1], f"diverged at slot {runs[0][0].slot - 1}"
    assert runs[0][0].ledger.total_slots() > 0
