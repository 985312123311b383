"""Neighbor-activity detection, with and without collision detection.

Paper footnote 2: receiver-side CD lets a listener distinguish silence
from noise; but even without CD, "Local-Broadcast allows each vertex to
differentiate between zero and two or more transmitters in polylog(n)
rounds w.h.p." — which is why the paper's results are insensitive to
the CD assumption up to polylog factors.

This module implements both detectors at slot level:

- :func:`detect_with_cd` — one listening slot per probe round; any
  ``NOISE`` or ``MESSAGE`` feedback certifies an active neighbor.
- :func:`detect_without_cd` — runs Decay; a delivered message
  certifies an active neighbor with probability ``1 - f`` (silence is
  inconclusive in one slot, but Decay's back-off makes some slot have
  exactly one transmitter w.h.p.).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Set


from ..radio.channel import CollisionModel, Feedback, Reception
from ..radio.device import Action, Device
from ..radio.message import message_of_ints
from ..radio.network import RadioNetwork
from ..rng import DeviceStreams, SeedLike
from .decay import run_decay_local_broadcast


@dataclass(frozen=True)
class DetectionReport:
    """Which probing receivers detected at least one active neighbor."""

    detected: Set[Hashable]
    slots_used: int


class _ProbeSender(Device):
    """Transmits a beacon in every slot of the probe window."""

    def __init__(self, vertex, rng, window: int) -> None:
        super().__init__(vertex, rng)
        self.window = window
        self.beacon = message_of_ints(vertex, 1, kind="probe")

    def step(self, slot: int) -> Action:
        if slot >= self.window:
            self.halted = True
            return Action.idle()
        return Action.transmit(self.beacon)


class _CDListener(Device):
    """Listens once; under RECEIVER_CD both MESSAGE and NOISE certify."""

    def __init__(self, vertex, rng, window: int) -> None:
        super().__init__(vertex, rng)
        self.window = window
        self.detected = False

    def step(self, slot: int) -> Action:
        if slot >= self.window or self.detected:
            self.halted = True
            return Action.idle()
        return Action.listen()

    def receive(self, slot: int, reception: Reception) -> None:
        if reception.feedback in (Feedback.MESSAGE, Feedback.NOISE):
            self.detected = True


def detect_with_cd(
    network: RadioNetwork,
    active: Iterable[Hashable],
    probers: Iterable[Hashable],
    window: int = 1,
    seed: SeedLike = None,
) -> DetectionReport:
    """Detect active neighbors using receiver-side collision detection.

    Requires ``network.collision_model is RECEIVER_CD``; detection is
    deterministic in one slot (senders beacon every slot, any feedback
    other than silence certifies).
    """
    if network.collision_model is not CollisionModel.RECEIVER_CD:
        raise ValueError("detect_with_cd requires a RECEIVER_CD network")
    active_set = set(active)
    prober_set = set(probers) - active_set
    start = network.slot

    def factory(vertex, rng) -> Device:
        if vertex in active_set:
            return _ShiftedDevice(_ProbeSender(vertex, rng, window), start)
        if vertex in prober_set:
            return _ShiftedDevice(_CDListener(vertex, rng, window), start)
        d = Device(vertex, rng)
        d.halted = True
        return d

    devices = network.spawn_devices(factory, seed=seed)
    network.run(devices, max_slots=window)
    detected = {
        v for v in prober_set if getattr(devices[v].inner, "detected", False)
    }
    return DetectionReport(detected=detected, slots_used=window)


def detect_without_cd(
    network: RadioNetwork,
    active: Iterable[Hashable],
    probers: Iterable[Hashable],
    failure_probability: float = 1e-3,
    seed: SeedLike = None,
) -> DetectionReport:
    """Detect active neighbors without CD, via one Decay execution.

    A prober that receives any message has an active neighbor; by the
    Lemma 2.4 guarantee every prober with an active neighbor receives
    one with probability ``1 - f``.  Costs ``O(log Delta log 1/f)``
    slots — the polylog overhead footnote 2 refers to.
    """
    active_set = set(active)
    prober_set = set(probers) - active_set
    streams = DeviceStreams(seed)
    before = network.slot
    messages = {v: message_of_ints(v, 1, kind="probe") for v in active_set}
    heard = run_decay_local_broadcast(
        network,
        messages,
        prober_set,
        failure_probability=failure_probability,
        seed=streams,
    )
    return DetectionReport(
        detected=set(heard), slots_used=network.slot - before
    )


class _ShiftedDevice(Device):
    """Adapter running an inner device on a shifted clock."""

    def __init__(self, inner: Device, start_slot: int) -> None:
        # `inner` must exist before Device.__init__ assigns `halted`,
        # which routes through the property below.
        self.inner = inner
        self.start_slot = start_slot
        super().__init__(inner.vertex, inner.rng)

    @property
    def halted(self) -> bool:  # type: ignore[override]
        return self.inner.halted

    @halted.setter
    def halted(self, value: bool) -> None:
        self.inner.halted = value

    def step(self, slot: int) -> Action:
        return self.inner.step(slot - self.start_slot)

    def receive(self, slot: int, reception: Reception) -> None:
        self.inner.receive(slot - self.start_slot, reception)

    def output(self):
        return self.inner.output()
