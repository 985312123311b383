"""The Decay protocol: slot-level Local-Broadcast (paper Lemma 2.4).

``Local-Broadcast``: given disjoint sets ``S`` (senders, each holding a
message) and ``R`` (receivers), guarantee that every receiver with at
least one sending neighbor hears *some* neighboring sender's message
with probability ``1 - f``.

Lemma 2.4's implementation (a small modification of Bar-Yehuda,
Goldreich, Itai's Decay algorithm): each sender repeats, for
``O(log 1/f)`` iterations, "pick ``X in [1, log Delta]`` with
``P(X = t) >= 2^-t`` and transmit at step ``X`` of the iteration".
If the number of sending neighbors of a receiver lies in
``[2^{t-1}, 2^t]``, step ``t`` of each iteration delivers with constant
probability.

Costs (matching the lemma): senders spend ``O(log 1/f)`` slots;
receivers that hear a message spend ``O(log Delta)`` slots in
expectation (they stop after the first reception); receivers that hear
nothing spend ``Theta(log Delta log 1/f)`` slots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (
    Dict,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
    Union,
)

import networkx as nx
import numpy as np

from ..radio.batch_engine import (
    LaneSchedule,
    MegaBatchedNetwork,
    ReplicaBatchedNetwork,
)
from ..radio.channel import Reception
from ..radio.device import Action, Device
from ..radio.engine import coerce_network
from ..radio.message import Message
from ..radio.network import SlotEngineBase
from ..rng import DeviceStreams, SeedLike, device_streams


@dataclass(frozen=True)
class DecayParameters:
    """Shape of one Decay execution.

    ``window`` is the per-iteration slot count (``ceil(log2 Delta) + 1``)
    and ``iterations`` the repetition count (``ceil(log2 1/f)``, at
    least 1).
    """

    window: int
    iterations: int

    @classmethod
    def for_network(cls, max_degree: int, failure_probability: float) -> "DecayParameters":
        """Derive parameters from ``Delta`` and the target failure prob ``f``."""
        if not (0.0 < failure_probability < 1.0):
            raise ValueError(
                f"failure_probability must be in (0, 1), got {failure_probability}"
            )
        window = max(1, math.ceil(math.log2(max(2, max_degree)))) + 1
        iterations = max(1, math.ceil(math.log2(1.0 / failure_probability)))
        return cls(window=window, iterations=iterations)

    @property
    def total_slots(self) -> int:
        """Wall-clock length of the protocol in slots."""
        return self.window * self.iterations

    def sender_slots(self, rng: np.random.Generator) -> List[int]:
        """A sender's transmit slots, as offsets from the round's start:
        one :func:`~repro.rng.geometric_decay_slot` per iteration.  The
        iterations share one vector draw, which NumPy fills with the
        scalar sampler in order (values and stream position are pinned
        equal to the scalar loop by a test)."""
        draws = np.minimum(rng.geometric(0.5, size=self.iterations), self.window)
        return (np.arange(0, self.total_slots, self.window) + draws - 1).tolist()


class DecaySender(Device):
    """Sender role: transmit at a geometric slot in each iteration.

    ``start_slot`` anchors the protocol to the network's current clock,
    so repeated Decay executions on one long-lived network line up (the
    slot argument passed by the executor is absolute).  ``power`` sets
    the sender's standing transmit power level (an index into the SINR
    power ladder; ignored by the binary collision models).
    """

    def __init__(
        self,
        vertex: Hashable,
        rng: np.random.Generator,
        message: Message,
        params: DecayParameters,
        start_slot: int = 0,
        power: int = 0,
    ) -> None:
        super().__init__(vertex, rng)
        self.power_level = power
        self.message = message
        self.params = params
        self.start_slot = start_slot
        self._end_slot = start_slot + params.total_slots
        self._slots: Set[int] = set(params.sender_slots(rng))

    def step(self, slot: int) -> Action:
        if slot >= self._end_slot:
            self.halted = True
            return Action.idle()
        if slot - self.start_slot in self._slots:
            return Action.transmit(self.message)
        return Action.idle()


class DecayReceiver(Device):
    """Receiver role: listen until first reception (or protocol end)."""

    def __init__(
        self,
        vertex: Hashable,
        rng: np.random.Generator,
        params: DecayParameters,
        start_slot: int = 0,
    ) -> None:
        super().__init__(vertex, rng)
        self.params = params
        self.start_slot = start_slot
        self._end_slot = start_slot + params.total_slots
        self.received: Optional[Message] = None

    def step(self, slot: int) -> Action:
        if slot >= self._end_slot or self.received is not None:
            self.halted = True
            return Action.idle()
        return Action.listen()

    def receive(self, slot: int, reception: Reception) -> None:
        if reception.received:
            self.received = reception.message

    def output(self) -> Optional[Message]:
        return self.received


class _SleepingDevice(Device):
    """Non-participant: sleeps for the whole protocol (zero energy)."""

    def __init__(self, vertex: Hashable, rng: np.random.Generator) -> None:
        super().__init__(vertex, rng)
        self.halted = True


def _round_receivers(
    messages: Mapping[Hashable, Message], receivers: Iterable[Hashable]
) -> Set[Hashable]:
    """The receiver set of one round; senders and receivers must be disjoint."""
    receiver_set = set(receivers)
    overlap = set(messages) & receiver_set
    if overlap:
        raise ValueError(f"senders and receivers must be disjoint; overlap={overlap}")
    return receiver_set


def run_decay_local_broadcast(
    network: Union[nx.Graph, SlotEngineBase],
    messages: Mapping[Hashable, Message],
    receivers: Iterable[Hashable],
    failure_probability: float = 1e-3,
    seed=None,
    engine: Optional[str] = None,
    tx_power: int = 0,
) -> Dict[Hashable, Message]:
    """Execute one slot-level Local-Broadcast on ``network``.

    ``network`` may be an already-constructed slot engine, or a bare
    ``networkx`` graph together with an ``engine`` name
    (``"reference"``/``"fast"``) — the engine is then built via
    :func:`~repro.radio.engine.make_network`.  ``tx_power`` is the
    senders' standing SINR power level (ignored by the binary collision
    models).

    Returns ``{receiver: message}`` for every receiver that heard one.
    Senders and receivers must be disjoint; all other vertices sleep.
    """
    network = coerce_network(network, engine)
    receiver_set = _round_receivers(messages, receivers)
    params = DecayParameters.for_network(network.max_degree, failure_probability)
    start = network.slot

    def factory(vertex: Hashable, rng: np.random.Generator) -> Device:
        if vertex in messages:
            return DecaySender(
                vertex, rng, messages[vertex], params, start, power=tx_power,
            )
        if vertex in receiver_set:
            return DecayReceiver(vertex, rng, params, start)
        return _SleepingDevice(vertex, rng)

    devices = network.spawn_devices(factory, seed=seed)
    network.run(devices, max_slots=params.total_slots)
    outputs = {v: devices[v].output() for v in receiver_set}
    return {v: out for v, out in outputs.items() if out is not None}


def run_decay_local_broadcast_batch(
    network: ReplicaBatchedNetwork,
    rounds: Mapping[int, Tuple[Mapping[Hashable, Message], Iterable[Hashable]]],
    failure_probability: float = 1e-3,
    seeds: Optional[Mapping[int, SeedLike]] = None,
    tx_power: int = 0,
) -> Dict[int, Dict[Hashable, Message]]:
    """One Decay Local-Broadcast per replica lane of ``network``: the
    one-member case of :func:`run_decay_local_broadcast_mega`."""
    heard = run_decay_local_broadcast_mega(
        MegaBatchedNetwork([network]),
        {(0, r): round_ for r, round_ in rounds.items()},
        failure_probability=failure_probability,
        seeds={(0, r): seed for r, seed in (seeds or {}).items()},
        tx_power=tx_power,
    )
    return {r: lane_heard for (_, r), lane_heard in heard.items()}


def _lane_schedule(
    index: Mapping[Hashable, int],
    messages: Mapping[Hashable, Message],
    receiver_set: Set[Hashable],
    params: DecayParameters,
    power: int,
    seed: Union[SeedLike, DeviceStreams],
) -> LaneSchedule:
    """One lane's Decay round as a :class:`LaneSchedule`.

    Reserves one device stream per vertex, as the serial round's spawn
    does, but builds only the senders' Generators: each sender draws
    its :meth:`DecayParameters.sender_slots` exactly as its
    :class:`DecaySender` would.
    """
    streams, base = device_streams(seed, len(index))
    transmits: Dict[int, List[int]] = {}
    sender_messages: Dict[int, Message] = {}
    for i, v in sorted((index[v], v) for v in messages if v in index):
        sender_messages[i] = messages[v]
        for offset in params.sender_slots(streams.generator(base + i)):
            transmits.setdefault(offset, []).append(i)
    return LaneSchedule(
        transmits=transmits,
        messages=sender_messages,
        receivers=sorted(index[v] for v in receiver_set),
        power=power,
    )


def run_decay_local_broadcast_mega(
    network: MegaBatchedNetwork,
    rounds: Mapping[
        Tuple[int, int],
        Tuple[Mapping[Hashable, Message], Iterable[Hashable]],
    ],
    failure_probability: Union[float, Mapping[int, float]] = 1e-3,
    seeds: Optional[Mapping[Tuple[int, int], Union[SeedLike, DeviceStreams]]] = None,
    tx_power: Union[int, Mapping[int, int]] = 0,
) -> Dict[Tuple[int, int], Dict[Hashable, Message]]:
    """One Decay Local-Broadcast per lane, fused across *members*.

    The lane-batched form of :func:`run_decay_local_broadcast`:
    ``rounds`` maps a ``(member, replica)`` lane key of a
    :class:`~repro.radio.batch_engine.MegaBatchedNetwork` to that lane's
    ``(messages, receivers)`` round.  Each member derives its **own**
    :class:`DecayParameters` from its own ``Delta`` (and its own target
    failure probability, when ``failure_probability`` maps member index
    to ``f``), so lanes of different members run protocols of different
    lengths — the per-lane slot budgets passed to
    :meth:`~repro.radio.batch_engine.MegaBatchedNetwork.run_lockstep`
    retire each lane exactly when its own serial protocol would end.
    Each round runs as a
    :class:`~repro.radio.batch_engine.LaneSchedule`: no device objects,
    and only the senders' random streams are built.

    Returns ``{(member, replica): {receiver: message}}``, each lane's
    mapping byte-identical to its serial
    :func:`run_decay_local_broadcast` run.
    """
    seeds = seeds or {}
    params_by_member: Dict[int, DecayParameters] = {}
    schedules: Dict[Tuple[int, int], LaneSchedule] = {}
    budgets: Dict[Tuple[int, int], int] = {}
    receiver_sets: Dict[Tuple[int, int], Set[Hashable]] = {}
    for key in sorted(rounds):
        member_index, _ = key
        member = network.member(member_index)
        if member_index not in params_by_member:
            f = (
                failure_probability[member_index]
                if isinstance(failure_probability, Mapping)
                else failure_probability
            )
            params_by_member[member_index] = DecayParameters.for_network(
                member.max_degree, f
            )
        params = params_by_member[member_index]
        messages, receivers = rounds[key]
        receiver_set = _round_receivers(messages, receivers)
        power = (
            tx_power.get(member_index, 0)
            if isinstance(tx_power, Mapping)
            else tx_power
        )
        schedules[key] = _lane_schedule(
            member.index, messages, receiver_set, params, power, seeds.get(key)
        )
        budgets[key] = params.total_slots
        receiver_sets[key] = receiver_set

    network.run_lockstep(schedules, max_slots=budgets)
    heard_by_lane: Dict[Tuple[int, int], Dict[Hashable, Message]] = {}
    for key, receiver_set in receiver_sets.items():
        index = network.member(key[0]).index
        heard = schedules[key].heard
        heard_by_lane[key] = {
            v: heard[index[v]] for v in receiver_set if index[v] in heard
        }
    return heard_by_lane
