"""Lane-batched slot execution: one lane or many seeds and cells, one gather.

Every static ``decay_bfs`` spec on the fast engine runs here, alone
(one lane) or fused with others.  The dominant workload of this repo is
sweeps over many seeds of the *same* (topology, algorithm, faults) cell
— every result in the paper is a statement about distributions over
random coin flips — and running them as lanes pays one topology build,
one CSR compile, and one counts/codes gather per slot for all of them.
Two classes hold that:

- :class:`ReplicaBatchedNetwork` is the per-cell state of ``R``
  independent replica lanes of one topology: the topology is compiled
  once (:class:`~repro.radio.fast_engine.CompiledTopology`) and shared
  by every lane, while each lane keeps fully private state — its own
  device population, its own :class:`~repro.radio.energy.EnergyLedger`,
  its own fault stream (via
  :class:`~repro.radio.faults.ReplicaFaultRuntimes`), its own collision
  resolution, and its own slot clock.  It is state only: it owns no
  device loop and no slot loop.
- :class:`MegaBatchedNetwork` is the one lockstep executor.  It packs
  one or more such members — the same topology or different ones — into
  a :class:`~repro.radio.kernels.megabatch.MegaBatchPlan`, so every
  running lane of every member joins **one** integer CSR gather per
  slot, each lane in its own column range.  A replica batch is simply a
  one-member mega batch.

Lanes hold no devices.  Each runs a :class:`LaneSchedule`, the array
form of one Decay round (Lemma 2.4): a sender's whole transmit schedule
is fixed by its geometric draws before the round starts, and a receiver
listens until its first reception, so per slot a lane's transmitters
are its scheduled senders that are not dead and its listeners are the
receivers that have not yet heard and are not dead.  The device-callback
loop lives only in the serial engines
(:meth:`~repro.radio.fast_engine.FastRadioNetwork.step` and the
reference one), which are the oracle the lanes are pinned against
(``tests/radio/test_decay_lanes.py``).

Bit-identity contract
---------------------
A lane produces **byte-identical** results to the same seed executed
alone on either serial engine: identical executed slot counts,
per-device energy counters, fault counters, and delivered messages.
Nothing about a lane's randomness, fault draws, or channel outcomes
depends on any other lane — batching is purely an execution strategy
(enforced by ``tests/radio/test_batch_engine.py`` and
``tests/experiments/test_batch_equivalence.py``).

Lanes do not all have to run at once:
:meth:`MegaBatchedNetwork.run_lockstep` advances whichever subset of
lanes the caller supplies schedules for, so a multi-phase protocol
(e.g. the batched Decay-BFS of
:func:`repro.core.simple_bfs.decay_bfs_mega`) keeps only its
still-active lanes in the gather as wavefronts finish at different
depths.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import networkx as nx
import numpy as np

from ..errors import ConfigurationError
from ..rng import DeviceStreams, SeedLike
from .channel import CollisionModel
from .device import Device
from .energy import EnergyLedger
from .fast_engine import CompiledTopology
from .faults import FaultCounters, FaultModel, ReplicaFaultRuntimes
from .kernels import MegaBatchPlan
from .kernels.sinr_csr import SinrCsr, sinr_arbitrate_many
from .message import Message, MessageSizePolicy
from .network import coerce_channel, spawn_device_map, validate_topology
from .sinr import SinrField, SinrParams, check_power_level
from .topology import degrees


@dataclass
class ReplicaLane:
    """The per-replica slice of a :class:`ReplicaBatchedNetwork`.

    Everything a single serial engine would own per run lives here:
    the energy ledger, the fault/delivery counters, and the slot clock,
    under the same ``slot``/``ledger``/``fault_counters`` names a
    :class:`~repro.radio.network.SlotEngineBase` uses.
    """

    index: int
    ledger: EnergyLedger
    fault_counters: FaultCounters = field(default_factory=FaultCounters)
    slot: int = 0


def _as_int(value: object, what: str) -> Optional[int]:
    """``value`` as a Python ``int`` if it is any integral type, else
    ``None``; a ``bool`` is refused, since ``True == 1`` would silently
    address lane 1."""
    if isinstance(value, (bool, np.bool_)):
        raise ConfigurationError(f"{what} must be an int, not a bool ({value!r})")
    return int(value) if isinstance(value, numbers.Integral) else None


@dataclass
class LaneSchedule:
    """One lane's round as arrays: who transmits when, and who listens.

    ``transmits`` maps a slot offset (counted from the lane's clock when
    :meth:`MegaBatchedNetwork.run_lockstep` starts) to the member vertex
    indices, ascending, that transmit in that slot; ``messages`` maps
    each sender index to its message, sent at standing SINR power level
    ``power``.  Each of ``receivers`` (vertex indices, ascending)
    listens from the first slot until its first reception.  The
    executor fills ``heard``: receiver index -> the message it heard.
    """

    transmits: Mapping[int, Sequence[int]]
    messages: Mapping[int, Message]
    receivers: Sequence[int]
    power: int = 0
    heard: Dict[int, Message] = field(default_factory=dict)


_NO_VERTICES: FrozenSet[Hashable] = frozenset()


class _ScheduleRun:
    """One lane's state for one :meth:`MegaBatchedNetwork.run_lockstep`
    call: the mask of receivers still listening, this slot's staging,
    and the lane's transmit and listen totals, flushed to its ledger at
    the end.
    """

    __slots__ = ("key", "lane", "member", "schedule", "budget", "executed",
                 "listening", "tx_counts", "listen_counts", "tx",
                 "listeners", "jam", "resolved")

    def __init__(self, key: Tuple[int, int], member: "ReplicaBatchedNetwork",
                 schedule: LaneSchedule, budget: int) -> None:
        n = member._topology.n
        self.key = key
        self.lane = member.lanes[key[1]]
        self.member = member
        self.schedule = schedule
        self.budget = budget
        self.executed = 0
        self.listening = np.zeros(n, dtype=bool)
        self.listening[list(schedule.receivers)] = True
        self.tx_counts = np.zeros(n, dtype=np.int64)
        self.listen_counts = np.zeros(n, dtype=np.int64)

    @property
    def needs_channel(self) -> bool:
        """Whether this slot has both transmitters and listeners."""
        return bool(self.tx) and self.listeners.size > 0

    def collect(self) -> None:
        """Draw the slot's fault plan, stage its transmitters and
        listeners, and add their energy to the lane's totals.

        Dead senders and receivers sit the slot out; a dropped sender
        pays for its transmission but never reaches the channel.  The
        RN[b] and power-level checks run per transmission, in vertex
        order, exactly where the serial engines run them.
        """
        member, lane, schedule = self.member, self.lane, self.schedule
        plan = member._fault_runtimes.plan(lane.index, lane.slot)
        dead = dropped = jammed = _NO_VERTICES
        if plan is not None:
            dead, dropped, jammed = plan.dead, plan.dropped, plan.jammed
        vertices = member._topology.vertices
        sinr = member.sinr
        self.tx = tx = []
        for i in schedule.transmits.get(self.executed, ()):
            vertex = vertices[i]
            if vertex in dead:
                continue
            member.size_policy.check(schedule.messages[i])
            if sinr is None:
                self.tx_counts[i] += 1
            else:
                level = check_power_level(vertex, schedule.power, sinr)
                self.tx_counts[i] += sinr.power_costs[level]
            if vertex in dropped:
                lane.fault_counters.dropped += 1
            else:
                tx.append(i)
        listening = self.listening
        if dead:
            listening = listening & ~member._mask(dead)
        self.listen_counts += listening
        self.listeners = listeners = np.flatnonzero(listening)
        self.jam = member._mask(jammed)[listeners] if jammed else None

    def dispatch(self) -> None:
        """Deliver this slot's receptions (from :attr:`resolved` when
        :attr:`needs_channel`) and advance the lane's clock.  A jammed
        listener hears nothing, like a collision."""
        counters = self.lane.fault_counters
        jam = self.jam
        if jam is not None:
            counters.jammed += int(np.count_nonzero(jam))
        if self.needs_channel:
            resolved, listeners = self.resolved, self.listeners
            if len(resolved) == 3:
                deliver = resolved[2][listeners]
            else:
                deliver = resolved[0][listeners] == 1
            if jam is not None:
                deliver &= ~jam
            got = listeners[deliver]
            if len(got):
                messages, heard = self.schedule.messages, self.schedule.heard
                for i, code in zip(got.tolist(), resolved[1][got].tolist()):
                    heard[i] = messages[code - 1]
                counters.delivered += len(got)
                self.listening[got] = False
        self.executed += 1
        self.lane.slot += 1

    def flush(self) -> None:
        """Charge the lane's totals to its ledger in one pass."""
        active = np.flatnonzero(self.tx_counts + self.listen_counts)
        vertices = self.member._topology.vertices
        ledger = self.lane.ledger
        ledger.charge_slot_counts(
            [vertices[i] for i in active.tolist()],
            self.tx_counts[active].tolist(),
            self.listen_counts[active].tolist(),
        )
        ledger.advance_time(self.executed)


class ReplicaBatchedNetwork:
    """R replica lanes of one topology: one mega-batch member.

    Holds the shared compiled topology (and SINR gain field), one
    :class:`ReplicaLane` per replica, and the per-lane fault runtimes,
    which :class:`MegaBatchedNetwork` reads when it runs the lanes'
    schedules.

    Parameters
    ----------
    graph:
        The shared communication topology (one compile serves every
        lane).
    replicas:
        Number of independent replica lanes.
    collision_model, size_policy:
        Channel semantics, shared by all lanes (replicas of one spec
        always agree on these).
    ledgers:
        One :class:`EnergyLedger` per lane; fresh ledgers are created
        when omitted.
    faults:
        Optional shared :class:`~repro.radio.faults.FaultModel`; each
        lane draws from its *own* ``fault_seeds`` stream, so the same
        model meets per-replica randomness exactly as in serial runs.
    fault_seeds:
        One dedicated fault stream (or seed) per lane; defaults to
        ``None`` per lane.
    sinr:
        Optional :class:`~repro.radio.sinr.SinrParams` (or preset name /
        mapping), exactly as on the serial engines: required context for
        ``CollisionModel.SINR`` (defaults apply when omitted), rejected
        for the binary models.  The per-edge gain field is compiled once
        and shared by every lane.
    """

    def __init__(
        self,
        graph: nx.Graph,
        replicas: int,
        collision_model: CollisionModel = CollisionModel.NO_CD,
        size_policy: Optional[MessageSizePolicy] = None,
        ledgers: Optional[Sequence[EnergyLedger]] = None,
        faults: Optional[FaultModel] = None,
        fault_seeds: Optional[Sequence[SeedLike]] = None,
        sinr: Union[None, str, Mapping, SinrParams] = None,
    ) -> None:
        validate_topology(graph)
        count = _as_int(replicas, "replicas")
        if count is None or count < 1:
            raise ConfigurationError(
                f"replicas must be a positive int, got {replicas!r}"
            )
        self.graph = graph
        self.replicas = replicas = count
        collision_model, sinr_params = coerce_channel(collision_model, sinr)
        self.collision_model = collision_model
        self.size_policy = size_policy or MessageSizePolicy.unbounded()
        self._topology = CompiledTopology(graph)
        #: Vertex -> index in the compiled topology (a
        #: :class:`LaneSchedule` names vertices by these indices).
        self.index: Dict[Hashable, int] = self._topology.index
        # Fault vertex sets as index masks; jam regions and dead sets recur.
        self._masks: Dict[FrozenSet[Hashable], np.ndarray] = {}
        self.sinr = sinr_params
        self._sinr_csr: Optional[SinrCsr] = (
            SinrCsr.compile(
                SinrField(graph, sinr_params),
                self._topology.adjacency,
                self._topology.vertices,
            )
            if sinr_params is not None
            else None
        )
        if ledgers is None:
            ledgers = [EnergyLedger() for _ in range(replicas)]
        elif len(ledgers) != replicas:
            raise ConfigurationError(
                f"need one ledger per replica: got {len(ledgers)} "
                f"for {replicas} replicas"
            )
        if fault_seeds is None:
            fault_seeds = [None] * replicas
        elif len(fault_seeds) != replicas:
            raise ConfigurationError(
                f"need one fault seed per replica: got {len(fault_seeds)} "
                f"for {replicas} replicas"
            )
        self.lanes: List[ReplicaLane] = [
            ReplicaLane(index=r, ledger=ledgers[r]) for r in range(replicas)
        ]
        self._fault_runtimes = ReplicaFaultRuntimes(
            faults, graph, seeds=list(fault_seeds),
            counters=[lane.fault_counters for lane in self.lanes],
        )

    # ------------------------------------------------------------------
    def lane(self, replica: int) -> ReplicaLane:
        """The per-replica state slice (ledger, counters, slot clock)."""
        return self.lanes[replica]

    @property
    def max_degree(self) -> int:
        """Maximum degree of the shared topology (the Delta of Lemma 2.4)."""
        return max(degrees(self.graph).values(), default=0)

    def spawn_devices(
        self,
        factory: Callable[[Hashable, np.random.Generator], Device],
        seed: Union[SeedLike, DeviceStreams] = None,
    ) -> Dict[Hashable, Device]:
        """One device per vertex, derived as on the serial engines
        (:func:`~repro.radio.network.spawn_device_map`).  Lanes run
        schedules, not devices: nothing in the package calls this, and
        it stays only because ``perfbench/tracer.py`` wraps it by name."""
        return spawn_device_map(self._topology.vertices, factory, seed)

    def _mask(self, vertices: FrozenSet[Hashable]) -> np.ndarray:
        """``vertices`` as a boolean mask over vertex indices."""
        mask = self._masks.get(vertices)
        if mask is None:
            mask = np.zeros(self._topology.n, dtype=bool)
            index = self._topology.index
            mask[[index[v] for v in vertices]] = True
            self._masks[vertices] = mask
        return mask

    def _check_replica(self, replica: int) -> int:
        """The lane index as a Python ``int``."""
        index = _as_int(replica, "replica lane")
        if index is None or not 0 <= index < self.replicas:
            raise ConfigurationError(
                f"unknown replica lane {replica!r}; "
                f"this network has {self.replicas} lanes"
            )
        return index

    def run_lockstep(
        self,
        schedules: Mapping[int, LaneSchedule],
        max_slots: int,
    ) -> Dict[int, int]:
        """Run the supplied lanes as a one-member
        :class:`MegaBatchedNetwork`; returns executed slots per lane."""
        executed = MegaBatchedNetwork([self]).run_lockstep(
            {(0, r): schedule for r, schedule in schedules.items()}, max_slots
        )
        return {r: slots for (_, r), slots in executed.items()}


#: A mega lane key: (member index, replica lane index within member).
MegaLaneKey = Tuple[int, int]


class MegaBatchedNetwork:
    """One or more members, one fused gather per slot.

    The lockstep executor of every batched run.  It packs replica-batched
    *members* — each a :class:`ReplicaBatchedNetwork` with its own
    topology, collision model, fault model, and lane set; a replica batch
    is a single member — into one
    :class:`~repro.radio.kernels.megabatch.MegaBatchPlan`, so every
    running lane of every member joins the same gather each slot.
    Per-lane semantics are untouched: every lane draws its member's
    fault plan each slot, stages the transmitters and listeners of its
    :class:`LaneSchedule`, charges its own ledger and fault counters,
    and gets its own column range in the gather (see
    :mod:`repro.radio.kernels.megabatch`), so each lane stays
    **byte-identical** to its own serial run, whether the members share
    a topology or not.

    Because members generally have different Decay parameter budgets
    (different max degrees), :meth:`run_lockstep` accepts either a
    single slot budget or one per lane.
    """

    def __init__(self, members: Sequence[ReplicaBatchedNetwork]) -> None:
        if not members:
            raise ConfigurationError(
                "MegaBatchedNetwork requires at least one member network"
            )
        self.members: List[ReplicaBatchedNetwork] = list(members)
        self._plan = MegaBatchPlan(
            [m._topology.adjacency for m in self.members]
        )

    # ------------------------------------------------------------------
    def member(self, index: int) -> ReplicaBatchedNetwork:
        """The member network at ``index`` (its lanes, topology, faults)."""
        return self.members[index]

    def lane(self, key: MegaLaneKey) -> ReplicaLane:
        """The per-lane state slice for ``(member, replica)``."""
        member, replica = key
        return self.members[member].lane(replica)

    def _check_key(self, key: MegaLaneKey) -> MegaLaneKey:
        """The key's member index as a Python ``int``, and its replica
        as given (the member checks that)."""
        member = (
            _as_int(key[0], "member")
            if isinstance(key, tuple) and len(key) == 2 else None
        )
        if member is None:
            raise ConfigurationError(
                f"mega lane keys are (member, replica) int pairs; got {key!r}"
            )
        if not 0 <= member < len(self.members):
            raise ConfigurationError(
                f"unknown member {member!r}; "
                f"this network has {len(self.members)} members"
            )
        return member, key[1]

    # ------------------------------------------------------------------
    def run_lockstep(
        self,
        schedules: Mapping[MegaLaneKey, LaneSchedule],
        max_slots: Union[int, Mapping[MegaLaneKey, int]],
    ) -> Dict[MegaLaneKey, int]:
        """Run every supplied lane's schedule, fusing all members per slot.

        ``schedules`` maps ``(member, replica)`` -> that lane's
        :class:`LaneSchedule`.  ``max_slots`` is either one budget for
        every lane or a mapping with one budget per supplied lane; lanes
        retire individually when their budget is spent, without holding
        up the others, and a lane with no sender and no receiver runs no
        slot (the serial ``run`` loop's stop rule).  Each lane's energy
        is charged to its ledger once, at the end.  Returns the executed
        slot count per lane key.
        """
        if isinstance(max_slots, bool) or not isinstance(
            max_slots, (numbers.Integral, Mapping)
        ):
            raise ConfigurationError(
                f"max_slots must be an int or a per-lane mapping of ints; "
                f"got {max_slots!r}"
            )
        lanes: Dict[MegaLaneKey, LaneSchedule] = {}
        for key, schedule in schedules.items():
            m, replica = self._check_key(key)
            lanes[(m, self.members[m]._check_replica(replica))] = schedule
        if isinstance(max_slots, numbers.Integral):
            budgets = {key: int(max_slots) for key in lanes}
        else:
            try:
                budgets = {key: int(max_slots[key]) for key in lanes}
            except KeyError as exc:
                raise ConfigurationError(
                    f"max_slots mapping is missing a budget for lane "
                    f"{exc.args[0]!r}"
                ) from None
        runs = [
            _ScheduleRun(key, self.members[key[0]], lanes[key], budgets[key])
            for key in sorted(lanes)
        ]
        # The serial stop rule: a Decay sender halts only once its round
        # is over, so a lane with any participant runs its whole budget,
        # and a lane with none runs no slot.
        running = [
            run for run in runs
            if (run.schedule.messages or run.schedule.receivers) and run.budget > 0
        ]
        while running:
            for run in running:
                run.collect()
            # One gather for every lane, of every member, that needs the
            # channel.  SINR members take the fused arbitration kernel
            # instead (its own gather over all such lanes).
            need = [run for run in running if run.needs_channel]
            binary = [run for run in need if run.member._sinr_csr is None]
            sinr = [run for run in need if run.member._sinr_csr is not None]
            if binary:
                resolved = self._plan.counts_codes_many([
                    (run.key[0], np.asarray(run.tx, dtype=np.int64))
                    for run in binary
                ])
                for run, pair in zip(binary, resolved):
                    run.resolved = pair
            if sinr:
                arbitrated = sinr_arbitrate_many([
                    (run.member._sinr_csr,
                     np.asarray(run.tx, dtype=np.int64),
                     np.full(len(run.tx), run.schedule.power, dtype=np.int64))
                    for run in sinr
                ])
                for run, triple in zip(sinr, arbitrated):
                    run.resolved = triple
            for run in running:
                run.dispatch()
            running = [run for run in running if run.executed < run.budget]
        for run in runs:
            run.flush()
        return {run.key: run.executed for run in runs}
