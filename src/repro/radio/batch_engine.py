"""Lane-batched slot execution: many seeds, many cells, one gather.

The dominant workload of this repo is sweeps over many seeds of the
*same* (topology, algorithm, faults) cell — every result in the paper
is a statement about distributions over random coin flips.  The
single-replica engines pay one topology build, one CSR compile, and one
counts/codes gather per slot **per seed**.  Two classes amortize that:

- :class:`ReplicaBatchedNetwork` is the per-cell state of ``R``
  independent replica lanes of one topology: the topology is compiled
  once (:class:`~repro.radio.fast_engine.CompiledTopology`) and shared
  by every lane, while each lane keeps fully private state — its own
  device population, its own :class:`~repro.radio.energy.EnergyLedger`,
  its own fault stream (via
  :class:`~repro.radio.faults.ReplicaFaultRuntimes`), its own collision
  resolution, and its own slot clock.  It collects and dispatches a
  slot's actions per lane but owns no slot loop of its own.
- :class:`MegaBatchedNetwork` is the one lockstep executor.  It packs
  one or more such members — the same topology or different ones — into
  a :class:`~repro.radio.kernels.megabatch.MegaBatchPlan`, so every
  running lane of every member joins **one** integer CSR gather per
  slot, each lane in its own column range.  A replica batch is simply a
  one-member mega batch.

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
lanes the caller supplies populations for, so a multi-phase protocol
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
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import networkx as nx
import numpy as np

from ..errors import ConfigurationError, SimulationError
from ..rng import SeedLike
from .channel import CollisionModel, Feedback, Reception
from .device import ActionKind, Device
from .energy import EnergyLedger
from .fast_engine import _NOISE, _NOTHING, _SILENCE, CompiledTopology
from .faults import FaultCounters, FaultModel, ReplicaFaultRuntimes
from .kernels import MegaBatchPlan
from .kernels.sinr_csr import SinrCsr, sinr_arbitrate_many
from .message import Message, MessageSizePolicy
from .network import (
    coerce_channel,
    jam_reception_for,
    spawn_device_map,
    validate_population,
    validate_topology,
)
from .sinr import SinrField, SinrParams, transmit_level


@dataclass
class ReplicaLane:
    """The per-replica slice of a :class:`ReplicaBatchedNetwork`.

    Everything a single serial engine would own per run lives here:
    the energy ledger, the fault/delivery counters, and the slot clock.
    Exposes the same ``slot``/``ledger``/``fault_counters`` attributes
    the :class:`~repro.radio.engine.Engine` protocol names, so the
    experiment layer can read a lane exactly like a network.
    """

    index: int
    ledger: EnergyLedger
    fault_counters: FaultCounters = field(default_factory=FaultCounters)
    slot: int = 0


class _LaneRun:
    """Mutable per-lane state for one
    :meth:`MegaBatchedNetwork.run_lockstep` call."""

    __slots__ = ("lane", "live", "executed", "tx_counts", "listen_counts",
                 "msgs", "tx_idx", "tx_levels", "listeners", "resolved")

    def __init__(self, lane: ReplicaLane, live: List[Tuple[Hashable, Device]],
                 n: int) -> None:
        self.lane = lane
        self.live = live
        self.executed = 0
        self.tx_counts = np.zeros(n, dtype=np.int64)
        self.listen_counts = np.zeros(n, dtype=np.int64)
        self.msgs: List[Optional[Message]] = [None] * n
        self.tx_idx: List[int] = []
        # Power level per live transmitter (aligned with tx_idx); only
        # populated under the SINR collision model.
        self.tx_levels: List[int] = []
        # (index, device, jammed) per listener, rebuilt every slot.
        self.listeners: List[Tuple[int, Device, bool]] = []
        # This slot's fused-gather output: a (counts, codes) pair for
        # the binary models, a (counts, codes, deliver) triple under
        # SINR arbitration.
        self.resolved: Optional[Tuple[np.ndarray, ...]] = None


class ReplicaBatchedNetwork:
    """R replica lanes of one topology: one mega-batch member.

    Holds the shared compiled topology (and SINR gain field), one
    :class:`ReplicaLane` per replica, and the per-lane fault runtimes;
    :meth:`_collect_actions` and :meth:`_dispatch` are the per-lane
    halves of a slot that :class:`MegaBatchedNetwork` drives around its
    fused gather.

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

    name = "fast-batch"

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
        if not isinstance(replicas, int) or isinstance(replicas, bool) or replicas < 1:
            raise ConfigurationError(
                f"replicas must be a positive int, got {replicas!r}"
            )
        self.graph = graph
        self.replicas = replicas
        collision_model, sinr_params = coerce_channel(collision_model, sinr)
        self.collision_model = collision_model
        self.size_policy = size_policy or MessageSizePolicy.unbounded()
        self._topology = CompiledTopology(graph)
        self._node_set: Set[Hashable] = set(graph.nodes)
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
        self._jam_reception = jam_reception_for(collision_model)

    # ------------------------------------------------------------------
    def lane(self, replica: int) -> ReplicaLane:
        """The per-replica state slice (ledger, counters, slot clock)."""
        return self.lanes[replica]

    @property
    def max_degree(self) -> int:
        """Maximum degree of the shared topology (the Delta of Lemma 2.4)."""
        return max((d for _, d in self.graph.degree), default=0)

    def spawn_devices(
        self,
        factory: Callable[[Hashable, np.random.Generator], Device],
        seed: SeedLike = None,
    ) -> Dict[Hashable, Device]:
        """Instantiate one device per vertex with independent RNG streams.

        Same shared derivation as
        :meth:`~repro.radio.network.SlotEngineBase.spawn_devices`
        (:func:`~repro.radio.network.spawn_device_map`): pass a lane's
        protocol stream as ``seed`` and the lane's devices draw exactly
        the randomness its serial run would.
        """
        return spawn_device_map(self._topology.vertices, factory, seed)

    # ------------------------------------------------------------------
    def _check_population(self, replica: int, devices: Mapping[Hashable, Device]) -> None:
        """The same exact-cover validation the serial engines apply."""
        if not isinstance(replica, int) or not (0 <= replica < self.replicas):
            raise ConfigurationError(
                f"unknown replica lane {replica!r}; "
                f"this network has {self.replicas} lanes"
            )
        validate_population(self._node_set, devices)

    def run_lockstep(
        self,
        populations: Mapping[int, Mapping[Hashable, Device]],
        max_slots: int,
    ) -> Dict[int, int]:
        """Advance the supplied lanes as a one-member
        :class:`MegaBatchedNetwork`; returns executed slots per lane."""
        executed = MegaBatchedNetwork([self]).run_lockstep(
            {(0, r): devices for r, devices in populations.items()}, max_slots
        )
        return {r: slots for (_, r), slots in executed.items()}

    def _collect_actions(self, running: List[_LaneRun]) -> None:
        """Phase A of a slot: per lane, collect this slot's actions
        (device callbacks and fault application, exactly as the fast
        engine).  Fills each lane state's ``tx_idx``/``listeners``/
        ``msgs`` staging for channel resolution."""
        index = self._topology.index
        idle_kind = ActionKind.IDLE
        transmit_kind = ActionKind.TRANSMIT
        sinr = self.sinr

        for s in running:
            lane = s.lane
            plan = self._fault_runtimes.plan(lane.index, lane.slot)
            counters = lane.fault_counters
            slot = lane.slot
            tx_counts = s.tx_counts
            listen_counts = s.listen_counts
            msgs = s.msgs
            tx_idx = s.tx_idx = []
            tx_levels = s.tx_levels = []
            listeners = s.listeners = []
            for vertex, device in s.live:
                if device.halted:
                    continue
                if plan is not None and vertex in plan.dead:
                    continue
                action = device.step(slot)
                kind = action.kind
                if kind is idle_kind:
                    continue
                i = index[vertex]
                if kind is transmit_kind:
                    message = action.message
                    if message is None:
                        raise SimulationError(
                            f"device {vertex!r} transmitted no message"
                        )
                    self.size_policy.check(message)
                    if sinr is None:
                        cost = 1
                        level = 0
                    else:
                        level = transmit_level(device, action, sinr)
                        cost = sinr.power_costs[level]
                    # Dropped transmitters are charged like the serial
                    # engines but never enter the channel math.
                    if plan is not None and vertex in plan.dropped:
                        counters.dropped += 1
                    else:
                        tx_idx.append(i)
                        msgs[i] = message
                        if sinr is not None:
                            tx_levels.append(level)
                    tx_counts[i] += cost
                else:  # LISTEN
                    listen_counts[i] += 1
                    listeners.append(
                        (i, device, plan is not None and vertex in plan.jammed)
                    )

    def _dispatch(self, running: List[_LaneRun]) -> None:
        """Phase C of a slot: per lane, dispatch receptions under its
        own collision model outcome and fault plan.  Expects each lane
        needing channel resolution (listeners *and* transmitters) to
        carry this slot's ``resolved`` arrays."""
        has_cd = self.collision_model is not CollisionModel.NO_CD
        silent = _SILENCE if has_cd else _NOTHING
        noisy = _NOISE if has_cd else _NOTHING
        jam = self._jam_reception
        sinr = self._sinr_csr is not None

        for s in running:
            counters = s.lane.fault_counters
            if s.listeners:
                if s.tx_idx:
                    gather = np.asarray(
                        [i for i, _, _ in s.listeners], dtype=np.int64
                    )
                    if sinr:
                        counts, codes, deliver = s.resolved
                        listen_deliver = deliver[gather].tolist()
                    else:
                        counts, codes = s.resolved
                        listen_deliver = (counts[gather] == 1).tolist()
                    listen_counts_slot = counts[gather].tolist()
                    listen_codes = codes[gather].tolist()
                    msgs = s.msgs
                    slot = s.lane.slot
                    for (i, device, jammed), c, code, ok in zip(
                        s.listeners, listen_counts_slot, listen_codes,
                        listen_deliver,
                    ):
                        if jammed:
                            counters.jammed += 1
                            device.receive(slot, jam)
                        elif ok:
                            counters.delivered += 1
                            device.receive(
                                slot, Reception(Feedback.MESSAGE, msgs[code - 1])
                            )
                        elif c == 0:
                            device.receive(slot, silent)
                        else:
                            device.receive(slot, noisy)
                else:
                    slot = s.lane.slot
                    for _, device, jammed in s.listeners:
                        if jammed:
                            counters.jammed += 1
                            device.receive(slot, jam)
                        else:
                            device.receive(slot, silent)
            for i in s.tx_idx:
                s.msgs[i] = None


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
    Per-lane semantics are untouched: device callbacks, fault
    draws, energy charging, and collision outcomes all run through the
    member's own machinery (:meth:`ReplicaBatchedNetwork._collect_actions`
    / :meth:`ReplicaBatchedNetwork._dispatch`), and every lane gets its
    own column range in the gather (see
    :mod:`repro.radio.kernels.megabatch`), so each lane stays
    **byte-identical** to its own serial run, whether the members share
    a topology or not.

    Because members generally have different Decay parameter budgets
    (different max degrees), :meth:`run_lockstep` accepts either a
    single slot budget or one per lane.
    """

    name = "mega-batch"

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

    def _check_key(self, key: MegaLaneKey) -> None:
        if (
            not isinstance(key, tuple) or len(key) != 2
            or not isinstance(key[0], int) or isinstance(key[0], bool)
        ):
            raise ConfigurationError(
                f"mega lane keys are (member, replica) int pairs; got {key!r}"
            )
        if not 0 <= key[0] < len(self.members):
            raise ConfigurationError(
                f"unknown member {key[0]!r}; "
                f"this network has {len(self.members)} members"
            )

    # ------------------------------------------------------------------
    def run_lockstep(
        self,
        populations: Mapping[MegaLaneKey, Mapping[Hashable, Device]],
        max_slots: Union[int, Mapping[MegaLaneKey, int]],
    ) -> Dict[MegaLaneKey, int]:
        """Advance every supplied lane, fusing all members per slot.

        ``populations`` maps ``(member, replica)`` -> that lane's device
        mapping (exact vertex cover of the member's topology).
        ``max_slots`` is either one budget for every lane or a mapping
        with one budget per supplied lane — lanes retire individually
        when their budget is spent or all their devices halt (the
        serial ``run`` loop's stop rule, applied per lane), without
        holding up the others.  Returns the executed slot count per
        lane key.
        """
        if isinstance(max_slots, bool) or not isinstance(
            max_slots, (numbers.Integral, Mapping)
        ):
            raise ConfigurationError(
                f"max_slots must be an int or a per-lane mapping of ints; "
                f"got {max_slots!r}"
            )
        if isinstance(max_slots, numbers.Integral):
            budgets = {key: int(max_slots) for key in populations}
        else:
            try:
                budgets = {key: int(max_slots[key]) for key in populations}
            except KeyError as exc:
                raise ConfigurationError(
                    f"max_slots mapping is missing a budget for lane "
                    f"{exc.args[0]!r}"
                ) from None
        # records: (lane key, member index, per-call lane state, budget)
        records: List[Tuple[MegaLaneKey, int, _LaneRun, int]] = []
        for key in sorted(populations):
            self._check_key(key)
            member_idx, replica = key
            member = self.members[member_idx]
            devices = populations[key]
            member._check_population(replica, devices)
            live = [(v, d) for v, d in devices.items() if not d.halted]
            state = _LaneRun(
                member.lanes[replica], live, member._topology.n
            )
            records.append((key, member_idx, state, budgets[key]))
        running = [r for r in records if r[2].live and r[3] > 0]
        while running:
            by_member: Dict[int, List[_LaneRun]] = {}
            for _, member_idx, state, _ in running:
                by_member.setdefault(member_idx, []).append(state)
            for member_idx, states in by_member.items():
                self.members[member_idx]._collect_actions(states)
            # One gather for every lane, of every member, that has
            # both transmitters and listeners.  SINR members take the
            # fused arbitration kernel instead (its own gather over all
            # such lanes).
            need = [
                (member_idx, state)
                for _, member_idx, state, _ in running
                if state.listeners and state.tx_idx
            ]
            binary_need = [
                (m, state) for m, state in need
                if self.members[m]._sinr_csr is None
            ]
            sinr_need = [
                (m, state) for m, state in need
                if self.members[m]._sinr_csr is not None
            ]
            if binary_need:
                resolved = self._plan.counts_codes_many(
                    [(m, np.asarray(state.tx_idx, dtype=np.int64))
                     for m, state in binary_need]
                )
                for (_, state), pair in zip(binary_need, resolved):
                    state.resolved = pair
            if sinr_need:
                arbitrated = sinr_arbitrate_many(
                    [
                        (
                            self.members[m]._sinr_csr,
                            np.asarray(state.tx_idx, dtype=np.int64),
                            np.asarray(state.tx_levels, dtype=np.int64),
                        )
                        for m, state in sinr_need
                    ]
                )
                for (_, state), triple in zip(sinr_need, arbitrated):
                    state.resolved = triple
            for member_idx, states in by_member.items():
                self.members[member_idx]._dispatch(states)
            still_running = []
            for record in running:
                _, _, state, budget = record
                state.executed += 1
                state.lane.slot += 1
                state.live = [
                    (v, d) for v, d in state.live if not d.halted
                ]
                if state.live and state.executed < budget:
                    still_running.append(record)
            running = still_running
        for key, member_idx, state, _ in records:
            member = self.members[member_idx]
            state.lane.ledger.charge_slot_counts(
                member._topology.vertices,
                state.tx_counts, state.listen_counts,
            )
            state.lane.ledger.advance_time(state.executed)
        return {key: state.executed for key, _, state, _ in records}
