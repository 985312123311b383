"""The synchronous slot-level radio network simulator.

This is the substrate on which the slot-faithful tier of the library
runs (the Decay protocol of Lemma 2.4, the slot-level Decay-BFS
baseline, and the lower-bound probing experiments).  Semantics follow
paper Section 1.1 exactly:

- time is partitioned into discrete slots; devices agree on slot 0;
- per slot each device idles, listens, or transmits;
- a listener receives a message iff exactly one neighbor transmits;
- energy = listening slots + transmitting slots; idling is free.

:class:`SlotEngineBase` writes the slot out once: it steps the
devices, charges the energy, and delivers the receptions, and asks the
concrete engine only to arbitrate the channel.  Two interchangeable
executors supply that arbitration:

- :class:`RadioNetwork` (this module) — the reference engine: scans
  each listener's own neighbor list, a direct transcription of the
  channel rule and the semantic ground truth;
- :class:`~repro.radio.fast_engine.FastRadioNetwork` — the vectorized
  engine: resolves all listeners at once through a CSR adjacency
  matrix.

So the engines can only differ in *how* the channel is resolved —
never in what a slot means.  The differential test suite
(``tests/radio/test_engine_equivalence.py``) asserts bit-for-bit
agreement between them.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
    Union,
)

import networkx as nx
import numpy as np

from ..errors import ConfigurationError, SimulationError
from ..rng import DeviceStreams, LazyGenerator, SeedLike, device_streams
from .channel import CollisionModel, Feedback, Reception, resolve
from .device import ActionKind, Device
from .dynamic import DynamicTopology, TopologyPatch
from .energy import EnergyLedger
from .faults import FaultCounters, FaultModel, FaultRuntime, SlotFaultPlan
from .message import Message, MessageSizePolicy
from .sinr import (
    SinrField,
    SinrParams,
    coerce_sinr_params,
    resolve_sinr,
    transmit_level,
)
from .topology import degrees
from .trace import EventTrace


def validate_topology(graph: nx.Graph) -> None:
    """Reject graphs no RN executor can run (empty or directed).

    Shared by every executor tier so the accepted topology class can
    never drift between the serial engines and the batched lanes.
    """
    if graph.number_of_nodes() == 0:
        raise ConfigurationError("radio network requires at least one vertex")
    if graph.is_directed():
        raise ConfigurationError(
            "radio network topologies must be undirected (the RN model "
            "has symmetric links); got a directed graph"
        )


# Non-delivery receptions carry no message, so one frozen instance per
# feedback kind is shared across all listeners, slots and engines.
_NOTHING = Reception(Feedback.NOTHING)
_SILENCE = Reception(Feedback.SILENCE)
_NOISE = Reception(Feedback.NOISE)


def silence_and_noise(
    collision_model: CollisionModel,
) -> Tuple[Reception, Reception]:
    """The ``(silent, noisy)`` receptions of a non-delivering slot.

    ``silent`` is what a listener with no transmitting neighbor
    perceives, ``noisy`` what it perceives under a collision *or* when
    jammed (a jammed slot is indistinguishable from a collision).  With
    receiver-side CD or SINR these are ``SILENCE``/``NOISE``; without CD
    both are ``NOTHING``.  Shared by both serial engines so jam and
    collision semantics stay engine-independent (a batched lane's
    receivers only ever act on a delivered message).
    """
    if collision_model is CollisionModel.NO_CD:
        return _NOTHING, _NOTHING
    return _SILENCE, _NOISE


def coerce_channel(
    collision_model: "CollisionModel | str",
    sinr: "None | str | Mapping | SinrParams",
) -> Tuple[CollisionModel, Optional[SinrParams]]:
    """Coerce a collision model (enum or name) and its SINR context.

    ``sinr`` is required context for ``CollisionModel.SINR`` (the
    defaults apply when omitted) and rejected for the binary models.
    Shared by every executor tier so the accepted channel settings and
    their errors can never drift between them.
    """
    if not isinstance(collision_model, CollisionModel):
        try:
            collision_model = CollisionModel(collision_model)
        except ValueError:
            raise ConfigurationError(
                f"unknown collision model {collision_model!r}; known: "
                f"{', '.join(m.value for m in CollisionModel)}"
            ) from None
    sinr_params = coerce_sinr_params(sinr)
    if collision_model is CollisionModel.SINR:
        if sinr_params is None:
            sinr_params = SinrParams()
    elif sinr_params is not None:
        raise ConfigurationError(
            "sinr params require collision_model=CollisionModel.SINR, "
            f"got {collision_model.value!r}"
        )
    return collision_model, sinr_params


def spawn_device_map(
    vertices: List[Hashable],
    factory: Callable[[Hashable, np.random.Generator], Device],
    seed: Union[SeedLike, DeviceStreams] = None,
) -> Dict[Hashable, Device]:
    """One device per vertex, each with an independent derived stream.

    The single implementation of the determinism-critical derivation:
    vertex ``i`` (in vertex order) gets child ``base + i`` of the block
    :func:`~repro.rng.device_streams` reserves for ``seed``, which is
    the child an eager ``spawn`` would give it.  The factory receives a
    :class:`~repro.rng.LazyGenerator`, built on first draw, so devices
    that never draw (Decay receivers, sleepers) cost no Generator.  A
    multi-phase protocol passes one :class:`~repro.rng.DeviceStreams` for
    all its phases.
    """
    streams, base = device_streams(seed, len(vertices))
    return {
        v: factory(v, LazyGenerator(streams, base + i))
        for i, v in enumerate(vertices)
    }


class SlotEngineBase:
    """Shared slot-loop driver for both engine tiers.

    Owns everything that must be *identical* across engines — the run
    loop, halting/early-stop logic, device-mapping validation, device
    spawning, and the slot itself (:meth:`step`) — leaving only
    :meth:`_arbitrate` (how the channel is resolved at the listeners)
    to the concrete engine.

    Parameters
    ----------
    graph:
        The (unknown-to-devices) communication topology.
    collision_model:
        ``NO_CD`` (default, the paper's weakest model) or ``RECEIVER_CD``.
    size_policy:
        RN[b] message size enforcement; defaults to unbounded.
    ledger:
        Optional shared :class:`EnergyLedger`; a fresh one is created if
        omitted.
    trace:
        Optional :class:`EventTrace` collecting per-slot events.
    faults:
        Optional :class:`~repro.radio.faults.FaultModel`; when given,
        every slot is filtered through the fault stack (message drops,
        jamming, churn) before channel resolution — identically on
        every engine tier.
    fault_seed:
        Dedicated random stream for the fault stack (independent of all
        device streams, so the same protocol randomness meets the same
        faults on either engine).
    dynamic:
        Optional compiled :class:`~repro.radio.dynamic.DynamicTopology`.
        When given, ``graph`` must be its :meth:`initial_graph
        <repro.radio.dynamic.DynamicTopology.initial_graph>`; each slot
        the engine applies the runtime's :class:`~repro.radio.dynamic.TopologyPatch`
        (via the engine-specific :meth:`_apply_topology_patch`) and
        skips the inactive vertices exactly like crashed devices.
    sinr:
        Optional :class:`~repro.radio.sinr.SinrParams` (or preset name /
        mapping).  Required context for ``CollisionModel.SINR`` (the
        defaults apply when omitted) and rejected for the binary models.
        SINR compiles a per-edge gain field for the construction
        topology, so it composes with faults but not with ``dynamic``.
    """

    #: The engine's key in :data:`~repro.radio.engine.ENGINES`;
    #: concrete engines override.
    name: str = "abstract"

    def __init__(
        self,
        graph: nx.Graph,
        collision_model: CollisionModel = CollisionModel.NO_CD,
        size_policy: Optional[MessageSizePolicy] = None,
        ledger: Optional[EnergyLedger] = None,
        trace: Optional[EventTrace] = None,
        faults: Optional[FaultModel] = None,
        fault_seed: SeedLike = None,
        dynamic: Optional[DynamicTopology] = None,
        sinr: Optional[SinrParams] = None,
    ) -> None:
        validate_topology(graph)
        self.graph = graph
        collision_model, sinr_params = coerce_channel(collision_model, sinr)
        self.collision_model = collision_model
        self.size_policy = size_policy or MessageSizePolicy.unbounded()
        self.ledger = ledger if ledger is not None else EnergyLedger()
        self.trace = trace
        self.slot = 0
        self._node_set: Set[Hashable] = set(graph.nodes)
        if dynamic is not None and not isinstance(dynamic, DynamicTopology):
            raise ConfigurationError(
                f"dynamic must be a DynamicTopology or None, "
                f"got {type(dynamic).__name__}"
            )
        if dynamic is not None and dynamic.n != graph.number_of_nodes():
            raise ConfigurationError(
                f"dynamic topology compiled for {dynamic.n} vertices, but the "
                f"engine graph has {graph.number_of_nodes()} (pass "
                f"DynamicTopology.initial_graph())"
            )
        self._dynamic = dynamic
        if sinr_params is not None and dynamic is not None:
            raise ConfigurationError(
                "the SINR collision model compiles per-edge gains for "
                "a static topology; dynamic membership is not supported"
            )
        #: Active :class:`~repro.radio.sinr.SinrParams` (``None`` for
        #: the binary collision models).
        self.sinr = sinr_params
        self._sinr_field: Optional[SinrField] = (
            SinrField(graph, sinr_params) if sinr_params is not None else None
        )
        #: Optional :class:`repro.radio.invariants.InvariantMonitor`
        #: attached by the experiment layer; the shared slot loop calls
        #: its ``after_slot`` hook once per executed slot.
        self.invariant_monitor = None
        #: Fault/delivery tally; delivery counts are maintained even
        #: without a fault model attached.
        self.fault_counters = FaultCounters()
        self._fault_runtime: Optional[FaultRuntime] = FaultRuntime.build(
            faults, graph, seed=fault_seed, counters=self.fault_counters
        )
        self._silent, self._noisy = silence_and_noise(collision_model)

    def _next_fault_plan(self) -> Optional[SlotFaultPlan]:
        """The fault plan for the current slot (``None`` = no faults).

        Concrete engines call this exactly once at the top of
        :meth:`step`; the runtimes enforce in-order consumption so both
        the fault randomness and the topology patch sequence stay
        engine-independent.  On dynamic runs this is also where the
        slot's :class:`~repro.radio.dynamic.TopologyPatch` is applied
        and the inactive vertices are merged into the plan's dead set.
        """
        dynamic = self._dynamic
        if dynamic is not None:
            patch = dynamic.advance(self.slot)
            if patch is not None:
                self._apply_topology_patch(patch)
        plan: Optional[SlotFaultPlan] = None
        if self._fault_runtime is not None:
            plan = self._fault_runtime.plan(self.slot).labels()
        if dynamic is not None:
            inactive = dynamic.inactive
            if inactive:
                if plan is None:
                    plan = SlotFaultPlan(dead=inactive)
                elif not inactive <= plan.dead:
                    plan = SlotFaultPlan(
                        dead=plan.dead | inactive,
                        dropped=plan.dropped,
                        jammed=plan.jammed,
                    )
        return plan

    def _apply_topology_patch(self, patch: TopologyPatch) -> None:
        """Apply one slot's edge diff to the engine's live adjacency."""
        raise NotImplementedError

    def adjacency_snapshot(self) -> Dict[Hashable, FrozenSet[Hashable]]:
        """The engine's live adjacency as canonical neighbor sets.

        The invariant checker's window into engine state: both engines
        must report the same snapshot at the same slot, whatever their
        internal representation.
        """
        raise NotImplementedError

    def sinr_gain_snapshot(self) -> Optional[Dict[tuple, int]]:
        """The engine's *live* directed edge->gain table (``None`` when
        the collision model is not SINR).

        The invariant checker (``sinr_gain_integrity``) compares this
        against a fresh recomputation from the graph and params, so it
        must read whatever state the engine actually arbitrates with —
        engines with a compiled representation override it.
        """
        if self._sinr_field is None:
            return None
        return self._sinr_field.gain_table()

    # ------------------------------------------------------------------
    def run(
        self,
        devices: Mapping[Hashable, Device],
        max_slots: int,
        stop_when: Optional[Callable[[], bool]] = None,
    ) -> int:
        """Run the population for up to ``max_slots`` slots.

        The device mapping must cover the vertex set exactly: a missing
        device would silently never act, and a device keyed by a vertex
        absent from the graph could never transmit to or hear anyone —
        both are configuration bugs and rejected up front.

        Stops early when every device has ``halted`` or when
        ``stop_when()`` returns True (checked once per slot).  Returns
        the number of slots executed.
        """
        missing = self._node_set - set(devices)
        if missing:
            raise ConfigurationError(
                f"devices missing for {len(missing)} vertices (e.g. {next(iter(missing))!r})"
            )
        extra = set(devices) - self._node_set
        if extra:
            raise ConfigurationError(
                f"devices supplied for {len(extra)} vertices absent from the "
                f"graph (e.g. {next(iter(extra))!r})"
            )
        executed = 0
        for _ in range(max_slots):
            if all(d.halted for d in devices.values()):
                break
            if stop_when is not None and stop_when():
                break
            self.step(devices)
            executed += 1
            if self.invariant_monitor is not None:
                self.invariant_monitor.after_slot(self)
        return executed

    def step(self, devices: Mapping[Hashable, Device]) -> None:
        """Execute one synchronous slot for all devices.

        The one definition of a slot (paper Section 1.1), shared by both
        engines: draw the fault plan; step every live device (halted and
        crashed devices sit the slot out) and stage its action, tracing
        each transmission; charge the slot's energy in one batch (a
        dropped transmitter is charged, but never enters the channel);
        let the engine arbitrate the channel (:meth:`_arbitrate`); and
        deliver one reception per listener.  A jammed listener perceives
        noise, exactly like a collision (see :func:`silence_and_noise`).
        """
        plan = self._next_fault_plan()
        slot = self.slot
        counters = self.fault_counters
        size_policy = self.size_policy
        sinr = self.sinr
        trace = self.trace
        messages: Dict[Hashable, Message] = {}
        levels: List[int] = []
        transmitters: List[Hashable] = []
        costs: Optional[List[int]] = None if sinr is None else []
        listeners: List[Hashable] = []
        listen_devices: List[Device] = []
        idle, listen = ActionKind.IDLE, ActionKind.LISTEN

        for vertex, device in devices.items():
            if device.halted or (plan is not None and vertex in plan.dead):
                continue
            action = device.step(slot)
            kind = action.kind
            if kind is idle:
                continue
            if kind is listen:
                listeners.append(vertex)
                listen_devices.append(device)
                continue
            message = action.message
            if message is None:
                raise SimulationError(f"device {vertex!r} transmitted no message")
            size_policy.check(message)
            transmitters.append(vertex)
            if costs is None:
                level = 0
                detail = message.kind
            else:
                level = transmit_level(device, action, sinr)
                costs.append(sinr.power_costs[level])
                detail = f"{message.kind}/p{level}"
            # A dropped transmitter still spends the slot's energy —
            # the device transmitted; the channel lost the message.
            if plan is not None and vertex in plan.dropped:
                counters.dropped += 1
            else:
                messages[vertex] = message
                levels.append(level)
            if trace is not None:
                trace.record(slot, "transmit", vertex, detail)

        self.ledger.charge_slot_batch(transmitters, listeners, transmit_costs=costs)
        if messages and listeners:
            receptions = self._arbitrate(messages, levels, listeners)
        else:
            receptions = [self._silent] * len(listeners)
        jammed = () if plan is None else plan.jammed
        for vertex, device, reception in zip(listeners, listen_devices, receptions):
            if vertex in jammed:
                counters.jammed += 1
                reception = self._noisy
            elif reception.received:
                counters.delivered += 1
            device.receive(slot, reception)
            if trace is not None and reception.received:
                trace.record(slot, "receive", vertex, reception.message.kind)
        self.slot += 1
        self.ledger.advance_time(1)

    def _arbitrate(self, messages: Dict[Hashable, Message], levels: List[int],
                   listeners: List[Hashable]) -> List[Reception]:
        """Resolve the channel: one :class:`Reception` per listener.

        ``messages`` maps each transmitter whose message entered the
        channel to that message; ``levels`` holds their SINR power
        levels in the same order (all ``0`` under the binary models).
        Called only when the slot has both transmitters and listeners;
        jamming is applied afterwards by :meth:`step`.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    def spawn_devices(
        self,
        factory: Callable[[Hashable, np.random.Generator], Device],
        seed: Union[SeedLike, DeviceStreams] = None,
    ) -> Dict[Hashable, Device]:
        """Instantiate one device per vertex with independent RNG streams
        (see :func:`spawn_device_map`)."""
        return spawn_device_map(list(self.graph.nodes), factory, seed)

    @property
    def max_degree(self) -> int:
        """Maximum degree of the topology (the Delta of Lemma 2.4).

        On dynamic runs this is the static
        :attr:`~repro.radio.dynamic.DynamicTopology.max_degree_bound`
        over the whole timeline — a constant both engines share, so the
        Decay layer's parameterization never depends on when a protocol
        reads it.
        """
        if self._dynamic is not None:
            return self._dynamic.max_degree_bound
        return max(degrees(self.graph).values(), default=0)


class RadioNetwork(SlotEngineBase):
    """Reference slot-level executor for a population of :class:`Device`.

    The direct transcription of the paper's channel rule: each
    listener's slot is resolved by scanning its own neighbor list
    (kept as networkx-derived lists, never the CSR the fast engine
    reads, so it stays an independent oracle).  Use
    :class:`~repro.radio.fast_engine.FastRadioNetwork` (or
    ``make_network(graph, engine="fast")``) for large instances.
    """

    name = "reference"

    def __init__(
        self,
        graph: nx.Graph,
        collision_model: CollisionModel = CollisionModel.NO_CD,
        size_policy: Optional[MessageSizePolicy] = None,
        ledger: Optional[EnergyLedger] = None,
        trace: Optional[EventTrace] = None,
        faults: Optional[FaultModel] = None,
        fault_seed: SeedLike = None,
        dynamic: Optional[DynamicTopology] = None,
        sinr: Optional[SinrParams] = None,
    ) -> None:
        super().__init__(graph, collision_model, size_policy, ledger, trace,
                         faults=faults, fault_seed=fault_seed, dynamic=dynamic,
                         sinr=sinr)
        self._adjacency: Dict[Hashable, List[Hashable]] = {
            v: list(graph.neighbors(v)) for v in graph.nodes
        }

    def _apply_topology_patch(self, patch: TopologyPatch) -> None:
        """Apply one slot's edge diff to the per-vertex neighbor lists."""
        adjacency = self._adjacency
        for u, v in patch.removed:
            adjacency[u].remove(v)
            adjacency[v].remove(u)
        for u, v in patch.added:
            adjacency[u].append(v)
            adjacency[v].append(u)

    def adjacency_snapshot(self) -> Dict[Hashable, FrozenSet[Hashable]]:
        """The live adjacency as canonical neighbor sets (see base)."""
        return {v: frozenset(nbrs) for v, nbrs in self._adjacency.items()}

    def _arbitrate(self, messages: Dict[Hashable, Message], levels: List[int],
                   listeners: List[Hashable]) -> List[Reception]:
        """Scan each listener's neighbor list for transmitters (see base)."""
        adjacency = self._adjacency
        field = self._sinr_field
        if field is None:
            return [resolve([messages[u] for u in adjacency[v] if u in messages],
                            self.collision_model)
                    for v in listeners]
        power = {u: self.sinr.power_levels[level] for u, level in zip(messages, levels)}
        return [resolve_sinr([(messages[u], field.gain(u, v) * power[u])
                              for u in adjacency[v] if u in messages], self.sinr)
                for v in listeners]
