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
  resolution, and its own slot clock.  It is state only: it owns no
  device loop and no slot loop.
- :class:`MegaBatchedNetwork` is the one lockstep executor.  It packs
  one or more such members — the same topology or different ones — into
  a :class:`~repro.radio.kernels.megabatch.MegaBatchPlan`, so every
  running lane of every member joins **one** integer CSR gather per
  slot, each lane in its own column range.  A replica batch is simply a
  one-member mega batch.

Each lane runs its slot through a
:class:`~repro.radio.fast_engine.SlotLane` — the same collect, charge
and dispatch steps the serial
:class:`~repro.radio.fast_engine.FastRadioNetwork` runs on its single
lane — so the fast tiers share one per-slot device loop and differ only
in how many lanes join the channel gather.

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

from ..errors import ConfigurationError
from ..rng import SeedLike
from .channel import CollisionModel
from .device import Device
from .energy import EnergyLedger
from .fast_engine import CompiledTopology, SlotLane
from .faults import FaultCounters, FaultModel, ReplicaFaultRuntimes
from .kernels import MegaBatchPlan
from .kernels.sinr_csr import SinrCsr, sinr_arbitrate_many
from .message import MessageSizePolicy
from .network import (
    coerce_channel,
    silence_and_noise,
    spawn_device_map,
    validate_population,
    validate_topology,
)
from .sinr import SinrField, SinrParams


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


class _LaneRun:
    """Mutable per-lane state for one
    :meth:`MegaBatchedNetwork.run_lockstep` call."""

    __slots__ = ("key", "lane", "member", "live", "budget", "executed", "stage")

    def __init__(self, key: Tuple[int, int], member: "ReplicaBatchedNetwork",
                 live: List[Tuple[Hashable, Device]], budget: int) -> None:
        self.key = key
        self.lane = member.lanes[key[1]]
        self.member = member
        self.live = live
        self.budget = budget
        self.executed = 0
        self.stage = SlotLane(member._topology.n)


class ReplicaBatchedNetwork:
    """R replica lanes of one topology: one mega-batch member.

    Holds the shared compiled topology (and SINR gain field), one
    :class:`ReplicaLane` per replica, and the per-lane fault runtimes,
    which :class:`MegaBatchedNetwork` reads when it steps the lanes.

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
        self._silent, self._noisy = silence_and_noise(collision_model)

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
    def _check_population(self, replica: int, devices: Mapping[Hashable, Device]) -> int:
        """The same exact-cover validation the serial engines apply;
        returns the lane index as a Python ``int``."""
        index = _as_int(replica, "replica lane")
        if index is None or not 0 <= index < self.replicas:
            raise ConfigurationError(
                f"unknown replica lane {replica!r}; "
                f"this network has {self.replicas} lanes"
            )
        validate_population(self._node_set, devices)
        return index

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
    Per-lane semantics are untouched: every lane steps its devices,
    draws its member's fault plan, charges its own ledger once per slot
    and dispatches receptions through its own
    :class:`~repro.radio.fast_engine.SlotLane`, exactly as the serial
    fast engine does, and every lane gets its own column range in the
    gather (see
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
        lanes: Dict[MegaLaneKey, Mapping[Hashable, Device]] = {}
        for key, devices in populations.items():
            m, replica = self._check_key(key)
            lanes[(m, self.members[m]._check_population(replica, devices))] = devices
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
        runs: List[_LaneRun] = []
        for key in sorted(lanes):
            member = self.members[key[0]]
            live = [(v, d) for v, d in lanes[key].items() if not d.halted]
            runs.append(_LaneRun(key, member, live, budgets[key]))
        running = [run for run in runs if run.live and run.budget > 0]
        while running:
            for run in running:
                lane, member, stage = run.lane, run.member, run.stage
                stage.collect(
                    run.live, lane.slot,
                    member._fault_runtimes.plan(lane.index, lane.slot),
                    lane.fault_counters, member._topology.index,
                    member.size_policy, member.sinr, None,
                )
                lane.ledger.charge_slot_batch(
                    stage.tx_vertices, stage.listen_vertices,
                    transmit_costs=stage.tx_costs,
                )
            # One gather for every lane, of every member, that needs the
            # channel.  SINR members take the fused arbitration kernel
            # instead (its own gather over all such lanes).
            need = [run for run in running if run.stage.needs_channel]
            binary = [run for run in need if run.member._sinr_csr is None]
            sinr = [run for run in need if run.member._sinr_csr is not None]
            if binary:
                resolved = self._plan.counts_codes_many([
                    (run.key[0], np.asarray(run.stage.tx_idx, dtype=np.int64))
                    for run in binary
                ])
                for run, pair in zip(binary, resolved):
                    run.stage.resolved = pair
            if sinr:
                arbitrated = sinr_arbitrate_many([
                    (run.member._sinr_csr,
                     np.asarray(run.stage.tx_idx, dtype=np.int64),
                     np.asarray(run.stage.tx_levels, dtype=np.int64))
                    for run in sinr
                ])
                for run, triple in zip(sinr, arbitrated):
                    run.stage.resolved = triple
            for run in running:
                lane, member = run.lane, run.member
                run.stage.dispatch(lane.slot, lane.fault_counters,
                                   member._silent, member._noisy, None)
                run.executed += 1
                lane.slot += 1
                run.live = [(v, d) for v, d in run.live if not d.halted]
            running = [run for run in running
                       if run.live and run.executed < run.budget]
        for run in runs:
            run.lane.ledger.advance_time(run.executed)
        return {run.key: run.executed for run in runs}
