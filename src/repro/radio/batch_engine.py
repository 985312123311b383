"""Lane-batched slot execution: one lane or many seeds and cells, one gather.

Every static ``decay_bfs`` spec on the fast engine runs here, alone
(one lane) or fused with others.  The dominant workload of this repo is
sweeps over many seeds of the *same* (topology, algorithm, faults) cell
— every result in the paper is a statement about distributions over
random coin flips — and running them as lanes pays one topology build,
one CSR compile, and one counts/codes gather per block of slots for all
of them.
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
- :class:`MegaBatchedNetwork` is the one lockstep executor.  It stacks
  the CSRs of one or more such members — the same topology or
  different ones — into a
  :class:`~repro.radio.kernels.megabatch.MegaBatchPlan` once, and runs
  every running lane of every member as a few **blocks of consecutive
  slots**, each a fixed number of array passes: each lane owns a column
  range of single global vectors (listening, transmit and listen
  counts), every live transmission of the block joins one stacked
  integer CSR gather, and the edges are grouped by (slot, column).  No
  Python loop runs per lane or per slot, except each faulted lane's
  plan draw.  A replica batch is simply a one-member mega batch.

Lanes hold no devices.  Each runs a :class:`LaneSchedule`, the array
form of one Decay round (Lemma 2.4): a sender's whole transmit schedule
is fixed by its geometric draws before the round starts, and a receiver
listens until its first reception, so per slot a lane's transmitters
are its scheduled senders that are not dead and its listeners are the
receivers that have not yet heard and are not dead.  Fault draws never
read the channel, so a whole block of slots resolves at once: each
receiver hears in the earliest slot of the block in which it is live,
not jammed, and gets a deliverable message.  The device-callback
loop lives only in the serial engines' shared slot
(:meth:`~repro.radio.network.SlotEngineBase.step`), and the two serial
engines are the oracle the lanes are pinned against
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
from contextlib import suppress
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
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

from ..errors import ConfigurationError, SimulationError
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

    Transmission ``k`` is member vertex index ``senders[k]`` in slot
    offset ``slots[k]``, counted from the lane's clock when
    :meth:`MegaBatchedNetwork.run_lockstep` starts; both are int64
    arrays sorted by (slot, sender).  ``messages`` maps each sender
    index to its message, sent at standing SINR power level ``power``.
    Each of ``receivers`` (vertex indices, ascending) listens from the
    first slot until its first reception.  The executor fills
    ``heard``: receiver index -> the message it heard.
    """

    slots: np.ndarray
    senders: np.ndarray
    messages: Mapping[int, Message]
    receivers: Sequence[int]
    power: int = 0
    heard: Dict[int, Message] = field(default_factory=dict)


#: How much one block of a lockstep call may hold: the edges its
#: transmissions gather plus the slot x vertex fault mask cells of its
#: faulted lanes (a single slot may exceed it).  Blocks keep the
#: temporary arrays of a call small whatever its length.
BLOCK_CELLS = 1 << 13


def _firsts(values: np.ndarray, size: int) -> np.ndarray:
    """Mask of the entries of ``values`` (ints below ``size``) that
    hold the first occurrence of their value."""
    first = np.full(size, values.size)
    order = np.arange(values.size)
    np.minimum.at(first, values, order)
    return first[values] == order


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
    """One or more members, one fused gather per block of slots.

    The lockstep executor of every batched run.  It stacks replica-batched
    *members* — each a :class:`ReplicaBatchedNetwork` with its own
    topology, collision model, fault model, and lane set; a replica batch
    is a single member — into one
    :class:`~repro.radio.kernels.megabatch.MegaBatchPlan`, so every
    running lane of every member joins the same gather each block of
    slots.  Per-lane semantics are untouched: every faulted lane draws
    its member's fault plan each slot, every lane runs the transmitters and
    listeners of its :class:`LaneSchedule` in its own column range of
    the global vectors and of the gather, and charges its own ledger
    and fault counters, so each lane stays **byte-identical** to its
    own serial run, whether the members share a topology or not.

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
        self._plan = MegaBatchPlan([
            m._topology.adjacency if m._sinr_csr is None else m._sinr_csr
            for m in self.members
        ])

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
        """Run every supplied lane's schedule, fusing all members.

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
        keys = sorted(lanes)
        # The serial stop rule: a Decay sender halts only once its round
        # is over, so a lane with any participant runs its whole budget,
        # and a lane with none runs no slot.
        running = [
            key for key in keys
            if (lanes[key].messages or lanes[key].receivers) and budgets[key] > 0
        ]
        totals = self._lockstep(running, lanes, budgets) if running else {}
        executed = {key: budgets[key] if key in totals else 0 for key in keys}
        empty = np.zeros(0, dtype=np.int64)
        for key in keys:
            tx_counts, listen_counts = totals.get(key, (empty, empty))
            active = np.flatnonzero(tx_counts + listen_counts)
            vertices = self.members[key[0]]._topology.vertices
            lane = self.lane(key)
            lane.ledger.charge_slot_counts(
                [vertices[i] for i in active.tolist()],
                tx_counts[active].tolist(),
                listen_counts[active].tolist(),
            )
            lane.ledger.advance_time(executed[key])
            lane.slot += executed[key]
        return executed

    def _lockstep(
        self,
        keys: Sequence[MegaLaneKey],
        schedules: Mapping[MegaLaneKey, LaneSchedule],
        budgets: Mapping[MegaLaneKey, int],
    ) -> Dict[MegaLaneKey, Tuple[np.ndarray, np.ndarray]]:
        """Run the lanes ``keys`` (sorted, each with a participant and a
        positive budget) as a few blocks of consecutive slots, each
        block a fixed number of array passes over all of them.

        Lane ``p`` owns columns ``base[p]:base[p] + n`` of every global
        vector.  A round fixes every transmission before it starts,
        fault draws never read the channel, and a receiver's only state
        is whether it has heard, so a whole block resolves at once: the
        lanes with a fault model draw the block's plans, slot by slot,
        into dead, drop and jam masks; the transmissions whose sender is
        not dead pay (the RN[b] and power-level checks run at a sender's
        first such one, in slot, lane key and vertex order); the ones
        not dropped join one stacked gather, grouped by (slot, column);
        and each listening column hears at its earliest key with a
        unique (under SINR, a winning) sender where it is neither dead
        nor jammed.  Returns each lane's transmit and listen totals per
        vertex.
        """
        plan = self._plan
        members = [self.members[m] for m, _ in keys]
        lanes = [schedules[key] for key in keys]
        limits = np.array([budgets[key] for key in keys], dtype=np.int64)
        sizes = np.array([m._topology.n for m in members], dtype=np.int64)
        base = np.cumsum(sizes) - sizes
        size = int(sizes.sum())
        col_lane = np.repeat(np.arange(len(keys)), sizes)
        col_base = base[col_lane]
        col_code = np.arange(1, size + 1) - col_base
        col_row = plan.row_base[np.array([m for m, _ in keys])[col_lane]] + col_code - 1
        col_limit = limits[col_lane]
        cost = np.ones(len(keys), dtype=np.int64)
        mult = np.zeros(len(keys), dtype=np.int64)
        listening = np.zeros(size, dtype=bool)
        for p, (member, lane) in enumerate(zip(members, lanes)):
            listening[base[p] + np.fromiter(lane.receivers, dtype=np.int64)] = True
            if member.sinr is not None:
                with suppress(SimulationError):  # raised at its first sender
                    level = check_power_level(None, lane.power, member.sinr)
                    cost[p] = member.sinr.power_costs[level]
                    mult[p] = member.sinr.power_levels[level]
        # Every transmission within its lane's budget as (slot, global
        # column), in (slot, column) order.
        tx_slot = np.concatenate([lane.slots for lane in lanes])
        tx_col = np.concatenate([lane.senders + b for lane, b in zip(lanes, base)])
        within = tx_slot < col_limit[tx_col]
        order = np.argsort(tx_slot[within], kind="stable")
        tx_slot, tx_col = tx_slot[within][order], tx_col[within][order]
        col_cost, col_mult = cost[col_lane], mult[col_lane]
        sinr_col = None
        if any(m.sinr is not None for m in members):
            sinr_col, threshold, noise = np.repeat([
                (False, 0, 0) if m.sinr is None
                else (True, m.sinr.threshold_milli, m.sinr.noise_floor)
                for m in members
            ], sizes, axis=0).T
            sinr_col = sinr_col.astype(bool)
        faulted = [
            (p, m._fault_runtimes, key[1], m.lanes[key[1]].slot)
            for p, (key, m) in enumerate(zip(keys, members))
            if m._fault_runtimes.active
        ]
        # Blocks of about BLOCK_CELLS gathered edges and fault mask cells.
        indptr = plan.stack.indptr
        degree = (indptr[col_row + 1] - indptr[col_row])[tx_col]
        load = np.bincount(tx_slot, weights=degree, minlength=int(limits.max()))
        for p, *_ in faulted:
            load[:limits[p]] += sizes[p]
        cuts = np.flatnonzero(np.diff((np.cumsum(load) - load) // BLOCK_CELLS, prepend=-1))
        checked = np.zeros(size, dtype=bool)
        tx_counts = np.zeros(size, dtype=np.int64)
        listen_counts = np.zeros(size, dtype=np.int64)
        # Per lane: delivered, dropped and jammed this call.
        tallies = np.zeros((3, len(keys)), dtype=np.int64)
        for t0, t1 in zip(cuts.tolist(), [*cuts[1:].tolist(), load.size]):
            lo, hi = np.searchsorted(tx_slot, (t0, t1))
            slot, col = tx_slot[lo:hi] - t0, tx_col[lo:hi]
            # The block's fault masks: each faulted lane's rows (one per
            # slot it runs) in one flat array, then one False cell that
            # every other column's (slot, column) cells point to.
            drawn = [(p, *rest, min(t1, limits[p]) - t0)
                     for p, *rest in faulted if limits[p] > t0]
            dead = hit = jam = False
            if drawn:
                offsets = np.cumsum([0] + [rows * sizes[p] for p, *_, rows in drawn])
                masks = np.zeros((3, offsets[-1] + 1), dtype=bool)
                lane_cell = np.full(len(keys), offsets[-1])
                stride = np.zeros(len(keys), dtype=np.int64)
                for (p, runtimes, replica, start, rows), off in zip(drawn, offsets):
                    lane_cell[p], stride[p], n = off, sizes[p], sizes[p]
                    for r in range(rows):
                        draw = runtimes.plan(replica, start + t0 + r)
                        for k, mask in enumerate(draw[:3]):
                            if mask is not None:
                                masks[k, off + r * n:off + (r + 1) * n] = mask
                dead, hit, jam = masks.any(axis=1)
                col_stride = stride[col_lane]
                col_cell = lane_cell[col_lane] + (col_code - 1) * (col_stride > 0)
            if dead:
                alive = ~masks[0, col_cell[col] + slot * col_stride[col]]
                slot, col = slot[alive], col[alive]
            if not checked[col].all():
                for c in col[_firsts(col, size) & ~checked[col]].tolist():
                    member, lane, i = members[col_lane[c]], lanes[col_lane[c]], col_code[c] - 1
                    member.size_policy.check(lane.messages[i])
                    if member.sinr is not None:
                        check_power_level(
                            member._topology.vertices[i], lane.power, member.sinr
                        )
                checked[col] = True
            tx_counts += np.bincount(col, minlength=size) * col_cost
            if hit:
                lost = masks[1, col_cell[col] + slot * col_stride[col]]
                tallies[1] += np.bincount(col_lane[col[lost]], minlength=len(keys))
                slot, col = slot[~lost], col[~lost]
            # Each column listens in the block's slots [0, stop).
            stop = np.where(listening, np.clip(col_limit - t0, 0, t1 - t0), 0)
            if col.size and stop.any():
                groups = plan.counts_codes_many(
                    col_row[col], col_code[col], col_base[col], slot, stop
                )
                g_slot, g_col = np.divmod(groups.keys, size)
                deliver, codes = groups.counts == 1, groups.codes
                if sinr_col is not None:
                    winner, wins = sinr_arbitrate_many(
                        plan.gains[groups.pos] * col_mult[groups.cols],
                        groups, threshold[g_col], noise[g_col],
                    )
                    deliver = np.where(sinr_col[g_col], wins, deliver)
                    codes = np.where(sinr_col[g_col], winner, codes)
                if dead or jam:
                    cells = col_cell[g_col] + g_slot * col_stride[g_col]
                    deliver &= ~(masks[0] | masks[2])[cells]
                # Keys ascend by (slot, column), so a column's first
                # delivering key is its earliest.
                got = np.flatnonzero(deliver)
                got = got[_firsts(g_col[got], size)]
                heard = g_col[got]
                listening[heard] = False
                stop[heard] = g_slot[got] + 1
                tallies[0] += np.bincount(col_lane[heard], minlength=len(keys))
                for p, i, code in zip(col_lane[heard].tolist(),
                                      (col_code[heard] - 1).tolist(),
                                      codes[got].tolist()):
                    lanes[p].heard[i] = lanes[p].messages[code - 1]
            listen_counts += stop
            if dead or jam:
                for (p, *_, rows), off in zip(drawn, offsets):
                    n, b = sizes[p], base[p]
                    down, _, jammed = masks[:, off:off + rows * n].reshape(3, rows, n)
                    window = np.arange(rows)[:, None] < stop[b:b + n]
                    listen_counts[b:b + n] -= (window & down).sum(axis=0)
                    tallies[2, p] += np.count_nonzero(window & jammed & ~down)
        totals = {}
        for p, (key, member) in enumerate(zip(keys, members)):
            counters = member.lanes[key[1]].fault_counters
            counters.delivered += int(tallies[0, p])
            counters.dropped += int(tallies[1, p])
            counters.jammed += int(tallies[2, p])
            span = slice(base[p], base[p] + sizes[p])
            totals[key] = (tx_counts[span], listen_counts[span])
        return totals
