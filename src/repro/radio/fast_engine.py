"""Vectorized slot engine: batched channel arbitration on a CSR matrix.

:class:`FastRadioNetwork` executes exactly the Section 1.1 semantics of
:class:`~repro.radio.network.RadioNetwork`, but resolves every slot's
channel for *all* listeners at once:

- the topology is compiled once into a CSR adjacency matrix over the
  contiguous vertex indexing ``0..n-1``;
- each slot, the transmitters' adjacency rows are gathered into one
  run of listener columns; two integer reductions over it yield, per
  vertex, the number of transmitting neighbors *and* (summed)
  transmitter indices;
- a vertex with transmitter-count exactly 1 decodes its unique sender
  directly from the index sum — no per-listener neighbor scan.

That arbitration is all this engine defines: the per-device control
path (``device.step`` / ``device.receive`` callbacks, energy charges,
fault handling, trace events) is the one slot of
:meth:`SlotEngineBase.step <repro.radio.network.SlotEngineBase.step>`,
shared with the reference engine, so a protocol run with the same seed
produces bit-for-bit identical slot counts, energy ledgers, and event
traces on either engine — a guarantee enforced by
``tests/radio/test_engine_equivalence.py``.

The batched tier
(:class:`~repro.radio.batch_engine.MegaBatchedNetwork`) runs no devices:
its lanes are Decay rounds as arrays, and every static fast
``decay_bfs`` spec runs there.  This engine keeps the device loop for
the runs lanes cannot do (dynamic topologies, the online invariant
checker, library callers) and, with the reference engine, is the
oracle the lanes are pinned against.  The counts/codes arithmetic
itself is the one integer CSR gather of :mod:`repro.radio.kernels`
(:func:`~repro.radio.kernels.base.gather_edges`), which this engine
calls as a one-member stack — its own CSR, no column shift — so every
tier computes the same bytes for the same lane.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import networkx as nx
import numpy as np

from ..rng import SeedLike
from .channel import CollisionModel, Feedback, Reception
from .device import Device
from .dynamic import DynamicTopology, TopologyPatch
from .energy import EnergyLedger
from .faults import FaultModel
from .kernels import CSRAdjacency, counts_codes, gather_edges
from .kernels.sinr_csr import SinrCsr, sinr_arbitrate
from .message import Message, MessageSizePolicy
from .network import SlotEngineBase
from .sinr import SinrParams
from .trace import EventTrace


class CompiledTopology:
    """A topology compiled once for vectorized channel arbitration.

    Owns the contiguous ``0..n-1`` vertex indexing and the CSR adjacency
    (:class:`~repro.radio.kernels.base.CSRAdjacency`) that both the
    single-replica fast engine and the replica-batched engine
    (:mod:`repro.radio.batch_engine`) resolve slots against, through
    the shared gather (:func:`~repro.radio.kernels.base.gather_edges`).
    """

    def __init__(self, graph: nx.Graph) -> None:
        self.vertices: List[Hashable] = list(graph.nodes)
        self.index: Dict[Hashable, int] = {
            v: i for i, v in enumerate(self.vertices)
        }
        self.n = len(self.vertices)
        self.adjacency = CSRAdjacency.from_graph(graph, self.index)

    # ------------------------------------------------------------------
    def counts_codes(self, tx_idx: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Per-vertex (transmitting-neighbor count, summed sender codes).

        Sender codes are 1-based transmitter indices; where the count is
        exactly 1 the code minus one *is* the unique sender's index.
        """
        tx = np.asarray(tx_idx, dtype=np.int64)
        return counts_codes(gather_edges(self.adjacency, tx, tx + 1), self.n)

    def counts_codes_many(
        self, tx_lists: Sequence[np.ndarray]
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """:meth:`counts_codes` for many independent replicas, in order.

        Nothing in the package calls it (the lockstep executor gathers
        every lane at once over a stacked CSR); it stays because
        ``perfbench/tracer.py`` wraps it by name.
        """
        return [self.counts_codes(tx) for tx in tx_lists]

    def patch_rows(self, updates: Mapping[int, np.ndarray]) -> None:
        """Replace the given adjacency rows.

        The incremental dynamic-topology path: the CSR arrays are row
        spliced in place of a full per-edge recompile
        (:meth:`~repro.radio.kernels.base.CSRAdjacency.with_row_updates`).
        """
        if updates:
            self.adjacency = self.adjacency.with_row_updates(updates)


class FastRadioNetwork(SlotEngineBase):
    """Batch slot executor, interchangeable with
    :class:`~repro.radio.network.RadioNetwork`.

    Accepts the same constructor arguments and runs the same
    :class:`~repro.radio.device.Device` populations through the same
    slot loop; only the channel arbitration (:meth:`_arbitrate`)
    differs.  Prefer this engine for
    ``n`` in the thousands or dense topologies, where the reference
    engine's per-listener neighbor scans dominate.
    """

    name = "fast"

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
        self._topology = CompiledTopology(graph)
        self._index = self._topology.index
        # Compiled per-edge gains for SINR arbitration (static topology;
        # the base class rejects dynamic + SINR).
        self._sinr_csr: Optional[SinrCsr] = (
            SinrCsr.compile(
                self._sinr_field, self._topology.adjacency,
                self._topology.vertices,
            )
            if self._sinr_field is not None
            else None
        )

    def _apply_topology_patch(self, patch: TopologyPatch) -> None:
        """Apply one slot's edge diff as an incremental CSR row splice."""
        topology = self._topology
        index = self._index
        rows: Dict[int, Set[int]] = {}

        def row(i: int) -> Set[int]:
            if i not in rows:
                rows[i] = set(topology.adjacency.row(i).tolist())
            return rows[i]

        for u, v in patch.removed:
            iu, iv = index[u], index[v]
            row(iu).remove(iv)
            row(iv).remove(iu)
        for u, v in patch.added:
            iu, iv = index[u], index[v]
            row(iu).add(iv)
            row(iv).add(iu)
        topology.patch_rows({
            i: np.fromiter(sorted(rows[i]), dtype=np.int64, count=len(rows[i]))
            for i in sorted(rows)
        })

    def adjacency_snapshot(self) -> Dict[Hashable, FrozenSet[Hashable]]:
        """The live adjacency as canonical neighbor sets (see base)."""
        adjacency = self._topology.adjacency
        vertices = self._topology.vertices
        return {
            v: frozenset(vertices[j] for j in adjacency.row(i).tolist())
            for i, v in enumerate(vertices)
        }

    def sinr_gain_snapshot(self) -> Optional[Dict[tuple, int]]:
        """Live directed edge->gain table from the *compiled* CSR gains.

        Reads the arrays the engine actually arbitrates with, so the
        invariant checker sees any drift between them and a fresh
        recomputation from the graph (see base class).
        """
        csr = self._sinr_csr
        if csr is None:
            return None
        vertices = self._topology.vertices
        table: Dict[tuple, int] = {}
        for i, u in enumerate(vertices):
            for k in range(int(csr.indptr[i]), int(csr.indptr[i + 1])):
                table[(u, vertices[int(csr.indices[k])])] = int(csr.gains[k])
        return table

    # ------------------------------------------------------------------
    def step(self, devices: Mapping[Hashable, Device]) -> None:
        """Execute one synchronous slot (:meth:`SlotEngineBase.step`).

        Defined here rather than inherited because
        ``perfbench/tracer.py`` wraps ``FastRadioNetwork.step`` by name.
        """
        super().step(devices)

    def _arbitrate(self, messages: Dict[Hashable, Message], levels: List[int],
                   listeners: List[Hashable]) -> List[Reception]:
        """Resolve every listener at once on the CSR (see base).

        The integer gather yields each vertex's transmitting-neighbor
        count and summed 1-based sender codes; where exactly one
        neighbor transmits (or, under SINR, the kernel's delivery mask
        is set) the code names the sender.
        """
        index = self._index
        tx = np.array([index[v] for v in messages], dtype=np.int64)
        if self._sinr_csr is None:
            counts, codes = self._topology.counts_codes(tx)
            deliver = counts == 1
        else:
            counts, codes, deliver = sinr_arbitrate(
                self._sinr_csr, tx, np.array(levels, dtype=np.int64))
        at = np.array([index[v] for v in listeners], dtype=np.int64)
        vertices = self._topology.vertices
        silent, noisy = self._silent, self._noisy
        return [Reception(Feedback.MESSAGE, messages[vertices[code - 1]]) if ok
                else silent if c == 0 else noisy
                for c, code, ok in zip(counts[at].tolist(), codes[at].tolist(),
                                       deliver[at].tolist())]
