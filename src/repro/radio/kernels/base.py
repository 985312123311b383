"""CSR adjacency and the one slot kernel: an integer CSR gather.

In the RN cost model a slot reduces to integer counts: per listener,
how many neighbors transmitted and which one (when exactly one did).
Every vectorized tier computes those numbers the same way —
:func:`counts_codes` over :func:`gather_edges`:

- each transmitter's CSR row becomes a run of *edge positions*
  (``repeat``/``arange`` over ``indptr``), the positions become
  *listener columns*, and each transmitter's columns are shifted by its
  lane's column base, so lanes never mix;
- per-listener counts are one ``np.bincount`` of the columns, sender
  codes one int64 ``np.add.at`` of the 1-based codes; where the count
  is exactly 1, the code minus one *is* the unique sender's local index.

The fast engine gathers over its own CSR with no shift; the lockstep
executor gathers every running lane of every member at once over a
stacked CSR (:class:`~repro.radio.kernels.megabatch.MegaBatchPlan`).
Everything above the gather (device callbacks, fault plans, collision
semantics, energy charging) lives in the engines.  Everything below it
is exact int64 arithmetic, which no evaluation order, stacking or lane
count can change — so a lane's counts and codes are the same bytes
whether it runs alone, among replicas, or in a mega batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Mapping, NamedTuple, Tuple, Union

import networkx as nx
import numpy as np

from ...errors import ConfigurationError


@dataclass(frozen=True)
class CSRAdjacency:
    """An undirected topology compiled to CSR index arrays.

    The kernel-facing form of a graph: ``indices[indptr[i]:indptr[i+1]]``
    are the (contiguous ``0..n-1``) neighbor indices of vertex ``i``,
    sorted ascending.  All adjacency values are implicitly 1 (the RN
    model has unweighted symmetric links), so the arrays alone determine
    every kernel's output.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray

    @classmethod
    def from_graph(
        cls, graph: nx.Graph, index: Dict[Hashable, int]
    ) -> "CSRAdjacency":
        """Compile ``graph`` against a contiguous vertex ``index`` map.

        ``index`` must map every vertex to its row (the engine's vertex
        order); neighbor columns are sorted per row so the layout is
        canonical regardless of insertion order.
        """
        n = len(index)
        indptr = np.zeros(n + 1, dtype=np.int64)
        rows: List[np.ndarray] = []
        for vertex, i in index.items():
            nbrs = np.fromiter(
                (index[u] for u in graph.neighbors(vertex)), dtype=np.int64
            )
            nbrs.sort()
            rows.append(nbrs)
            indptr[i + 1] = len(nbrs)
        np.cumsum(indptr, out=indptr)
        indices = (
            np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64)
        )
        return cls(n=n, indptr=indptr, indices=indices)

    @property
    def nnz(self) -> int:
        """Number of stored entries (twice the edge count)."""
        return int(self.indptr[-1])

    def row(self, i: int) -> np.ndarray:
        """The (sorted) neighbor indices of vertex ``i`` (a view)."""
        return self.indices[self.indptr[i]:self.indptr[i + 1]]

    def with_row_updates(
        self, updates: Mapping[int, np.ndarray]
    ) -> "CSRAdjacency":
        """A new adjacency with the given rows replaced, others shared.

        ``updates`` maps row index -> replacement neighbor array (int64,
        sorted ascending — the caller's contract, as for
        :meth:`from_graph`).  Unchanged spans of ``indices`` are copied
        in bulk, so patching between slots costs O(touched rows + one
        memcpy of nnz) instead of the full per-edge Python recompile of
        :meth:`from_graph` — this is the incremental path the dynamic
        topology layer (:mod:`repro.radio.dynamic`) patches engines
        through.
        """
        counts = np.diff(self.indptr)
        touched = sorted(updates)
        for i in touched:
            if not (0 <= i < self.n):
                raise ConfigurationError(
                    f"row update for vertex index {i} outside 0..{self.n - 1}"
                )
            counts[i] = updates[i].size
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        indices = np.empty(int(indptr[-1]), dtype=np.int64)
        prev = 0
        for i in touched:
            src0, src1 = self.indptr[prev], self.indptr[i]
            dst0 = indptr[prev]
            indices[dst0:dst0 + (src1 - src0)] = self.indices[src0:src1]
            indices[indptr[i]:indptr[i + 1]] = updates[i]
            prev = i + 1
        src0, src1 = self.indptr[prev], self.indptr[self.n]
        dst0 = indptr[prev]
        indices[dst0:dst0 + (src1 - src0)] = self.indices[src0:src1]
        return CSRAdjacency(n=self.n, indptr=indptr, indices=indices)


class EdgeGather(NamedTuple):
    """Every (transmitter, listener) edge of one slot, transmitter-major.

    ``pos[k]`` is edge ``k``'s position in the CSR arrays (what per-edge
    tables such as SINR gains are read with), ``lens`` each
    transmitter's degree, ``cols[k]`` the edge's listener column and
    ``codes[k]`` its 1-based sender code.
    """

    pos: np.ndarray
    lens: np.ndarray
    cols: np.ndarray
    codes: np.ndarray


def gather_edges(
    adjacency: CSRAdjacency,
    rows: np.ndarray,
    codes: np.ndarray,
    shifts: Union[int, np.ndarray] = 0,
) -> EdgeGather:
    """Gather the CSR rows of every transmitter in one pass.

    ``rows`` are the transmitters' rows of ``adjacency`` (any order,
    possibly empty), ``codes`` their sender codes, and ``shifts`` the
    column offset added to each one's listeners (one per transmitter,
    or one for all): a stacked CSR
    (:class:`~repro.radio.kernels.megabatch.MegaBatchPlan`) keeps
    member-local columns, and each lane's shift moves its listeners into
    its own column range.
    """
    starts = adjacency.indptr[rows]
    lens = adjacency.indptr[rows + 1] - starts
    ends = np.cumsum(lens)
    pos = np.repeat(starts - ends + lens, lens) + np.arange(
        int(ends[-1]) if len(ends) else 0, dtype=np.int64
    )
    cols = adjacency.indices[pos]
    if np.ndim(shifts) or shifts:
        cols = cols + np.repeat(shifts, lens)
    return EdgeGather(pos, lens, cols, np.repeat(codes, lens))


def counts_codes(gathered: EdgeGather, size: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per column ``(counts, codes)``: how many gathered edges reach it
    and the sum of their sender codes (int64, length ``size``).  Where
    the count is exactly 1 the code *is* the unique sender's."""
    counts = np.bincount(gathered.cols, minlength=size).astype(
        np.int64, copy=False
    )
    codes = np.zeros(size, dtype=np.int64)
    np.add.at(codes, gathered.cols, gathered.codes)
    return counts, codes


class KernelInfo(NamedTuple):
    """Identity of the slot kernel, for environment stamps."""

    name: str


def default_kernel() -> KernelInfo:
    """The slot kernel in use: there is exactly one, the NumPy gather."""
    return KernelInfo(name="numpy")
