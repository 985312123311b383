"""CSR adjacency and the one slot kernel: an integer CSR gather.

In the RN cost model a slot reduces to integer counts: per listener,
how many neighbors transmitted and which one (when exactly one did).
Every vectorized tier computes those numbers the same way —
:func:`counts_codes_blocks` over :func:`gather_edges`:

- each transmitter's CSR row becomes a run of *edge positions*, the
  positions become *listener columns*, and each block (a replica lane,
  or a lane of a mega-batch member) is shifted into its own column
  range so blocks never mix;
- per-listener counts are one ``np.bincount`` of the columns, sender
  codes one int64 ``np.add.at`` of ``tx + 1``; where the count is
  exactly 1, the code minus one *is* the unique sender's local index.

Everything above the gather (device callbacks, fault plans, collision
semantics, energy charging) lives in the engines.  Everything below it
is exact int64 arithmetic, which no evaluation order, block packing or
lane count can change — so a lane's counts and codes are the same bytes
whether it runs alone, among replicas, or in a mega batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Mapping, NamedTuple, Sequence, Tuple

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
    """Every (transmitter, listener) edge of a fused slot.

    ``cols`` and ``codes`` run over all blocks' edges, transmitter-major
    within a block; ``spans[b] = (offset, n)`` is block ``b``'s column
    range and ``edges[b] = (pos, lens)`` its CSR edge positions and
    per-transmitter degrees (what weighted reductions such as SINR
    arbitration index their per-edge tables with).
    """

    cols: np.ndarray
    codes: np.ndarray
    spans: List[Tuple[int, int]]
    edges: List[Tuple[np.ndarray, np.ndarray]]
    size: int


def gather_edges(
    blocks: Sequence[Tuple[CSRAdjacency, np.ndarray]],
) -> EdgeGather:
    """Gather the edges of every ``(adjacency, tx_idx)`` block.

    ``tx_idx`` holds the block's transmitting vertex indices (any
    order, possibly empty).  Block ``b``'s listener columns are shifted
    by the summed sizes of the blocks before it; sender codes stay
    block-local (``tx + 1``).
    """
    cols_parts: List[np.ndarray] = []
    code_parts: List[np.ndarray] = []
    spans: List[Tuple[int, int]] = []
    edges: List[Tuple[np.ndarray, np.ndarray]] = []
    offset = 0
    for adjacency, tx_idx in blocks:
        tx_idx = np.asarray(tx_idx, dtype=np.int64)
        tx_codes = tx_idx + 1
        starts = adjacency.indptr[tx_idx]
        lens = adjacency.indptr[tx_codes] - starts
        # Edge positions in the CSR arrays, transmitter-major.
        pos = (
            np.repeat(starts - np.cumsum(lens) + lens, lens)
            + np.arange(int(lens.sum()), dtype=np.int64)
        )
        cols_parts.append(adjacency.indices[pos] + offset)
        code_parts.append(np.repeat(tx_codes, lens))
        spans.append((offset, adjacency.n))
        edges.append((pos, lens))
        offset += adjacency.n
    empty = np.zeros(0, dtype=np.int64)
    return EdgeGather(
        cols=np.concatenate(cols_parts) if cols_parts else empty,
        codes=np.concatenate(code_parts) if code_parts else empty,
        spans=spans,
        edges=edges,
        size=offset,
    )


def counts_codes_blocks(
    blocks: Sequence[Tuple[CSRAdjacency, np.ndarray]],
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Per-block ``(counts, codes)``: transmitting neighbors per vertex
    and the sum of their 1-based sender codes (int64, length ``n``).

    One gather and two integer reductions resolve every block at once;
    each block's pair equals what it would get resolved alone.
    """
    gathered = gather_edges(blocks)
    counts = np.bincount(gathered.cols, minlength=gathered.size).astype(
        np.int64, copy=False
    )
    codes = np.zeros(gathered.size, dtype=np.int64)
    np.add.at(codes, gathered.cols, gathered.codes)
    return [
        (counts[off:off + n], codes[off:off + n])
        for off, n in gathered.spans
    ]


class KernelInfo(NamedTuple):
    """Identity of the slot kernel, for environment stamps."""

    name: str


def default_kernel() -> KernelInfo:
    """The slot kernel in use: there is exactly one, the NumPy gather."""
    return KernelInfo(name="numpy")
