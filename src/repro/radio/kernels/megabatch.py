"""Mega-batch plan: the member topologies stacked into one CSR.

A :class:`MegaBatchPlan` concatenates the CSR adjacencies of its member
topologies — the same topology or different ones — into one stacked
CSR, once: member ``m``'s vertex ``i`` is stacked row
``row_base[m] + i``, and the column indices stay member-local.  Each
block of lockstep slots, every transmission of every running lane
joins **one** :func:`~repro.radio.kernels.base.gather_edges` call over
that stack; shifting a sender's listener columns by its lane's column
base gives every lane its own column range, and sender codes stay
member-local, so a lane's counts and codes per (slot, column) key are
exactly those of its member resolved alone, slot by slot —
structurally, with no offset to undo.  The SINR members'
per-edge gains are stacked alongside (zeros on binary members' edges).
A one-member plan uses its member's arrays as they are.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ...errors import ConfigurationError
from .base import CSRAdjacency, EdgeGroups, gather_edges, group_edges
from .sinr_csr import SinrCsr


class MegaBatchPlan:
    """K member adjacencies stacked into one CSR.

    Parameters
    ----------
    members:
        The member topologies' CSR adjacencies, in member-index order; a
        member given as its :class:`~repro.radio.kernels.sinr_csr.SinrCsr`
        contributes its gains to ``gains``.
    """

    def __init__(self, members: Sequence[CSRAdjacency]) -> None:
        if not members:
            raise ConfigurationError(
                "MegaBatchPlan requires at least one member adjacency"
            )
        self.members: List[CSRAdjacency] = list(members)
        sizes = np.array([m.n for m in self.members], dtype=np.int64)
        #: Member index -> its first row in ``stack``.
        self.row_base = np.cumsum(sizes) - sizes
        sinr = [isinstance(m, SinrCsr) for m in self.members]
        #: Per stacked edge, its SINR gain (``None`` without SINR members).
        self.gains: Optional[np.ndarray] = None
        if len(self.members) == 1:
            self.stack = self.members[0]
            if sinr[0]:
                self.gains = self.members[0].gains
            return
        nnz = np.array([m.nnz for m in self.members], dtype=np.int64)
        self.stack = CSRAdjacency(
            n=int(sizes.sum()),
            indptr=np.concatenate([np.zeros(1, dtype=np.int64)] + [
                m.indptr[1:] + base
                for m, base in zip(self.members, np.cumsum(nnz) - nnz)
            ]),
            indices=np.concatenate([m.indices for m in self.members]),
        )
        if any(sinr):
            self.gains = np.concatenate([
                m.gains if is_sinr else np.zeros(m.nnz, dtype=np.int64)
                for m, is_sinr in zip(self.members, sinr)
            ])

    def counts_codes_many(
        self,
        rows: np.ndarray,
        codes: np.ndarray,
        shifts: np.ndarray,
        slots: np.ndarray,
        until: np.ndarray,
    ) -> EdgeGroups:
        """Resolve a block of slots of every lane at once.

        ``rows`` are the senders' stacked rows, ``codes`` their 1-based
        member-local sender codes, ``shifts`` their lanes' column bases
        and ``slots`` their slots within the block.  Column ``c`` of the
        ``until.size``-column vector listens in the block's slots before
        ``until[c]``; the edges that reach it then are grouped by
        ``(slot, column)`` key ``slot * until.size + c``
        (:func:`~repro.radio.kernels.base.group_edges`), which gives
        each key its sender count and code sum.
        """
        gathered = gather_edges(self.stack, rows, codes, shifts)
        # Most edges reach columns that do not listen: drop those first,
        # then find each kept edge's sender by position.
        edges = np.flatnonzero((until > 0)[gathered.cols])
        sender = np.searchsorted(np.cumsum(gathered.lens), edges, side="right")
        keep = slots[sender] < until[gathered.cols[edges]]
        edges, slot = edges[keep], slots[sender[keep]]
        cols = gathered.cols[edges]
        return group_edges(
            gathered.pos[edges], cols, gathered.codes[edges], slot * until.size + cols
        )
