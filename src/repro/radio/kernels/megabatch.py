"""Mega-batch plan: the member topologies stacked into one CSR.

A :class:`MegaBatchPlan` concatenates the CSR adjacencies of its member
topologies — the same topology or different ones — into one stacked
CSR, once: member ``m``'s vertex ``i`` is stacked row
``row_base[m] + i``, and the column indices stay member-local.  Each
slot, every sender of every running lane joins **one**
:func:`~repro.radio.kernels.base.gather_edges` call over that stack;
shifting a sender's listener columns by its lane's column base gives
every lane its own column range, and sender codes stay member-local,
so a lane's counts and codes are exactly those of its member resolved
alone — structurally, with no offset to undo.  The SINR members'
per-edge gains are stacked alongside (zeros on binary members' edges).
A one-member plan uses its member's arrays as they are.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ...errors import ConfigurationError
from .base import CSRAdjacency, EdgeGather, counts_codes, gather_edges
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
        size: int,
    ) -> Tuple[EdgeGather, np.ndarray, np.ndarray]:
        """Resolve one slot of every lane at once.

        ``rows`` are the senders' stacked rows, ``codes`` their 1-based
        member-local sender codes and ``shifts`` their lanes' column
        bases in a ``size``-column vector.  Returns the gathered edges
        and the per-column ``(counts, codes)`` of
        :func:`~repro.radio.kernels.base.counts_codes`.
        """
        gathered = gather_edges(self.stack, rows, codes, shifts)
        return (gathered, *counts_codes(gathered, size))
