"""Mega-batch plan: lanes of heterogeneous cells, one gather per slot.

Replica batching fuses lanes that share one topology.  A
:class:`MegaBatchPlan` lifts that restriction: it holds the CSR
adjacencies of *different* member topologies, and every lane's
transmitter set — whatever member it runs on — joins the same
:func:`~repro.radio.kernels.base.counts_codes_blocks` call per slot.
Each lane is its own block with its own column range, and sender codes
are block-local, so a lane's counts and codes are exactly those of its
member resolved alone — structurally, with no offset to undo.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ...errors import ConfigurationError
from .base import CSRAdjacency, counts_codes_blocks


class MegaBatchPlan:
    """K member adjacencies resolved together, lane by lane.

    Parameters
    ----------
    members:
        The member topologies' CSR adjacencies, in member-index order.
    """

    def __init__(self, members: Sequence[CSRAdjacency]) -> None:
        if not members:
            raise ConfigurationError(
                "MegaBatchPlan requires at least one member adjacency"
            )
        self.members: List[CSRAdjacency] = list(members)

    def counts_codes_many(
        self, entries: Sequence[Tuple[int, np.ndarray]]
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Resolve many lanes, possibly on different members, at once.

        ``entries[j] = (member, tx_local)`` names lane ``j``'s member
        topology and its member-local transmitter indices.  Returns one
        member-local ``(counts, codes)`` pair per entry, in order.
        """
        members = self.members
        return counts_codes_blocks(
            [(members[member], tx) for member, tx in entries]
        )
