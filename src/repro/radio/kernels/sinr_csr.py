"""Vectorized SINR arbitration over CSR adjacency (int64, numpy-only).

The binary collision models reduce each slot to transmitter *counts*
per listener.  SINR arbitration needs per-edge *signals*, so it reads
the same edge gather (:func:`~repro.radio.kernels.base.gather_edges`),
grouped per listener (:func:`~repro.radio.kernels.base.group_edges`),
and weights each edge by its compiled gain times its transmitter's
power.  Every operation is an int64 sum, maximum, or comparison —
exact and order-independent — so arbitrating a lane alone or among
many gives the same bytes.

:func:`sinr_arbitrate` resolves one lane (the fast engine's slot);
:func:`sinr_arbitrate_many` takes already grouped edges — in the
lockstep, a block of slots of every running lane, one group per
(slot, column) key — and reduces every group at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence, Tuple, Union

import numpy as np

from ...errors import ConfigurationError
from ..sinr import THRESHOLD_DEN, SinrField
from .base import CSRAdjacency, EdgeGroups, gather_edges, group_edges


@dataclass(frozen=True)
class SinrCsr(CSRAdjacency):
    """A topology's compiled SINR state: CSR gains + threshold integers.

    The CSR adjacency itself plus ``gains[k]``, the fixed-point channel
    gain of CSR entry ``k`` (transmitter row -> listener column);
    ``mults`` / ``costs`` are the power ladder as int64 arrays indexed
    by level.
    """

    gains: np.ndarray
    mults: np.ndarray
    costs: np.ndarray
    threshold_milli: int
    noise_floor: int

    @classmethod
    def compile(
        cls,
        field: SinrField,
        adjacency: CSRAdjacency,
        vertices: Sequence[Hashable],
    ) -> "SinrCsr":
        """Align a :class:`SinrField`'s gain table with a CSR adjacency."""
        params = field.params
        return cls(
            n=adjacency.n,
            indptr=adjacency.indptr,
            indices=adjacency.indices,
            gains=field.csr_gains(
                adjacency.indptr, adjacency.indices, vertices
            ),
            mults=np.asarray(params.power_levels, dtype=np.int64),
            costs=np.asarray(params.power_costs, dtype=np.int64),
            threshold_milli=params.threshold_milli,
            noise_floor=params.noise_floor,
        )


def sinr_arbitrate_many(
    signal: np.ndarray,
    groups: EdgeGroups,
    threshold_milli: Union[int, np.ndarray],
    noise_floor: Union[int, np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    """Arbitrate every group of gathered edges in one pass.

    ``signal[k]`` is grouped edge ``k``'s received signal (gain times
    its transmitter's power); a group is one listener (in the lockstep,
    one listener in one slot).  ``threshold_milli`` and ``noise_floor``
    are scalars or per-group arrays, so lanes of members with different
    SINR parameters share the pass.  Returns per group
    ``(winner_code, deliver)``:

    - ``winner_code`` — the uniquely strongest transmitter's sender
      code (valid only where ``deliver``) — the same 1-based
      convention as the binary-count kernel;
    - ``deliver`` — True iff the strongest signal is unique and clears
      the SINR threshold.
    """
    starts = groups.starts
    power = np.add.reduceat(signal, starts)
    best = np.maximum.reduceat(signal, starts)
    at_max = signal == np.repeat(best, groups.counts)
    ties = np.add.reduceat(at_max, starts)
    winner = np.add.reduceat(np.where(at_max, groups.edge_codes, 0), starts)
    num = threshold_milli
    deliver = (ties == 1) & (
        (THRESHOLD_DEN + num) * best >= num * (power + noise_floor)
    )
    return winner, deliver


def sinr_arbitrate(
    csr: SinrCsr, tx_idx: np.ndarray, tx_levels: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One lane's slot: per vertex ``(counts, winner_code, deliver)``.

    ``tx_idx`` holds the transmitting vertex indices (int64, any order)
    and ``tx_levels`` each one's power level; ``counts[v]`` is the
    number of transmitting neighbors of ``v`` (see
    :func:`sinr_arbitrate_many` for the other two).
    """
    if np.shape(tx_idx) != np.shape(tx_levels):
        raise ConfigurationError(
            "tx_idx and tx_levels must have identical shapes"
        )
    tx = np.asarray(tx_idx, dtype=np.int64)
    gathered = gather_edges(csr, tx, tx + 1)
    groups = group_edges(gathered.pos, gathered.cols, gathered.codes, gathered.cols)
    level = np.zeros(csr.n, dtype=np.int64)
    level[tx] = tx_levels
    signal = csr.gains[groups.pos] * csr.mults[level[groups.edge_codes - 1]]
    out = np.zeros((3, csr.n), dtype=np.int64)
    out[:, groups.keys] = (groups.counts, *sinr_arbitrate_many(
        signal, groups, csr.threshold_milli, csr.noise_floor
    ))
    return out[0], out[1], out[2].astype(bool)
