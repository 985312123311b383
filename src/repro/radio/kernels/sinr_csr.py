"""Vectorized SINR arbitration over CSR adjacency (int64, numpy-only).

The binary collision models reduce each slot to transmitter *counts*
per listener (:func:`~repro.radio.kernels.base.counts_codes`).  SINR
arbitration needs per-edge *signals*, so it reads the same edge gather
(:func:`~repro.radio.kernels.base.gather_edges`) and weights each
gathered edge by its compiled gain times its transmitter's power.
Every operation is an int64 sum, maximum, or comparison — exact and
order-independent — so arbitrating a lane alone or among many gives
the same bytes.

:func:`sinr_arbitrate` resolves one lane (the fast engine's slot);
:func:`sinr_arbitrate_many` takes an already gathered slot — the
lockstep executor's one gather over every running lane — and reduces
every column at once, each lane in its own column range.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence, Tuple, Union

import numpy as np

from ...errors import ConfigurationError
from ..sinr import THRESHOLD_DEN, SinrField
from .base import CSRAdjacency, EdgeGather, gather_edges


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
    gathered: EdgeGather,
    size: int,
    threshold_milli: Union[int, np.ndarray],
    noise_floor: Union[int, np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    """Arbitrate every gathered column in one pass.

    ``signal[k]`` is gathered edge ``k``'s received signal (gain times
    its transmitter's power); ``threshold_milli`` and ``noise_floor``
    are scalars or per-column arrays, so lanes of members with
    different SINR parameters share the pass.  Returns per column
    ``(winner_code, deliver)`` arrays of length ``size``:

    - ``winner_code[v]`` — the uniquely strongest transmitter's sender
      code (valid only where ``deliver``) — the same 1-based
      convention as the binary-count kernel;
    - ``deliver[v]`` — True iff the strongest signal is unique and
      clears the SINR threshold.
    """
    cols = gathered.cols
    power = np.zeros(size, dtype=np.int64)
    np.add.at(power, cols, signal)
    best = np.zeros(size, dtype=np.int64)
    np.maximum.at(best, cols, signal)
    at_max = signal == best[cols]
    ties = np.bincount(cols[at_max], minlength=size)
    winner = np.zeros(size, dtype=np.int64)
    np.add.at(winner, cols[at_max], gathered.codes[at_max])
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
    counts = np.bincount(gathered.cols, minlength=csr.n).astype(
        np.int64, copy=False
    )
    signal = csr.gains[gathered.pos] * np.repeat(
        csr.mults[np.asarray(tx_levels, dtype=np.int64)], gathered.lens
    )
    return (counts, *sinr_arbitrate_many(
        signal, gathered, csr.n, csr.threshold_milli, csr.noise_floor
    ))
