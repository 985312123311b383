"""Vectorized SINR arbitration over CSR adjacency (int64, numpy-only).

The binary collision models reduce each slot to transmitter *counts*
per listener (:func:`~repro.radio.kernels.base.counts_codes_blocks`).
SINR arbitration needs per-edge *signals*, so it runs the same edge
gather (:func:`~repro.radio.kernels.base.gather_edges`) and then
weights each gathered edge by its compiled gain times its
transmitter's power.  Every operation is an int64 sum, maximum, or
comparison — exact and order-independent — so fused and per-lane
arbitration produce the same bytes.

The fused entry point :func:`sinr_arbitrate_many` processes several
lanes (replica batching) or members (mega batching) in one pass: the
gather gives each block its own disjoint column range, so the blocks
never interact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, List, Sequence, Tuple

import numpy as np

from ...errors import ConfigurationError
from ..sinr import THRESHOLD_DEN, SinrField
from .base import CSRAdjacency, gather_edges


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
    blocks: Sequence[Tuple[SinrCsr, np.ndarray, np.ndarray]],
) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Arbitrate every lane's slot in one fused pass.

    Each block is ``(csr, tx_idx, tx_levels)``: the compiled topology,
    the transmitting vertex indices (int64, any order), and each
    transmitter's power level.  Returns per block
    ``(counts, winner_code, deliver)`` arrays of length ``csr.n``:

    - ``counts[v]`` — number of transmitting neighbors of ``v``;
    - ``winner_code[v]`` — the uniquely strongest transmitter's local
      vertex index plus one (valid only where ``deliver``) — the same
      1-based sender-code convention as the binary-count kernels;
    - ``deliver[v]`` — True iff the strongest signal is unique and
      clears the SINR threshold.
    """
    for _, tx_idx, tx_levels in blocks:
        if np.shape(tx_idx) != np.shape(tx_levels):
            raise ConfigurationError(
                "tx_idx and tx_levels must have identical shapes"
            )
    gathered = gather_edges([(csr, tx_idx) for csr, tx_idx, _ in blocks])
    cols, codes, offset = gathered.cols, gathered.codes, gathered.size
    sig_parts = [
        csr.gains[pos]
        * np.repeat(csr.mults[np.asarray(tx_levels, dtype=np.int64)], lens)
        for (csr, _, tx_levels), (pos, lens) in zip(blocks, gathered.edges)
    ]
    sig = np.concatenate(sig_parts) if sig_parts else np.zeros(0, dtype=np.int64)
    counts_all = np.bincount(cols, minlength=offset).astype(np.int64)
    power_all = np.zeros(offset, dtype=np.int64)
    np.add.at(power_all, cols, sig)
    best_all = np.zeros(offset, dtype=np.int64)
    np.maximum.at(best_all, cols, sig)
    at_max = sig == best_all[cols]
    ties_all = np.zeros(offset, dtype=np.int64)
    np.add.at(ties_all, cols, at_max.astype(np.int64))
    code_all = np.zeros(offset, dtype=np.int64)
    np.add.at(code_all, cols, np.where(at_max, codes, 0))
    results: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    for (off, n), (csr, _, _) in zip(gathered.spans, blocks):
        counts = counts_all[off:off + n]
        best = best_all[off:off + n]
        power = power_all[off:off + n]
        num = csr.threshold_milli
        deliver = (ties_all[off:off + n] == 1) & (
            (THRESHOLD_DEN + num) * best >= num * (power + csr.noise_floor)
        )
        results.append((counts, code_all[off:off + n], deliver))
    return results


def sinr_arbitrate(
    csr: SinrCsr, tx_idx: np.ndarray, tx_levels: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Single-lane arbitration (see :func:`sinr_arbitrate_many`)."""
    return sinr_arbitrate_many([(csr, tx_idx, tx_levels)])[0]
