"""The slot kernel: the integer arithmetic core behind the fast engines.

A slot's channel outcome reduces to two integers per listener — how
many neighbors transmitted and the sum of their 1-based indices — and
one NumPy CSR gather computes them for every tier
(:func:`~repro.radio.kernels.base.gather_edges` and
:func:`~repro.radio.kernels.base.counts_codes`): the fast engine's
single lane over its own CSR, and every running lane of a lockstep
call over the stacked CSR of a
:class:`~repro.radio.kernels.megabatch.MegaBatchPlan`, each lane in its
own column range.  SINR arbitration
(:mod:`repro.radio.kernels.sinr_csr`) reads the same gather and adds
per-edge signal reductions.

Every reduction is exact int64 arithmetic, which no evaluation order or
stacking can change, so every tier returns the same bytes for the same
lane.  ``tests/radio/test_kernels.py`` pins the gather against a plain
per-transmitter loop.
"""

from .base import (
    CSRAdjacency,
    EdgeGather,
    counts_codes,
    default_kernel,
    gather_edges,
)
from .megabatch import MegaBatchPlan
from .sinr_csr import SinrCsr, sinr_arbitrate, sinr_arbitrate_many

__all__ = [
    "CSRAdjacency",
    "EdgeGather",
    "MegaBatchPlan",
    "SinrCsr",
    "counts_codes",
    "default_kernel",
    "gather_edges",
    "sinr_arbitrate",
    "sinr_arbitrate_many",
]
