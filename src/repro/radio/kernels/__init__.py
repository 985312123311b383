"""The slot kernel: the integer arithmetic core behind the fast engines.

A slot's channel outcome reduces to two integers per listener — how
many neighbors transmitted and the sum of their 1-based indices — and
one NumPy CSR gather computes them for every tier
(:func:`~repro.radio.kernels.base.counts_codes_blocks`): the fast
engine's single lane, a replica batch's lanes, and the lanes of a
:class:`~repro.radio.kernels.megabatch.MegaBatchPlan` spanning
heterogeneous member topologies (the engine behind the ``"megabatch"``
execution backend of :mod:`repro.experiments`).  SINR arbitration
(:mod:`repro.radio.kernels.sinr_csr`) reuses the same gather and adds
per-edge signal reductions.

Every reduction is exact int64 arithmetic, which no evaluation order or
block packing can change, so every tier returns the same bytes for the
same lane.  ``tests/radio/test_kernels.py`` pins the gather against a
plain per-transmitter loop.
"""

from .base import (
    CSRAdjacency,
    EdgeGather,
    counts_codes_blocks,
    default_kernel,
    gather_edges,
)
from .megabatch import MegaBatchPlan
from .sinr_csr import SinrCsr, compile_sinr, sinr_arbitrate, sinr_arbitrate_many

__all__ = [
    "CSRAdjacency",
    "EdgeGather",
    "MegaBatchPlan",
    "SinrCsr",
    "compile_sinr",
    "counts_codes_blocks",
    "default_kernel",
    "gather_edges",
    "sinr_arbitrate",
    "sinr_arbitrate_many",
]
