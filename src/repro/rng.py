"""Seeded randomness utilities.

Every stochastic component of the library takes either an explicit
:class:`numpy.random.Generator` or an integer seed.  This module
centralizes the conversion and the derivation of independent per-device
streams, so that whole-system runs are reproducible bit-for-bit from a
single seed while devices remain statistically independent (the model
has no shared randomness).
"""

from __future__ import annotations

from typing import List, Tuple, Union

import numpy as np

from .errors import ConfigurationError

SeedLike = Union[None, int, np.random.Generator]


def make_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a ``numpy`` Generator from a seed, generator, or ``None``.

    Passing an existing Generator returns it unchanged (no copy), so a
    caller can thread one stream through a whole experiment.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_streams(rng: np.random.Generator, count: int) -> List[np.random.Generator]:
    """Derive ``count`` independent child generators from ``rng``.

    Used to give each simulated device its own private randomness, as
    required by the model ("Devices can locally generate unbiased random
    bits; there is no shared randomness"), and by the experiment harness
    to derive per-cell sweep seeds.
    """
    if count < 0:
        raise ConfigurationError(f"count must be non-negative, got {count}")
    return [np.random.default_rng(s) for s in rng.bit_generator.seed_seq.spawn(count)]


class DeviceStreams:
    """The per-device streams of one seed, each derived on first use.

    Child ``k`` is ``SeedSequence(entropy, spawn_key=parent.spawn_key +
    (k,), pool_size=parent.pool_size)``, exactly the ``k``-th child
    ``parent.spawn()`` returns, so a device that never draws costs no
    ``SeedSequence`` and no Generator.  NumPy's spawn counter cannot be
    written, so the holder counts children itself, from where the seed's
    counter stood; the seed's own counter does not advance.
    """

    __slots__ = ("_seq", "_next")

    def __init__(self, seed: SeedLike = None) -> None:
        self._seq = make_rng(seed).bit_generator.seed_seq
        self._next = self._seq.n_children_spawned

    def reserve(self, count: int) -> int:
        """Reserve the next ``count`` children; returns the first index."""
        if count < 0:
            raise ConfigurationError(f"count must be non-negative, got {count}")
        base = self._next
        self._next += count
        return base

    def generator(self, k: int) -> np.random.Generator:
        """Build child ``k``'s Generator."""
        seq = self._seq
        return np.random.default_rng(np.random.SeedSequence(
            seq.entropy, spawn_key=seq.spawn_key + (k,), pool_size=seq.pool_size,
        ))


def device_streams(
    seed: Union[SeedLike, DeviceStreams], count: int
) -> Tuple[DeviceStreams, int]:
    """The holder of ``count`` consecutive device streams of ``seed``,
    and the first child index.  Any seed but a :class:`DeviceStreams`
    gets the children an eager ``spawn(count)`` would give; a caller's
    Generator has its spawn counter advanced too, so it may spawn again.
    """
    if isinstance(seed, DeviceStreams):
        return seed, seed.reserve(count)
    streams = DeviceStreams(seed)
    base = streams.reserve(count)
    if isinstance(seed, np.random.Generator):
        seed.bit_generator.seed_seq.spawn(count)
    return streams, base


class LazyGenerator:
    """A device's Generator, built on its first use.

    Stands in for :class:`numpy.random.Generator` in the
    ``factory(vertex, rng)`` contract: the first attribute access builds
    child ``k`` of its :class:`DeviceStreams`, and every access forwards
    to that Generator.
    """

    __slots__ = ("_streams", "_k", "_rng")

    def __init__(self, streams: DeviceStreams, k: int) -> None:
        self._streams = streams
        self._k = k
        self._rng = None

    def __getattr__(self, name: str):
        if name.startswith("__"):
            # Protocol lookups (copy, pickle) on a half-built instance.
            raise AttributeError(name)
        rng = self._rng
        if rng is None:
            rng = self._rng = self._streams.generator(self._k)
        return getattr(rng, name)


def exponential(rng: np.random.Generator, beta: float) -> float:
    """Sample ``Exponential(beta)`` — rate ``beta``, mean ``1/beta``.

    This is the shift distribution of the Miller-Peng-Xu clustering
    (paper Section 2): ``delta_v ~ Exponential(beta)``.
    """
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    return float(rng.exponential(1.0 / beta))


def geometric_decay_slot(rng: np.random.Generator, max_slot: int) -> int:
    """Sample the Decay protocol's transmission slot.

    Returns ``X in [1, max_slot]`` with ``P(X = t) >= 2^-t`` (Lemma 2.4):
    a truncated geometric — the leftover mass is assigned to ``max_slot``.
    """
    if max_slot < 1:
        raise ValueError(f"max_slot must be >= 1, got {max_slot}")
    # Geometric with success prob 1/2, truncated at max_slot.
    slot = int(rng.geometric(0.5))
    return min(slot, max_slot)
