"""Engine selection: two interchangeable slot executors, by name.

Every slot-level consumer in the library (the Decay primitives,
``DecayLBGraph``, the slot-level BFS baselines, the benchmarks) is
written against :class:`~repro.radio.network.SlotEngineBase`, so any
protocol runs on either executor unchanged:

- ``"reference"`` — :class:`~repro.radio.network.RadioNetwork`, the
  per-device Python transcription of paper Section 1.1; the semantic
  ground truth.
- ``"fast"`` — :class:`~repro.radio.fast_engine.FastRadioNetwork`, the
  vectorized engine resolving each slot's channel with the integer CSR
  gather of :mod:`repro.radio.kernels`.

:data:`ENGINES` is the whole set; :func:`make_network` constructs from
it by name.  Both engines are bit-for-bit equivalent under identical
seeds (enforced by ``tests/radio/test_engine_equivalence.py``); pick
``"fast"`` for large or dense instances and ``"reference"`` when
auditing semantics.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Type, Union

import networkx as nx

from ..errors import ConfigurationError
from .fast_engine import FastRadioNetwork
from .network import RadioNetwork, SlotEngineBase

#: The slot executors, keyed by the name specs and the CLI select them by.
ENGINES: Dict[str, Type[SlotEngineBase]] = {
    "fast": FastRadioNetwork,
    "reference": RadioNetwork,
}


def available_engines() -> Tuple[str, ...]:
    """All engine names, sorted."""
    return tuple(sorted(ENGINES))


def make_network(
    graph: nx.Graph,
    engine: str = "reference",
    **kwargs,
) -> SlotEngineBase:
    """Construct a slot-level network on the named engine.

    ``kwargs`` are forwarded to the engine constructor
    (``collision_model``, ``size_policy``, ``ledger``, ``trace``,
    ``faults``, ``fault_seed``, ``dynamic``, ``sinr``).  Raises
    :class:`~repro.errors.ConfigurationError` for unknown engine names.
    """
    try:
        engine_cls = ENGINES[engine]
    except (KeyError, TypeError):
        raise ConfigurationError(
            f"unknown engine {engine!r}; available: "
            f"{', '.join(available_engines())}"
        ) from None
    return engine_cls(graph, **kwargs)


def coerce_network(
    network: Union[nx.Graph, SlotEngineBase],
    engine: Optional[str] = None,
) -> SlotEngineBase:
    """Accept either a bare graph or an already-built engine.

    The standard entry-point plumbing for slot-level consumers: a bare
    ``networkx`` graph is wrapped via :func:`make_network` on the named
    backend (default ``"reference"``); an existing engine passes
    through unchanged, in which case supplying ``engine=`` is rejected
    as contradictory.
    """
    if isinstance(network, nx.Graph):
        return make_network(network, engine=engine or "reference")
    if engine is not None:
        raise ConfigurationError(
            "engine= selects a backend for a bare graph; "
            "got an already-constructed network as well"
        )
    return network
