"""Engine selection: one protocol, interchangeable slot executors.

Every slot-level consumer in the library (the Decay primitives,
``DecayLBGraph``, the slot-level BFS baselines, the benchmarks) is
written against the :class:`Engine` protocol, so any protocol can run
on any backend unchanged:

- ``"reference"`` — :class:`~repro.radio.network.RadioNetwork`, the
  per-device Python transcription of paper Section 1.1; the semantic
  ground truth.
- ``"fast"`` — :class:`~repro.radio.fast_engine.FastRadioNetwork`, the
  vectorized engine resolving each slot's channel with the integer CSR
  gather of :mod:`repro.radio.kernels`.

Engines self-register by name via
:func:`~repro.radio.engine_registry.register_engine` (re-exported
here); :func:`make_network` looks them up with
:func:`~repro.radio.engine_registry.get_engine`.  All engines are
bit-for-bit equivalent under identical seeds (enforced by
``tests/radio/test_engine_equivalence.py``); pick ``"fast"`` for large
or dense instances and ``"reference"`` when auditing semantics.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Mapping, Optional, Protocol, Union, runtime_checkable

import networkx as nx
import numpy as np

from ..errors import ConfigurationError
from ..rng import SeedLike
from .channel import CollisionModel
from .device import Device
from .engine_registry import (
    available_engines,
    get_engine,
    register_engine,
)
from .faults import FaultCounters
from .message import MessageSizePolicy
from .energy import EnergyLedger
from .fast_engine import FastRadioNetwork
from .network import RadioNetwork, SlotEngineBase
from .trace import EventTrace


@runtime_checkable
class SlotExecutorView(Protocol):
    """The minimal read surface any slot executor exposes.

    What the experiment layer needs to *account* for a run — the slot
    clock and the fault/delivery tally — without being able to drive
    it.  Every :class:`Engine` satisfies it; so does a replica lane of
    the batched engine
    (:class:`~repro.radio.batch_engine.ReplicaLane`), which is exactly
    why it exists: accounting reads accept either, driving requires a
    real :class:`Engine`.
    """

    slot: int
    fault_counters: FaultCounters


@runtime_checkable
class Engine(Protocol):
    """Structural interface of a slot-level executor.

    Both engines satisfy this protocol; code that accepts an ``Engine``
    works with either (and with any future backend that implements it).
    """

    graph: nx.Graph
    collision_model: "CollisionModel"
    size_policy: "MessageSizePolicy"
    ledger: EnergyLedger
    trace: Optional[EventTrace]
    slot: int
    fault_counters: FaultCounters

    @property
    def max_degree(self) -> int:
        """Maximum degree of the topology (the Delta of Lemma 2.4)."""
        ...

    def run(
        self,
        devices: Mapping[Hashable, Device],
        max_slots: int,
        stop_when: Optional[Callable[[], bool]] = None,
    ) -> int:
        """Run the population for up to ``max_slots`` slots."""
        ...

    def step(self, devices: Mapping[Hashable, Device]) -> None:
        """Execute one synchronous slot."""
        ...

    def spawn_devices(
        self,
        factory: Callable[[Hashable, np.random.Generator], Device],
        seed: SeedLike = None,
    ) -> Dict[Hashable, Device]:
        """Instantiate one device per vertex with independent streams."""
        ...


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
    return get_engine(engine)(graph, **kwargs)


def coerce_network(
    network: "Union[nx.Graph, Engine]",
    engine: Optional[str] = None,
) -> "Engine":
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
