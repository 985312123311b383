"""Baseline BFS algorithms.

Two baselines bracket the paper's contribution:

- :func:`trivial_bfs` — the LB-unit wavefront algorithm: advance the
  BFS frontier one hop per Local-Broadcast; every active unsettled
  vertex listens every round, so per-vertex energy is ``Theta(D)``.
  This is also the recursion base case of Recursive-BFS ("we revert to
  the trivial BFS algorithm that settles all distances up to D' using
  D' time and energy", Section 4.3).
- :func:`decay_bfs` — the classic Bar-Yehuda et al. slot-level BFS
  (O(D log^2 n) time): the same wavefront, but each hop is a real Decay
  execution on the slot simulator.  Used for slot-faithful validation
  at small scale.
"""

from __future__ import annotations

import collections.abc
import math
from typing import (
    TYPE_CHECKING,
    Dict,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
    Union,
)

import networkx as nx

from ..errors import ConfigurationError
from ..primitives.decay import (
    run_decay_local_broadcast,
    run_decay_local_broadcast_mega,
)
from ..primitives.lb_graph import LBGraph
from ..radio.engine import coerce_network
from ..radio.message import Message, message_of_ints
from ..radio.network import SlotEngineBase
from ..rng import DeviceStreams, SeedLike

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..radio.batch_engine import MegaBatchedNetwork


def trivial_bfs(
    lbg: LBGraph,
    sources: Iterable[Hashable],
    depth_budget: int,
    active: Optional[Iterable[Hashable]] = None,
) -> Dict[Hashable, float]:
    """Wavefront BFS in ``depth_budget`` Local-Broadcast rounds.

    Computes ``dist_{G[A]}(S, v)`` for every ``v`` in the active set
    ``A`` (default: all vertices), returning ``inf`` beyond the budget.
    Senders at distance ``d`` transmit in round ``d``; all unsettled
    active vertices listen in every round until settled — the
    ``Theta(D)``-energy profile the paper's algorithm improves on.
    """
    source_set = set(sources)
    if not source_set:
        raise ConfigurationError("trivial_bfs requires at least one source")
    if depth_budget < 0:
        raise ConfigurationError(f"depth_budget must be >= 0, got {depth_budget}")
    vertices = lbg.vertices()
    active_set = set(active) if active is not None else set(vertices)
    active_set |= source_set
    stray = active_set - vertices
    if stray:
        raise ConfigurationError(f"active vertices not in graph: {list(stray)[:5]}")

    dist: Dict[Hashable, float] = {s: 0.0 for s in source_set}
    # The vertices at distance d, in ``dist`` order: the sources, then
    # each hop's new labels, which are exactly the vertices that heard.
    frontier: Iterable[Hashable] = list(dist)
    for d in range(depth_budget):
        senders = {u: ("bfs", d) for u in frontier}
        if not senders:
            break  # wavefront exhausted
        receivers = [v for v in active_set if v not in dist]
        if not receivers:
            break
        heard = lbg.local_broadcast(senders, receivers)
        for v, (_, hop) in heard.items():
            dist[v] = float(hop) + 1.0
        frontier = heard

    for v in active_set:
        dist.setdefault(v, math.inf)
    return dist


def _coerce_sources(graph: nx.Graph, sources) -> Set[Hashable]:
    """Normalize the ``sources`` argument of :func:`decay_bfs`.

    Accepts either a single vertex (checked for membership first) or an
    iterable of vertices, mirroring ``trivial_bfs``.  Strings, bytes,
    and tuples are always treated as *single* vertices — topologies may
    label vertices with them — so an absent one is rejected rather than
    silently decomposed into its elements.
    """
    if sources in graph:  # networkx returns False for unhashables
        return {sources}
    if isinstance(sources, (str, bytes, tuple)) or not isinstance(
        sources, collections.abc.Iterable
    ):
        raise ConfigurationError(f"source {sources!r} not in network")
    source_set = set(sources)
    if not source_set:
        raise ConfigurationError("decay_bfs requires at least one source")
    stray = source_set - set(graph.nodes)
    if stray:
        raise ConfigurationError(
            f"sources not in network: {sorted(map(repr, stray))[:5]}"
        )
    return source_set


def _wavefront_round(
    dist: Mapping[Hashable, float], d: int, vertices: Iterable[Hashable]
) -> Optional[Tuple[Dict[Hashable, Message], List[Hashable]]]:
    """The ``(messages, receivers)`` Decay round that advances hop ``d``.

    Every vertex labelled ``d`` sends its hop; every unlabelled vertex
    listens.  ``None`` when the wavefront or the receivers ran out.
    """
    frontier = {u for u, du in dist.items() if du == d}
    if not frontier:
        return None
    receivers = [v for v in vertices if v not in dist]
    if not receivers:
        return None
    return {u: message_of_ints(u, d, kind="bfs") for u in frontier}, receivers


def _settle(dist: Dict[Hashable, float], heard: Mapping[Hashable, Message]) -> None:
    """Label every receiver that heard a hop-``h`` message with ``h + 1``."""
    for v, msg in heard.items():
        dist[v] = float(msg.payload[0]) + 1.0


def decay_bfs(
    network: Union[nx.Graph, SlotEngineBase],
    sources: Union[Hashable, Iterable[Hashable]],
    depth_budget: int,
    failure_probability: float = 1e-3,
    seed: SeedLike = None,
    engine: Optional[str] = None,
    tx_power: int = 0,
) -> Dict[Hashable, float]:
    """Slot-level layered BFS via repeated Decay (Bar-Yehuda et al.).

    Each frontier advance is one real Decay Local-Broadcast on the slot
    simulator; total time is ``O(D log Delta log 1/f)`` slots and every
    device's slot energy accumulates on the network's ledger.

    ``network`` may be an already-constructed slot engine, or a bare
    ``networkx`` graph with an ``engine`` name
    (``"reference"``/``"fast"``) naming the backend to build.
    ``sources`` is a single vertex or an iterable of vertices (the
    multi-source wavefront starts from all of them at distance 0),
    matching :func:`trivial_bfs`.  ``tx_power`` is the frontier
    senders' standing SINR power level (ignored by the binary collision
    models).

    Phase ``p`` gives vertex ``i`` device stream ``p * n + i`` of
    ``seed`` (one :class:`~repro.rng.DeviceStreams` for the whole run),
    the stream an eager per-phase spawn would give it.  A Generator
    passed as ``seed`` does not have its spawn counter advanced.
    """
    network = coerce_network(network, engine)
    source_set = _coerce_sources(network.graph, sources)
    monitor = getattr(network, "invariant_monitor", None)
    streams = DeviceStreams(seed)
    dist: Dict[Hashable, float] = {s: 0.0 for s in source_set}
    if monitor is not None:
        monitor.observe_labels(dist)
    for d in range(depth_budget):
        round_ = _wavefront_round(dist, d, network.graph.nodes)
        if round_ is None:
            break
        messages, receivers = round_
        heard = run_decay_local_broadcast(
            network,
            messages,
            receivers,
            failure_probability=failure_probability,
            seed=streams,
            tx_power=tx_power,
        )
        _settle(dist, heard)
        if monitor is not None:
            monitor.observe_labels(dist)

    for v in network.graph.nodes:
        dist.setdefault(v, math.inf)
    return dist


def decay_bfs_mega(
    network: "MegaBatchedNetwork",
    sources: Mapping[int, Union[Hashable, Iterable[Hashable]]],
    depth_budgets: Mapping[int, int],
    failure_probabilities: Union[float, Mapping[int, float]] = 1e-3,
    seeds: Optional[Mapping[Tuple[int, int], SeedLike]] = None,
    tx_power: Union[int, Mapping[int, int]] = 0,
) -> Dict[Tuple[int, int], Dict[Hashable, float]]:
    """:func:`decay_bfs` for every lane of a mega batch.

    ``network`` is a
    :class:`~repro.radio.batch_engine.MegaBatchedNetwork` whose members
    may carry different topologies (a replica batch of one cell is a
    single member); ``sources``,
    ``depth_budgets``, and (optionally) ``failure_probabilities`` are
    keyed by member index, while ``seeds`` maps each
    ``(member, replica)`` lane to its protocol stream.  Every Decay
    phase fuses all still-active lanes — of every member — into one
    integer gather per slot
    (:func:`~repro.primitives.decay.run_decay_local_broadcast_mega`),
    with each member running its own
    :class:`~repro.primitives.decay.DecayParameters`.

    Per lane, the wavefront, randomness (one
    :class:`~repro.rng.DeviceStreams` per lane, as in
    :func:`decay_bfs`), executed slot count, and distance labels are
    **bit-identical** to a serial :func:`decay_bfs` run of that lane
    alone; lanes retire individually as their depth
    budget or wavefront is exhausted.  Returns ``{(member, replica):
    labels}`` covering every lane of every member.
    """
    seeds = seeds or {}
    source_sets: Dict[int, Set[Hashable]] = {}
    vertices: Dict[int, List[Hashable]] = {}
    for m, member in enumerate(network.members):
        if m not in depth_budgets:
            raise ConfigurationError(f"no depth budget for member {m}")
        if m not in sources:
            raise ConfigurationError(f"no sources for member {m}")
        source_sets[m] = _coerce_sources(member.graph, sources[m])
        vertices[m] = list(member.graph.nodes)
    keys = [
        (m, r)
        for m, member in enumerate(network.members)
        for r in range(member.replicas)
    ]
    streams = {key: DeviceStreams(seeds.get(key)) for key in keys}
    dist: Dict[Tuple[int, int], Dict[Hashable, float]] = {
        (m, r): {s: 0.0 for s in source_sets[m]} for m, r in keys
    }
    active = list(keys)
    d = 0
    while active:
        rounds = {}
        for key in active:
            m, _ = key
            if d >= depth_budgets[m]:
                continue
            round_ = _wavefront_round(dist[key], d, vertices[m])
            if round_ is not None:
                rounds[key] = round_
        if not rounds:
            break
        active = sorted(rounds)
        heard_by_lane = run_decay_local_broadcast_mega(
            network,
            rounds,
            failure_probability=failure_probabilities,
            seeds={key: streams[key] for key in active},
            tx_power=tx_power,
        )
        for key, heard in heard_by_lane.items():
            _settle(dist[key], heard)
        d += 1

    for (m, _), labels in dist.items():
        for v in vertices[m]:
            labels.setdefault(v, math.inf)
    return dist
