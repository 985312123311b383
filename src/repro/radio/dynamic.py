"""Time-indexed topology: deterministic join/leave/mobility schedules.

The fault layer (:mod:`repro.radio.faults`) can crash and revive fixed
members of a static topology, but real deployments also see devices
*joining* with brand-new links mid-run, and mobile devices re-wiring
their neighborhoods as they move.  This module makes the topology
itself a function of the slot clock:

- :class:`DynamicSchedule` — the frozen, hashable, JSON-round-tripping
  description of membership dynamics (it is the ``dynamic`` field of
  :class:`repro.experiments.ExperimentSpec`, part of spec identity):
  a fraction of vertices *join* late (arriving with seed-derived fresh
  attachment edges), a fraction *leaves* permanently, and — on
  geometric scenarios — a fraction periodically *moves*, recomputing
  its radio links from the new positions;
- :class:`DynamicTopology` — the compiled per-run runtime: it fixes
  who joins/leaves when (and every random draw) from one dedicated
  seed stream, then hands both engines an identical sequence of
  :class:`TopologyPatch` edge diffs, applied by the reference engine
  as adjacency-list updates and by the fast engine as incremental CSR
  row splices (:meth:`repro.radio.kernels.base.CSRAdjacency.with_row_updates`)
  — never a full recompile.

Determinism contract
--------------------
Every random draw is a pure function of ``(schedule, base graph,
seed)``: member selection and attachment endpoints are drawn at
compile time, mobility draws at run time in strict slot order
(:meth:`DynamicTopology.advance` enforces in-order consumption exactly
like :meth:`repro.radio.faults.FaultRuntime.plan`).  Two engines
compiling the same inputs therefore apply bit-identical patch
sequences — the property ``tests/radio/test_dynamic.py`` and the
schema-level differential suite pin down.

Membership semantics
--------------------
The *device population is fixed* for the whole run — dynamic
membership is expressed as activity: a not-yet-joined or departed
vertex is inactive, and the engines skip it exactly like a crashed
device (no action, no energy).  Vertex 0 is the founding anchor (the
BFS source in the slot-tier adapters): it never joins late and never
leaves.  Within one slot, leaves apply before joins, then mobility.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import networkx as nx

from ..errors import ConfigurationError, SimulationError
from ..rng import SeedLike, make_rng, spawn_streams
from .topology import within_radius


def _check_fraction(name: str, value: Any) -> float:
    """Validate one fraction knob, returning it as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"{name} must be a number, got {value!r}")
    f = float(value)
    if not (0.0 <= f <= 1.0) or f != f:
        raise ConfigurationError(f"{name} must be in [0, 1], got {value!r}")
    return f


def _check_positive_int(name: str, value: Any) -> int:
    """Validate one positive integer knob."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ConfigurationError(f"{name} must be a positive int, got {value!r}")
    return value


@dataclass(frozen=True)
class DynamicSchedule:
    """A deterministic membership/mobility schedule over the slot clock.

    ``join_fraction`` of the vertices (never vertex 0) start *inactive*
    and join one at a time from slot ``join_start``, every
    ``join_every`` slots, each arriving with ``attach_edges`` fresh
    edges to endpoints drawn uniformly among the members active at its
    join slot.  ``leave_fraction`` of the founding members (never
    vertex 0, disjoint from the joiners) leave permanently from slot
    ``leave_start``, every ``leave_every`` slots, taking their incident
    edges with them.  When ``rewire_period > 0``, every that many slots
    a ``rewire_fraction`` of the active members moves to a fresh
    uniform position and re-derives its links from the scenario's
    geometry, by the generator's own test
    (:func:`repro.radio.topology.within_radius`) — only geometric
    scenarios (node ``pos`` attributes plus a ``radius`` graph
    attribute) support mobility.

    Frozen, hashable, picklable; ``to_dict``/``from_dict`` round-trip
    losslessly through JSON.  An all-zero schedule is null (see
    :meth:`is_null`) and normalizes to ``None`` at the experiment layer,
    so "static topology" has exactly one canonical representation.
    """

    join_fraction: float = 0.0
    join_start: int = 1
    join_every: int = 1
    attach_edges: int = 2
    leave_fraction: float = 0.0
    leave_start: int = 1
    leave_every: int = 1
    rewire_period: int = 0
    rewire_fraction: float = 0.0

    def __post_init__(self) -> None:
        for name in ("join_fraction", "leave_fraction", "rewire_fraction"):
            object.__setattr__(
                self, name,
                _check_fraction(f"DynamicSchedule.{name}", getattr(self, name)),
            )
        for name in ("join_start", "join_every", "attach_edges",
                     "leave_start", "leave_every"):
            object.__setattr__(
                self, name,
                _check_positive_int(f"DynamicSchedule.{name}", getattr(self, name)),
            )
        period = self.rewire_period
        if not isinstance(period, int) or isinstance(period, bool) or period < 0:
            raise ConfigurationError(
                f"DynamicSchedule.rewire_period must be a non-negative int "
                f"(0 disables mobility), got {period!r}"
            )
        if period > 0 and self.rewire_fraction == 0.0:
            raise ConfigurationError(
                "DynamicSchedule.rewire_period is set but rewire_fraction is 0; "
                "set rewire_fraction > 0 or rewire_period = 0"
            )

    def is_null(self) -> bool:
        """True when the schedule changes nothing (a no-op)."""
        return (
            self.join_fraction == 0.0
            and self.leave_fraction == 0.0
            and self.rewire_period == 0
        )

    def to_dict(self) -> Dict[str, Any]:
        """Lossless JSON-native form (see :meth:`from_dict`)."""
        return {
            "join_fraction": self.join_fraction,
            "join_start": self.join_start,
            "join_every": self.join_every,
            "attach_edges": self.attach_edges,
            "leave_fraction": self.leave_fraction,
            "leave_start": self.leave_start,
            "leave_every": self.leave_every,
            "rewire_period": self.rewire_period,
            "rewire_fraction": self.rewire_fraction,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DynamicSchedule":
        """Rebuild a schedule from :meth:`to_dict` output (validating it)."""
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"dynamic schedule must be a mapping, got {type(data).__name__}"
            )
        known = {
            "join_fraction", "join_start", "join_every", "attach_edges",
            "leave_fraction", "leave_start", "leave_every",
            "rewire_period", "rewire_fraction",
        }
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown dynamic schedule fields: {sorted(unknown)}"
            )
        return cls(**dict(data))


def named_dynamic_schedules() -> Dict[str, DynamicSchedule]:
    """The built-in presets used by CI grids, tests, and the CLI."""
    return {
        "none": DynamicSchedule(),
        "join_wave": DynamicSchedule(
            join_fraction=0.25, join_start=4, join_every=2, attach_edges=2,
        ),
        "leave_wave": DynamicSchedule(
            leave_fraction=0.25, leave_start=6, leave_every=2,
        ),
        "churn_mix": DynamicSchedule(
            join_fraction=0.2, join_start=3, join_every=2, attach_edges=2,
            leave_fraction=0.2, leave_start=5, leave_every=3,
        ),
        "mobility": DynamicSchedule(
            rewire_period=8, rewire_fraction=0.1,
        ),
    }


def coerce_dynamic_schedule(
    value: Union[None, str, Mapping[str, Any], DynamicSchedule],
) -> Optional[DynamicSchedule]:
    """Normalize any accepted dynamic-schedule designation.

    Accepts ``None`` (static topology), a :class:`DynamicSchedule`, its
    ``to_dict`` mapping, or a :func:`named_dynamic_schedules` preset
    name.  Null schedules normalize to ``None`` so that "static" has
    exactly one canonical representation.
    """
    if value is None:
        return None
    if isinstance(value, DynamicSchedule):
        schedule = value
    elif isinstance(value, str):
        presets = named_dynamic_schedules()
        if value not in presets:
            raise ConfigurationError(
                f"unknown dynamic schedule preset {value!r}; "
                f"available: {', '.join(sorted(presets))}"
            )
        schedule = presets[value]
    elif isinstance(value, Mapping):
        schedule = DynamicSchedule.from_dict(value)
    else:
        raise ConfigurationError(
            f"dynamic must be None, a DynamicSchedule, a preset name, or a "
            f"mapping, got {type(value).__name__}"
        )
    return None if schedule.is_null() else schedule


# ---------------------------------------------------------------------------
# Runtime
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TopologyPatch:
    """One slot's topology diff, in canonical order.

    ``joined``/``left`` are the vertices whose activity flips this slot;
    ``added``/``removed`` are ``(u, v)`` edge endpoints with ``u < v``,
    sorted — the exact diff both engines apply before resolving the
    slot's channel.
    """

    joined: Tuple[int, ...] = ()
    left: Tuple[int, ...] = ()
    added: Tuple[Tuple[int, int], ...] = ()
    removed: Tuple[Tuple[int, int], ...] = ()


class DynamicTopology:
    """Per-run compiled membership/mobility timeline over a base graph.

    Built once per engine run from ``(schedule, base graph, seed)`` —
    the constructor draws the joiner/leaver sets and every attachment
    endpoint, so two runs compiling the same inputs produce identical
    timelines regardless of which engine consumes them.  The engine
    then:

    - starts from :meth:`initial_graph` (full vertex set; the joiners'
      base edges removed — they arrive with fresh links instead);
    - calls :meth:`advance` exactly once per slot, applying the returned
      :class:`TopologyPatch` (if any) before resolving the channel;
    - skips the current :attr:`inactive` set exactly like crashed
      devices (merged into the slot's fault plan by
      :class:`repro.radio.network.SlotEngineBase`).

    ``scenario graphs`` must carry contiguous integer labels ``0..n-1``
    (every registry family does).  Mobility additionally needs the
    geometric attributes (node ``pos`` + graph ``radius``) written by
    :func:`repro.radio.topology.random_geometric`.
    """

    def __init__(
        self,
        schedule: DynamicSchedule,
        graph: nx.Graph,
        seed: SeedLike = None,
    ) -> None:
        if not isinstance(schedule, DynamicSchedule):
            raise ConfigurationError(
                f"DynamicTopology needs a DynamicSchedule, "
                f"got {type(schedule).__name__}"
            )
        n = graph.number_of_nodes()
        if sorted(graph.nodes) != list(range(n)):
            raise ConfigurationError(
                "dynamic topology requires contiguous integer vertex labels "
                "0..n-1 (every registry scenario satisfies this)"
            )
        self.schedule = schedule
        self.n = n
        select_rng, self._motion_rng = spawn_streams(make_rng(seed), 2)

        self._radius: float = 0.0
        self._pos: Dict[int, Tuple[float, float]] = {}
        if schedule.rewire_period > 0:
            radius = graph.graph.get("radius")
            missing_pos = [v for v in range(n) if "pos" not in graph.nodes[v]]
            if radius is None or missing_pos:
                raise ConfigurationError(
                    "mobility re-wiring needs a geometric scenario (node "
                    "'pos' attributes and a graph-level 'radius'); use the "
                    "'geometric'/'dense_geometric' families or set "
                    "rewire_period=0"
                )
            self._radius = float(radius)
            self._pos = {
                v: (float(graph.nodes[v]["pos"][0]),
                    float(graph.nodes[v]["pos"][1]))
                for v in range(n)
            }

        # --- member selection (compile-time draws, in a fixed order) ---
        eligible = list(range(1, n))
        join_count = min(int(schedule.join_fraction * n), len(eligible))
        joiners: List[int] = []
        if join_count:
            picks = select_rng.choice(len(eligible), size=join_count,
                                      replace=False)
            joiners = [eligible[int(i)] for i in picks]
        joiner_set = set(joiners)
        founders_pool = [v for v in eligible if v not in joiner_set]
        leave_count = min(int(schedule.leave_fraction * n), len(founders_pool))
        leavers: List[int] = []
        if leave_count:
            picks = select_rng.choice(len(founders_pool), size=leave_count,
                                      replace=False)
            leavers = [founders_pool[int(i)] for i in picks]

        #: slot -> (vertices leaving, [(joiner, attachment endpoints)]).
        self._events: Dict[int, Tuple[List[int], List[Tuple[int, Tuple[int, ...]]]]] = {}

        def _event(slot: int) -> Tuple[List[int], List[Tuple[int, Tuple[int, ...]]]]:
            return self._events.setdefault(slot, ([], []))

        for i, v in enumerate(leavers):
            _event(schedule.leave_start + i * schedule.leave_every)[0].append(v)
        for i, v in enumerate(joiners):
            _event(schedule.join_start + i * schedule.join_every)[1].append((v, ()))

        # --- attachment endpoints: drawn now, in slot order, against the
        # schedule-determined membership timeline (mobility never changes
        # membership, so the active set at any slot is known here) ---
        active: Set[int] = set(range(n)) - joiner_set
        for slot in sorted(self._events):
            leaves, joins = self._events[slot]
            active.difference_update(leaves)
            for pos, (v, _) in enumerate(joins):
                candidates = sorted(active)
                k = min(schedule.attach_edges, len(candidates))
                endpoints: Tuple[int, ...] = ()
                if k:
                    picks = select_rng.choice(len(candidates), size=k,
                                              replace=False)
                    endpoints = tuple(sorted(candidates[int(i)] for i in picks))
                joins[pos] = (v, endpoints)
                active.add(v)

        # --- runtime state ---
        self._base_graph = graph
        self._adj: Dict[int, Set[int]] = {
            v: {u for u in graph.neighbors(v)
                if u not in joiner_set and v not in joiner_set}
            for v in range(n)
        }
        self._active: Set[int] = set(range(n)) - joiner_set
        self._inactive_cache: FrozenSet[int] = frozenset(joiner_set)
        self._next_slot = 0
        self._last_event_slot = max(self._events, default=-1)
        self._max_degree_bound = self._compute_max_degree_bound()

    # ------------------------------------------------------------------
    def _compute_max_degree_bound(self) -> int:
        """A static Delta valid for the whole timeline.

        Exact (replayed from the precompiled events) when mobility is
        off; with mobility on, the instantaneous degree is unpredictable
        so the trivial bound ``n - 1`` is used — the Decay layer only
        pays a log factor for the slack, and both engines share the
        bound, so parameterization stays engine-independent.
        """
        if self.schedule.rewire_period > 0:
            return max(0, self.n - 1)
        adj = {v: set(nbrs) for v, nbrs in self._adj.items()}
        bound = max((len(nbrs) for nbrs in adj.values()), default=0)
        for slot in sorted(self._events):
            leaves, joins = self._events[slot]
            for v in leaves:
                for u in list(adj[v]):
                    adj[u].discard(v)
                adj[v].clear()
            for v, endpoints in joins:
                for u in endpoints:
                    adj[v].add(u)
                    adj[u].add(v)
                    bound = max(bound, len(adj[u]))
                bound = max(bound, len(adj[v]))
        return bound

    # ------------------------------------------------------------------
    def initial_graph(self) -> nx.Graph:
        """A fresh slot-0 graph: all ``n`` vertices, joiner edges removed.

        A new :class:`networkx.Graph` every call, so the engine that
        mutates its own view never aliases the base scenario graph (the
        experiment layer keeps reporting the base graph's node/edge
        counts).
        """
        graph = nx.Graph()
        graph.add_nodes_from(range(self.n))
        for v in range(self.n):
            for u in self._adj[v]:
                if v < u:
                    graph.add_edge(v, u)
        return graph

    @property
    def inactive(self) -> FrozenSet[int]:
        """The currently inactive vertices (not yet joined, or left)."""
        return self._inactive_cache

    @property
    def max_degree_bound(self) -> int:
        """Static max-degree bound over the whole timeline (the Delta
        the Decay layer parameterizes against on dynamic runs)."""
        return self._max_degree_bound

    def expected_adjacency(self) -> Dict[int, FrozenSet[int]]:
        """The authoritative current adjacency, for invariant checks."""
        return {v: frozenset(nbrs) for v, nbrs in self._adj.items()}

    # ------------------------------------------------------------------
    def advance(self, slot: int) -> Optional[TopologyPatch]:
        """Apply and return the patch for ``slot`` (strictly in order).

        Returns ``None`` on slots with no membership or mobility events.
        Like :meth:`repro.radio.faults.FaultRuntime.plan`, consumption
        must be once per slot in slot order, so the mobility randomness
        stays engine-independent.
        """
        if slot != self._next_slot:
            raise SimulationError(
                f"topology patch requested for slot {slot}, expected "
                f"{self._next_slot} (patches must be consumed once per slot, "
                f"in order)"
            )
        self._next_slot += 1

        period = self.schedule.rewire_period
        rewire_due = period > 0 and slot > 0 and slot % period == 0
        event = self._events.get(slot)
        if event is None and not rewire_due:
            return None

        before: Dict[int, FrozenSet[int]] = {}

        def touch(v: int) -> None:
            if v not in before:
                before[v] = frozenset(self._adj[v])

        joined: List[int] = []
        left: List[int] = []
        if event is not None:
            leaves, joins = event
            for v in leaves:
                touch(v)
                for u in sorted(self._adj[v]):
                    touch(u)
                    self._adj[u].discard(v)
                self._adj[v].clear()
                self._active.discard(v)
                left.append(v)
            for v, endpoints in joins:
                touch(v)
                for u in endpoints:
                    touch(u)
                    self._adj[v].add(u)
                    self._adj[u].add(v)
                self._active.add(v)
                joined.append(v)

        if rewire_due:
            movers_pool = sorted(self._active)
            k = int(self.schedule.rewire_fraction * len(movers_pool))
            if k:
                picks = self._motion_rng.choice(len(movers_pool), size=k,
                                                replace=False)
                for i in picks:
                    v = movers_pool[int(i)]
                    x, y = self._motion_rng.random(2)
                    self._pos[v] = (float(x), float(y))
                    vx, vy = self._pos[v]
                    new_nbrs = {
                        u for u in self._active
                        if u != v and within_radius(
                            self._pos[u][0] - vx, self._pos[u][1] - vy,
                            self._radius)
                    }
                    touch(v)
                    for u in sorted(self._adj[v] | new_nbrs):
                        touch(u)
                    for u in self._adj[v] - new_nbrs:
                        self._adj[u].discard(v)
                    for u in new_nbrs - self._adj[v]:
                        self._adj[u].add(v)
                    self._adj[v] = new_nbrs

        if joined or left:
            self._inactive_cache = frozenset(range(self.n)) - frozenset(
                self._active
            )

        edges_before = {
            (v, u) if v < u else (u, v)
            for v in before for u in before[v]
        }
        edges_after = {
            (v, u) if v < u else (u, v)
            for v in before for u in self._adj[v]
        }
        return TopologyPatch(
            joined=tuple(joined),
            left=tuple(left),
            added=tuple(sorted(edges_after - edges_before)),
            removed=tuple(sorted(edges_before - edges_after)),
        )


def build_dynamic_topology(
    schedule: Optional[Union[str, Mapping[str, Any], DynamicSchedule]],
    graph: nx.Graph,
    seed: SeedLike = None,
) -> Optional[DynamicTopology]:
    """The executor-side constructor: coerce ``schedule`` and compile.

    Returns ``None`` when the schedule is null/absent — the engines
    treat that exactly as a static run.
    """
    coerced = coerce_dynamic_schedule(schedule)
    if coerced is None:
        return None
    return DynamicTopology(coerced, graph, seed=seed)
