"""Recursive-BFS: sub-polynomial-energy BFS (paper Section 4, Figure 2).

The algorithm advances the BFS wavefront in ``ceil(beta * D)`` stages of
``beta^{-1}`` hops each.  Between stages, vertices sleep unless their
cluster's lower distance estimate says the wavefront is near
(``L_i(Cl(u)) <= beta^{-1}``).  The estimates are maintained by
recursively running the *same* algorithm on the Miller–Peng–Xu cluster
graph ``G*`` — simulated over the real network via Lemma 3.2 — with the
Z-sequence deciding how deep each Special Update searches.

Structure of this implementation (ARCHITECTURE.md, section "The
Local-Broadcast tier"):

- every graph in the recursion is an ``LBGraph``; level 0 is the
  physical network, level ``r`` is a ``ClusterLBGraph`` stacked on
  level ``r - 1``;
- each level's clustering + slot subsets + cluster graph are built once
  and cached, exactly as the paper computes ``G*`` once per graph;
- recursion depth is capped at ``params.max_depth``, below which the
  trivial wavefront BFS runs (Section 4.3);
- distance-proxy conversions use the affine derated constants of
  :class:`~repro.core.parameters.BFSParameters` (its module docstring
  says why they are derated).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Iterable, Optional, Set, Tuple

from ..clustering.distributed import charged_mpx, distributed_mpx
from ..clustering.mpx import Clustering
from ..clustering.simulation import ClusterLBGraph
from ..clustering.slots import SlotAssignment
from ..errors import ConfigurationError
from ..primitives.lb_graph import LBGraph
from ..rng import SeedLike, make_rng
from .intervals import ClusterEstimates
from .labeling import BFSLabeling
from .parameters import BFSParameters
from .simple_bfs import trivial_bfs
from .z_sequence import ZSequence

#: Observer signature: (level, stage, estimates, wavefront_vertices).
StageObserver = Callable[[int, int, ClusterEstimates, Set[Hashable]], None]


@dataclass
class _Level:
    """Cached per-graph simulation context (one per recursion level)."""

    clustering: Clustering
    slots: SlotAssignment
    cluster_lbg: ClusterLBGraph


@dataclass
class RunStats:
    """Instrumentation for the paper's efficiency claims.

    - ``awake_stages[v]``: stages of the top-level search in which the
      physical vertex ``v`` was in the awake set ``X_i`` — Claim 1 says
      this is polylogarithmic, versus the ``ceil(beta D)`` stages a
      naive vertex would sit through.
    - ``special_updates[C]``: Special Updates the top-level cluster
      ``C`` participated in — Claim 2 says polylogarithmic.
    - ``wavefront_lb[v]``: Step-5 Local-Broadcasts ``v`` took part in
      (the O~(beta^{-1}) per-stage wavefront work).
    - ``stage_count``: stages executed at the top level.
    - ``recursive_calls[r]``: Recursive-BFS invocations at level ``r``.
    """

    awake_stages: Dict[Hashable, int] = None  # type: ignore[assignment]
    special_updates: Dict[Hashable, int] = None  # type: ignore[assignment]
    wavefront_lb: Dict[Hashable, int] = None  # type: ignore[assignment]
    stage_count: int = 0
    recursive_calls: Dict[int, int] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.awake_stages is None:
            self.awake_stages = {}
        if self.special_updates is None:
            self.special_updates = {}
        if self.wavefront_lb is None:
            self.wavefront_lb = {}
        if self.recursive_calls is None:
            self.recursive_calls = {}

    def max_awake_stages(self) -> int:
        """Worst-case awake-stage count over vertices (Claim 1 measure)."""
        return max(self.awake_stages.values(), default=0)

    def max_special_updates(self) -> int:
        """Worst-case Special-Update count over clusters (Claim 2 measure)."""
        return max(self.special_updates.values(), default=0)


class RecursiveBFS:
    """The paper's Recursive-BFS, reusable across calls on one network.

    Parameters
    ----------
    params:
        Algorithm knobs; see :class:`BFSParameters`.
    seed:
        Master seed for clustering shifts, slot subsets, and LB
        arbitration inside the recursion.
    stage_observer:
        Optional callback invoked after every stage of the *top-level*
        search with the current estimates — the hook behind Figure 3.
    watch_clusters:
        Top-level clusters whose estimate history is recorded.
    """

    def __init__(
        self,
        params: BFSParameters,
        seed: SeedLike = None,
        stage_observer: Optional[StageObserver] = None,
        watch_clusters: Optional[Iterable[Hashable]] = None,
    ) -> None:
        self.params = params
        self.rng = make_rng(seed)
        self.stage_observer = stage_observer
        self._watch = set(watch_clusters) if watch_clusters is not None else set()
        self._levels: Dict[int, Tuple[LBGraph, _Level]] = {}
        self.last_estimates: Optional[ClusterEstimates] = None
        self.stats = RunStats()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def compute(
        self,
        lbg: LBGraph,
        sources: Iterable[Hashable],
        depth_budget: int,
        active: Optional[Iterable[Hashable]] = None,
    ) -> Dict[Hashable, float]:
        """Compute ``dist(S, v)`` up to ``depth_budget`` for active vertices.

        Returns a dict over the active set with ``inf`` for vertices
        beyond the budget.
        """
        source_set = set(sources)
        if not source_set:
            raise ConfigurationError("Recursive-BFS requires at least one source")
        active_set = set(active) if active is not None else set(lbg.vertices())
        active_set |= source_set
        stray = active_set - lbg.vertices()
        if stray:
            raise ConfigurationError(f"active vertices not in graph: {list(stray)[:5]}")
        if depth_budget < 0:
            raise ConfigurationError("depth_budget must be >= 0")
        return self._run(lbg, source_set, active_set, depth_budget, level=0)

    def compute_labeling(
        self,
        lbg: LBGraph,
        sources: Iterable[Hashable],
        depth_budget: int,
        active: Optional[Iterable[Hashable]] = None,
    ) -> BFSLabeling:
        """Like :meth:`compute` but packaged with the ledger's cost report."""
        rounds_before = lbg.ledger.lb_rounds
        labels = self.compute(lbg, sources, depth_budget, active)
        return BFSLabeling.from_ledger(
            labels, set(sources), depth_budget, lbg.ledger, rounds_before
        )

    # ------------------------------------------------------------------
    # Level management
    # ------------------------------------------------------------------
    def _level_for(self, lbg: LBGraph) -> _Level:
        """Build (or fetch) the cluster graph of ``lbg`` — computed once.

        Mirrors the paper: "We compute G* once, just before the first
        recursive call; subsequent calls to Recursive-BFS on G with
        different (S, A, D) parameters can use the same G*."
        """
        key = id(lbg)
        cached = self._levels.get(key)
        if cached is not None and cached[0] is lbg:
            return cached[1]
        p = self.params
        if p.use_distributed_clustering:
            clustering = distributed_mpx(
                lbg, p.beta, seed=self.rng, radius_multiplier=p.radius_multiplier
            )
        else:
            clustering = charged_mpx(
                lbg, p.beta, seed=self.rng, radius_multiplier=p.radius_multiplier
            )
        slots = SlotAssignment.sample(
            clustering.clusters(),
            p.beta,
            lbg.n_global,
            seed=self.rng,
            slot_multiplier=p.slot_multiplier,
        )
        cluster_lbg = ClusterLBGraph(lbg, clustering, slots)
        level = _Level(clustering=clustering, slots=slots, cluster_lbg=cluster_lbg)
        self._levels[key] = (lbg, level)
        return level

    # ------------------------------------------------------------------
    # The algorithm (Figure 2)
    # ------------------------------------------------------------------
    def _run(
        self,
        lbg: LBGraph,
        sources: Set[Hashable],
        active: Set[Hashable],
        depth_budget: int,
        level: int,
    ) -> Dict[Hashable, float]:
        p = self.params
        inv_beta = p.inv_beta
        self.stats.recursive_calls[level] = (
            self.stats.recursive_calls.get(level, 0) + 1
        )

        # Recursion base case (paper Section 4.3): at depth L, or when
        # the depth budget is too small for staging to pay off, run the
        # trivial wavefront BFS.
        if (
            level >= p.max_depth
            or depth_budget <= p.trivial_factor * inv_beta
            or len(active) <= 4
        ):
            return trivial_bfs(lbg, sources, depth_budget, active)

        original_active = set(active)
        lvl = self._level_for(lbg)
        clustering = lvl.clustering
        g_star = lvl.cluster_lbg
        cl = clustering.center_of
        horizon = clustering.shifts.params.horizon

        track = self._watch if level == 0 else None
        estimates = ClusterEstimates(watch=track)
        if level == 0:
            self.last_estimates = estimates

        sources_star = {cl[u] for u in sources}
        active_star = {cl[u] for u in active}
        d_star = p.d_star(depth_budget)
        zseq = ZSequence(d_star, p.alpha)

        # [Step 1] Initialize distance estimates via recursion on G*.
        dist0 = self._run(g_star, sources_star, active_star, d_star, level + 1)
        for c in active_star:
            x = dist0.get(c, math.inf)
            estimates.set_special(
                c, 0, p.lower_from_proxy(x), p.upper_from_proxy(x, horizon)
            )
        # Members learn their cluster's initial estimate (energy charge).
        g_star.cast.down_cast(
            {c: ("est", estimates.lower_of(c)) for c in active_star}
        )

        # [Step 2] Deactivate vertices certified farther than D.
        active = {u for u in active if math.isfinite(estimates.lower_of(cl[u]))}
        active |= sources
        active_star = {cl[u] for u in active}

        dist: Dict[Hashable, float] = {s: 0.0 for s in sources}
        # The vertices at distance d (the sources, then the last hop's
        # listeners that heard), in ``dist`` order.
        frontier: Iterable[Hashable] = list(dist)
        stage_count = math.ceil(depth_budget / inv_beta)
        wavefront_alive = True

        for i in range(stage_count):
            # [Step 4] The awake set X_i.
            awake = {
                u
                for u in active
                if u not in dist and estimates.lower_of(cl[u]) <= inv_beta
            }
            if level == 0:
                for u in awake:
                    self.stats.awake_stages[u] = (
                        self.stats.awake_stages.get(u, 0) + 1
                    )
            # [Step 5] Advance the wavefront beta^{-1} hops.
            for k in range(inv_beta):
                d = i * inv_beta + k
                if d >= depth_budget:
                    break
                senders = {u: ("bfs", d) for u in frontier}
                if not senders:
                    wavefront_alive = False
                    break
                receivers = [v for v in awake if v not in dist]
                heard = lbg.local_broadcast(senders, receivers)
                if level == 0:
                    for u in senders:
                        self.stats.wavefront_lb[u] = (
                            self.stats.wavefront_lb.get(u, 0) + 1
                        )
                    for u in receivers:
                        self.stats.wavefront_lb[u] = (
                            self.stats.wavefront_lb.get(u, 0) + 1
                        )
                for v, (_, hop) in heard.items():
                    dist[v] = float(hop) + 1.0
                frontier = heard
            if not wavefront_alive:
                break

            # [Step 6] Deactivate settled vertices strictly inside the ball.
            boundary = (i + 1) * inv_beta
            active = {
                u for u in active if not (u in dist and dist[u] < boundary)
            }
            active_star = {cl[u] for u in active}
            if i == stage_count - 1 or boundary >= depth_budget:
                break

            # The stage's last hop ran (d = boundary - 1), so the
            # frontier holds exactly the vertices at distance boundary.
            wavefront = set(frontier)
            if not wavefront:
                break  # no vertex on the new frontier: search exhausted
            wavefront_star = {cl[u] for u in wavefront}

            # [Step 7] Special Update on the likely-relevant clusters.
            z_next = zseq[i + 1]
            threshold = (z_next + 1) * inv_beta
            upsilon = {
                c for c in active_star if estimates.lower_of(c) <= threshold
            }
            upsilon |= wavefront_star
            # Cluster centers learn whether they host wavefront vertices.
            g_star.cast.up_cast({u: ("wave", 1) for u in wavefront}, upsilon)
            rec_depth = p.proxy_depth(threshold)
            x_dist = self._run(
                g_star, wavefront_star, upsilon, rec_depth, level + 1
            )
            if level == 0:
                for c in upsilon:
                    self.stats.special_updates[c] = (
                        self.stats.special_updates.get(c, 0) + 1
                    )
            for c in upsilon:
                x = x_dist.get(c, math.inf)
                lower_new = min(
                    z_next * inv_beta + 1.0, p.lower_from_proxy(x)
                )
                upper_new = min(
                    estimates.upper_of(c) - inv_beta,
                    p.upper_from_proxy(x, horizon),
                )
                estimates.set_special(c, i + 1, lower_new, upper_new)
            # Members learn the refreshed estimates.
            g_star.cast.down_cast(
                {c: ("est", estimates.lower_of(c)) for c in upsilon}
            )

            # [Step 8] Automatic Updates for everyone else (zero energy).
            for c in active_star - upsilon:
                estimates.automatic(c, i + 1, inv_beta)

            if self.stage_observer is not None and level == 0:
                self.stage_observer(level, i + 1, estimates, wavefront)

        if level == 0:
            self.stats.stage_count = stage_count

        result: Dict[Hashable, float] = {}
        for u in sources:
            result[u] = 0.0
        for u, du in dist.items():
            result[u] = du
        # Vertices never settled (including those deactivated in Step 2)
        # are reported beyond the budget.
        for u in original_active:
            result.setdefault(u, math.inf)
        return result
