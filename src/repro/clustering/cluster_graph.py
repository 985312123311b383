"""Cluster-graph distance proxy analysis (paper Section 2.1).

The cluster graph ``G* = cluster(G, beta)`` is used by the BFS
algorithm as a *distance proxy*: Lemmas 2.2 and 2.3 show that for any
pair ``u, v``,

    dist_{G*}(Cl(u), Cl(v))  is in
        [ floor(dist_G(u, v) * beta / (8 log n)),
          ceil(dist_G(u, v) * beta) * C log n ]          (Lemma 2.2)

and for distances ``Omega(beta^{-1} log^2 n)`` the upper bound improves
to ``C * beta * dist_G(u, v)`` (Lemma 2.3).  This module packages the
quotient construction together with the empirical measurement of these
ratios, used by the lemma-validation benchmarks and by the parameter
self-checks of the BFS algorithm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional, Sequence

import networkx as nx

from ..errors import ConfigurationError
from ..rng import SeedLike, make_rng
from .mpx import Clustering


@dataclass(frozen=True)
class ClusterGraph:
    """A clustering together with its quotient graph and base graph."""

    base: nx.Graph
    clustering: Clustering
    quotient: nx.Graph

    @classmethod
    def build(cls, base: nx.Graph, clustering: Clustering) -> "ClusterGraph":
        """Construct ``G*`` from a base graph and its clustering."""
        return cls(base=base, clustering=clustering,
                   quotient=clustering.quotient_graph(base))

    # ------------------------------------------------------------------
    def cluster_distance(self, u: Hashable, v: Hashable) -> float:
        """``dist_{G*}(Cl(u), Cl(v))`` (inf if disconnected)."""
        cu = self.clustering.center_of[u]
        cv = self.clustering.center_of[v]
        try:
            return float(nx.shortest_path_length(self.quotient, cu, cv))
        except nx.NetworkXNoPath:
            return math.inf

    def base_distance(self, u: Hashable, v: Hashable) -> float:
        """``dist_G(u, v)`` (inf if disconnected)."""
        try:
            return float(nx.shortest_path_length(self.base, u, v))
        except nx.NetworkXNoPath:
            return math.inf


@dataclass(frozen=True)
class DistanceProxySample:
    """One measured (base distance, cluster distance) pair."""

    u: Hashable
    v: Hashable
    base_distance: float
    cluster_distance: float


def sample_distance_pairs(
    cluster_graph: ClusterGraph,
    pair_count: int,
    seed: SeedLike = None,
    min_distance: int = 1,
) -> List[DistanceProxySample]:
    """Measure the distance proxy on random vertex pairs.

    Pairs are sampled uniformly among vertices at base distance at
    least ``min_distance`` (Lemma 2.3 cares about long distances).
    """
    if pair_count < 1:
        raise ConfigurationError(f"pair_count must be >= 1, got {pair_count}")
    rng = make_rng(seed)
    vertices = list(cluster_graph.base.nodes)
    if len(vertices) < 2:
        return []
    samples: List[DistanceProxySample] = []
    attempts = 0
    max_attempts = 50 * pair_count
    while len(samples) < pair_count and attempts < max_attempts:
        attempts += 1
        u, v = (
            vertices[int(rng.integers(len(vertices)))],
            vertices[int(rng.integers(len(vertices)))],
        )
        if u == v:
            continue
        d = cluster_graph.base_distance(u, v)
        if not math.isfinite(d) or d < min_distance:
            continue
        dc = cluster_graph.cluster_distance(u, v)
        samples.append(
            DistanceProxySample(u=u, v=v, base_distance=d, cluster_distance=dc)
        )
    return samples


@dataclass(frozen=True)
class ProxyBoundsReport:
    """Empirical check of Lemma 2.2 / 2.3 on a set of samples."""

    beta: float
    n: int
    samples: int
    lower_violations: int  # dist_G* < floor(beta d / (8 log n))
    upper_violations_22: int  # dist_G* > ceil(beta d) * C log n
    upper_violations_23: int  # long pairs with dist_G* > C beta d
    long_samples: int
    max_normalized_upper: float  # max dist_G* / (beta d) over long pairs

    @property
    def ok(self) -> bool:
        """True iff no bound was violated on this run."""
        return self.lower_violations == 0 and self.upper_violations_22 == 0


def check_proxy_bounds(
    cluster_graph: ClusterGraph,
    samples: Sequence[DistanceProxySample],
    upper_constant: float = 4.0,
    lower_denominator: float = 8.0,
) -> ProxyBoundsReport:
    """Evaluate the Lemma 2.2 / 2.3 inequalities on measured samples.

    ``upper_constant`` plays the role of the lemmas' unnamed constant
    ``C``; ``lower_denominator`` the ``8`` of the lower bound.  The
    long-distance threshold for Lemma 2.3 is ``beta^{-1} log^2 n``.
    """
    beta = cluster_graph.clustering.beta
    n = max(2, cluster_graph.clustering.n_global)
    log_n = max(1.0, math.log2(n))
    lower_viol = 0
    upper22_viol = 0
    upper23_viol = 0
    long_samples = 0
    max_norm_upper = 0.0
    long_threshold = (1.0 / beta) * log_n * log_n
    for s in samples:
        d = s.base_distance
        dc = s.cluster_distance
        lower = math.floor(d * beta / (lower_denominator * log_n))
        upper22 = math.ceil(d * beta) * upper_constant * log_n
        if dc < lower:
            lower_viol += 1
        if dc > upper22:
            upper22_viol += 1
        if d >= long_threshold:
            long_samples += 1
            if dc > upper_constant * beta * d:
                upper23_viol += 1
        if d > 0 and beta * d > 0:
            max_norm_upper = max(max_norm_upper, dc / (beta * d))
    return ProxyBoundsReport(
        beta=beta,
        n=n,
        samples=len(samples),
        lower_violations=lower_viol,
        upper_violations_22=upper22_viol,
        upper_violations_23=upper23_viol,
        long_samples=long_samples,
        max_normalized_upper=max_norm_upper,
    )


def ball_cluster_counts(
    base: nx.Graph,
    clustering: Clustering,
    radius: int,
    vertices: Optional[Iterable[Hashable]] = None,
) -> Dict[Hashable, int]:
    """For each vertex, the number of clusters intersecting ``Ball(v, radius)``.

    This is the quantity bounded by Lemma 2.1:
    ``P(count > j) <= (1 - exp(-2 * radius * beta))^j``.
    """
    if radius < 0:
        raise ConfigurationError(f"radius must be >= 0, got {radius}")
    chosen = list(vertices) if vertices is not None else list(base.nodes)
    counts: Dict[Hashable, int] = {}
    for v in chosen:
        ball = nx.single_source_shortest_path_length(base, v, cutoff=radius)
        counts[v] = len({clustering.center_of[u] for u in ball})
    return counts
