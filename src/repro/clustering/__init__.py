"""MPX clustering, cluster graphs, casts, and G* simulation (Secs. 2-3)."""

from .casts import CastEngine
from .cluster_graph import (
    ClusterGraph,
    DistanceProxySample,
    ProxyBoundsReport,
    ball_cluster_counts,
    check_proxy_bounds,
    sample_distance_pairs,
)
from .distributed import charged_mpx, distributed_mpx
from .mpx import Clustering, mpx_clustering
from .shifts import ShiftParameters, Shifts
from .simulation import ClusterLBGraph
from .slots import SlotAssignment, contention_bound, good_slot_fraction

__all__ = [
    "CastEngine",
    "ClusterGraph",
    "ClusterLBGraph",
    "Clustering",
    "DistanceProxySample",
    "ProxyBoundsReport",
    "ShiftParameters",
    "Shifts",
    "SlotAssignment",
    "ball_cluster_counts",
    "charged_mpx",
    "check_proxy_bounds",
    "contention_bound",
    "distributed_mpx",
    "good_slot_fraction",
    "mpx_clustering",
    "sample_distance_pairs",
]
