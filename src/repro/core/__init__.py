"""The paper's contribution: Recursive-BFS and its scaffolding (Sec. 4)."""

from .doubling import DoublingResult, compute_with_doubling
from .intervals import ClusterEstimates, EstimateEvent
from .labeling import BFSLabeling
from .parameters import BFSParameters
from .recursive_bfs import RecursiveBFS, RunStats
from .simple_bfs import decay_bfs, decay_bfs_mega, trivial_bfs
from .verification import VerificationReport, verify_labeling
from .z_sequence import ZSequence, ruler_value, z_cap

__all__ = [
    "BFSLabeling",
    "BFSParameters",
    "ClusterEstimates",
    "DoublingResult",
    "EstimateEvent",
    "RecursiveBFS",
    "RunStats",
    "VerificationReport",
    "ZSequence",
    "compute_with_doubling",
    "decay_bfs",
    "decay_bfs_mega",
    "ruler_value",
    "trivial_bfs",
    "verify_labeling",
    "z_cap",
]
