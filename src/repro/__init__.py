"""repro: reproduction of "The Energy Complexity of BFS in Radio Networks".

Chang, Dani, Hayes, Pettie (PODC 2020, arXiv:2007.09816).

Quickstart
----------
>>> from repro import ExperimentSpec, run_experiment
>>> spec = ExperimentSpec(topology="grid", n=144, algorithm="recursive_bfs",
...                       algorithm_params={"beta": 0.25, "max_depth": 1,
...                                         "depth_budget": 22}, seed=0)
>>> result = run_experiment(spec)
>>> result.output["settled"] == result.n
True

The lower-level objects (``PhysicalLBGraph``, ``RecursiveBFS``, ...)
remain available for custom wiring; the experiment API above is the
uniform path every example, benchmark, and sweep goes through.

The package layout mirrors the paper:

- :mod:`repro.radio` — the RN[b] slot-level model (Section 1.1);
- :mod:`repro.primitives` — Decay / Local-Broadcast and sweeps
  (Lemma 2.4, Section 5.1);
- :mod:`repro.clustering` — MPX clustering, cluster graphs, casts, and
  the G* simulation (Sections 2-3);
- :mod:`repro.core` — Recursive-BFS (Section 4);
- :mod:`repro.diameter` — diameter approximations and lower bounds
  (Section 5);
- :mod:`repro.analysis` — complexity predictions and lemma validators;
- :mod:`repro.experiments` — the unified experiment API: declarative
  ``ExperimentSpec`` cells, the algorithm table, structured
  ``RunResult`` JSON, and the parallel ``run_sweep`` grid runner.
"""

from .core import (
    BFSLabeling,
    BFSParameters,
    RecursiveBFS,
    ZSequence,
    trivial_bfs,
    verify_labeling,
)
from .experiments import (
    ExperimentSpec,
    RunResult,
    SweepResult,
    algorithm_names,
    run_experiment,
    run_sweep,
)
from .primitives import LBCostModel, LBGraph, PhysicalLBGraph
from .radio import CollisionModel, EnergyLedger, RadioNetwork

__version__ = "1.1.0"

__all__ = [
    "BFSLabeling",
    "BFSParameters",
    "CollisionModel",
    "EnergyLedger",
    "ExperimentSpec",
    "LBCostModel",
    "LBGraph",
    "PhysicalLBGraph",
    "RadioNetwork",
    "RecursiveBFS",
    "RunResult",
    "SweepResult",
    "ZSequence",
    "algorithm_names",
    "run_experiment",
    "run_sweep",
    "trivial_bfs",
    "verify_labeling",
    "__version__",
]
