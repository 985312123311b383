"""Online safety-invariant checking for slot-engine runs.

The repo's equivalence suites prove both engines produce identical
*final* results; this module checks that declared safety properties
hold *during* a run — exactly where dynamic-membership transients (see
:mod:`repro.radio.dynamic`) would first go wrong.  The checks are a
fixed set, listed in two module tables of ``(name, check)`` pairs
(:data:`SLOT_CHECKS` and :data:`LABEL_CHECKS`), and every
:class:`InvariantMonitor` attached to an engine runs all of them:

- **slot invariants** run after each executed slot (sampled every
  ``period`` slots — debug runs use ``period=1``, production sweeps a
  sparser sampling via ``ExecutionPolicy.invariant_sample``):
  ``ledger_monotone`` (per-device energy and the slot clock never
  decrease), ``alive_topology_agreement`` (the engine's live
  adjacency matches the declared topology — for dynamic runs, the
  :class:`repro.radio.dynamic.DynamicTopology` authoritative state),
  ``fault_counters_monotone`` (the fault/delivery tallies never roll
  backwards — the signature of mis-ordered fault-vs-channel
  composition), and ``sinr_gain_integrity`` (under the SINR collision
  model, the engine's compiled fixed-point gain table stays equal to a
  fresh :class:`repro.radio.sinr.SinrField` recompute);
- **label invariants** run on every label observation the algorithm
  driver publishes (:meth:`InvariantMonitor.observe_labels`, wired
  into the Decay-BFS layer loop): ``labels_monotone`` (a settled BFS
  label never changes) and ``frontier_valid`` (settled labels form
  contiguous non-negative integer layers).

Violations never raise — they are *counted* per invariant name and
reported as structured :class:`repro.experiments.RunResult` counters
(result schema v3), so a sweep under churn degrades into data, not a
crash.  The checker itself must be deterministic: given the same run,
the same violations are counted on every engine (the differential
suite includes invariant counters in its byte-identity claim).

Testing seam
------------
:func:`install_test_mutator` installs a process-global hook invoked on
every checked slot *before* the checks run — tests use it to plant a
deliberate regression (e.g. rolling back a ledger cell) and assert the
checker catches it.  Never used outside tests; it is the seam through
which a test substitutes a faulty engine inside the monitored slot loop.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, FrozenSet, Hashable, Mapping, Optional, Tuple

from ..errors import ConfigurationError

#: A slot check: ``(monitor, engine) -> None | violation description``.
#: A labels check: ``(monitor, labels) -> None | violation description``.
#: The monitor counts violations per name and never raises.
InvariantCheck = Callable[["InvariantMonitor", Any], Optional[str]]


def invariant_names() -> Tuple[str, ...]:
    """All invariant names, slot and label checks together, sorted."""
    return tuple(sorted(name for name, _ in SLOT_CHECKS + LABEL_CHECKS))


_TEST_MUTATOR: Optional[Callable[[Any], None]] = None


def install_test_mutator(mutator: Optional[Callable[[Any], None]]) -> None:
    """Install (or with ``None`` clear) the planted-regression hook.

    The hook receives the engine on every checked slot, before the slot
    checks run.  A test-only seam: production code never installs one.
    """
    global _TEST_MUTATOR
    _TEST_MUTATOR = mutator


class InvariantMonitor:
    """Per-run violation counter over every invariant.

    Attach to an engine (``network.invariant_monitor = monitor``) and
    the shared slot loop calls :meth:`after_slot` once per executed
    slot; algorithm drivers publish label snapshots through
    :meth:`observe_labels`.  ``period`` samples the slot checks (every
    ``period``-th executed slot, starting at slot 0); label checks are
    cheap and run on every observation.
    """

    def __init__(self, period: int = 1) -> None:
        if not isinstance(period, int) or isinstance(period, bool) or period < 1:
            raise ConfigurationError(
                f"invariant sampling period must be a positive int, got {period!r}"
            )
        self.period = period
        #: Slots on which the slot checks actually ran.
        self.checked_slots = 0
        #: Violation counts per invariant name.
        self.violations: Dict[str, int] = {}
        #: Scratch state owned by the individual checks, keyed by name.
        self.state: Dict[str, Any] = {}

    def _record(self, name: str) -> None:
        self.violations[name] = self.violations.get(name, 0) + 1

    # ------------------------------------------------------------------
    def after_slot(self, engine: Any) -> None:
        """Run the sampled slot checks after one executed slot.

        Called by the shared slot loop with ``engine.slot`` already
        advanced past the slot just executed.
        """
        executed = engine.slot - 1
        if executed % self.period != 0:
            return
        if _TEST_MUTATOR is not None:
            _TEST_MUTATOR(engine)
        self.checked_slots += 1
        for name, check in SLOT_CHECKS:
            if check(self, engine) is not None:
                self._record(name)

    def observe_labels(self, labels: Mapping[Hashable, float]) -> None:
        """Run the label checks on one published label snapshot."""
        for name, check in LABEL_CHECKS:
            if check(self, labels) is not None:
                self._record(name)

    # ------------------------------------------------------------------
    def counters(self) -> Dict[str, Any]:
        """The JSON-native tally the result schema (v3) records."""
        return {
            "checked_slots": self.checked_slots,
            "violations": {
                name: self.violations[name] for name in sorted(self.violations)
            },
        }


# ---------------------------------------------------------------------------
# Built-in invariants
# ---------------------------------------------------------------------------

def _ledger_monotone(monitor: InvariantMonitor, engine: Any) -> Optional[str]:
    """Per-device energy totals and the ledger clock never decrease."""
    state = monitor.state.setdefault(
        "ledger_monotone", {"time": 0, "devices": {}}
    )
    ledger = engine.ledger
    bad: Optional[str] = None
    if ledger.time_slots < state["time"]:
        bad = (
            f"ledger clock went backwards: "
            f"{ledger.time_slots} < {state['time']}"
        )
    state["time"] = ledger.time_slots
    seen = state["devices"]
    for vertex, energy in ledger.devices().items():
        prev = seen.get(vertex)
        if prev is not None and (
            energy.transmit_slots < prev[0] or energy.listen_slots < prev[1]
        ):
            bad = f"energy decreased for device {vertex!r}"
        seen[vertex] = (energy.transmit_slots, energy.listen_slots)
    return bad


def _alive_topology_agreement(
    monitor: InvariantMonitor, engine: Any
) -> Optional[str]:
    """The engine's live adjacency matches the declared topology.

    For dynamic runs, the authority is the
    :class:`repro.radio.dynamic.DynamicTopology` runtime's expected
    adjacency and inactive set; for static runs, the construction
    graph.  Catches one-sided or stale patch application in either
    engine.
    """
    snapshot = engine.adjacency_snapshot()
    dynamic = getattr(engine, "_dynamic", None)
    if dynamic is not None:
        expected = dynamic.expected_adjacency()
        inactive: FrozenSet[Hashable] = dynamic.inactive
    else:
        expected = {
            v: frozenset(engine.graph.neighbors(v)) for v in engine.graph.nodes
        }
        inactive = frozenset()
    if snapshot != expected:
        drifted = sorted(
            v for v in expected if snapshot.get(v) != expected[v]
        )
        return (
            f"engine adjacency disagrees with the declared topology at "
            f"{len(drifted)} vertices (e.g. {drifted[0]!r})"
        )
    if not inactive <= set(expected):
        return "inactive set references vertices outside the topology"
    return None


def _fault_counters_monotone(
    monitor: InvariantMonitor, engine: Any
) -> Optional[str]:
    """Per-run fault/delivery tallies never decrease.

    Catches mis-ordered fault application relative to channel
    arbitration: every composition bug observed so far reclassifies
    already-counted events (e.g. jammed slots re-counted as delivered),
    which shows up as a counter rolling backwards between samples.
    """
    counters = getattr(engine, "fault_counters", None)
    if counters is None:
        return None
    current = counters.as_dict()
    prev = monitor.state.setdefault("fault_counters_monotone", {})
    bad: Optional[str] = None
    for name, value in current.items():
        if value < prev.get(name, 0):
            bad = (
                f"fault counter {name!r} went backwards: "
                f"{value} < {prev[name]}"
            )
    monitor.state["fault_counters_monotone"] = current
    return bad


def _sinr_gain_integrity(monitor: InvariantMonitor, engine: Any) -> Optional[str]:
    """The engine's live SINR gain table matches a fresh recompute.

    SINR runs are static-topology by construction, so the fixed-point
    per-edge gains compiled at engine construction must stay equal to
    ``SinrField(engine.graph, engine.sinr)`` for the whole run — any
    drift means the compiled channel arithmetic (CSR gains, pathloss
    rounding) has diverged from the declared physical layer.  A no-op
    for binary-collision runs.
    """
    params = getattr(engine, "sinr", None)
    snapshot_of = getattr(engine, "sinr_gain_snapshot", None)
    if params is None or snapshot_of is None:
        return None
    expected = monitor.state.get("sinr_gain_integrity")
    if expected is None:
        # One fresh compile serves the whole run: the topology (and
        # therefore the reference table) cannot change under SINR.
        from .sinr import SinrField

        expected = SinrField(engine.graph, params).gain_table()
        monitor.state["sinr_gain_integrity"] = expected
    snapshot = snapshot_of()
    if snapshot != expected:
        drifted = sorted(
            edge for edge in expected if snapshot.get(edge) != expected[edge]
        )
        extra = sorted(set(snapshot) - set(expected))
        culprit = drifted[0] if drifted else extra[0]
        return (
            f"compiled SINR gains drifted from the declared physical "
            f"layer at {len(drifted) + len(extra)} directed edge(s) "
            f"(e.g. {culprit!r})"
        )
    return None


def _labels_monotone(
    monitor: InvariantMonitor, labels: Mapping[Hashable, float]
) -> Optional[str]:
    """A settled (finite) BFS label never changes on later observations."""
    seen = monitor.state.setdefault("labels_monotone", {})
    bad: Optional[str] = None
    for vertex, dist in labels.items():
        if not math.isfinite(dist):
            continue
        prev = seen.get(vertex)
        if prev is not None and dist != prev:
            bad = f"settled label changed for {vertex!r}: {prev} -> {dist}"
        seen[vertex] = dist
    return bad


def _frontier_valid(
    monitor: InvariantMonitor, labels: Mapping[Hashable, float]
) -> Optional[str]:
    """Settled labels are contiguous non-negative integer BFS layers."""
    finite = sorted({d for d in labels.values() if math.isfinite(d)})
    for dist in finite:
        if dist < 0 or dist != int(dist):
            return f"label {dist!r} is not a non-negative integer"
    if finite:
        expected = [float(i) for i in range(int(finite[-1]) + 1)]
        if finite != expected:
            return "settled labels do not form contiguous BFS layers"
    return None


#: The slot checks, run after each sampled slot with the engine.
SLOT_CHECKS: Tuple[Tuple[str, InvariantCheck], ...] = (
    ("alive_topology_agreement", _alive_topology_agreement),
    ("fault_counters_monotone", _fault_counters_monotone),
    ("ledger_monotone", _ledger_monotone),
    ("sinr_gain_integrity", _sinr_gain_integrity),
)

#: The label checks, run on every label observation with the labels.
LABEL_CHECKS: Tuple[Tuple[str, InvariantCheck], ...] = (
    ("frontier_valid", _frontier_valid),
    ("labels_monotone", _labels_monotone),
)
