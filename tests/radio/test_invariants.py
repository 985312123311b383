"""Online invariant checker: the check tables, sampling, built-in
checks, and the planted-regression seam.

The headline acceptance test lives here: a deliberately planted
regression (a one-shot ledger rollback injected through
:func:`install_test_mutator`) must be *caught* by the checker on a
seeded scenario, and the same run without the mutator must be clean.
"""

from __future__ import annotations

import pytest

from repro.core import decay_bfs
from repro.errors import ConfigurationError
from repro.radio import Action, Device, make_network, topology
from repro.radio.dynamic import build_dynamic_topology
from repro.radio.invariants import (
    LABEL_CHECKS,
    SLOT_CHECKS,
    InvariantMonitor,
    install_test_mutator,
    invariant_names,
)

BUILTINS = (
    "alive_topology_agreement",
    "fault_counters_monotone",
    "frontier_valid",
    "labels_monotone",
    "ledger_monotone",
    "sinr_gain_integrity",
)


@pytest.fixture(autouse=True)
def _clear_mutator():
    """The mutator seam is process-global; never leak across tests."""
    yield
    install_test_mutator(None)


class TestRegistry:
    def test_builtins_registered(self):
        assert invariant_names() == BUILTINS
        assert [name for name, _ in SLOT_CHECKS] == [
            "alive_topology_agreement",
            "fault_counters_monotone",
            "ledger_monotone",
            "sinr_gain_integrity",
        ]
        assert [name for name, _ in LABEL_CHECKS] == [
            "frontier_valid",
            "labels_monotone",
        ]

    def test_check_names_unique_and_non_empty(self):
        names = [name for name, _ in SLOT_CHECKS + LABEL_CHECKS]
        assert len(set(names)) == len(names)
        assert all(name for name in names)
        assert all(callable(check) for _, check in SLOT_CHECKS + LABEL_CHECKS)


class TestMonitor:
    def test_period_validation(self):
        for bad in (0, -1, 1.5, True, "2"):
            with pytest.raises(ConfigurationError, match="period"):
                InvariantMonitor(period=bad)

    def test_sampling_period(self):
        class _Listener(Device):
            def step(self, slot):
                return Action.listen()

        net = make_network(topology.path_graph(4), engine="reference")
        monitor = InvariantMonitor(period=3)
        net.invariant_monitor = monitor
        assert net.run(net.spawn_devices(_Listener, seed=0), max_slots=12) == 12
        # Slots 0, 3, 6, 9 sampled.
        assert monitor.checked_slots == 4
        assert monitor.violations == {}

    def test_default_monitor_runs_every_check(self):
        def both_faults(engine):
            if engine.slot == 8:
                for v, nbrs in engine._adjacency.items():
                    if nbrs:
                        nbrs.remove(next(iter(nbrs)))
                        break
            if engine.slot == 10:
                engine.ledger.time_slots -= 5

        counters = _run_monitored("reference", mutator=both_faults)
        assert counters["violations"].get("alive_topology_agreement", 0) >= 1
        assert counters["violations"].get("ledger_monotone", 0) >= 1
        monitor = InvariantMonitor()
        monitor.observe_labels({0: 0.0, 1: 1.0})
        monitor.observe_labels({0: 0.0, 1: 3.0})
        assert set(monitor.violations) == {"frontier_valid", "labels_monotone"}

    def test_counters_shape(self):
        monitor = InvariantMonitor()
        assert monitor.counters() == {"checked_slots": 0, "violations": {}}
        monitor._record("b")
        monitor._record("a")
        monitor._record("b")
        assert monitor.counters()["violations"] == {"a": 1, "b": 2}
        # Canonical order: sorted names.
        assert list(monitor.counters()["violations"]) == ["a", "b"]


class TestLabelChecks:
    def _monitor(self):
        return InvariantMonitor()

    def test_clean_observations_pass(self):
        monitor = self._monitor()
        monitor.observe_labels({0: 0.0, 1: float("inf")})
        monitor.observe_labels({0: 0.0, 1: 1.0})
        assert monitor.violations == {}

    def test_settled_label_change_caught(self):
        monitor = self._monitor()
        monitor.observe_labels({0: 0.0, 1: 1.0})
        monitor.observe_labels({0: 0.0, 1: 2.0})
        assert monitor.violations.get("labels_monotone") == 1

    def test_frontier_gap_caught(self):
        monitor = self._monitor()
        monitor.observe_labels({0: 0.0, 1: 2.0})  # no layer-1 vertex
        assert monitor.violations.get("frontier_valid") == 1

    def test_non_integer_label_caught(self):
        monitor = self._monitor()
        monitor.observe_labels({0: 0.0, 1: 0.5})
        assert monitor.violations.get("frontier_valid") == 1


def _run_monitored(engine_name="reference", mutator=None, dynamic=None,
                   n=16, period=1):
    graph = topology.scenario("grid", n, seed=7)
    dyn = build_dynamic_topology(dynamic, graph, seed=13)
    net = make_network(graph if dyn is None else dyn.initial_graph(),
                       engine=engine_name, dynamic=dyn)
    net.invariant_monitor = InvariantMonitor(period=period)
    install_test_mutator(mutator)
    try:
        decay_bfs(net, 0, depth_budget=n, seed=99)
    finally:
        install_test_mutator(None)
    return net.invariant_monitor.counters()


class TestEngineRuns:
    @pytest.mark.parametrize("engine_name", ["reference", "fast"])
    @pytest.mark.parametrize("dynamic", [None, "churn_mix"])
    def test_clean_run_has_no_violations(self, engine_name, dynamic):
        counters = _run_monitored(engine_name, dynamic=dynamic)
        assert counters["violations"] == {}
        assert counters["checked_slots"] > 0

    @pytest.mark.parametrize("engine_name", ["reference", "fast"])
    def test_planted_ledger_rollback_caught(self, engine_name):
        def rollback(engine):
            # One-shot clock rollback: a genuine monotonicity regression
            # (a steady decrement would be masked by the +1/slot advance).
            if engine.slot == 10:
                engine.ledger.time_slots -= 5

        counters = _run_monitored(engine_name, mutator=rollback)
        assert counters["violations"].get("ledger_monotone", 0) >= 1

    def test_planted_topology_drift_caught(self):
        def drift(engine):
            if engine.slot == 8:
                # Stale patch application: silently drop one live edge
                # from the engine's adjacency, one side only.
                for v, nbrs in engine._adjacency.items():
                    if nbrs:
                        nbrs.remove(next(iter(nbrs)))
                        break

        counters = _run_monitored("reference", mutator=drift)
        assert counters["violations"].get("alive_topology_agreement", 0) >= 1

    def test_sampling_reduces_checked_slots(self):
        dense = _run_monitored(period=1)
        sparse = _run_monitored(period=7)
        assert sparse["checked_slots"] < dense["checked_slots"]
        assert sparse["checked_slots"] >= 1
