"""Planted SINR regressions: the wall actually catches what it claims.

Two deliberate bugs are injected through the
:func:`~repro.radio.invariants.install_test_mutator` seam and must be
*caught*, not tolerated:

- an **off-by-one in the fixed-point pathloss** — the engine's live
  gain table drifts from the declared physical layer — caught by the
  ``sinr_gain_integrity`` invariant on both serial engines;
- a **mis-ordered fault-vs-SINR application** — a late drop pass
  retracting deliveries the arbitration already counted — caught by
  the ``fault_counters_monotone`` invariant on both serial engines.

Each bug is additionally planted *one-sided* (fast engine only) to
show the differential equivalence grid catches it too: the two
engines' result documents — whose byte-identity the clean grid pins —
must diverge under the plant.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments import ExperimentSpec, run_experiment
from repro.radio.invariants import install_test_mutator


@pytest.fixture(autouse=True)
def _clear_mutator():
    """The mutator seam is process-global; never leak across tests."""
    yield
    install_test_mutator(None)


def _spec(engine, fault=None, n=16):
    return ExperimentSpec(
        topology="poisson_cluster", n=n, algorithm="decay_bfs",
        algorithm_params={"depth_budget": n, "tx_power": 1},
        engine=engine, collision_model="sinr", sinr="high_power",
        seed=7, fault_model=fault,
    )


def _pathloss_off_by_one(engine):
    """Emulate a pathloss rounding bug in whichever engine is running:
    nudge one live fixed-point gain off by one."""
    csr = getattr(engine, "_sinr_csr", None)
    if csr is not None:  # fast tier: the compiled CSR gain array
        csr.gains[0] += 1
    else:  # reference tier: the per-edge gain table
        field = engine._sinr_field
        edge = next(iter(field._gains))
        field._gains[edge] += 1


def _fast_only(mutator):
    """Wrap a plant so it fires on the fast engine alone — the
    one-sided divergence the differential grid must catch."""
    def fast_only(engine):
        if getattr(engine, "_sinr_csr", None) is not None:
            mutator(engine)
    return fast_only


def _late_drop_pass(engine):
    """Emulate fault layers applied *after* SINR arbitration: an
    already-counted delivery is retracted and recounted as dropped."""
    c = engine.fault_counters
    if c.delivered:
        c.delivered -= 1
        c.dropped += 1


def _doc(result):
    return json.dumps(result.to_dict(), sort_keys=True, allow_nan=False)


class TestInvariantMonitorCatches:
    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_clean_run_is_clean(self, engine):
        r = run_experiment(_spec(engine, fault="jam_hubs"), invariant_sample=1)
        assert r.invariants["violations"] == {}
        assert r.invariants["checked_slots"] > 0

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_pathloss_off_by_one_caught(self, engine):
        install_test_mutator(_pathloss_off_by_one)
        r = run_experiment(_spec(engine), invariant_sample=1)
        assert r.invariants["violations"].get("sinr_gain_integrity", 0) > 0

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_misordered_fault_application_caught(self, engine):
        install_test_mutator(_late_drop_pass)
        r = run_experiment(_spec(engine, fault="jam_hubs"), invariant_sample=1)
        assert r.invariants["violations"].get(
            "fault_counters_monotone", 0
        ) > 0


class TestEquivalenceGridCatches:
    """One-sided plants break the reference-vs-fast byte identity."""

    def _documents(self, fault=None):
        ref = run_experiment(_spec("reference", fault=fault), invariant_sample=1)
        fast = run_experiment(_spec("fast", fault=fault), invariant_sample=1)
        a, b = ref.to_dict(), fast.to_dict()
        a["spec"].pop("engine")
        b["spec"].pop("engine")
        return json.dumps(a, sort_keys=True), json.dumps(b, sort_keys=True)

    def test_unplanted_documents_agree(self):
        a, b = self._documents(fault="jam_hubs")
        assert a == b

    def test_one_sided_pathloss_bug_diverges(self):
        install_test_mutator(_fast_only(_pathloss_off_by_one))
        a, b = self._documents()
        assert a != b

    def test_one_sided_fault_ordering_bug_diverges(self):
        install_test_mutator(_fast_only(_late_drop_pass))
        a, b = self._documents(fault="jam_hubs")
        assert a != b
