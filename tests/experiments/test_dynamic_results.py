"""Experiment-layer contract for dynamic membership and invariant checking.

The headline differential claim of the dynamic-topology subsystem: over
a grid of (dynamic schedule x fault preset x collision model) cells,
the reference and fast engines produce **byte-identical** schema-v3
``RunResult`` documents — invariant counters included.  Plus the schema
boundaries: v3 round-trips the new blocks, v1/v2 re-emission refuses
results the old schemas could not express, and up-conversion from old
documents stays lossless.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments import (
    ExperimentSpec,
    RunResult,
    iter_grid,
    run_experiment,
    run_specs,
    validate_result_dict,
)
from repro.experiments.results import SCHEMA_VERSION
from repro.experiments.runner import _plan_units, spec_is_batchable
from repro.experiments.spec import ExecutionPolicy
from repro.radio.dynamic import named_dynamic_schedules


def _spec(dynamic=None, engine="reference", fault_model=None,
          collision_model="no_cd", algorithm="decay_bfs", n=16, seed=3):
    return ExperimentSpec(
        topology="grid", n=n, algorithm=algorithm, engine=engine,
        collision_model=collision_model, seed=seed,
        fault_model=fault_model, dynamic=dynamic,
    )


def _payload(result: RunResult):
    """The engine-independent document payload (spec differs by the
    engine field by construction, so compare everything else)."""
    doc = result.to_dict()
    doc["spec"].pop("engine")
    return doc


# ---------------------------------------------------------------------------
# Schema v3
# ---------------------------------------------------------------------------

class TestSchemaV3:
    def test_checked_run_carries_invariants_block(self):
        result = run_experiment(_spec(), invariant_sample=1)
        assert result.invariants is not None
        assert result.invariants["checked_slots"] > 0
        assert result.invariants["violations"] == {}
        doc = result.to_dict()
        assert doc["schema_version"] == SCHEMA_VERSION == 3
        assert doc["invariants"]["checked_slots"] > 0

    def test_unchecked_run_has_no_invariants_block(self):
        result = run_experiment(_spec())
        assert result.invariants is None
        assert "invariants" not in result.to_dict()

    def test_v3_round_trip_with_invariants_and_dynamic(self):
        spec = _spec(dynamic=named_dynamic_schedules()["churn_mix"])
        result = run_experiment(spec, invariant_sample=2)
        doc = result.to_dict()
        assert doc["spec"]["dynamic"] == spec.dynamic.to_dict()
        rebuilt = RunResult.from_dict(json.loads(json.dumps(doc)))
        assert rebuilt.to_dict() == doc
        assert validate_result_dict(doc).invariants == result.invariants

    def test_all_zero_tally_canonicalizes_to_none(self):
        result = run_experiment(_spec())
        clone = RunResult.from_dict({
            **result.to_dict(),
            "invariants": {"checked_slots": 0, "violations": {}},
        })
        assert clone.invariants is None

    def test_v2_reemission_refuses_invariants(self):
        result = run_experiment(_spec(), invariant_sample=1)
        with pytest.raises(ConfigurationError, match="v2 schema"):
            result.to_dict(schema_version=2)

    def test_v2_reemission_refuses_dynamic_spec(self):
        result = run_experiment(
            _spec(dynamic=named_dynamic_schedules()["join_wave"])
        )
        with pytest.raises(ConfigurationError, match="dynamic schedule"):
            result.to_dict(schema_version=2)

    def test_pre_v3_documents_reject_new_blocks(self):
        doc = run_experiment(_spec()).to_dict()
        v2 = {**doc, "schema_version": 2,
              "invariants": {"checked_slots": 1, "violations": {}}}
        with pytest.raises(ConfigurationError, match="invariants block"):
            RunResult.from_dict(v2)
        dynamic_doc = run_experiment(
            _spec(dynamic=named_dynamic_schedules()["join_wave"])
        ).to_dict()
        with pytest.raises(ConfigurationError, match="dynamic schedule"):
            RunResult.from_dict({**dynamic_doc, "schema_version": 2})

    def test_v2_up_conversion_lossless(self):
        result = run_experiment(_spec())
        v2 = result.to_dict(schema_version=2)
        rebuilt = RunResult.from_dict(v2)
        assert rebuilt.invariants is None
        assert rebuilt.to_dict() == result.to_dict()
        # Committed v2 artifacts keep validating at their own version.
        assert rebuilt.to_dict(schema_version=2) == v2

    def test_spec_v1_shape_refuses_dynamic(self):
        spec = _spec(dynamic=named_dynamic_schedules()["join_wave"])
        with pytest.raises(ConfigurationError, match="v1 schema"):
            spec.to_dict(include_fault_model=False)

    def test_static_spec_bytes_unchanged_by_v3(self):
        # No "dynamic" key on static specs: historic spec hashes stand.
        assert "dynamic" not in _spec().to_dict()


# ---------------------------------------------------------------------------
# Differential grid: reference vs fast, byte-identical v3 documents
# ---------------------------------------------------------------------------

DYNAMICS = ("join_wave", "leave_wave", "churn_mix")
FAULTS = (None, "churn_wave")
MODELS = ("no_cd", "receiver_cd")


class TestDifferentialGrid:
    @pytest.mark.parametrize("dynamic", DYNAMICS)
    @pytest.mark.parametrize("fault", FAULTS)
    @pytest.mark.parametrize("model", MODELS)
    def test_engines_byte_identical(self, dynamic, fault, model):
        results = {}
        for engine in ("reference", "fast"):
            spec = _spec(
                dynamic=named_dynamic_schedules()[dynamic],
                fault_model=fault, collision_model=model,
                engine=engine,
            )
            results[engine] = run_experiment(spec, invariant_sample=1)
        ref, fast = results["reference"], results["fast"]
        assert ref.invariants is not None
        assert ref.invariants["violations"] == {}
        assert _payload(ref) == _payload(fast)
        assert (
            json.dumps(_payload(ref), sort_keys=True)
            == json.dumps(_payload(fast), sort_keys=True)
        )

    def test_serial_and_pool_agree(self):
        specs = list(iter_grid(
            ["grid"], ["decay_bfs"], sizes=16, seeds=2, engine="fast",
            dynamic="churn_mix",
        ))
        policy = ExecutionPolicy(invariant_sample=2)
        serial = run_specs(specs, parallel=False, policy=policy)
        pooled = run_specs(specs, parallel=True, max_workers=2, policy=policy)
        assert all(r.invariants is not None for r in serial)
        assert [r.to_dict() for r in serial] == [r.to_dict() for r in pooled]


# ---------------------------------------------------------------------------
# Unreachable-node surfacing (churn-edge bugfix)
# ---------------------------------------------------------------------------

class TestUnreachedCounter:
    def test_partitioned_dynamic_run_reports_unreached(self):
        # Grid n=25, seed 7: churn_mix's joiner draw isolates the source
        # (both its grid neighbors join late), so the BFS cannot leave
        # vertex 0 — historically reported as a silently complete run.
        result = run_experiment(_spec(
            dynamic=named_dynamic_schedules()["churn_mix"], n=25, seed=7,
        ))
        assert result.status == "partial"
        assert result.output["unreached"] > 0

    def test_complete_run_has_no_unreached_key(self):
        result = run_experiment(_spec())
        assert result.status == "ok"
        assert "unreached" not in result.output


# ---------------------------------------------------------------------------
# Planning: dynamic/invariant cells never fuse into batched units
# ---------------------------------------------------------------------------

class TestPlanning:
    def _replicas(self, **kwargs):
        return [
            _spec(engine="fast", seed=seed, **kwargs) for seed in range(4)
        ]

    def test_static_replicas_fuse(self):
        specs = self._replicas()
        assert all(spec_is_batchable(s) for s in specs)
        assert len(_plan_units(specs, ExecutionPolicy())) == 1

    def test_dynamic_cells_stay_singletons(self):
        specs = self._replicas(
            dynamic=named_dynamic_schedules()["join_wave"]
        )
        assert not any(spec_is_batchable(s) for s in specs)
        units = _plan_units(specs, ExecutionPolicy())
        assert [len(u) for u in units] == [1, 1, 1, 1]

    def test_invariant_policy_forces_singletons(self):
        units = _plan_units(
            self._replicas(), ExecutionPolicy(invariant_sample=4)
        )
        assert [len(u) for u in units] == [1, 1, 1, 1]


# ---------------------------------------------------------------------------
# Tier boundaries
# ---------------------------------------------------------------------------

class TestTierBoundary:
    def test_lb_tier_algorithm_rejects_dynamic(self):
        spec = _spec(
            algorithm="trivial_bfs",
            dynamic=named_dynamic_schedules()["join_wave"],
        )
        with pytest.raises(ConfigurationError, match="slot-tier"):
            run_experiment(spec)
