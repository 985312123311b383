"""The SINR differential test wall: four engine tiers, one byte stream.

The tentpole guarantee of the SINR collision model: for every cell of a

    SINR preset (threshold + power ladder) x fault preset x topology

grid — including the ``poisson_cluster`` scenario whose integer
geometry drives non-uniform gains — the ``reference`` engine, the
serial ``fast`` engine (:func:`serial_oracle.serial_result`), the
replica-batched lanes, and the mega-batched lanes emit
**byte-identical** canonical result documents, and a process pool
changes nothing over serial execution.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.experiments import ExperimentSpec, run_experiment
from repro.experiments.runner import (
    _plan_units,
    expand_grid,
    run_experiment_mega,
    run_specs,
)
from repro.experiments.spec import ExecutionPolicy
from repro.radio.sinr import named_sinr_params
from serial_oracle import serial_result

#: Every named preset: 'capture'/'strict' sweep the threshold axis,
#: 'high_power' sweeps the power-ladder axis.
PRESETS = tuple(sorted(named_sinr_params()))
FAULTS = (None, "drop10", "jam_hubs")
#: Integer-geometry cluster process, lattice geometry, and a hub-heavy
#: family without geometry (uniform-gain fallback).
FAMILIES = ("poisson_cluster", "grid", "star_of_paths")
PARAMS = {"decay_bfs": {"depth_budget": 16, "tx_power": 1}}


def _canonical(result):
    return json.dumps(result.to_dict(), sort_keys=True, allow_nan=False)


def _grid_specs(fault, preset):
    return expand_grid(
        FAMILIES, ["decay_bfs"], sizes=16, seeds=2, engine="fast",
        collision_model="sinr", sinr=preset, fault_model=fault,
        algorithm_params=PARAMS,
    )


class TestFourTierByteIdentity:
    """reference == fast == replica-batched == mega-batched, per cell."""

    @pytest.mark.parametrize("preset", PRESETS)
    @pytest.mark.parametrize("fault", FAULTS)
    def test_grid_cell(self, preset, fault):
        specs = _grid_specs(fault, preset)
        serial = [serial_result(s) for s in specs]
        # One cell's two replicas per run, then every cell in one unit.
        batched = [r for i in range(0, len(specs), 2)
                   for r in run_experiment_mega(specs[i:i + 2])]
        assert len(_plan_units(specs, ExecutionPolicy())) == 1
        mega = run_specs(specs, parallel=False).results
        assert [_canonical(r) for r in serial] == [_canonical(r) for r in batched]
        assert [_canonical(r) for r in serial] == [_canonical(r) for r in mega]
        # The audit-grade serial reference engine agrees with all of the
        # above, byte for byte, up to the spec's engine field.
        for spec, fast in zip(specs, serial):
            ref = serial_result(dataclasses.replace(spec, engine="reference"))
            a, b = ref.to_dict(), fast.to_dict()
            assert a["spec"].pop("engine") == "reference"
            assert b["spec"].pop("engine") == "fast"
            assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class TestExecutionModes:
    def test_pool_equals_serial(self):
        specs = _grid_specs("drop10", "default")
        serial = run_specs(specs, parallel=False)
        # On a pool the planner spreads the cells over the workers.
        assert len(_plan_units(specs, ExecutionPolicy(),
                               share=len(specs) // 2)) > 1
        pooled = run_specs(specs, parallel=True, max_workers=2)
        expected = [_canonical(serial_result(s)) for s in specs]
        assert [_canonical(r) for r in serial.results] == expected
        assert [_canonical(r) for r in pooled.results] == expected

    def test_mega_batch_mixes_sinr_and_binary_members(self):
        """One fused mega run may carry SINR and binary-model members."""
        sinr_specs = expand_grid(
            ["poisson_cluster"], ["decay_bfs"], sizes=16, seeds=2,
            engine="fast", collision_model="sinr", sinr="high_power",
            algorithm_params=PARAMS,
        )
        binary_specs = expand_grid(
            ["grid"], ["decay_bfs"], sizes=16, seeds=2,
            engine="fast", collision_model="receiver_cd",
            algorithm_params={"decay_bfs": {"depth_budget": 16}},
        )
        mixed = sinr_specs + binary_specs
        serial = [serial_result(s) for s in mixed]
        assert len(_plan_units(mixed, ExecutionPolicy())) == 1
        mega = run_specs(mixed, parallel=False).results
        assert [_canonical(r) for r in serial] == [_canonical(r) for r in mega]

    def test_sinr_axis_changes_results(self):
        """The knobs are live: different presets produce different runs
        (the wall would be vacuous if every preset collapsed to the
        same arbitration)."""
        docs = set()
        for preset in PRESETS:
            spec = ExperimentSpec(
                topology="poisson_cluster", n=16, algorithm="decay_bfs",
                algorithm_params=PARAMS["decay_bfs"], engine="fast",
                collision_model="sinr", sinr=preset, seed=3,
            )
            docs.add(_canonical(run_experiment(spec)))
        assert len(docs) > 1
