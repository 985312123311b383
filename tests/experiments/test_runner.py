"""Tests for grid expansion, the sweep runner, and schema validation."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments import (
    SweepResult,
    SweepStore,
    expand_grid,
    iter_grid,
    run_specs,
    run_sweep,
    validate_document,
    validate_file,
)

TOPOLOGIES = ["path", "grid", "tree", "expander"]
ALGORITHMS = ["trivial_bfs", "decay_bfs", "leader_election", "mpx_clustering"]


class TestExpandGrid:
    def test_cell_count_and_order(self):
        specs = expand_grid(["path", "grid"], ["trivial_bfs"], sizes=8, seeds=3)
        assert len(specs) == 2 * 1 * 3
        assert [s.topology for s in specs] == ["path"] * 3 + ["grid"] * 3

    def test_sizes_axis(self):
        specs = expand_grid(["path"], ["trivial_bfs"], sizes=[8, 16], seeds=1)
        assert [s.n for s in specs] == [8, 16]

    def test_derived_seeds_deterministic(self):
        a = expand_grid(TOPOLOGIES, ALGORITHMS, sizes=8, seeds=2, base_seed=5)
        b = expand_grid(TOPOLOGIES, ALGORITHMS, sizes=8, seeds=2, base_seed=5)
        assert a == b

    def test_derived_seeds_vary_with_base(self):
        a = expand_grid(["path"], ["trivial_bfs"], sizes=8, seeds=2, base_seed=5)
        b = expand_grid(["path"], ["trivial_bfs"], sizes=8, seeds=2, base_seed=6)
        assert {s.seed for s in a} != {s.seed for s in b}

    def test_seeds_paired_across_algorithms(self):
        """Every algorithm sees the same instance seeds (paired design)."""
        specs = expand_grid(["path"], ["trivial_bfs", "leader_election"],
                            sizes=8, seeds=2)
        by_algo = {}
        for s in specs:
            by_algo.setdefault(s.algorithm, []).append(s.seed)
        assert by_algo["trivial_bfs"] == by_algo["leader_election"]

    def test_explicit_seeds(self):
        specs = expand_grid(["path"], ["trivial_bfs"], sizes=8, seeds=[7, 9])
        assert [s.seed for s in specs] == [7, 9]

    def test_per_algorithm_params(self):
        specs = expand_grid(
            ["path"], ["trivial_bfs", "recursive_bfs"], sizes=8, seeds=1,
            algorithm_params={"recursive_bfs": {"beta": 0.25, "max_depth": 1}},
        )
        by_algo = {s.algorithm: s for s in specs}
        assert by_algo["trivial_bfs"].algorithm_params == ()
        assert dict(by_algo["recursive_bfs"].algorithm_params)["beta"] == 0.25

    def test_params_for_absent_algorithm_rejected(self):
        with pytest.raises(ConfigurationError):
            expand_grid(["path"], ["trivial_bfs"], sizes=8,
                        algorithm_params={"decay_bfs": {}})

    def test_empty_axes_rejected(self):
        with pytest.raises(ConfigurationError):
            expand_grid([], ["trivial_bfs"])
        with pytest.raises(ConfigurationError):
            expand_grid(["path"], [])
        with pytest.raises(ConfigurationError):
            expand_grid(["path"], ["trivial_bfs"], seeds=0)

    def test_iter_grid_validates_eagerly(self):
        """Bad arguments fail at call time, not at first iteration."""
        with pytest.raises(ConfigurationError):
            iter_grid([], ["trivial_bfs"])
        with pytest.raises(ConfigurationError):
            iter_grid(["path"], ["trivial_bfs"], seeds=0)

    def test_numpy_integer_axes(self):
        """Numpy scalars and arrays are valid axes and map onto the same
        cells (and derived seeds) as the plain-int grid."""
        import numpy as np

        plain = expand_grid(["path"], ["trivial_bfs"], sizes=8, seeds=2)
        assert expand_grid(["path"], ["trivial_bfs"], sizes=np.int64(8),
                           seeds=np.int64(2)) == plain
        arrays = expand_grid(["path"], ["trivial_bfs"],
                             sizes=np.array([8, 16]), seeds=np.array([7, 9]))
        assert [(s.n, s.seed) for s in arrays] == [(8, 7), (8, 9), (16, 7),
                                                   (16, 9)]
        assert all(type(s.n) is int for s in arrays)

    @pytest.mark.parametrize("axes", [
        {"sizes": True}, {"sizes": [8, True]}, {"seeds": True},
        {"seeds": [1, False]}, {"sizes": 8.5},
    ])
    def test_bool_and_non_int_axes_rejected(self, axes):
        with pytest.raises(ConfigurationError) as info:
            iter_grid(["path"], ["trivial_bfs"], **axes)
        assert "\n" not in str(info.value)

    def test_iter_grid_matches_expand_grid(self):
        lazy = list(iter_grid(TOPOLOGIES, ALGORITHMS, sizes=[8, 16], seeds=2,
                              base_seed=9))
        eager = expand_grid(TOPOLOGIES, ALGORITHMS, sizes=[8, 16], seeds=2,
                            base_seed=9)
        assert lazy == eager


class TestCellSeedMapping:
    """The cell -> seed-stream assignment is a pure function of grid
    *position* (regression pin: resume correctness depends on skipped
    cells never shifting any other cell's seed)."""

    # expand_grid(["path","grid"], [...], sizes=[8,16], seeds=2,
    # base_seed=0): one derived seed per (instance, seed index) in grid
    # order.  These values are frozen; changing the derivation would
    # silently re-randomize every committed sweep.
    PINNED_INSTANCE_SEEDS = [
        1722792823, 1421746522,   # ("path", 8)   seed index 0, 1
        1409566257, 1916544930,   # ("path", 16)
        375697936, 167590276,     # ("grid", 8)
        795123579, 1835862419,    # ("grid", 16)
    ]

    def expand(self, algorithms):
        return expand_grid(["path", "grid"], algorithms, sizes=[8, 16],
                           seeds=2, base_seed=0)

    def test_mapping_pinned(self):
        specs = self.expand(["trivial_bfs"])
        assert [s.seed for s in specs] == self.PINNED_INSTANCE_SEEDS

    def test_mapping_independent_of_algorithm_axis(self):
        """Adding algorithms must not consume extra streams: the seed
        of (instance, seed index) ignores the algorithm axis."""
        one = self.expand(["trivial_bfs"])
        three = self.expand(["trivial_bfs", "leader_election", "decay_bfs"])
        by_cell = {(s.topology, s.n, s.algorithm): [] for s in three}
        for s in three:
            by_cell[(s.topology, s.n, s.algorithm)].append(s.seed)
        for algo in ("trivial_bfs", "leader_election", "decay_bfs"):
            flat = []
            for topo, n in [("path", 8), ("path", 16), ("grid", 8),
                            ("grid", 16)]:
                flat.extend(by_cell[(topo, n, algo)])
            assert flat == [s.seed for s in one]

    def test_resume_preserves_mapping(self, tmp_path):
        """A store holding some completed cells must not shift the
        seeds assigned to the cells that still run."""
        specs = self.expand(["trivial_bfs"])
        store = SweepStore(str(tmp_path / "st"))
        # Complete the first instance's cells, then resume the grid.
        run_specs(specs[:2], parallel=False, store=store)
        resumed = run_specs(specs, parallel=False, store=store)
        assert [r.spec.seed for r in resumed] == self.PINNED_INSTANCE_SEEDS


class TestRunSweep:
    @pytest.fixture(scope="class")
    def acceptance_grid(self):
        """The acceptance-criteria grid: 4 topologies x 4 algorithms x
        2 seeds, run both on the process pool and serially."""
        specs = expand_grid(TOPOLOGIES, ALGORITHMS, sizes=16, seeds=2)
        parallel = run_specs(specs, parallel=True)
        serial = run_specs(specs, parallel=False)
        return specs, parallel, serial

    def test_grid_completes(self, acceptance_grid):
        specs, parallel, _ = acceptance_grid
        assert len(specs) == 4 * 4 * 2
        assert len(parallel) == len(specs)
        assert [r.spec for r in parallel] == specs

    def test_parallel_matches_serial(self, acceptance_grid):
        _, parallel, serial = acceptance_grid
        assert parallel == serial
        a = json.dumps(parallel.to_dict(), sort_keys=True)
        b = json.dumps(serial.to_dict(), sort_keys=True)
        assert a == b

    def test_sweep_document_validates(self, acceptance_grid, tmp_path):
        _, parallel, _ = acceptance_grid
        doc = parallel.to_dict()
        assert len(validate_document(doc)) == len(parallel)
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(doc, sort_keys=True))
        assert len(validate_file(str(path))) == len(parallel)

    def test_sweep_round_trip(self, acceptance_grid):
        _, parallel, _ = acceptance_grid
        rebuilt = SweepResult.from_dict(parallel.to_dict())
        assert rebuilt == parallel

    def test_table_renders_every_cell(self, acceptance_grid):
        _, parallel, _ = acceptance_grid
        table = parallel.table(title="acceptance")
        lines = table.splitlines()
        assert lines[0] == "acceptance"
        assert len(lines) == 3 + len(parallel)

    @pytest.mark.parametrize("knob", ["chunk_size", "batch_replicas"])
    def test_run_specs_caps_take_numpy_ints_and_refuse_bools(self, knob,
                                                             tmp_path):
        import numpy as np

        def cap(value):
            # batch_replicas is a policy knob, here as its mapping form.
            if knob == "chunk_size":
                return {"chunk_size": value}
            return {"policy": {"batch_replicas": value}}

        specs = expand_grid(["path"], ["decay_bfs"], sizes=8, seeds=3)
        want = [r.to_dict() for r in run_specs(specs, parallel=False)]
        got = run_specs(specs, parallel=False, store=str(tmp_path / "a"),
                        **cap(np.int64(2)))
        assert [r.to_dict() for r in got] == want
        for value in (True, np.True_):
            with pytest.raises(ConfigurationError, match="not a bool") as info:
                run_specs(specs, parallel=False, store=str(tmp_path / "b"),
                          **cap(value))
            assert "\n" not in str(info.value)

    def test_run_sweep_end_to_end(self):
        sweep = run_sweep(["path"], ["trivial_bfs"], sizes=8, seeds=1,
                          parallel=False)
        assert len(sweep) == 1
        assert sweep.execution == "serial"
        assert sweep.results[0].output["settled"] == 8


class TestValidateDocument:
    def test_rejects_non_document(self):
        with pytest.raises(ConfigurationError):
            validate_document({"hello": "world"})

    def test_rejects_empty_results(self):
        # No sweep ``kind``: a BENCH-shaped record with nothing measured
        # is a broken run, not an empty grid.
        with pytest.raises(ConfigurationError, match="non-empty"):
            validate_document({"results": []})
        with pytest.raises(ConfigurationError, match="non-empty"):
            validate_document({"results": [], "kind": "benchmark"})

    def test_empty_sweep_document_round_trips(self):
        """An empty grid is a legal sweep: ``run_specs([])`` must
        validate and round-trip through its own canonical document."""
        sweep = run_specs([], parallel=False)
        assert len(sweep) == 0
        doc = sweep.to_dict()
        assert doc["results"] == []
        assert validate_document(doc) == []
        assert SweepResult.from_dict(doc) == sweep

    def test_rejects_tampered_result(self):
        sweep = run_sweep(["path"], ["trivial_bfs"], sizes=6, seeds=1,
                          parallel=False)
        doc = sweep.to_dict()
        doc["results"][0]["metrics"]["max_lb_energy"] = "lots"
        with pytest.raises(ConfigurationError, match="results\\[0\\]"):
            validate_document(doc)

    def test_rejects_missing_metric(self):
        sweep = run_sweep(["path"], ["trivial_bfs"], sizes=6, seeds=1,
                          parallel=False)
        doc = sweep.to_dict()
        del doc["results"][0]["metrics"]["lb_rounds"]
        with pytest.raises(ConfigurationError, match="missing"):
            validate_document(doc)

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            validate_file(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            validate_file(str(tmp_path / "nope.json"))

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe\x00\x01")
        with pytest.raises(ConfigurationError, match="not UTF-8"):
            validate_file(str(path))

    def test_rejects_non_mapping_output(self):
        sweep = run_sweep(["path"], ["trivial_bfs"], sizes=6, seeds=1,
                          parallel=False)
        doc = sweep.to_dict()
        doc["results"][0]["output"] = [1, 2]
        with pytest.raises(ConfigurationError, match="output must be a mapping"):
            validate_document(doc)

    def test_rejects_bad_timing(self):
        sweep = run_sweep(["path"], ["trivial_bfs"], sizes=6, seeds=1,
                          parallel=False)
        doc = sweep.to_dict(include_timing=True)
        doc["results"][0]["timing"] = {"wall_time_s": "fast"}
        with pytest.raises(ConfigurationError, match="wall_time_s"):
            validate_document(doc)
