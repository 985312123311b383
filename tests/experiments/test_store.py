"""Unit tests for the on-disk sweep store and its runner integration.

Crash-recovery (torn-line truncation at every byte offset) lives in
``test_store_recovery.py``; this module covers the happy paths plus the
store-level determinism guarantees: content addressing, dedup,
reopen-equality, refusal of real corruption, pool-vs-serial
byte-identical contents, and resume-without-re-execution.
"""

import json
import os

import pytest

from repro.errors import ConfigurationError
from repro.experiments import (
    ExperimentSpec,
    SweepStore,
    expand_grid,
    run_specs,
    spec_hash,
)
import repro.experiments.runner as runner_module

SPECS = expand_grid(["path", "grid"], ["trivial_bfs", "leader_election"],
                    sizes=12, seeds=2, base_seed=3)


@pytest.fixture(scope="module")
def executed():
    """The module's grid, run once without a store (ground truth)."""
    return run_specs(SPECS, parallel=False)


def shard_lines(store):
    """Every record line across all shards, canonically sorted."""
    lines = []
    for shard in sorted(os.listdir(os.path.join(store.path, "shards"))):
        with open(os.path.join(store.path, "shards", shard), "rb") as handle:
            lines.extend(handle.read().splitlines())
    return sorted(lines)


class TestStoreBasics:
    def test_create_and_reopen(self, tmp_path, executed):
        store = SweepStore(str(tmp_path / "st"), num_shards=4)
        assert len(store) == 0
        assert store.add_many(list(executed.results)) == len(SPECS)
        assert len(store) == len(SPECS)
        reopened = SweepStore(str(tmp_path / "st"))
        assert reopened.num_shards == 4
        assert reopened.completed_hashes() == store.completed_hashes()
        assert [r.to_dict() for r in reopened.results()] == [
            r.to_dict() for r in store.results()
        ]

    def test_content_addressing(self, tmp_path, executed):
        store = SweepStore(str(tmp_path / "st"))
        store.add_many(list(executed.results))
        for spec, result in zip(SPECS, executed):
            assert spec in store
            assert spec_hash(spec) in store
            assert store.get(spec) == result
        missing = ExperimentSpec(topology="tree", n=12,
                                 algorithm="trivial_bfs", seed=99)
        assert missing not in store
        assert store.get(missing) is None

    def test_add_is_idempotent(self, tmp_path, executed):
        store = SweepStore(str(tmp_path / "st"))
        first = executed.results[0]
        assert store.add(first) is True
        assert store.add(first) is False
        assert len(store) == 1
        # No duplicate line hit the disk either.
        assert len(shard_lines(store)) == 1

    def test_conflicting_rerun_rejected(self, tmp_path, executed):
        """A re-run that disagrees with the stored record is a broken
        determinism contract, not something to paper over."""
        store = SweepStore(str(tmp_path / "st"))
        first = executed.results[0]
        store.add(first)
        tampered_doc = first.to_dict()
        tampered_doc["metrics"]["time_slots"] += 1
        from repro.experiments import RunResult

        with pytest.raises(ConfigurationError, match="determinism"):
            store.add(RunResult.from_dict(tampered_doc))

    def test_records_are_complete_sorted_json_lines(self, tmp_path, executed):
        store = SweepStore(str(tmp_path / "st"))
        store.add_many(list(executed.results))
        for line in shard_lines(store):
            record = json.loads(line)
            assert record["kind"] == "repro.experiments.store_record"
            assert record["result"]["kind"] == "repro.experiments.run_result"
            # Canonical bytes: compact, sorted keys.
            assert line == json.dumps(
                record, sort_keys=True, separators=(",", ":")
            ).encode()

    def test_timing_excluded_by_default(self, tmp_path, executed):
        store = SweepStore(str(tmp_path / "st"))
        store.add_many(list(executed.results))
        assert all(b"timing" not in line for line in shard_lines(store))
        assert all(r.wall_time_s == 0.0 for r in store.results())

    def test_timing_opt_in_persists(self, tmp_path, executed):
        store = SweepStore(str(tmp_path / "st"), include_timing=True)
        store.add(executed.results[0])
        assert any(b'"timing"' in line for line in shard_lines(store))
        reopened = SweepStore(str(tmp_path / "st"))
        assert reopened.include_timing is True

    def test_timing_mismatch_rejected_both_directions(self, tmp_path):
        SweepStore(str(tmp_path / "plain"), include_timing=False)
        with pytest.raises(ConfigurationError, match="include_timing"):
            SweepStore(str(tmp_path / "plain"), include_timing=True)
        SweepStore(str(tmp_path / "timed"), include_timing=True)
        with pytest.raises(ConfigurationError, match="include_timing"):
            SweepStore(str(tmp_path / "timed"), include_timing=False)
        # None inherits whatever the index records, in both cases.
        assert SweepStore(str(tmp_path / "plain")).include_timing is False
        assert SweepStore(str(tmp_path / "timed")).include_timing is True

    def test_read_only_refuses_writes_and_missing_store(self, tmp_path, executed):
        with pytest.raises(ConfigurationError, match="no sweep store"):
            SweepStore(str(tmp_path / "nope"), read_only=True)
        store = SweepStore(str(tmp_path / "st"))
        store.add(executed.results[0])
        ro = SweepStore(str(tmp_path / "st"), read_only=True)
        assert len(ro) == 1
        with pytest.raises(ConfigurationError, match="read-only"):
            ro.add(executed.results[1])

    def test_unwritable_store_path_fails_readably(self, tmp_path):
        target = tmp_path / "a_file"
        target.write_text("not a directory")
        with pytest.raises(ConfigurationError, match="cannot create"):
            SweepStore(str(target / "store"))

    def test_stray_shard_file_fails_readably(self, tmp_path, executed):
        store = SweepStore(str(tmp_path / "st"))
        store.add(executed.results[0])
        (tmp_path / "st" / "shards" / "extra.jsonl").write_text("{}\n")
        with pytest.raises(ConfigurationError, match="unexpected file"):
            SweepStore(str(tmp_path / "st"))

    def test_out_of_range_shard_index_names_geometry(self, tmp_path, executed):
        """A shard index past the store's geometry — e.g. shard-08 in an
        8-shard store, the easy mixed-geometry copy mistake — must be
        rejected at open with the geometry named, even when the stray
        file is empty (never silently loaded) and even when non-empty
        (never a confusing "filed in the wrong shard" error)."""
        store = SweepStore(str(tmp_path / "st"), num_shards=8)
        store.add(executed.results[0])
        stray = tmp_path / "st" / "shards" / "shard-08.jsonl"
        stray.write_bytes(b"")
        with pytest.raises(ConfigurationError,
                           match=r"8 shard\(s\), indexes 00\.\.07"):
            SweepStore(str(tmp_path / "st"))
        # Non-empty stray (a record copied from a 16-shard store).
        valid_line = shard_lines(store)[0] + b"\n"
        stray.write_bytes(valid_line)
        with pytest.raises(ConfigurationError, match="out of range"):
            SweepStore(str(tmp_path / "st"))

    def test_shards_without_index_rejected(self, tmp_path):
        os.makedirs(tmp_path / "st" / "shards")
        (tmp_path / "st" / "shards" / "shard-00.jsonl").write_bytes(b"")
        with pytest.raises(ConfigurationError, match="index"):
            SweepStore(str(tmp_path / "st"))

    def test_tampered_record_caught_on_get(self, tmp_path, executed):
        """A record filed under one hash but holding another spec's
        result must not flow silently into aggregation."""
        store = SweepStore(str(tmp_path / "st"))
        store.add(executed.results[0])
        (h,) = store.completed_hashes()
        doc = store._records[h]
        doc["spec"]["seed"] += 1  # simulate on-disk tampering
        with pytest.raises(ConfigurationError, match="corrupt"):
            store.get(h)


class TestRunnerIntegration:
    def test_store_path_string_accepted(self, tmp_path, executed):
        sweep = run_specs(SPECS, parallel=False, store=str(tmp_path / "st"))
        assert json.dumps(sweep.to_dict(), sort_keys=True) == json.dumps(
            executed.to_dict(), sort_keys=True
        )
        assert len(SweepStore(str(tmp_path / "st"))) == len(SPECS)

    def test_chunked_run_checkpoints_every_chunk(self, tmp_path, monkeypatch):
        store = SweepStore(str(tmp_path / "st"))
        checkpoint_sizes = []
        original = store.add_many

        def tracking_add_many(results):
            checkpoint_sizes.append(len(results))
            return original(results)

        monkeypatch.setattr(store, "add_many", tracking_add_many)
        run_specs(SPECS, parallel=False, store=store, chunk_size=3)
        assert checkpoint_sizes == [3, 3, 2]

    def test_resume_skips_completed_cells(self, tmp_path, monkeypatch, executed):
        store = SweepStore(str(tmp_path / "st"))
        store.add_many(list(executed.results)[:5])
        executed_specs = []
        original = runner_module.run_experiment

        def counting(spec, invariant_sample=None):
            executed_specs.append(spec)
            return original(spec, invariant_sample)

        monkeypatch.setattr(runner_module, "run_experiment", counting)
        sweep = run_specs(SPECS, parallel=False, store=store)
        assert executed_specs == SPECS[5:]
        assert sweep.execution == "serial"
        assert json.dumps(sweep.to_dict(), sort_keys=True) == json.dumps(
            executed.to_dict(), sort_keys=True
        )

    def test_fully_complete_store_executes_nothing(self, tmp_path, monkeypatch,
                                                   executed):
        store = SweepStore(str(tmp_path / "st"))
        store.add_many(list(executed.results))

        def forbidden(spec, invariant_sample=None):
            raise AssertionError(f"re-executed completed cell {spec}")

        monkeypatch.setattr(runner_module, "run_experiment", forbidden)
        sweep = run_specs(SPECS, parallel=False, store=store)
        assert sweep.execution == "store"
        assert json.dumps(sweep.to_dict(), sort_keys=True) == json.dumps(
            executed.to_dict(), sort_keys=True
        )

    def test_duplicate_specs_run_once(self, tmp_path, monkeypatch):
        calls = []
        original = runner_module.run_experiment

        def counting(spec, invariant_sample=None):
            calls.append(spec)
            return original(spec, invariant_sample)

        monkeypatch.setattr(runner_module, "run_experiment", counting)
        doubled = [SPECS[0], SPECS[0], SPECS[1]]
        sweep = run_specs(doubled, parallel=False,
                          store=SweepStore(str(tmp_path / "st")))
        assert calls == [SPECS[0], SPECS[1]]
        assert len(sweep) == 3
        assert sweep.results[0] == sweep.results[1]

    def test_bad_chunk_size_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="chunk_size"):
            run_specs(SPECS, store=SweepStore(str(tmp_path / "st")),
                      chunk_size=0)


class TestPoolSerialEquivalence:
    def test_pool_and_serial_store_contents_byte_identical(self, tmp_path):
        """The satellite guarantee: the same sweep written through a
        ProcessPoolExecutor and through the serial fallback produces
        byte-identical store contents after canonical sort.  (When no
        pool can be created in the sandbox the parallel run falls back
        to serial, which must *still* produce identical bytes.)"""
        pool_store = SweepStore(str(tmp_path / "pool"))
        serial_store = SweepStore(str(tmp_path / "serial"))
        run_specs(SPECS, parallel=True, store=pool_store, chunk_size=4)
        run_specs(SPECS, parallel=False, store=serial_store, chunk_size=4)
        assert shard_lines(pool_store) == shard_lines(serial_store)
        # Stronger still: whole shard files match byte-for-byte, since
        # both paths append in submission order.
        for shard in sorted(os.listdir(tmp_path / "pool" / "shards")):
            a = (tmp_path / "pool" / "shards" / shard).read_bytes()
            b = (tmp_path / "serial" / "shards" / shard).read_bytes()
            assert a == b, f"shard {shard} differs between pool and serial"


class TestMerge:
    """Store-level union: the combining step of the distributed fabric."""

    def split(self, executed, pieces):
        """Deal the executed results round-robin into ``pieces`` lists."""
        dealt = [[] for _ in range(pieces)]
        for i, result in enumerate(executed.results):
            dealt[i % pieces].append(result)
        return dealt

    def test_disjoint_merge_equals_direct_store(self, tmp_path, executed):
        direct = SweepStore(str(tmp_path / "direct"))
        direct.add_many(list(executed.results))
        merged = SweepStore(str(tmp_path / "merged"))
        for i, piece in enumerate(self.split(executed, 3)):
            src = SweepStore(str(tmp_path / f"w{i}"))
            src.add_many(piece)
            counts = merged.merge(src)
            assert counts == {"merged": len(piece), "deduplicated": 0}
        assert shard_lines(merged) == shard_lines(direct)
        assert merged.completed_hashes() == direct.completed_hashes()

    def test_merge_accepts_paths_and_mixed_geometry(self, tmp_path, executed):
        """Sources re-file under the destination's geometry, so worker
        stores need not share a shard count with the merged store."""
        direct = SweepStore(str(tmp_path / "direct"), num_shards=8)
        direct.add_many(list(executed.results))
        merged = SweepStore(str(tmp_path / "merged"), num_shards=8)
        for i, piece in enumerate(self.split(executed, 2)):
            src = SweepStore(str(tmp_path / f"w{i}"), num_shards=3 + i)
            src.add_many(piece)
            merged.merge(str(tmp_path / f"w{i}"))  # by path, read-only
        assert shard_lines(merged) == shard_lines(direct)

    def test_identical_replays_dedupe(self, tmp_path, executed):
        """Overlapping assignments (or a re-run of a dead worker's
        cells) merge silently: same bytes, one record."""
        a = SweepStore(str(tmp_path / "a"))
        a.add_many(list(executed.results))
        b = SweepStore(str(tmp_path / "b"))
        b.add_many(list(executed.results)[:4])  # full overlap with a
        counts = a.merge(b)
        assert counts == {"merged": 0, "deduplicated": 4}
        assert len(a) == len(executed.results)
        # Merging a store into itself is a no-op, not an error.
        assert a.merge(a) == {"merged": 0, "deduplicated": len(a)}

    def test_conflicting_record_raises_and_leaves_dest_untouched(
            self, tmp_path, executed):
        from repro.experiments import RunResult

        dest = SweepStore(str(tmp_path / "dest"))
        dest.add_many(list(executed.results))
        before = shard_lines(dest)
        tampered_doc = executed.results[0].to_dict()
        tampered_doc["metrics"]["time_slots"] += 1
        src = SweepStore(str(tmp_path / "src"))
        src.add(RunResult.from_dict(tampered_doc))
        src.add(executed.results[1])  # a mergeable record alongside
        with pytest.raises(ConfigurationError, match="merge conflict"):
            dest.merge(src)
        # Conflict detection runs before any append: nothing — not even
        # the non-conflicting record — reached the destination.
        assert shard_lines(dest) == before
        assert SweepStore(str(tmp_path / "dest")).completed_hashes() == \
            dest.completed_hashes()

    def test_timing_shape_mismatch_rejected(self, tmp_path, executed):
        timed = SweepStore(str(tmp_path / "timed"), include_timing=True)
        timed.add(executed.results[0])
        plain = SweepStore(str(tmp_path / "plain"))
        with pytest.raises(ConfigurationError, match="include_timing"):
            plain.merge(timed)
        with pytest.raises(ConfigurationError, match="include_timing"):
            timed.merge(plain)

    def test_read_only_destination_rejected(self, tmp_path, executed):
        src = SweepStore(str(tmp_path / "src"))
        src.add(executed.results[0])
        dest = SweepStore(str(tmp_path / "dest"))
        dest.add(executed.results[1])
        ro = SweepStore(str(tmp_path / "dest"), read_only=True)
        with pytest.raises(ConfigurationError, match="read-only"):
            ro.merge(src)

    def test_merge_drops_source_torn_tail(self, tmp_path, executed):
        """A dead worker's store may end in a torn line; merging by
        path opens it read-only — the torn record is excluded from the
        union and the source shard is left untouched."""
        src = SweepStore(str(tmp_path / "src"))
        src.add_many(list(executed.results)[:2])
        # Tear the final record of one shard (drop its last 3 bytes).
        torn_path = None
        for name in sorted(os.listdir(tmp_path / "src" / "shards")):
            path = tmp_path / "src" / "shards" / name
            if path.stat().st_size:
                torn_path = path
        size = torn_path.stat().st_size
        with open(torn_path, "r+b") as handle:
            handle.truncate(size - 3)
        dest = SweepStore(str(tmp_path / "dest"))
        counts = dest.merge(str(tmp_path / "src"))
        assert counts == {"merged": 1, "deduplicated": 0}
        # Read-only open never repaired the source bytes.
        assert torn_path.stat().st_size == size - 3
