"""Crash-recovery guarantees of the sweep store, byte by byte.

The store's durability contract says a ``kill -9`` can leave at most
one torn trailing line in one shard, and that reopening (a) drops the
torn record, (b) reports that cell incomplete, and (c) a resumed sweep
re-runs exactly that cell and nothing else, restoring the store to the
bytes an uninterrupted run would have produced.  This suite *enforces*
the contract exhaustively: it truncates a shard at every byte offset of
its final record and asserts all three properties at each offset.
"""

import json
import os
import shutil

import pytest

from repro.errors import ConfigurationError
from repro.experiments import SweepStore, expand_grid, run_specs, spec_hash
import repro.experiments.runner as runner_module
import repro.experiments.store as store_module

# Small records (no label lists) keep the per-offset loop fast while
# still exercising every code path of the recovery logic.
SPECS = expand_grid(
    ["path", "grid"], ["trivial_bfs"], sizes=8, seeds=2, base_seed=1,
    algorithm_params={"trivial_bfs": {"record_labels": False}},
)


@pytest.fixture(scope="module")
def ground_truth():
    """The grid's results, computed once (all cells are deterministic)."""
    return {spec_hash(r.spec): r for r in run_specs(SPECS, parallel=False)}


@pytest.fixture(scope="module")
def intact_store_dir(tmp_path_factory, ground_truth):
    """An uninterrupted store over the full grid (the reference bytes)."""
    path = str(tmp_path_factory.mktemp("intact") / "store")
    store = SweepStore(path, num_shards=2)
    run_specs(SPECS, parallel=False, store=store)
    return path


def store_bytes(path):
    """Shard-name -> file bytes for a whole store directory."""
    shard_dir = os.path.join(path, "shards")
    return {
        name: open(os.path.join(shard_dir, name), "rb").read()
        for name in sorted(os.listdir(shard_dir))
    }


def last_record_span(path):
    """(shard filename, start offset, file size) of the store's final
    appended record — the only record a crash can tear."""
    intact = SweepStore(path, read_only=True)
    # The last spec in grid order was appended last; its line is the
    # final line of its shard.
    target_hash = spec_hash(SPECS[-1])
    shard_name = f"shard-{intact.shard_of(target_hash):02d}.jsonl"
    data = store_bytes(path)[shard_name]
    start = data.rfind(b"\n", 0, len(data) - 1) + 1
    record = json.loads(data[start:])
    assert record["spec_hash"] == target_hash
    return shard_name, start, len(data), target_hash


class TestTruncationAtEveryOffset:
    def test_every_offset_recovers_and_resumes(self, intact_store_dir,
                                               ground_truth, tmp_path,
                                               monkeypatch):
        reference = store_bytes(intact_store_dir)
        shard_name, start, size, target_hash = last_record_span(
            intact_store_dir
        )
        # Resume runs are real executions semantically, but every cell
        # is deterministic, so serving the precomputed result keeps the
        # per-offset loop fast without weakening the assertions.
        executed = []

        def cached_run(spec, invariant_sample=None):
            executed.append(spec)
            return ground_truth[spec_hash(spec)]

        monkeypatch.setattr(runner_module, "run_experiment", cached_run)

        work = str(tmp_path / "crashed")
        for offset in range(start, size):
            shutil.rmtree(work, ignore_errors=True)
            shutil.copytree(intact_store_dir, work)
            shard_path = os.path.join(work, "shards", shard_name)
            with open(shard_path, "r+b") as handle:
                handle.truncate(offset)

            # (a) the store reopens cleanly, dropping only the torn tail
            store = SweepStore(work)
            torn = offset > start  # offset == start: record cleanly gone
            assert store.torn_records_dropped == (1 if torn else 0), offset
            assert len(store) == len(SPECS) - 1, offset
            # ... and the repair physically removed the torn bytes.
            assert os.path.getsize(shard_path) == start, offset

            # (b) exactly the interrupted cell reports incomplete
            assert target_hash not in store, offset
            missing = [s for s in SPECS if s not in store]
            assert [spec_hash(s) for s in missing] == [target_hash], offset

            # (c) a resumed sweep re-runs exactly that cell and restores
            # the uninterrupted store byte-for-byte
            executed.clear()
            run_specs(SPECS, parallel=False, store=store)
            assert [spec_hash(s) for s in executed] == [target_hash], offset
            assert store_bytes(work) == reference, offset

    def test_real_resume_restores_reference_bytes(self, intact_store_dir,
                                                  tmp_path):
        """One full-fidelity pass with no caching: crash mid-record,
        reopen, genuinely re-execute, compare bytes."""
        shard_name, start, size, target_hash = last_record_span(
            intact_store_dir
        )
        work = str(tmp_path / "crashed")
        shutil.copytree(intact_store_dir, work)
        shard_path = os.path.join(work, "shards", shard_name)
        with open(shard_path, "r+b") as handle:
            handle.truncate((start + size) // 2)
        store = SweepStore(work)
        assert store.torn_records_dropped == 1
        sweep = run_specs(SPECS, parallel=False, store=store)
        assert len(sweep) == len(SPECS)
        assert store_bytes(work) == store_bytes(intact_store_dir)


class TestRecoveryEdges:
    def test_read_only_open_drops_but_does_not_repair(self, intact_store_dir,
                                                      tmp_path):
        shard_name, start, size, _ = last_record_span(intact_store_dir)
        work = str(tmp_path / "crashed")
        shutil.copytree(intact_store_dir, work)
        shard_path = os.path.join(work, "shards", shard_name)
        with open(shard_path, "r+b") as handle:
            handle.truncate(size - 3)
        ro = SweepStore(work, read_only=True)
        assert ro.torn_records_dropped == 1
        assert len(ro) == len(SPECS) - 1
        # The torn bytes are still on disk (read-only never writes) ...
        assert os.path.getsize(shard_path) == size - 3
        # ... and a writable open later repairs them.
        rw = SweepStore(work)
        assert rw.torn_records_dropped == 1
        assert os.path.getsize(shard_path) == start

    def test_corrupt_interior_line_is_an_error(self, intact_store_dir,
                                               tmp_path):
        """A malformed line *before* the final one cannot come from a
        crash of the append-only writer: that is real corruption and
        must fail loudly, never be silently dropped."""
        work = str(tmp_path / "corrupt")
        shutil.copytree(intact_store_dir, work)
        # Pick a shard with >= 2 records and damage its first line.
        for name, data in store_bytes(work).items():
            lines = data.splitlines(keepends=True)
            if len(lines) >= 2:
                lines[0] = b'{"mangled": true}\n'
                with open(os.path.join(work, "shards", name), "wb") as handle:
                    handle.write(b"".join(lines))
                break
        else:
            pytest.fail("fixture store has no shard with two records")
        with pytest.raises(ConfigurationError, match="corrupt"):
            SweepStore(work)

    def test_empty_shard_file_is_fine(self, tmp_path):
        store = SweepStore(str(tmp_path / "st"), num_shards=1)
        open(os.path.join(store.path, "shards", "shard-00.jsonl"), "wb").close()
        reopened = SweepStore(str(tmp_path / "st"))
        assert len(reopened) == 0
        assert reopened.torn_records_dropped == 0


class TestDirectoryDurability:
    """The directory-entry half of the ``kill -9`` contract: fsyncing a
    file makes its *contents* durable, but the file's very existence
    (the index written at creation, a shard created by its first
    append) is a directory entry, durable only once the containing
    directory is fsynced.  These tests pin exactly when the store pays
    that cost — at the windows where a crash could otherwise lose a
    whole file — and that the recovery path covers the loss."""

    @pytest.fixture
    def fsynced_dirs(self, monkeypatch):
        """Record every directory handed to the store's _fsync_dir."""
        calls = []
        original = store_module._fsync_dir

        def recording(path):
            calls.append(os.path.normpath(path))
            original(path)

        monkeypatch.setattr(store_module, "_fsync_dir", recording)
        return calls

    def test_create_fsyncs_store_directory(self, tmp_path, fsynced_dirs):
        """The index rename at creation is followed by a directory
        fsync, so a fresh store cannot vanish wholesale after __init__
        returns."""
        path = str(tmp_path / "st")
        SweepStore(path)
        assert os.path.normpath(path) in fsynced_dirs

    def test_first_append_fsyncs_shard_directory_once(self, tmp_path,
                                                      fsynced_dirs,
                                                      ground_truth):
        """Creating a shard file fsyncs the shards directory; appending
        to an existing shard must not (the entry is already durable and
        the extra fsync would tax every checkpoint)."""
        results = list(ground_truth.values())
        store = SweepStore(str(tmp_path / "st"), num_shards=1)
        shard_dir = os.path.normpath(os.path.join(store.path, "shards"))
        fsynced_dirs.clear()
        store.add(results[0])        # first append creates shard-00.jsonl
        assert fsynced_dirs == [shard_dir]
        fsynced_dirs.clear()
        store.add(results[1])        # same shard file already exists
        assert fsynced_dirs == []

    def test_vanished_first_append_recovers_on_resume(self, tmp_path):
        """The failure mode the fsync closes, end to end: if the first
        append's shard file is lost wholesale (its directory entry was
        never durable), the store must reopen empty, report every cell
        incomplete, and a resumed sweep must rebuild the reference
        bytes."""
        path = str(tmp_path / "st")
        store = SweepStore(path, num_shards=1)
        run_specs(SPECS, parallel=False, store=store)
        reference = store_bytes(path)
        os.remove(os.path.join(path, "shards", "shard-00.jsonl"))
        reopened = SweepStore(path)
        assert len(reopened) == 0
        assert all(s not in reopened for s in SPECS)
        run_specs(SPECS, parallel=False, store=reopened)
        assert store_bytes(path) == reference
