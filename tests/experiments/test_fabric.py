"""Tests for the distributed sweep fabric: hash ring, partitioning,
churn rebalancing, and the worker/merge CLI surface.

The fabric's contract (see ``repro.experiments.fabric``) is pinned
here at three levels: the ring as a pure function (determinism,
monotonicity under member removal), the partition laws (every cell to
exactly one owner, grid order preserved), and the end-to-end guarantee
that a split-run-kill-rebalance-merge cycle reproduces the serial
store byte-for-byte with no duplicate and no shifted-seed cells.
"""

import hashlib
import json
import os
import shutil

import pytest

from repro.errors import ConfigurationError
from repro.experiments import (
    DEFAULT_VIRTUAL_NODES,
    HashRing,
    SweepStore,
    expand_grid,
    member_name,
    owned_specs,
    partition_specs,
    run_partition,
    run_specs,
    spec_hash,
)
from repro.experiments.__main__ import main
import repro.experiments.runner as runner_module

# Small, fast, but wide enough that a 3-worker ring gives every member
# cells and a removed member leaves orphans on both survivors.
SPECS = expand_grid(
    ["path", "grid", "expander"], ["trivial_bfs", "leader_election"],
    sizes=8, seeds=2, base_seed=3,
    algorithm_params={"trivial_bfs": {"record_labels": False}},
)


@pytest.fixture(scope="module")
def ground_truth():
    """Every cell's result, computed once (all cells deterministic)."""
    return {spec_hash(r.spec): r for r in run_specs(SPECS, parallel=False)}


@pytest.fixture(scope="module")
def reference_store(tmp_path_factory, ground_truth):
    """The serial single-host store the fabric must reproduce."""
    path = str(tmp_path_factory.mktemp("serial") / "store")
    store = SweepStore(path)
    run_specs(SPECS, parallel=False, store=store)
    return path


def sorted_shard_lines(path):
    """Shard filename -> canonically sorted record lines."""
    shard_dir = os.path.join(path, "shards")
    return {
        name: sorted(open(os.path.join(shard_dir, name), "rb")
                     .read().splitlines())
        for name in sorted(os.listdir(shard_dir))
    }


class TestMemberName:
    def test_canonical_names(self):
        assert member_name(0) == "worker-00"
        assert member_name(7) == "worker-07"
        assert member_name(123) == "worker-123"

    @pytest.mark.parametrize("bad", [-1, 1.5, "3", None, True])
    def test_rejects_non_indexes(self, bad):
        with pytest.raises(ConfigurationError, match="non-negative int"):
            member_name(bad)


class TestHashRing:
    def test_pure_function_of_sorted_membership(self):
        a = HashRing(["w-b", "w-a", "w-c"])
        b = HashRing(["w-c", "w-a", "w-b"])
        assert a == b
        assert hash(a) == hash(b)
        assert a.members == ("w-a", "w-b", "w-c")
        hashes = [hashlib.sha256(str(i).encode()).hexdigest()
                  for i in range(64)]
        assert [a.owner(h) for h in hashes] == [b.owner(h) for h in hashes]

    def test_from_count_matches_member_names(self):
        ring = HashRing.from_count(3)
        assert ring.members == ("worker-00", "worker-01", "worker-02")
        assert ring == HashRing([member_name(i) for i in range(3)])
        assert "worker-01" in ring and "worker-09" not in ring

    def test_virtual_nodes_change_the_ring(self):
        assert HashRing.from_count(2) != HashRing.from_count(2, virtual_nodes=8)
        assert HashRing.from_count(2).virtual_nodes == DEFAULT_VIRTUAL_NODES

    def test_membership_validation(self):
        with pytest.raises(ConfigurationError, match="at least one member"):
            HashRing([])
        with pytest.raises(ConfigurationError, match="unique"):
            HashRing(["w-a", "w-a"])
        with pytest.raises(ConfigurationError, match="non-empty strings"):
            HashRing(["w-a", ""])
        with pytest.raises(ConfigurationError, match="non-empty strings"):
            HashRing(["w-a", 3])
        with pytest.raises(ConfigurationError, match="positive int"):
            HashRing(["w-a"], virtual_nodes=0)
        with pytest.raises(ConfigurationError, match="positive int"):
            HashRing(["w-a"], virtual_nodes=True)
        with pytest.raises(ConfigurationError, match="positive int"):
            HashRing.from_count(0)
        with pytest.raises(ConfigurationError, match="positive int"):
            HashRing.from_count(True)

    def test_owner_rejects_non_hashes(self):
        ring = HashRing.from_count(2)
        with pytest.raises(ConfigurationError, match="not a spec hash"):
            ring.owner("not-hex-at-all!")
        with pytest.raises(ConfigurationError, match="not a spec hash"):
            ring.owner(None)

    def test_balance_smoke(self):
        """Virtual nodes spread synthetic hashes over every member."""
        ring = HashRing.from_count(4)
        counts = {m: 0 for m in ring.members}
        for i in range(512):
            counts[ring.owner(hashlib.sha256(str(i).encode()).hexdigest())] += 1
        assert all(count > 0 for count in counts.values())
        # 64 virtual nodes bound the skew well below pathological.
        assert max(counts.values()) < 4 * min(counts.values())

    def test_without_moves_only_departed_arcs(self):
        """Consistent hashing's monotonicity: removing members never
        changes a survivor's cells — the property that makes a
        rebalance re-run orphans only."""
        ring = HashRing.from_count(4)
        hashes = [hashlib.sha256(str(i).encode()).hexdigest()
                  for i in range(512)]
        before = {h: ring.owner(h) for h in hashes}
        for gone in (["worker-00"], ["worker-02"],
                     ["worker-00", "worker-03"]):
            survivor_ring = ring.without(*gone)
            assert survivor_ring.members == tuple(
                m for m in ring.members if m not in gone)
            for h in hashes:
                if before[h] not in gone:
                    assert survivor_ring.owner(h) == before[h]

    def test_without_validation(self):
        ring = HashRing.from_count(2)
        with pytest.raises(ConfigurationError, match="non-members"):
            ring.without("worker-05")
        with pytest.raises(ConfigurationError, match="every member"):
            ring.without("worker-00", "worker-01")

    def test_repr_round_trips(self):
        ring = HashRing.from_count(2, virtual_nodes=8)
        assert eval(repr(ring)) == ring  # noqa: S307 - our own repr


class TestPartitioning:
    def test_every_spec_exactly_once_in_grid_order(self):
        ring = HashRing.from_count(3)
        parts = partition_specs(SPECS, ring)
        assert set(parts) == set(ring.members)
        flattened = [s for member in ring.members for s in parts[member]]
        assert sorted(flattened, key=SPECS.index) == SPECS
        assert len(flattened) == len(SPECS)
        for member, mine in parts.items():
            assert mine == [s for s in SPECS if ring.owner_of(s) == member]
            assert mine == owned_specs(SPECS, ring, member)

    def test_integer_coercions(self):
        assert partition_specs(SPECS, 3) == partition_specs(
            SPECS, HashRing.from_count(3))
        assert owned_specs(SPECS, 3, 1) == owned_specs(
            SPECS, HashRing.from_count(3), "worker-01")

    def test_owned_specs_rejects_non_member(self):
        with pytest.raises(ConfigurationError, match="not on the ring"):
            owned_specs(SPECS, 2, 5)

    def test_duplicate_specs_share_an_owner(self):
        ring = HashRing.from_count(3)
        doubled = SPECS + SPECS[:2]
        parts = partition_specs(doubled, ring)
        for spec in SPECS[:2]:
            owner = ring.owner_of(spec)
            assert parts[owner].count(spec) == 2


class TestRunPartition:
    def test_split_run_merge_is_byte_identical(self, tmp_path,
                                               reference_store):
        """Three workers, three stores, one merge: the union must be
        byte-identical per sorted shard to the serial store."""
        merged = SweepStore(str(tmp_path / "merged"))
        total = 0
        for i in range(3):
            store = SweepStore(str(tmp_path / f"w{i}"))
            sweep = run_partition(SPECS, worker=i, ring=3, store=store,
                                  parallel=False)
            assert [r.spec for r in sweep] == owned_specs(SPECS, 3, i)
            total += len(sweep)
            merged.merge(store)
        assert total == len(SPECS)
        assert len(merged) == len(SPECS)
        assert (sorted_shard_lines(merged.path)
                == sorted_shard_lines(reference_store))

    def test_churn_rebalance_runs_orphans_only(self, tmp_path, monkeypatch,
                                               ground_truth,
                                               reference_store):
        """Kill worker-00 after a partial run, rebalance the survivors,
        merge everything (partial store included): only orphaned cells
        re-execute, completed cells dedupe, and the union reproduces
        the serial bytes."""
        executed = []

        def cached_run(spec, invariant_sample=None):
            executed.append(spec_hash(spec))
            return ground_truth[spec_hash(spec)]

        monkeypatch.setattr(runner_module, "run_experiment", cached_run)

        ring = HashRing.from_count(3)
        stores = {i: SweepStore(str(tmp_path / f"w{i}")) for i in range(3)}
        victim_mine = owned_specs(SPECS, ring, 0)
        assert len(victim_mine) >= 2, "grid gives no kill window"
        # The victim durably completes a strict prefix, then "dies".
        run_specs(victim_mine[:1], parallel=False, store=stores[0])
        for i in (1, 2):
            run_partition(SPECS, worker=i, ring=ring, store=stores[i],
                          parallel=False)

        # Rebalance: same call, dead member excluded from the ring.
        survivor_ring = ring.without(member_name(0))
        for i in (1, 2):
            have = stores[i].completed_hashes()
            orphans = {spec_hash(s)
                       for s in owned_specs(SPECS, survivor_ring, i)} - have
            executed.clear()
            run_partition(SPECS, worker=i, ring=survivor_ring,
                          store=stores[i], parallel=False)
            assert set(executed) == orphans
            assert len(executed) == len(orphans)
        covered = set().union(*(s.completed_hashes()
                                for s in stores.values()))
        assert covered == {spec_hash(s) for s in SPECS}

        merged = SweepStore(str(tmp_path / "merged"))
        deduplicated = 0
        for store in stores.values():
            deduplicated += merged.merge(store)["deduplicated"]
        # The victim's completed prefix ran again on its adopter: the
        # byte-identical replay deduped instead of duplicating.
        assert deduplicated == 1
        assert len(merged) == len(SPECS)
        assert (sorted_shard_lines(merged.path)
                == sorted_shard_lines(reference_store))


class TestWorkerMergeCLI:
    GRID = ["--topologies", "path", "--algorithms", "trivial_bfs",
            "--sizes", "8", "--seeds", "2", "--base-seed", "3", "--serial"]

    def worker_argv(self, i, out, num_workers=2, exclude=()):
        argv = ["worker", *self.GRID, "--out", out,
                "--worker-id", str(i), "--num-workers", str(num_workers)]
        if exclude:
            argv += ["--exclude", *map(str, exclude)]
        return argv

    def test_worker_then_merge_round_trip(self, tmp_path, capsys):
        stores = [str(tmp_path / f"w{i}") for i in range(2)]
        for i in range(2):
            assert main(self.worker_argv(i, stores[i])) == 0
            out = capsys.readouterr().out
            assert "worker-0" in out and "owns" in out
        merged = str(tmp_path / "merged")
        assert main(["merge", "--into", merged, *stores]) == 0
        out = capsys.readouterr().out
        assert "deduplicated" in out
        assert len(SweepStore(merged, read_only=True)) == 2

    def test_worker_resume_skips_completed(self, tmp_path, capsys):
        store = str(tmp_path / "w0")
        assert main(self.worker_argv(0, store, num_workers=1)) == 0
        capsys.readouterr()
        assert main(self.worker_argv(0, store, num_workers=1)) == 0
        assert "executing 0" in capsys.readouterr().out

    def test_excluded_self_is_an_error(self, tmp_path, capsys):
        argv = self.worker_argv(0, str(tmp_path / "w0"), exclude=[0])
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err

    def test_worker_id_off_the_ring_is_an_error(self, tmp_path, capsys):
        argv = self.worker_argv(5, str(tmp_path / "w5"), num_workers=2)
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err

    def test_merge_conflict_exits_nonzero(self, tmp_path, capsys):
        a = SweepStore(str(tmp_path / "a"))
        run_specs(SPECS[:1], parallel=False, store=a)
        b = str(tmp_path / "b")
        shutil.copytree(a.path, b)
        # Tamper the copy's record in place (canonical line format, so
        # only the *result* differs — a true determinism violation).
        shard_dir = os.path.join(b, "shards")
        name = next(n for n in os.listdir(shard_dir)
                    if os.path.getsize(os.path.join(shard_dir, n)))
        path = os.path.join(shard_dir, name)
        record = json.loads(open(path, "rb").read())
        record["result"]["metrics"]["time_slots"] += 1
        line = json.dumps(record, sort_keys=True,
                          separators=(",", ":")).encode() + b"\n"
        with open(path, "wb") as handle:
            handle.write(line)
        dest = str(tmp_path / "merged")
        assert main(["merge", "--into", dest, a.path]) == 0
        capsys.readouterr()
        assert main(["merge", "--into", dest, b]) == 2
        assert "merge conflict" in capsys.readouterr().err
