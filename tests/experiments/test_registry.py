"""Tests for the algorithm table and the built-in adapters."""

import networkx as nx
import pytest

from repro.errors import ConfigurationError
from repro.experiments import (
    ExperimentSpec,
    algorithm_names,
    decode_labels,
    get_algorithm,
    run_experiment,
)
from repro.experiments.__main__ import main

#: The table lines of ``python -m repro.experiments list``, stars
#: included: ``*`` marks a seed-deterministic topology and an algorithm
#: whose lanes fuse in batched runs.
LIST_TABLE_LINES = [
    "topologies:       barbell*, binary_tree*, caterpillar*, complete*, "
    "cycle*, dense_geometric, erdos_renyi, expander, geometric, grid*, "
    "hypercube*, lollipop*, path*, poisson_cluster*, power_law, "
    "small_world, star*, star_of_paths*, tree, wheel*",
    "                  (* = seed-deterministic)",
    "algorithms:       decay_bfs*, exact_diameter, leader_election, "
    "mpx_clustering, recursive_bfs, three_halves_diameter, trivial_bfs, "
    "two_approx_diameter",
    "                  (* = lanes fuse in batched runs)",
]


class TestRegistry:
    def test_builtins_registered(self):
        names = set(algorithm_names())
        assert {
            "trivial_bfs", "decay_bfs", "recursive_bfs", "leader_election",
            "two_approx_diameter", "three_halves_diameter", "exact_diameter",
            "mpx_clustering",
        } <= names

    def test_unknown_lookup(self):
        with pytest.raises(ConfigurationError, match="unknown algorithm"):
            get_algorithm("no-such-algorithm")

    def test_list_prints_the_tables(self, capsys):
        assert main(["list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:4] == LIST_TABLE_LINES


def run(topology="grid", n=20, algorithm="trivial_bfs", params=None, seed=4,
        **kw):
    return run_experiment(ExperimentSpec(
        topology=topology, n=n, algorithm=algorithm,
        algorithm_params=params, seed=seed, **kw))


class TestBFSAdapters:
    def test_trivial_bfs_labels_match_networkx(self):
        r = run(algorithm="trivial_bfs")
        truth = nx.single_source_shortest_path_length(r.spec.build_graph(), 0)
        labels = decode_labels(r.output["labels"])
        assert all(labels[v] == truth[v] for v in truth)
        assert r.output["settled"] == r.n
        assert r.max_lb_energy > 0 and r.lb_rounds > 0

    def test_decay_bfs_runs_slot_level(self):
        r = run(algorithm="decay_bfs", params={"depth_budget": 10})
        truth = nx.single_source_shortest_path_length(r.spec.build_graph(), 0)
        labels = decode_labels(r.output["labels"])
        assert all(labels[v] == truth[v] for v in truth)
        assert r.time_slots > 0 and r.max_slot_energy > 0
        assert r.output["slots"] == r.time_slots

    def test_decay_bfs_record_labels_digest(self):
        full = run(algorithm="decay_bfs", params={"depth_budget": 10})
        slim = run(algorithm="decay_bfs",
                   params={"depth_budget": 10, "record_labels": False})
        assert "labels" not in slim.output
        assert len(slim.output["labels_sha256"]) == 64
        assert slim.output["settled"] == full.output["settled"]

    def test_recursive_bfs_stats(self):
        r = run(algorithm="recursive_bfs",
                params={"beta": 0.25, "max_depth": 1, "depth_budget": 12})
        assert r.output["settled"] == r.n
        assert r.output["stage_count"] >= 1
        assert r.output["max_awake_stages"] <= r.output["stage_count"]

    def test_multi_source(self):
        r = run(algorithm="trivial_bfs", params={"sources": [0, 19]})
        labels = decode_labels(r.output["labels"])
        assert labels[0] == 0.0 and labels[19] == 0.0


class TestOtherAdapters:
    def test_leader_election_charged(self):
        r = run(algorithm="leader_election")
        assert r.output["method"] == "charged"
        assert r.output["leader"] in r.spec.build_graph()
        assert r.max_lb_energy > 0

    def test_leader_election_flooding(self):
        r = run(algorithm="leader_election",
                params={"method": "flooding", "rounds": 30})
        assert r.output["rounds"] == 30

    def test_leader_election_bad_method(self):
        with pytest.raises(ConfigurationError):
            run(algorithm="leader_election", params={"method": "bogus"})

    @pytest.mark.parametrize("algorithm", [
        "two_approx_diameter", "three_halves_diameter", "exact_diameter",
    ])
    def test_diameter_windows(self, algorithm):
        r = run(algorithm=algorithm,
                params={"beta": 0.25, "max_depth": 1})
        true_d = nx.diameter(r.spec.build_graph())
        assert r.output["lower"] <= true_d <= r.output["upper"]
        if algorithm == "two_approx_diameter":
            assert true_d / 2 <= r.output["estimate"] <= true_d
        elif algorithm == "three_halves_diameter":
            assert (2 * true_d) // 3 <= r.output["estimate"] <= true_d
        else:
            assert r.output["estimate"] == true_d

    def test_mpx_clustering(self):
        r = run(algorithm="mpx_clustering", params={"beta": 0.25})
        assert 1 <= r.output["clusters"] <= r.n
        assert r.output["max_cluster_size"] >= 1
        assert r.max_lb_energy > 0  # charged envelope lands on the ledger
