"""Tests for Up-cast / Down-cast (Lemma 3.1): the engine and the step-loop oracle."""

import math

import networkx as nx
import pytest

from cast_oracle import down_cast_faithful, up_cast_faithful
from repro.clustering import (
    CastEngine,
    SlotAssignment,
    mpx_clustering,
)
from repro.errors import ConfigurationError
from repro.primitives import PhysicalLBGraph
from repro.radio import topology


def _setup(graph, beta=1 / 4, seed=0):
    lbg = PhysicalLBGraph(graph, seed=seed)
    clustering = mpx_clustering(graph, beta, seed=seed, radius_multiplier=2.0)
    slots = SlotAssignment.sample(
        clustering.clusters(), beta, graph.number_of_nodes(), seed=seed + 1
    )
    engine = CastEngine(lbg, clustering, slots)
    return lbg, clustering, slots, engine


class TestDownCastFast:
    def test_all_members_receive(self, grid8):
        lbg, clustering, slots, engine = _setup(grid8)
        payloads = {c: f"msg-{c}" for c in clustering.clusters()}
        delivered = engine.down_cast(payloads)
        for c, members in clustering.members.items():
            for v in members:
                assert delivered[v] == f"msg-{c}"

    def test_partial_participation(self, grid8):
        lbg, clustering, slots, engine = _setup(grid8)
        some = sorted(clustering.clusters(), key=repr)[:2]
        delivered = engine.down_cast({c: "m" for c in some})
        covered = set().union(*(clustering.members[c] for c in some))
        assert set(delivered) == covered

    def test_energy_logarithmic(self, grid8):
        """Each member pays O(|S_C|) = O(log n) participations."""
        lbg, clustering, slots, engine = _setup(grid8)
        engine.down_cast({c: "m" for c in clustering.clusters()})
        max_size = max(len(slots.subset(c)) for c in clustering.clusters())
        assert lbg.ledger.max_lb() <= 2 * max_size

    def test_time_is_ell_times_depth(self, grid8):
        lbg, clustering, slots, engine = _setup(grid8)
        engine.down_cast({c: "m" for c in clustering.clusters()})
        depth = max(clustering.cluster_radius(c) for c in clustering.clusters())
        assert lbg.ledger.lb_rounds == slots.ell * depth

    def test_unknown_cluster_rejected(self, grid8):
        lbg, clustering, slots, engine = _setup(grid8)
        with pytest.raises(ConfigurationError):
            engine.down_cast({"nope": "m"})

    def test_empty_is_noop(self, grid8):
        lbg, clustering, slots, engine = _setup(grid8)
        assert engine.down_cast({}) == {}
        assert lbg.ledger.lb_rounds == 0


class TestUpCastFast:
    def test_center_receives_member_message(self, grid8):
        lbg, clustering, slots, engine = _setup(grid8)
        # Every cluster's deepest member holds a message.
        messages = {}
        for c, members in clustering.members.items():
            deepest = max(members, key=lambda v: (clustering.layer_of[v], repr(v)))
            messages[deepest] = f"from-{deepest}"
        results = engine.up_cast(messages, clustering.clusters())
        assert set(results) == clustering.clusters()

    def test_empty_cluster_receives_nothing(self, grid8):
        lbg, clustering, slots, engine = _setup(grid8)
        clusters = sorted(clustering.clusters(), key=repr)
        target = clusters[0]
        holder_cluster = clusters[-1]
        holder = next(iter(clustering.members[holder_cluster]))
        results = engine.up_cast({holder: "m"}, clustering.clusters())
        if target != holder_cluster:
            assert target not in results
        assert results.get(holder_cluster) == "m"

    def test_message_from_own_cluster_only(self, grid8):
        lbg, clustering, slots, engine = _setup(grid8)
        results = engine.up_cast({}, clustering.clusters())
        assert results == {}

    def test_center_own_message(self, grid8):
        lbg, clustering, slots, engine = _setup(grid8)
        c = sorted(clustering.clusters(), key=repr)[0]
        results = engine.up_cast({c: "self"}, [c])
        assert results[c] == "self"


class TestFaithfulMode:
    """The literal step loop delivers what the engine delivers, w.h.p."""

    def test_down_cast_delivers(self):
        g = topology.grid_graph(6, 6)
        lbg, clustering, slots, engine = _setup(g)
        payloads = {c: f"m{c}" for c in clustering.clusters()}
        delivered = down_cast_faithful(engine, payloads)
        # Property (2) holds w.h.p.; allow isolated misses but expect
        # near-total coverage.
        coverage = len(delivered) / g.number_of_nodes()
        assert coverage >= 0.95
        for v, payload in delivered.items():
            assert payload == f"m{clustering.center_of[v]}"

    def test_up_cast_delivers(self):
        g = topology.grid_graph(6, 6)
        lbg, clustering, slots, engine = _setup(g)
        messages = {}
        for c, members in clustering.members.items():
            deepest = max(members, key=lambda v: (clustering.layer_of[v], repr(v)))
            messages[deepest] = f"from-{deepest}"
        results = up_cast_faithful(engine, messages, clustering.clusters())
        assert len(results) >= 0.9 * len(clustering.clusters())

    def test_faithful_energy_still_logarithmic(self):
        """Even executing every step, per-vertex energy is O(|S_C| + depth)."""
        g = topology.grid_graph(6, 6)
        lbg, clustering, slots, engine = _setup(g)
        down_cast_faithful(engine, {c: "m" for c in clustering.clusters()})
        # Receivers listen only during their own slots in their stage.
        max_size = max(len(slots.subset(c)) for c in clustering.clusters())
        assert lbg.ledger.max_lb() <= 4 * max_size
