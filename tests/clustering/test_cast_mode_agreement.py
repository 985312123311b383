"""The cast engine vs the literal step loop: same deliveries, same time
accounting.

:class:`repro.clustering.CastEngine` does not execute the Lemma 3.1
step loop (its module docstring says why); these tests pin down the
agreement contract it must keep with that loop, the oracle in
``cast_oracle.py``.
"""

import pytest

from cast_oracle import down_cast_faithful, up_cast_faithful
from repro.clustering import (
    CastEngine,
    SlotAssignment,
    mpx_clustering,
)
from repro.primitives import PhysicalLBGraph
from repro.radio import topology


def _fixture(seed):
    g = topology.grid_graph(9, 9)
    clustering = mpx_clustering(g, 1 / 2, seed=seed, radius_multiplier=1.0)
    slots = SlotAssignment.sample(
        clustering.clusters(), 1 / 2, g.number_of_nodes(), seed=seed + 1
    )
    return g, clustering, slots


class TestDownCastAgreement:
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_same_deliveries_when_property2_holds(self, seed):
        g, clustering, slots = _fixture(seed)
        payloads = {c: f"m{c}" for c in clustering.clusters()}

        fast = CastEngine(
            PhysicalLBGraph(g, seed=0), clustering, slots
        ).down_cast(payloads)
        faithful = down_cast_faithful(
            CastEngine(PhysicalLBGraph(g, seed=0), clustering, slots), payloads
        )

        # The engine delivers to everyone, the step loop w.h.p. — every
        # step-loop delivery must agree with the engine's, and coverage
        # must be near-total.
        for v, payload in faithful.items():
            assert fast[v] == payload
        assert len(faithful) >= 0.95 * len(fast)

    def test_same_round_accounting(self):
        g, clustering, slots = _fixture(5)
        payloads = {c: "m" for c in clustering.clusters()}
        depth = max(clustering.cluster_radius(c) for c in clustering.clusters())

        lbg_fast = PhysicalLBGraph(g, seed=0)
        CastEngine(lbg_fast, clustering, slots).down_cast(payloads)
        lbg_faith = PhysicalLBGraph(g, seed=0)
        down_cast_faithful(CastEngine(lbg_faith, clustering, slots), payloads)

        assert lbg_fast.ledger.lb_rounds == slots.ell * depth
        assert lbg_faith.ledger.lb_rounds == slots.ell * depth


class TestUpCastAgreement:
    @pytest.mark.parametrize("seed", [1, 7])
    def test_same_cluster_results(self, seed):
        g, clustering, slots = _fixture(seed)
        messages = {}
        for c, members in clustering.members.items():
            deepest = max(members, key=lambda v: (clustering.layer_of[v], repr(v)))
            messages[deepest] = f"payload-{c}"

        fast = CastEngine(
            PhysicalLBGraph(g, seed=0), clustering, slots
        ).up_cast(messages, clustering.clusters())
        faithful = up_cast_faithful(
            CastEngine(PhysicalLBGraph(g, seed=0), clustering, slots),
            messages,
            clustering.clusters(),
        )

        # Since each cluster holds exactly one message, any delivery is
        # that message; the engine reaches every cluster, the step loop
        # w.h.p.
        for c, payload in faithful.items():
            assert fast[c] == payload
        assert len(faithful) >= 0.9 * len(fast)

    def test_fast_energy_never_below_faithful_senders(self):
        """The engine charges worst-case listening; it must dominate the
        step loop's per-device receiver charges on the same instance."""
        g, clustering, slots = _fixture(2)
        messages = {}
        for c, members in clustering.members.items():
            deepest = max(members, key=lambda v: (clustering.layer_of[v], repr(v)))
            messages[deepest] = "m"

        lbg_fast = PhysicalLBGraph(g, seed=0)
        CastEngine(lbg_fast, clustering, slots).up_cast(
            messages, clustering.clusters()
        )
        lbg_faith = PhysicalLBGraph(g, seed=0)
        up_cast_faithful(
            CastEngine(lbg_faith, clustering, slots),
            messages,
            clustering.clusters(),
        )

        for v in g.nodes:
            fast_rx = lbg_fast.ledger.device(v).lb_receiver
            faith_rx = lbg_faith.ledger.device(v).lb_receiver
            assert fast_rx >= faith_rx - 1  # faithful stops early on receipt
