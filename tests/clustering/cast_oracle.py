"""The literal Lemma 3.1 step loops, kept as oracles for the casts.

:class:`repro.clustering.CastEngine` propagates a cast along the
intra-cluster layers directly and charges its cost envelope.  The
functions below run the protocol as the paper states it: ``D`` stages
of ``ell`` steps, each step one ``local_broadcast`` on the engine's
``LBGraph`` among the clusters whose slot subset holds the step, so
neighbouring clusters really do interfere outside their private steps.
A step in which nobody wakes costs one LB round and no energy.

Delivery is w.h.p. here and certain in the engine, so tests compare the
two for agreement (every delivery the loop makes, the engine makes too)
and for the same ``ell * D`` round accounting.

Test modules import it by name (``from cast_oracle import ...``); pytest
puts this directory on ``sys.path`` because it has no ``__init__.py``.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterable, List, Mapping

from repro.clustering import CastEngine


def down_cast_faithful(
    engine: CastEngine, payloads: Mapping[Hashable, Any]
) -> Dict[Hashable, Any]:
    """Down-cast ``payloads`` (cluster -> message) step by step."""
    clustering = engine.clustering
    slots = engine.slots
    depths = engine._cluster_depths(payloads)
    global_depth = max(depths.values(), default=0)
    layer_members = engine._layer_members(payloads)
    have: Dict[Hashable, Any] = {c: payloads[c] for c in payloads}
    for stage in range(1, global_depth + 1):
        for j in range(slots.ell):
            senders: Dict[Hashable, Any] = {}
            receivers: List[Hashable] = []
            for c in payloads:
                if j not in slots.subset(c):
                    continue
                for v in layer_members.get((c, stage - 1), ()):
                    if v in have:
                        senders[v] = (c, have[v])
                for v in layer_members.get((c, stage), ()):
                    if v not in have:
                        receivers.append(v)
            if not senders and not receivers:
                engine.lbg.ledger.advance_lb_rounds(1)
                continue
            heard = engine.lbg.local_broadcast(senders, receivers)
            for v, (cluster_id, payload) in heard.items():
                if cluster_id == clustering.center_of[v]:
                    have[v] = payload
    return have


def up_cast_faithful(
    engine: CastEngine,
    messages: Mapping[Hashable, Any],
    participating: Iterable[Hashable],
) -> Dict[Hashable, Any]:
    """Up-cast one member message per participating cluster, step by step."""
    clustering = engine.clustering
    slots = engine.slots
    clusters = set(participating)
    depths = engine._cluster_depths(clusters)
    global_depth = max(depths.values(), default=0)
    layer_members = engine._layer_members(clusters)
    carrying: Dict[Hashable, Any] = {
        v: m for v, m in messages.items() if clustering.center_of[v] in clusters
    }
    for stage in range(global_depth, 0, -1):
        for j in range(slots.ell):
            senders: Dict[Hashable, Any] = {}
            receivers: List[Hashable] = []
            for c in clusters:
                if stage > depths[c] or j not in slots.subset(c):
                    continue
                for v in layer_members.get((c, stage), ()):
                    if v in carrying:
                        senders[v] = (c, carrying[v])
                for v in layer_members.get((c, stage - 1), ()):
                    if v not in carrying:
                        receivers.append(v)
            if not senders and not receivers:
                engine.lbg.ledger.advance_lb_rounds(1)
                continue
            heard = engine.lbg.local_broadcast(senders, receivers)
            for v, (cluster_id, payload) in heard.items():
                if cluster_id == clustering.center_of[v]:
                    carrying[v] = payload
    return {c: carrying[c] for c in clusters if c in carrying}
