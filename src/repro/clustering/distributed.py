"""Distributed MPX clustering over an LBGraph (paper Lemma 2.5).

The cluster graph is built with ``T = ceil(radius_multiplier*ln(n)/beta)``
Local-Broadcasts: in round ``i`` every not-yet-clustered vertex whose
start time is ``i`` becomes a center; then one Local-Broadcast runs
with ``S`` = all clustered vertices (message: cluster id and layer) and
``R`` = all unclustered vertices; receivers join the cluster they hear.

Costs, matching Lemma 2.5: every vertex participates in at most ``T``
Local-Broadcasts — ``O(log(n)/beta)`` LB units, i.e. ``O(log^3(n)/beta)``
slots after the Lemma 2.4 conversion.

Two variants:

- :func:`distributed_mpx` — the honest protocol, LB call by LB call;
- :func:`charged_mpx` — computes the identical structure centrally on
  the simulator's ground-truth topology and charges exactly the same
  cost envelope (used inside deep recursions where replaying the
  protocol adds wall-clock cost but no measurement fidelity).
"""

from __future__ import annotations

from typing import Dict, Hashable, Set

from ..errors import ConfigurationError
from ..primitives.lb_graph import LBGraph
from ..rng import SeedLike, make_rng
from .mpx import Clustering, mpx_clustering
from .shifts import ShiftParameters, Shifts


def distributed_mpx(
    lbg: LBGraph,
    beta: float,
    seed: SeedLike = None,
    radius_multiplier: float = 4.0,
) -> Clustering:
    """Run the Lemma 2.5 protocol with real Local-Broadcast calls."""
    rng = make_rng(seed)
    vertices = sorted(lbg.vertices(), key=repr)
    if not vertices:
        raise ConfigurationError("cannot cluster an empty LBGraph")
    n = max(2, lbg.n_global)
    params = ShiftParameters(beta=beta, n=n, radius_multiplier=radius_multiplier)
    shifts = Shifts.sample(vertices, params, seed=rng)

    center_of: Dict[Hashable, Hashable] = {}
    layer_of: Dict[Hashable, int] = {}
    members: Dict[Hashable, Set[Hashable]] = {}
    unclustered: Set[Hashable] = set(vertices)
    horizon = params.horizon
    centers_by_round = shifts.centers_by_round(unclustered)

    for round_index in range(1, horizon + 1):
        for v in centers_by_round.get(round_index, ()):
            if v not in unclustered:
                continue
            center_of[v] = v
            layer_of[v] = 0
            members[v] = {v}
            unclustered.discard(v)
        # The protocol runs all T rounds regardless of progress:
        # devices cannot detect global completion.
        senders = {v: (center_of[v], layer_of[v]) for v in center_of}
        receivers = list(unclustered)
        heard = lbg.local_broadcast(senders, receivers)
        for v, (cluster_id, layer) in heard.items():
            center_of[v] = cluster_id
            layer_of[v] = layer + 1
            members[cluster_id].add(v)
            unclustered.discard(v)

    if unclustered:
        # Possible only through injected LB failures in the very round a
        # vertex would have been absorbed AND a start-time clamp; treat
        # leftovers as singleton clusters (they would start their own
        # cluster immediately after the horizon).
        for v in sorted(unclustered, key=repr):
            center_of[v] = v
            layer_of[v] = 0
            members[v] = {v}
        unclustered = set()

    return Clustering(
        beta=beta,
        n_global=n,
        center_of=center_of,
        layer_of=layer_of,
        members=members,
        shifts=shifts,
        rounds_used=horizon,
    )


def charged_mpx(
    lbg: LBGraph,
    beta: float,
    seed: SeedLike = None,
    radius_multiplier: float = 4.0,
) -> Clustering:
    """Centrally computed clustering with the Lemma 2.5 cost envelope.

    Produces a clustering with the same distribution as
    :func:`distributed_mpx` (same sampling, same synchronous growth) and
    charges every vertex ``T`` LB participations: it listens until the
    round it joins a cluster and transmits from then on.
    """
    base = lbg.as_nx_graph()
    n = max(2, lbg.n_global)
    clustering = mpx_clustering(
        base, beta, seed=seed, n_global=n, radius_multiplier=radius_multiplier
    )
    params = ShiftParameters(beta=beta, n=n, radius_multiplier=radius_multiplier)
    horizon = params.horizon
    shifts = clustering.shifts
    for v in clustering.center_of:
        # Joined as center at start_time, or absorbed at some round;
        # reconstruct the join round from the layer: a layer-k member of
        # cluster c joined k rounds after c's start.
        cluster = clustering.center_of[v]
        join_round = min(
            horizon, shifts.start_time[cluster] + clustering.layer_of[v]
        )
        lbg.charge_virtual(
            v, receiver=join_round, sender=max(0, horizon - join_round)
        )
    lbg.advance_rounds(horizon)
    return clustering
