"""``DecayLBGraph``: the LBGraph interface executed at slot level.

Every ``local_broadcast`` call runs the real Decay protocol of
Lemma 2.4 on a :class:`~repro.radio.network.RadioNetwork` — no
accounting shortcuts.  This closes the loop between the library's two
tiers: any algorithm written against :class:`LBGraph` (trivial BFS,
distributed clustering, casts, the full Recursive-BFS) can be executed
with true slot-level channel semantics, collisions and all, and its
*measured slot energy* compared against the LB-unit accounting of
:class:`~repro.primitives.lb_graph.PhysicalLBGraph` via
:class:`~repro.primitives.local_broadcast.LBCostModel`.

Intended for small instances: each LB call costs
``O(log Delta log 1/f)`` simulated slots across the whole network.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterable, Mapping, Optional, Set, Union

import networkx as nx

from ..errors import ConfigurationError
from ..radio.energy import EnergyLedger
from ..radio.engine import coerce_network
from ..radio.message import Message, id_bits
from ..radio.network import SlotEngineBase
from ..rng import SeedLike, make_rng
from .decay import run_decay_local_broadcast
from .lb_graph import LBGraph


class DecayLBGraph(LBGraph):
    """LBGraph whose rounds are genuine Decay executions.

    Parameters
    ----------
    network:
        The slot-level radio network to run on — any
        :class:`~repro.radio.network.SlotEngineBase`, or a bare ``networkx``
        graph together with an ``engine`` name.  Its ledger accumulates
        true slot energy; this wrapper additionally tracks LB-unit
        participations on the same ledger so both currencies are
        available for one run.
    failure_probability:
        The per-call Decay target ``f`` (Lemma 2.4).
    payload_bits:
        Callable estimating the encoded size of a payload; defaults to
        a conservative ``4 * ceil(log2 n)`` per message, the RN[O(log n)]
        envelope all this library's payloads fit in.
    engine:
        Backend name (``"reference"``/``"fast"``) used when ``network``
        is a bare graph; rejected otherwise.
    """

    def __init__(
        self,
        network: Union[nx.Graph, SlotEngineBase],
        failure_probability: float = 1e-3,
        seed: SeedLike = None,
        payload_bits=None,
        engine: Optional[str] = None,
    ) -> None:
        network = coerce_network(network, engine)
        self.network = network
        self.failure_probability = failure_probability
        self.rng = make_rng(seed)
        n = network.graph.number_of_nodes()
        default_bits = 4 * id_bits(max(2, n))
        self._payload_bits = payload_bits or (lambda payload: default_bits)
        self._vertices: Set[Hashable] = set(network.graph.nodes)

    # ------------------------------------------------------------------
    @property
    def ledger(self) -> EnergyLedger:
        return self.network.ledger

    @property
    def n_global(self) -> int:
        return self.network.graph.number_of_nodes()

    def vertices(self) -> Set[Hashable]:
        return self._vertices

    def degree_bound(self) -> int:
        return self.network.max_degree

    def as_nx_graph(self) -> nx.Graph:
        return self.network.graph

    def charge_virtual(self, vertex: Hashable, sender: int = 0, receiver: int = 0) -> None:
        self.network.ledger.charge_participation(vertex, sender=sender, receiver=receiver)

    def advance_rounds(self, rounds: int) -> None:
        self.network.ledger.advance_lb_rounds(rounds)

    # ------------------------------------------------------------------
    def local_broadcast(
        self,
        messages: Mapping[Hashable, Any],
        receivers: Iterable[Hashable],
    ) -> Dict[Hashable, Any]:
        receiver_list = list(receivers)
        sender_set = set(messages)
        unknown = (sender_set | set(receiver_list)) - self._vertices
        if unknown:
            raise ConfigurationError(
                f"participants not in network: {sorted(map(repr, unknown))[:5]}"
            )
        overlap = sender_set & set(receiver_list)
        if overlap:
            raise ConfigurationError(
                f"senders and receivers must be disjoint (overlap {len(overlap)})"
            )

        # LB-unit bookkeeping rides along with the slot charges so that
        # cross-tier comparisons use one ledger.
        self.network.ledger.charge_lb(sender_set, receiver_list)

        wire = {
            v: Message(sender=v, payload=payload, bits=self._payload_bits(payload))
            for v, payload in messages.items()
        }
        heard = run_decay_local_broadcast(
            self.network,
            wire,
            receiver_list,
            failure_probability=self.failure_probability,
            seed=self.rng,
        )
        return {v: msg.payload for v, msg in heard.items()}
