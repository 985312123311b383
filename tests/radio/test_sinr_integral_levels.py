"""SINR power levels may be any integral type, numpy integers included.

A level of ``np.int64(1)`` must behave exactly like ``1`` on every
tier: identical labels, ledgers and traces on the reference and fast
engines and on a one-member mega batch.  ``bool`` stays rejected.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.simple_bfs import decay_bfs, decay_bfs_mega
from repro.errors import SimulationError
from repro.radio import (
    Action,
    CollisionModel,
    EnergyLedger,
    EventTrace,
    MegaBatchedNetwork,
    ReplicaBatchedNetwork,
    make_network,
    message_of_ints,
    topology,
)
from repro.radio.sinr import SinrParams, transmit_level

LEVELS = (1, np.int64(1), np.int32(2), np.uint8(0))


def _graph():
    return topology.scenario("geometric", 30, seed=4)


def _serial(engine, level):
    trace = EventTrace()
    net = make_network(_graph(), engine=engine,
                       collision_model=CollisionModel.SINR, trace=trace)
    labels = decay_bfs(net, 0, 3, seed=11, tx_power=level)
    return labels, net.slot, net.ledger.snapshot(), list(trace)


def _mega(level):
    ledger = EnergyLedger()
    member = ReplicaBatchedNetwork(_graph(), 1, ledgers=[ledger],
                                   collision_model=CollisionModel.SINR)
    net = MegaBatchedNetwork([member])
    labels = decay_bfs_mega(net, {0: 0}, {0: 3}, seeds={(0, 0): 11},
                            tx_power=level)
    return labels[(0, 0)], member.lane(0).slot, ledger.snapshot()


@pytest.mark.parametrize("level", LEVELS[1:], ids=lambda v: type(v).__name__)
def test_numpy_level_matches_int_on_every_tier(level):
    as_int = int(level)
    reference = _serial("reference", level)
    assert reference == _serial("reference", as_int)
    assert _serial("fast", level) == reference
    assert _mega(level) == _mega(as_int) == reference[:3]


@pytest.mark.parametrize("level", LEVELS, ids=lambda v: type(v).__name__)
def test_transmit_level_returns_a_python_int(level):
    action = Action.transmit(message_of_ints(0, 0), power=level)
    resolved = transmit_level(None, action, SinrParams())
    assert type(resolved) is int and resolved == int(level)


@pytest.mark.parametrize("level", (True, np.bool_(True), 1.0, 3, np.int64(-1)),
                         ids=repr)
def test_non_integral_or_out_of_range_levels_are_rejected(level):
    class _Vertex:
        vertex = 0

    action = Action.transmit(message_of_ints(0, 0), power=level)
    with pytest.raises(SimulationError, match="transmit power level"):
        transmit_level(_Vertex(), action, SinrParams())
