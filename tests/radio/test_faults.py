"""Unit tests for the fault-injection layer (`repro.radio.faults`).

Covers layer validation, FaultModel JSON round-trips, preset coercion,
and the runtime semantics each engine relies on: in-order plan
consumption, churn bookkeeping, jammer targeting, and the energy/
delivery contract of each fault kind.
"""

from __future__ import annotations

import json
import pickle

import networkx as nx
import numpy as np
import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.radio import (
    Action,
    ChurnSchedule,
    CollisionModel,
    Device,
    EventTrace,
    FaultModel,
    FaultRuntime,
    Feedback,
    GilbertElliott,
    IIDDrop,
    Jammer,
    coerce_fault_model,
    make_network,
    message_of_ints,
    named_fault_models,
    topology,
)


class TestLayerValidation:
    def test_iid_drop_probability_range(self):
        IIDDrop(0.0)
        IIDDrop(1.0)
        for bad in (-0.1, 1.5, float("nan"), "0.5", None, True):
            with pytest.raises(ConfigurationError):
                IIDDrop(bad)

    def test_gilbert_elliott_probability_range(self):
        GilbertElliott(p_good=0.0, p_bad=1.0, p_good_to_bad=0.5, p_bad_to_good=0.5)
        with pytest.raises(ConfigurationError):
            GilbertElliott(p_bad=1.2)
        with pytest.raises(ConfigurationError):
            GilbertElliott(p_good_to_bad=-1)

    def test_jammer_knobs(self):
        Jammer(k=1, period=4, active=0)
        with pytest.raises(ConfigurationError):
            Jammer(k=0)
        with pytest.raises(ConfigurationError):
            Jammer(period=0)
        with pytest.raises(ConfigurationError):
            Jammer(period=2, active=3)

    def test_churn_events(self):
        sched = ChurnSchedule(events=((5, "crash", 1), (2, "revive", 0)))
        # Canonicalized into slot order.
        assert sched.events == ((2, "revive", 0), (5, "crash", 1))
        with pytest.raises(ConfigurationError):
            ChurnSchedule(events=((1, "explode", 0),))
        with pytest.raises(ConfigurationError):
            ChurnSchedule(events=((-1, "crash", 0),))
        with pytest.raises(ConfigurationError):
            ChurnSchedule(events=((1, "crash"),))

    def test_model_rejects_non_layers(self):
        with pytest.raises(ConfigurationError):
            FaultModel(layers=("drop",))
        with pytest.raises(ConfigurationError):
            FaultModel(layers="drop10")


class TestSerialization:
    @pytest.mark.parametrize("name,model", sorted(named_fault_models().items()))
    def test_round_trip(self, name, model):
        doc = model.to_dict()
        text = json.dumps(doc, sort_keys=True)
        rebuilt = FaultModel.from_dict(json.loads(text))
        assert rebuilt == model
        assert json.dumps(rebuilt.to_dict(), sort_keys=True) == text

    def test_hashable_and_picklable(self):
        for model in named_fault_models().values():
            assert hash(model) == hash(FaultModel.from_dict(model.to_dict()))
            assert pickle.loads(pickle.dumps(model)) == model

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigurationError):
            FaultModel.from_dict({"layers": [], "extra": 1})
        with pytest.raises(ConfigurationError):
            FaultModel.from_dict({"layers": [{"kind": "iid_drop", "p": 0.1, "q": 2}]})

    def test_layers_accept_mapping_form(self):
        model = FaultModel(layers=({"kind": "iid_drop", "p": 0.25},))
        assert model.layers == (IIDDrop(0.25),)


class TestCoercion:
    def test_none_and_empty_normalize(self):
        assert coerce_fault_model(None) is None
        assert coerce_fault_model(FaultModel()) is None
        assert coerce_fault_model("none") is None
        assert coerce_fault_model({"layers": []}) is None

    def test_preset_names(self):
        assert coerce_fault_model("drop10") == FaultModel((IIDDrop(0.1),))
        with pytest.raises(ConfigurationError):
            coerce_fault_model("warp_field")

    def test_bad_types(self):
        with pytest.raises(ConfigurationError):
            coerce_fault_model(0.5)


class TestRuntime:
    def test_plans_must_be_consumed_in_order(self):
        g = topology.path_graph(5)
        rt = FaultRuntime(FaultModel((IIDDrop(0.5),)), g, list(g.nodes), seed=0)
        rt.plan(0)
        rt.plan(1)
        with pytest.raises(SimulationError):
            rt.plan(1)
        with pytest.raises(SimulationError):
            rt.plan(5)

    def test_churn_lifecycle_and_crash_count(self):
        g = topology.path_graph(4)
        sched = ChurnSchedule(events=(
            (1, "crash", 2),
            (3, "revive", 2), (4, "crash", 99),  # out-of-range index ignored
        ))
        rt = FaultRuntime(FaultModel((sched,)), g, list(g.nodes), seed=0)
        assert rt.plan(0).labels().dead == frozenset()
        assert rt.plan(1).labels().dead == frozenset({2})
        assert rt.plan(2).labels().dead == frozenset({2})
        assert rt.plan(3).labels().dead == frozenset()
        assert rt.plan(4).labels().dead == frozenset()
        assert rt.counters.crashed == 1

    def test_churn_duplicate_events_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate churn event"):
            ChurnSchedule(events=((1, "crash", 2), (1, "crash", 2)))

    def test_churn_same_slot_canonical_order(self):
        # Same-slot events canonicalize to revive-before-crash, then by
        # index — declaration order no longer matters, and equal
        # schedules compare (and hash) equal.
        a = ChurnSchedule(events=((5, "crash", 1), (5, "revive", 1), (2, "crash", 3)))
        b = ChurnSchedule(events=((2, "crash", 3), (5, "revive", 1), (5, "crash", 1)))
        assert a == b
        assert a.events == ((2, "crash", 3), (5, "revive", 1), (5, "crash", 1))
        # A same-slot revive+crash therefore nets to dead: the crash
        # always applies after the revive, whatever the spelling.
        g = topology.path_graph(4)
        rt = FaultRuntime(FaultModel((a,)), g, list(g.nodes), seed=0)
        for slot in range(5):
            rt.plan(slot)
        assert rt.plan(5).labels().dead == frozenset({1, 3})

    def test_jammer_targets_highest_degree_closed_neighborhood(self):
        g = topology.star_graph(5)  # hub 0, leaves 1..5
        rt = FaultRuntime(FaultModel((Jammer(k=1, period=2, active=1),)),
                          g, list(g.nodes), seed=0)
        assert rt.plan(0).labels().jammed == frozenset(g.nodes)  # hub + all leaves
        assert rt.plan(1).labels().jammed == frozenset()          # duty cycle off

    def test_iid_drop_extremes(self):
        g = topology.path_graph(6)
        always = FaultRuntime(FaultModel((IIDDrop(1.0),)), g, list(g.nodes), seed=1)
        never = FaultRuntime(FaultModel((IIDDrop(0.0),)), g, list(g.nodes), seed=1)
        assert always.plan(0).labels().dropped == frozenset(g.nodes)
        assert never.plan(0).labels().dropped == frozenset()

    def test_draw_masks_match_labels_and_stay_put(self):
        """A draw hands out index masks (the drop layer's own ``hit``);
        its labels name the same vertices, and a later crash does not
        rewrite a dead mask already handed out."""
        g = nx.relabel_nodes(topology.star_graph(5), lambda v: f"v{v}")
        model = FaultModel((
            IIDDrop(0.5), Jammer(k=1, period=2, active=1),
            ChurnSchedule(events=((0, "crash", 3), (1, "crash", 4))),
        ))
        rt = FaultRuntime(model, g, list(g.nodes), seed=2)
        vertices = list(g.nodes)
        first = rt.plan(0)
        dead = first.dead.copy()
        second = rt.plan(1)
        np.testing.assert_array_equal(first.dead, dead)
        assert second.jammed is None
        for draw in (first, second):
            labels = draw.labels()
            for mask, named in ((draw.dead, labels.dead),
                                (draw.hit, labels.dropped),
                                (draw.jammed, labels.jammed)):
                assert mask is None or mask.dtype == bool
                assert named == frozenset(
                    () if mask is None
                    else (vertices[i] for i in np.flatnonzero(mask)))
        assert second.labels().dead == {"v3", "v4"}
        assert first.labels().jammed == frozenset(vertices)


class _Beacon(Device):
    """Vertex 0 transmits every slot; everyone else listens."""

    HORIZON = 12

    def __init__(self, vertex, rng):
        super().__init__(vertex, rng)
        self.heard = []

    def step(self, slot):
        if slot >= self.HORIZON:
            self.halted = True
            return Action.idle()
        if self.vertex == 0:
            return Action.transmit(message_of_ints(0, slot, kind="beacon"))
        return Action.listen()

    def receive(self, slot, reception):
        self.heard.append((slot, reception.feedback))


class TestEngineSemantics:
    """The per-fault energy/delivery contract, on both engines."""

    @pytest.mark.parametrize("engine", ("reference", "fast"))
    def test_dropped_transmitter_pays_energy(self, engine):
        g = topology.path_graph(2)
        trace = EventTrace()
        net = make_network(g, engine=engine, trace=trace,
                           faults=FaultModel((IIDDrop(1.0),)), fault_seed=0)
        devices = net.spawn_devices(_Beacon, seed=3)
        net.run(devices, max_slots=_Beacon.HORIZON)
        # Transmitter charged every slot, but nothing ever delivered.
        assert net.ledger.device(0).transmit_slots == _Beacon.HORIZON
        assert net.fault_counters.dropped == _Beacon.HORIZON
        assert net.fault_counters.delivered == 0
        assert devices[1].heard == [
            (slot, Feedback.NOTHING) for slot in range(_Beacon.HORIZON)
        ]
        # A dropped transmission is still traced; nothing is received.
        assert [e.slot for e in trace.of_kind("transmit")] == list(
            range(_Beacon.HORIZON)
        )
        assert trace.of_kind("receive") == []

    @pytest.mark.parametrize("engine", ("reference", "fast"))
    def test_dead_device_is_skipped_and_free(self, engine):
        g = topology.path_graph(3)
        sched = ChurnSchedule(events=((0, "crash", 1),))
        net = make_network(g, engine=engine,
                           faults=FaultModel((sched,)), fault_seed=0)
        devices = net.spawn_devices(_Beacon, seed=3)
        executed = net.run(devices, max_slots=_Beacon.HORIZON)
        # The dead middle vertex never listens, never gets charged, and
        # (being dead, not halted) keeps the run alive to max_slots.
        assert executed == _Beacon.HORIZON
        assert devices[1].heard == []
        assert 1 not in net.ledger.devices()
        assert net.fault_counters.crashed == 1
        # Vertex 2 still listened (its only neighbor is dead => silence).
        assert net.ledger.device(2).listen_slots == _Beacon.HORIZON
        assert devices[2].heard == [
            (slot, Feedback.NOTHING) for slot in range(_Beacon.HORIZON)
        ]
        assert net.fault_counters.delivered == 0

    @pytest.mark.parametrize("engine", ("reference", "fast"))
    @pytest.mark.parametrize("model,expected", [
        (CollisionModel.NO_CD, Feedback.NOTHING),
        (CollisionModel.RECEIVER_CD, Feedback.NOISE),
    ])
    def test_jammed_listener_perceives_collision(self, engine, model, expected):
        g = topology.star_graph(3)
        net = make_network(g, engine=engine, collision_model=model,
                           faults=FaultModel((Jammer(k=1),)), fault_seed=0)
        devices = net.spawn_devices(_Beacon, seed=3)
        net.run(devices, max_slots=_Beacon.HORIZON)
        assert net.fault_counters.delivered == 0
        # The hub's closed neighborhood is jammed in every slot.
        assert net.fault_counters.jammed == 3 * _Beacon.HORIZON
        for leaf in (1, 2, 3):
            assert devices[leaf].heard == [
                (slot, expected) for slot in range(_Beacon.HORIZON)
            ]
            # Jammed listeners still pay for listening.
            assert net.ledger.device(leaf).listen_slots == _Beacon.HORIZON

    @pytest.mark.parametrize("engine", ("reference", "fast"))
    def test_clean_run_counts_deliveries(self, engine):
        g = topology.path_graph(2)
        trace = EventTrace()
        net = make_network(g, engine=engine, trace=trace)
        devices = net.spawn_devices(_Beacon, seed=3)
        net.run(devices, max_slots=_Beacon.HORIZON)
        assert net.fault_counters.as_dict() == {
            "crashed": 0, "delivered": _Beacon.HORIZON,
            "dropped": 0, "jammed": 0,
        }
        assert len(trace.of_kind("receive")) == _Beacon.HORIZON
