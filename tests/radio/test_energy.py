"""Tests for the EnergyLedger: the paper's cost measure."""

import pytest

from repro.primitives import LBCostModel
from repro.radio import EnergyLedger


class TestSlotCharging:
    def test_transmit_and_listen(self):
        ledger = EnergyLedger()
        ledger.charge_transmit("a")
        ledger.charge_listen("a", 2)
        assert ledger.device("a").slots == 3
        assert ledger.device("a").transmit_slots == 1
        assert ledger.device("a").listen_slots == 2

    def test_sleep_is_free(self):
        ledger = EnergyLedger()
        ledger.advance_time(100)
        assert ledger.time_slots == 100
        assert ledger.max_slots() == 0

    def test_max_is_over_devices(self):
        ledger = EnergyLedger()
        ledger.charge_listen("a", 5)
        ledger.charge_listen("b", 9)
        assert ledger.max_slots() == 9
        assert ledger.total_slots() == 14


class TestLBCharging:
    def test_charge_lb_counts_participants(self):
        ledger = EnergyLedger()
        ledger.charge_lb(["s1", "s2"], ["r1"])
        assert ledger.device("s1").lb_sender == 1
        assert ledger.device("r1").lb_receiver == 1
        assert ledger.lb_rounds == 1
        assert ledger.max_lb() == 1

    def test_charge_participation_direct(self):
        ledger = EnergyLedger()
        ledger.charge_participation("v", sender=3, receiver=4)
        assert ledger.device("v").lb_participations == 7
        assert ledger.lb_rounds == 0  # direct charges do not advance time

    def test_advance_lb_rounds_no_energy(self):
        ledger = EnergyLedger()
        ledger.advance_lb_rounds(10)
        assert ledger.lb_rounds == 10
        assert ledger.total_lb() == 0

    def test_mean_lb(self):
        ledger = EnergyLedger()
        ledger.charge_lb(["a"], ["b", "c"])
        assert ledger.mean_lb() == pytest.approx(1.0)

    def test_lb_rounds_accumulate_across_calls(self):
        ledger = EnergyLedger()
        ledger.charge_lb([], ["a"])
        ledger.advance_lb_rounds(3)
        ledger.charge_lb(["a"], ["b"])
        assert ledger.lb_rounds == 5
        assert ledger.device("a").lb_participations == 2
        assert ledger.device("b").lb_receiver == 1
        assert ledger.total_lb() == 3

    def test_lb_counters_convert_to_slots(self):
        # Lemma 2.4 via LBCostModel: a sender pays ceil(log2 1/f) slots
        # per LB call, a receiver (ceil(log2 Delta) + 1) times that.
        model = LBCostModel(max_degree=16, failure_probability=1 / 1024)
        assert (model.sender_slots, model.receiver_slots) == (10, 50)
        ledger = EnergyLedger()
        ledger.charge_lb(["a"], ["b"])
        ledger.charge_lb(["b"], ["a"])
        ledger.charge_lb(["b"], [])
        assert model.device_slot_estimate(ledger.device("a")) == 10 + 50
        assert model.device_slot_estimate(ledger.device("b")) == 2 * 10 + 50


class TestSnapshots:
    def test_snapshot_roundtrip(self):
        ledger = EnergyLedger()
        ledger.charge_transmit("x")
        snap = ledger.snapshot()
        assert snap["x"] == (1, 0, 0, 0)

    def test_snapshot_is_detached(self):
        ledger = EnergyLedger()
        ledger.charge_listen("x")
        snap = ledger.snapshot()
        ledger.charge_listen("x")
        ledger.charge_lb(["y"], [])
        assert snap == {"x": (0, 1, 0, 0)}
        assert ledger.snapshot() == {"x": (0, 2, 0, 0), "y": (0, 0, 1, 0)}
