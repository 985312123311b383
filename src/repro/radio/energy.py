"""Per-device energy accounting.

The paper's cost measure (Section 1.1): the energy of a device is the
number of time slots in which it listens or transmits; sleeping is
free.  The energy of an algorithm is the *maximum* over devices.

Higher layers of this library additionally account in units of
Local-Broadcast participations (the unit used throughout the paper's
Section 4.3 analysis); :class:`EnergyLedger` tracks both currencies.
The ledger keeps one LB-round clock and no per-phase breakdown: the
per-step costs of Recursive-BFS are reported by
:class:`repro.core.recursive_bfs.RunStats` (``stage_count``,
``wavefront_lb``, ``special_updates``), and the Lemma 2.4 conversion
of LB units to slots is
:class:`repro.primitives.local_broadcast.LBCostModel`.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, Mapping, Optional, Sequence, Tuple


@dataclass
class DeviceEnergy:
    """Mutable per-device counters, one instance per vertex."""

    transmit_slots: int = 0
    listen_slots: int = 0
    lb_sender: int = 0
    lb_receiver: int = 0

    @property
    def slots(self) -> int:
        """Slot-level energy: listen + transmit (paper's measure)."""
        return self.transmit_slots + self.listen_slots

    @property
    def lb_participations(self) -> int:
        """Local-Broadcast participations (Section 4.3 measurement unit)."""
        return self.lb_sender + self.lb_receiver


class EnergyLedger:
    """Tracks the slot and Local-Broadcast energy of a set of devices.

    The ledger is shared by a whole simulation stack: the physical
    radio network, the Local-Broadcast layer, cluster-graph simulations,
    and the recursive BFS all charge the *same* ledger, keyed by the
    physical vertex that actually wakes up — exactly how the paper
    attributes simulated cluster-graph costs back to constituent
    devices (Lemma 3.2).
    """

    def __init__(self) -> None:
        self._devices: Dict[Hashable, DeviceEnergy] = defaultdict(DeviceEnergy)
        self.time_slots: int = 0
        self.lb_rounds: int = 0

    # ------------------------------------------------------------------
    # Charging
    # ------------------------------------------------------------------
    def charge_transmit(self, device: Hashable, slots: int = 1) -> None:
        """Charge ``slots`` transmission slots to ``device``."""
        self._devices[device].transmit_slots += slots

    def charge_listen(self, device: Hashable, slots: int = 1) -> None:
        """Charge ``slots`` listening slots to ``device``."""
        self._devices[device].listen_slots += slots

    def charge_slot_batch(
        self,
        transmitters: Iterable[Hashable],
        listeners: Iterable[Hashable],
        transmit_costs: Optional[Sequence[int]] = None,
    ) -> None:
        """Charge one slot to every transmitter and listener at once.

        Equivalent to one :meth:`charge_transmit` per transmitter plus
        one :meth:`charge_listen` per listener; the serial fast engine
        uses the batch form so each slot touches the ledger once.
        ``transmit_costs`` (aligned with ``transmitters``) replaces the
        flat one-unit transmit charge with per-transmitter costs — the
        SINR power ladder, where louder costs more.
        """
        devices = self._devices
        if transmit_costs is None:
            for v in transmitters:
                devices[v].transmit_slots += 1
        else:
            for v, cost in zip(transmitters, transmit_costs):
                devices[v].transmit_slots += int(cost)
        for v in listeners:
            devices[v].listen_slots += 1

    def charge_slot_counts(
        self,
        vertices: Iterable[Hashable],
        transmit_counts: Iterable[int],
        listen_counts: Iterable[int],
    ) -> None:
        """Bulk-charge accumulated slot totals in one pass.

        ``transmit_counts[i]``/``listen_counts[i]`` are the slots vertex
        ``vertices[i]`` spent transmitting/listening since the last
        flush.  Equivalent to the corresponding sequence of per-slot
        :meth:`charge_slot_batch` calls (slot charges are additive and
        commutative); vertices with zero activity are never touched, so
        the set of devices the ledger knows about matches per-slot
        charging exactly.  Every batched lane flushes its totals through
        it once per :meth:`~repro.radio.batch_engine.MegaBatchedNetwork.run_lockstep`
        call.
        """
        devices = self._devices
        for v, tx, listen in zip(vertices, transmit_counts, listen_counts):
            if tx or listen:
                d = devices[v]
                d.transmit_slots += int(tx)
                d.listen_slots += int(listen)

    def charge_lb(self, senders: Iterable[Hashable], receivers: Iterable[Hashable]) -> None:
        """Charge one Local-Broadcast participation to each participant.

        Also advances the LB round counter (time in LB units) by one.
        """
        for u in senders:
            self._devices[u].lb_sender += 1
        for v in receivers:
            self._devices[v].lb_receiver += 1
        self.lb_rounds += 1

    def charge_participation(
        self, device: Hashable, sender: int = 0, receiver: int = 0
    ) -> None:
        """Directly add LB participations to one device.

        Used by the fast-mode cast machinery, which charges aggregate
        per-device participation counts for a whole multi-round cast
        instead of issuing one ``charge_lb`` per round (the rounds are
        advanced separately via :meth:`advance_lb_rounds`).
        """
        d = self._devices[device]
        d.lb_sender += sender
        d.lb_receiver += receiver

    def advance_time(self, slots: int = 1) -> None:
        """Advance wall-clock slot time without charging any device."""
        self.time_slots += slots

    def advance_lb_rounds(self, rounds: int) -> None:
        """Advance the LB-round clock for rounds in which nobody woke.

        Used by the cast machinery: empty steps cost time on the real
        network but zero energy (everyone sleeps), so we charge the
        clock without touching device counters.
        """
        self.lb_rounds += rounds

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def device(self, device: Hashable) -> DeviceEnergy:
        """The counters for one device (created on first touch)."""
        return self._devices[device]

    def devices(self) -> Mapping[Hashable, DeviceEnergy]:
        """Read-only view of all device counters."""
        return self._devices

    def max_slots(self) -> int:
        """Algorithm slot-energy: max over devices (paper's measure)."""
        if not self._devices:
            return 0
        return max(d.slots for d in self._devices.values())

    def max_lb(self) -> int:
        """Algorithm LB-energy: max LB participations over devices."""
        if not self._devices:
            return 0
        return max(d.lb_participations for d in self._devices.values())

    def total_slots(self) -> int:
        """Aggregate slot energy over all devices."""
        return sum(d.slots for d in self._devices.values())

    def total_lb(self) -> int:
        """Aggregate LB participations over all devices."""
        return sum(d.lb_participations for d in self._devices.values())

    def mean_lb(self) -> float:
        """Mean LB participations per touched device."""
        if not self._devices:
            return 0.0
        return self.total_lb() / len(self._devices)

    def snapshot(self) -> Dict[Hashable, Tuple[int, int, int, int]]:
        """Immutable snapshot ``{v: (tx, rx, lb_s, lb_r)}`` for diffing."""
        return {
            v: (d.transmit_slots, d.listen_slots, d.lb_sender, d.lb_receiver)
            for v, d in self._devices.items()
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EnergyLedger(devices={len(self._devices)}, time_slots={self.time_slots}, "
            f"lb_rounds={self.lb_rounds}, max_lb={self.max_lb()}, max_slots={self.max_slots()})"
        )
