"""Slot-level RN[b] radio network simulator (paper Section 1.1).

The simulator ships **two interchangeable engine tiers**, both
:class:`SlotEngineBase` subclasses:

- ``"reference"`` (:class:`RadioNetwork`) — a direct per-device Python
  transcription of the model; the semantic ground truth, best for
  auditing protocol behavior and for small instances;
- ``"fast"`` (:class:`FastRadioNetwork`) — a vectorized batch engine:
  the topology is compiled once into a CSR adjacency and each slot's
  channel is arbitrated for all listeners with a single integer gather,
  with batched energy charging.  Use it for large or dense
  instances.

Select by name with :func:`make_network` (the two-entry table is
:data:`~repro.radio.engine.ENGINES`); the two engines are bit-for-bit
equivalent under identical seeds (slot counts, energy ledgers, and
event traces — enforced by the differential suite in
``tests/radio/test_engine_equivalence.py``).  :mod:`repro.radio.topology`
additionally exposes a fixed table of named scenarios
(``topology.scenario(name, n, seed)``) so experiments can sweep diverse
graph families by name.

A third executor, :class:`MegaBatchedNetwork`
(:mod:`repro.radio.batch_engine`), advances many Decay lanes in
lockstep with one fused gather per slot
(:mod:`repro.radio.kernels.megabatch`), each lane a round held as
arrays rather than devices and bit-identical to its own serial run.  Its members are
:class:`ReplicaBatchedNetwork` objects — ``R`` replica lanes sharing
one compiled topology — so a seed sweep of one cell is a one-member
mega batch and a heterogeneous grid is a many-member one.  It is the
engine behind every batched run in :mod:`repro.experiments`.  The
low-level counts/codes arithmetic is the one integer CSR gather of
:mod:`repro.radio.kernels`, shared by every vectorized tier.
"""

from .batch_engine import MegaBatchedNetwork, ReplicaBatchedNetwork, ReplicaLane
from .channel import CollisionModel, Feedback, Reception
from .device import Action, ActionKind, Device
from .energy import DeviceEnergy, EnergyLedger
from .engine import available_engines, make_network
from .fast_engine import CompiledTopology, FastRadioNetwork
from .faults import (
    ChurnSchedule,
    FaultCounters,
    FaultModel,
    FaultRuntime,
    GilbertElliott,
    IIDDrop,
    Jammer,
    ReplicaFaultRuntimes,
    SlotFaultPlan,
    coerce_fault_model,
    named_fault_models,
)
from .message import (
    Message,
    MessageSizePolicy,
    UNBOUNDED,
    id_bits,
    int_bits,
    message_of_ints,
)
from .network import RadioNetwork, SlotEngineBase
from .sinr import (
    SinrField,
    SinrParams,
    coerce_sinr_params,
    named_sinr_params,
    resolve_sinr,
)
from .trace import Event, EventTrace


__all__ = [
    "Action",
    "ActionKind",
    "ChurnSchedule",
    "CollisionModel",
    "CompiledTopology",
    "Device",
    "DeviceEnergy",
    "EnergyLedger",
    "Event",
    "EventTrace",
    "FastRadioNetwork",
    "FaultCounters",
    "FaultModel",
    "FaultRuntime",
    "Feedback",
    "GilbertElliott",
    "IIDDrop",
    "Jammer",
    "MegaBatchedNetwork",
    "Message",
    "MessageSizePolicy",
    "RadioNetwork",
    "Reception",
    "ReplicaBatchedNetwork",
    "ReplicaFaultRuntimes",
    "ReplicaLane",
    "SinrField",
    "SinrParams",
    "SlotEngineBase",
    "SlotFaultPlan",
    "UNBOUNDED",
    "available_engines",
    "coerce_fault_model",
    "coerce_sinr_params",
    "id_bits",
    "int_bits",
    "make_network",
    "message_of_ints",
    "named_fault_models",
    "named_sinr_params",
    "resolve_sinr",
]
