"""Fault injection: loss, jamming, and churn for the radio simulators.

The paper analyzes its algorithms in a clean synchronous radio model;
this module makes every slot-level protocol runnable under *unreliable*
conditions by composing a stack of fault layers that both slot engines
apply identically:

- :class:`IIDDrop` — per-slot i.i.d. message loss: each transmitter's
  message is destroyed in flight with probability ``p``;
- :class:`GilbertElliott` — bursty loss: each device carries a two-state
  (good/bad) Markov channel; the drop probability depends on the state,
  producing the correlated loss bursts of real radio links;
- :class:`Jammer` — an adversarial jammer parked on the ``k``
  highest-degree neighborhoods: while active (a deterministic
  ``period``/``active`` duty cycle) every listener in the closed
  neighborhood of a targeted hub perceives noise, exactly as if a
  collision had occurred;
- :class:`ChurnSchedule` — crash/revive events at chosen slots: a dead
  device neither transmits, listens, nor spends energy until revived
  (its protocol state is preserved across the outage).

Determinism contract
--------------------
All fault randomness flows through one dedicated
:class:`numpy.random.Generator` owned by a :class:`FaultRuntime`, which
draws a fixed amount of randomness per slot *regardless of what the
devices do*.  Both engines call :meth:`FaultRuntime.plan` exactly once
per slot, so a run under any fault model remains bit-for-bit identical
across the ``reference`` and ``fast`` engines and across processes
(enforced by ``tests/radio/test_fault_equivalence.py``).

Serialization
-------------
:class:`FaultModel` is frozen, hashable, picklable, and round-trips
losslessly through ``to_dict``/``from_dict`` JSON — it is the value of
the ``fault_model`` field of :class:`repro.experiments.ExperimentSpec`
(result-schema v2).  A few :func:`named_fault_models` presets cover the
common sweep axes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    FrozenSet,
    Hashable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import networkx as nx
import numpy as np

from ..errors import ConfigurationError, SimulationError
from ..rng import SeedLike, make_rng
from .topology import degrees

#: Churn operations accepted in :class:`ChurnSchedule` events.
CHURN_OPS: Tuple[str, ...] = ("crash", "revive")


def _check_probability(name: str, value: Any) -> float:
    """Validate one probability knob, returning it as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"{name} must be a number, got {value!r}")
    p = float(value)
    if not (0.0 <= p <= 1.0) or p != p:
        raise ConfigurationError(f"{name} must be in [0, 1], got {value!r}")
    return p


@dataclass(frozen=True)
class IIDDrop:
    """Per-slot i.i.d. message loss with probability ``p`` per transmitter."""

    p: float

    #: JSON ``kind`` discriminator.
    KIND = "iid_drop"

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", _check_probability("IIDDrop.p", self.p))

    def to_dict(self) -> Dict[str, Any]:
        """Lossless JSON-native form (see :func:`layer_from_dict`)."""
        return {"kind": self.KIND, "p": self.p}


@dataclass(frozen=True)
class GilbertElliott:
    """Bursty (Gilbert–Elliott) loss: a 2-state Markov channel per device.

    Every device starts in the *good* state.  Each slot the state flips
    good→bad with probability ``p_good_to_bad`` and bad→good with
    ``p_bad_to_good``; a transmission is then dropped with probability
    ``p_good`` or ``p_bad`` depending on the transmitter's new state.
    """

    p_good: float = 0.0
    p_bad: float = 0.5
    p_good_to_bad: float = 0.05
    p_bad_to_good: float = 0.2

    KIND = "gilbert_elliott"

    def __post_init__(self) -> None:
        for name in ("p_good", "p_bad", "p_good_to_bad", "p_bad_to_good"):
            object.__setattr__(
                self,
                name,
                _check_probability(f"GilbertElliott.{name}", getattr(self, name)),
            )

    def to_dict(self) -> Dict[str, Any]:
        """Lossless JSON-native form (see :func:`layer_from_dict`)."""
        return {
            "kind": self.KIND,
            "p_good": self.p_good,
            "p_bad": self.p_bad,
            "p_good_to_bad": self.p_good_to_bad,
            "p_bad_to_good": self.p_bad_to_good,
        }


@dataclass(frozen=True)
class Jammer:
    """Adversarial jammer over the ``k`` highest-degree neighborhoods.

    Targets are chosen once per run: the ``k`` vertices of highest
    degree (ties broken by canonical vertex order); the jammed region is
    the union of their closed neighborhoods.  The jammer is active in
    slots ``t`` with ``t % period < active`` — deterministic, so it
    consumes no randomness.  A jammed listener perceives noise exactly
    as under a collision (``NOISE`` with receiver-side CD, ``NOTHING``
    without).
    """

    k: int = 1
    period: int = 1
    active: int = 1

    KIND = "jammer"

    def __post_init__(self) -> None:
        if not isinstance(self.k, int) or isinstance(self.k, bool) or self.k < 1:
            raise ConfigurationError(f"Jammer.k must be a positive int, got {self.k!r}")
        if not isinstance(self.period, int) or self.period < 1:
            raise ConfigurationError(
                f"Jammer.period must be a positive int, got {self.period!r}"
            )
        if not isinstance(self.active, int) or not (0 <= self.active <= self.period):
            raise ConfigurationError(
                f"Jammer.active must be an int in [0, period], got {self.active!r}"
            )

    def to_dict(self) -> Dict[str, Any]:
        """Lossless JSON-native form (see :func:`layer_from_dict`)."""
        return {
            "kind": self.KIND,
            "k": self.k,
            "period": self.period,
            "active": self.active,
        }


@dataclass(frozen=True)
class ChurnSchedule:
    """Deterministic crash/revive events at chosen slots.

    ``events`` is a tuple of ``(slot, op, index)`` triples where ``op``
    is ``"crash"`` or ``"revive"`` and ``index`` addresses the device by
    position in the canonical vertex order (``list(graph.nodes)`` — for
    registry scenarios that is the integer vertex label itself).  Events
    whose index falls outside the actual vertex range are ignored, so
    one schedule can ride along a size sweep.  A crashed device is
    skipped entirely (no action, no energy) until a revive event
    restores it; reviving preserves whatever protocol state it held.
    """

    events: Tuple[Tuple[int, str, int], ...] = ()

    KIND = "churn"

    def __post_init__(self) -> None:
        canon: List[Tuple[int, str, int]] = []
        if isinstance(self.events, (str, bytes)) or not isinstance(
            self.events, Sequence
        ):
            raise ConfigurationError(
                f"ChurnSchedule.events must be a sequence, got {self.events!r}"
            )
        for event in self.events:
            if isinstance(event, Sequence) and not isinstance(event, (str, bytes)):
                event = tuple(event)
            else:
                raise ConfigurationError(
                    f"churn event must be (slot, op, index), got {event!r}"
                )
            if len(event) != 3:
                raise ConfigurationError(
                    f"churn event must be (slot, op, index), got {event!r}"
                )
            slot, op, index = event
            if not isinstance(slot, int) or isinstance(slot, bool) or slot < 0:
                raise ConfigurationError(
                    f"churn event slot must be a non-negative int, got {slot!r}"
                )
            if op not in CHURN_OPS:
                raise ConfigurationError(
                    f"churn op must be one of {CHURN_OPS}, got {op!r}"
                )
            if not isinstance(index, int) or isinstance(index, bool) or index < 0:
                raise ConfigurationError(
                    f"churn event index must be a non-negative int, got {index!r}"
                )
            canon.append((slot, op, index))
        seen: set = set()
        for event in canon:
            if event in seen:
                raise ConfigurationError(
                    f"duplicate churn event {event!r} "
                    f"(each (slot, op, index) triple may appear once)"
                )
            seen.add(event)
        # Canonical event order: by slot, then revive-before-crash within
        # a slot, then device index — same-slot semantics no longer depend
        # on declaration order, and equal schedules hash and compare equal.
        canon.sort(key=lambda e: (e[0], 0 if e[1] == "revive" else 1, e[2]))
        object.__setattr__(self, "events", tuple(canon))

    def to_dict(self) -> Dict[str, Any]:
        """Lossless JSON-native form (see :func:`layer_from_dict`)."""
        return {"kind": self.KIND, "events": [list(e) for e in self.events]}


#: A single layer of the fault stack.
FaultLayer = Union[IIDDrop, GilbertElliott, Jammer, ChurnSchedule]

_LAYER_KINDS: Dict[str, type] = {
    IIDDrop.KIND: IIDDrop,
    GilbertElliott.KIND: GilbertElliott,
    Jammer.KIND: Jammer,
    ChurnSchedule.KIND: ChurnSchedule,
}


def layer_from_dict(data: Mapping[str, Any]) -> FaultLayer:
    """Rebuild one fault layer from its ``to_dict`` form."""
    if not isinstance(data, Mapping):
        raise ConfigurationError(
            f"fault layer must be a mapping, got {type(data).__name__}"
        )
    kind = data.get("kind")
    cls = _LAYER_KINDS.get(kind)
    if cls is None:
        raise ConfigurationError(
            f"unknown fault layer kind {kind!r}; "
            f"known: {', '.join(sorted(_LAYER_KINDS))}"
        )
    kwargs = {k: v for k, v in data.items() if k != "kind"}
    if cls is ChurnSchedule:
        events = kwargs.pop("events", ())
        if kwargs:
            raise ConfigurationError(
                f"unknown churn fields: {sorted(kwargs)}"
            )
        try:
            events = tuple(tuple(e) for e in events)
        except TypeError:
            raise ConfigurationError(
                f"churn events must be a list of triples, got {events!r}"
            ) from None
        return ChurnSchedule(events=events)
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigurationError(f"bad {kind!r} fault layer: {exc}") from None


@dataclass(frozen=True)
class FaultModel:
    """A composable stack of fault layers, applied in declaration order.

    Frozen, hashable, and picklable; ``to_dict``/``from_dict`` round-trip
    losslessly through JSON, and an empty stack serializes to the same
    form as "no faults" (the experiment layer normalizes it to ``None``).
    """

    layers: Tuple[FaultLayer, ...] = ()

    def __post_init__(self) -> None:
        canon: List[FaultLayer] = []
        if isinstance(self.layers, Mapping) or isinstance(self.layers, (str, bytes)):
            raise ConfigurationError(
                f"FaultModel.layers must be a sequence of layers, got {self.layers!r}"
            )
        for layer in self.layers:
            if isinstance(layer, Mapping):
                layer = layer_from_dict(layer)
            if not isinstance(layer, (IIDDrop, GilbertElliott, Jammer, ChurnSchedule)):
                raise ConfigurationError(
                    f"not a fault layer: {layer!r} "
                    f"(expected IIDDrop/GilbertElliott/Jammer/ChurnSchedule)"
                )
            canon.append(layer)
        object.__setattr__(self, "layers", tuple(canon))

    def is_null(self) -> bool:
        """True when the stack contains no layers (a no-op model)."""
        return not self.layers

    def to_dict(self) -> Dict[str, Any]:
        """Lossless JSON-native form (see :meth:`from_dict`)."""
        return {"layers": [layer.to_dict() for layer in self.layers]}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultModel":
        """Rebuild a model from :meth:`to_dict` output (validating it)."""
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"fault model must be a mapping, got {type(data).__name__}"
            )
        unknown = set(data) - {"layers"}
        if unknown:
            raise ConfigurationError(f"unknown fault model fields: {sorted(unknown)}")
        layers = data.get("layers", ())
        if isinstance(layers, (str, bytes)) or not isinstance(layers, Sequence):
            raise ConfigurationError(
                f"fault model 'layers' must be a list, got {layers!r}"
            )
        return cls(layers=tuple(layer_from_dict(layer) for layer in layers))


def coerce_fault_model(
    value: Union[None, str, Mapping[str, Any], FaultModel],
) -> Optional[FaultModel]:
    """Normalize any accepted fault-model designation.

    Accepts ``None`` (no faults), a :class:`FaultModel`, its
    ``to_dict`` mapping, or a :func:`named_fault_models` preset name.
    Empty stacks normalize to ``None`` so that "no faults" has exactly
    one canonical representation.
    """
    if value is None:
        return None
    if isinstance(value, FaultModel):
        model = value
    elif isinstance(value, str):
        presets = named_fault_models()
        if value not in presets:
            raise ConfigurationError(
                f"unknown fault model preset {value!r}; "
                f"available: {', '.join(sorted(presets))}"
            )
        model = presets[value]
    elif isinstance(value, Mapping):
        model = FaultModel.from_dict(value)
    else:
        raise ConfigurationError(
            f"fault_model must be None, a FaultModel, a preset name, or a "
            f"mapping, got {type(value).__name__}"
        )
    return None if model.is_null() else model


def named_fault_models() -> Dict[str, FaultModel]:
    """The built-in presets used by CI grids, examples, and the CLI."""
    return {
        "none": FaultModel(),
        "drop10": FaultModel((IIDDrop(0.1),)),
        "drop30": FaultModel((IIDDrop(0.3),)),
        "bursty": FaultModel(
            (GilbertElliott(p_good=0.01, p_bad=0.6,
                            p_good_to_bad=0.05, p_bad_to_good=0.2),)
        ),
        "jam_hubs": FaultModel((Jammer(k=2, period=4, active=2),)),
        "churn_wave": FaultModel(
            (ChurnSchedule(events=(
                (6, "crash", 1), (6, "crash", 2), (6, "crash", 3),
                (48, "revive", 1), (48, "revive", 2),
            )),)
        ),
        "lossy_mixed": FaultModel((
            IIDDrop(0.05),
            Jammer(k=1, period=6, active=2),
            ChurnSchedule(events=((10, "crash", 2), (40, "revive", 2))),
        )),
    }


# ---------------------------------------------------------------------------
# Runtime
# ---------------------------------------------------------------------------

@dataclass
class FaultCounters:
    """Mutable fault/delivery tally shared by one executor.

    ``delivered`` counts successful message receptions (maintained even
    without a fault model, so robustness sweeps can report delivery
    totals); the other three count fault events actually applied.
    """

    dropped: int = 0
    jammed: int = 0
    crashed: int = 0
    delivered: int = 0

    def as_dict(self) -> Dict[str, int]:
        """JSON-native form, in the result-schema field order."""
        return {
            "crashed": self.crashed,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "jammed": self.jammed,
        }

    def merge(self, other: "FaultCounters") -> None:
        """Accumulate another tally into this one (used by the runner
        when a run touches both the slot and the LB executors)."""
        self.dropped += other.dropped
        self.jammed += other.jammed
        self.crashed += other.crashed
        self.delivered += other.delivered


#: The empty membership set shared by all trivial plans.
_EMPTY: FrozenSet[Hashable] = frozenset()


@dataclass(frozen=True)
class SlotFaultPlan:
    """The faults to apply in one slot, as canonical vertex sets.

    ``dead`` — devices that must be skipped entirely this slot;
    ``dropped`` — devices whose transmission (if any) is destroyed;
    ``jammed`` — devices that, if listening, perceive noise.
    """

    dead: FrozenSet[Hashable] = _EMPTY
    dropped: FrozenSet[Hashable] = _EMPTY
    jammed: FrozenSet[Hashable] = _EMPTY


class SlotFaultDraw(NamedTuple):
    """One slot's faults as boolean masks over the canonical vertex
    order, ``None`` where a set is empty.

    ``dead`` masks the crashed devices, ``hit`` is the drop layers' own
    draw (the devices whose transmission is destroyed) and ``jammed``
    the active jam region.  The lockstep executor reads the masks; the
    serial engines and the LB graph read :meth:`labels`.  The arrays
    are shared with the runtime and must not be written.
    """

    dead: Optional[np.ndarray]
    hit: Optional[np.ndarray]
    jammed: Optional[np.ndarray]
    vertices: Sequence[Hashable]

    def labels(self) -> SlotFaultPlan:
        """The same faults as a :class:`SlotFaultPlan` of vertex labels."""
        return SlotFaultPlan(*(
            _EMPTY if mask is None
            else frozenset(self.vertices[i] for i in np.flatnonzero(mask).tolist())
            for mask in (self.dead, self.hit, self.jammed)
        ))


class FaultRuntime:
    """Per-run fault state: draws one slot's faults at a time.

    Built once per executor from a :class:`FaultModel`, the topology,
    and a dedicated random stream.  :meth:`plan` must be called exactly
    once per slot, in slot order — it draws the slot's randomness in a
    fixed layer order and a fixed per-layer shape, so two executors
    driving the same runtime parameters stay bit-for-bit identical.
    """

    @classmethod
    def build(
        cls,
        faults: Optional[FaultModel],
        graph: nx.Graph,
        seed: SeedLike = None,
        counters: Optional[FaultCounters] = None,
    ) -> Optional["FaultRuntime"]:
        """The executor-side constructor: validate the ``faults``
        argument and return a runtime over the graph's canonical vertex
        order, or ``None`` when there is nothing to inject (``faults``
        is ``None`` or an empty stack)."""
        if faults is not None and not isinstance(faults, FaultModel):
            raise ConfigurationError(
                f"faults must be a FaultModel or None, got {type(faults).__name__}"
            )
        if faults is None or faults.is_null():
            return None
        return cls(faults, graph, list(graph.nodes), seed=seed, counters=counters)

    def __init__(
        self,
        model: FaultModel,
        graph: nx.Graph,
        vertices: Sequence[Hashable],
        seed: SeedLike = None,
        counters: Optional[FaultCounters] = None,
    ) -> None:
        if not isinstance(model, FaultModel):
            raise ConfigurationError(
                f"FaultRuntime needs a FaultModel, got {type(model).__name__}"
            )
        self.model = model
        self.counters = counters if counters is not None else FaultCounters()
        self._rng = make_rng(seed)
        self._vertices: List[Hashable] = list(vertices)
        self._n = len(self._vertices)
        self._next_slot = 0

        # Compiled layer state, in declaration order.
        self._iid_ps: List[float] = []
        self._ge: List[Tuple[GilbertElliott, np.ndarray]] = []
        self._jammers: List[Tuple[Jammer, np.ndarray]] = []
        self._churn: Dict[int, List[Tuple[str, int]]] = {}
        self._stochastic: List[Tuple[str, int]] = []  # (kind, compiled index)
        degree = degrees(graph)
        position = {v: i for i, v in enumerate(self._vertices)}
        for layer in model.layers:
            if isinstance(layer, IIDDrop):
                self._stochastic.append(("iid", len(self._iid_ps)))
                self._iid_ps.append(layer.p)
            elif isinstance(layer, GilbertElliott):
                self._stochastic.append(("ge", len(self._ge)))
                self._ge.append((layer, np.zeros(self._n, dtype=bool)))
            elif isinstance(layer, Jammer):
                hubs = sorted(
                    range(self._n),
                    key=lambda i: (-degree.get(self._vertices[i], 0), i),
                )[: layer.k]
                region = np.zeros(self._n, dtype=bool)
                for i in hubs:
                    region[[i, *map(position.get, graph.neighbors(self._vertices[i]))]] = True
                self._jammers.append((layer, region))
            else:  # ChurnSchedule
                for slot, op, index in layer.events:
                    if index < self._n:
                        self._churn.setdefault(slot, []).append((op, index))
        # Replaced, never written, on every change: a draw may hold it.
        self._dead = np.zeros(self._n, dtype=bool)

    # ------------------------------------------------------------------
    def plan(self, slot: int) -> SlotFaultDraw:
        """Draw and return the faults for ``slot`` (strictly in order)."""
        if slot != self._next_slot:
            raise SimulationError(
                f"fault plan requested for slot {slot}, expected {self._next_slot} "
                f"(plans must be consumed once per slot, in order)"
            )
        self._next_slot += 1

        for op, index in self._churn.get(slot, ()):
            crash = op == "crash"
            if self._dead[index] != crash:
                self._dead = self._dead.copy()
                self._dead[index] = crash
                if crash:
                    self.counters.crashed += 1

        dropped: Optional[np.ndarray] = None
        for kind, pos in self._stochastic:
            draws = self._rng.random(self._n)
            if kind == "iid":
                hit = draws < self._iid_ps[pos]
            else:
                layer, bad = self._ge[pos]
                flips = draws
                new_bad = np.where(bad, flips >= layer.p_bad_to_good,
                                   flips < layer.p_good_to_bad)
                self._ge[pos] = (layer, new_bad)
                loss = self._rng.random(self._n)
                hit = np.where(new_bad, loss < layer.p_bad, loss < layer.p_good)
            if hit.any():
                dropped = hit if dropped is None else dropped | hit

        jammed: Optional[np.ndarray] = None
        for layer, region in self._jammers:
            if slot % layer.period < layer.active:
                jammed = region if jammed is None else jammed | region

        dead = self._dead if self._dead.any() else None
        return SlotFaultDraw(dead, dropped, jammed, self._vertices)


class ReplicaFaultRuntimes:
    """The batched fault-draw path: one runtime per replica lane.

    The replica-batched engine (:mod:`repro.radio.batch_engine`) runs
    ``R`` independent replicas of one topology in lockstep.  Each
    replica carries its *own* dedicated fault stream (stream 3 of its
    spec seed), so fault draws cannot be fused into one vectorized call
    across replicas — instead this wrapper owns one serial-identical
    :class:`FaultRuntime` per lane and draws each lane's slot plan with
    the exact per-slot shape the serial engines use.  A lane that stops
    early simply stops drawing, precisely as its serial run would, so a
    batched replica consumes a bit-identical fault-randomness sequence
    to the same spec executed alone (enforced by
    ``tests/radio/test_batch_engine.py`` and
    ``tests/experiments/test_batch_equivalence.py``).
    """

    def __init__(
        self,
        faults: Optional[FaultModel],
        graph: nx.Graph,
        seeds: Sequence[SeedLike],
        counters: Sequence[FaultCounters],
    ) -> None:
        if len(seeds) != len(counters):
            raise ConfigurationError(
                f"need one fault seed per replica counter set: "
                f"{len(seeds)} seeds vs {len(counters)} counters"
            )
        self._runtimes: List[Optional[FaultRuntime]] = [
            FaultRuntime.build(faults, graph, seed=seed, counters=tally)
            for seed, tally in zip(seeds, counters)
        ]
        #: Whether the lanes draw plans at all (every lane shares the model).
        self.active = any(runtime is not None for runtime in self._runtimes)

    def __len__(self) -> int:
        return len(self._runtimes)

    def plan(self, replica: int, slot: int) -> Optional[SlotFaultDraw]:
        """Draw replica ``replica``'s plan for ``slot`` (in slot order).

        Returns ``None`` when there is no fault model; each lane's
        in-order consumption is enforced by its own runtime, exactly as
        on the serial engines.
        """
        runtime = self._runtimes[replica]
        if runtime is None:
            return None
        return runtime.plan(slot)
