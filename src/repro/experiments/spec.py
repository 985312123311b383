"""Declarative experiment specifications.

An :class:`ExperimentSpec` names everything needed to reproduce one
scenario cell bit-for-bit: a topology family (from the named scenario
table of :mod:`repro.radio.topology`), an algorithm (from the table
of :mod:`repro.experiments.registry`), an engine tier, the
channel model, the RN[b] message-size policy, and a single integer
seed.  Specs are frozen, hashable, picklable (so they travel to worker
processes unchanged), and round-trip losslessly through
``to_dict``/``from_dict`` JSON.

All randomness of a run derives from ``seed`` through
:func:`repro.rng.spawn_streams`: stream 0 builds the topology, stream 1
seeds the network wiring (Local-Broadcast arbitration), stream 2 drives
the algorithm itself, stream 3 drives fault injection (schema v2's
``fault_model`` field), stream 4 drives the dynamic-membership timeline
(schema v3's ``dynamic`` field).  Streams are derived by index, so each
addition left every earlier stream untouched; two runs of the same spec
consume identical random streams regardless of which process executes
them.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

import networkx as nx
import numpy as np

from ..errors import ConfigurationError
from ..radio import topology
from ..radio.channel import CollisionModel
from ..radio.dynamic import DynamicSchedule, coerce_dynamic_schedule
from ..radio.engine import available_engines
from ..radio.faults import FaultModel, coerce_fault_model
from ..radio.message import MessageSizePolicy
from ..radio.sinr import SinrParams, coerce_sinr_params
from ..rng import make_rng, spawn_streams

#: Names accepted by :attr:`ExperimentSpec.collision_model`.
COLLISION_MODELS: Tuple[str, ...] = tuple(m.value for m in CollisionModel)

#: Parameter values allowed inside ``algorithm_params``: JSON scalars
#: and (possibly nested) lists thereof.
ParamValue = Union[None, bool, int, float, str, Tuple["ParamValue", ...]]


def from_numpy(value: Any) -> Any:
    """Convert a numpy scalar to its Python equivalent (pass-through
    otherwise).  Shared by spec and result canonicalization so both
    layers accept adapter outputs computed with numpy."""
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def canonical_int(value: Any, where: str) -> Any:
    """A numpy integer as its Python ``int``; a ``bool`` is refused.

    ``True == 1`` (and hashes alike), yet serializes as ``true``: a
    bool accepted as an integer field would give one cell two
    ``spec_hash`` values.  Anything else passes through unchanged for
    the caller's own range check.
    """
    value = from_numpy(value)
    if isinstance(value, bool):
        raise ConfigurationError(
            f"{where} must be an int, not a bool ({value!r})"
        )
    return value


def _canonical_param(value: Any, key: str) -> ParamValue:
    """Coerce one parameter value to the canonical hashable form."""
    value = from_numpy(value)  # floats fall through to the finiteness check
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            raise ConfigurationError(
                f"algorithm_params[{key!r}] must be finite, got {value!r}"
            )
        return value
    if isinstance(value, (list, tuple)):
        return tuple(_canonical_param(v, key) for v in value)
    raise ConfigurationError(
        f"algorithm_params[{key!r}] must be a JSON scalar or list, "
        f"got {type(value).__name__}"
    )


def _canonical_params(params: Any) -> Tuple[Tuple[str, ParamValue], ...]:
    """Canonicalize a params mapping to a sorted tuple of pairs."""
    if params is None:
        return ()
    if isinstance(params, tuple):
        params = dict(params)
    if not isinstance(params, Mapping):
        raise ConfigurationError(
            f"algorithm_params must be a mapping, got {type(params).__name__}"
        )
    items: List[Tuple[str, ParamValue]] = []
    for key in sorted(params):
        if not isinstance(key, str) or not key:
            raise ConfigurationError(
                f"algorithm_params keys must be non-empty strings, got {key!r}"
            )
        items.append((key, _canonical_param(params[key], key)))
    return tuple(items)


def validate_batch_replicas(value: Any, where: str = "batch_replicas") -> Optional[int]:
    """Validate a positive execution cap: ``None`` or a positive int,
    returned as a Python ``int`` (numpy integers are accepted).

    The single check behind every cap — the policy fields
    (:class:`ExecutionPolicy`) and ``run_specs(..., chunk_size=...,
    max_workers=...)`` — so they can never drift in what they accept.  Booleans are rejected
    explicitly: ``batch_replicas=True`` is a plausible "enable
    batching" mistake that would otherwise silently mean "limit 1",
    i.e. the exact opposite.
    """
    if value is None:
        return None
    value = canonical_int(value, where)
    if not isinstance(value, int) or value < 1:
        raise ConfigurationError(
            f"{where} must be a positive int or None, got {value!r}"
        )
    return value


def _listify(value: ParamValue) -> Any:
    """Canonical tuple form back to JSON-native lists."""
    if isinstance(value, tuple):
        return [_listify(v) for v in value]
    return value


@dataclass(frozen=True)
class ExecutionPolicy:
    """*How* to execute specs — never part of *what* they compute.

    One sweep-wide bundle of execution knobs, passed to the runners
    (``run_specs``/``run_sweep``/``run_partition(..., policy=...)``, as
    the policy or its :meth:`to_dict` mapping) or built by the CLI from
    ``--batch-replicas`` and ``--invariant-sample``; it is the only way
    to say how specs run.  Which cells share a fused engine run is not
    a knob: the runner's planner packs small cells together by itself.
    ``batch_replicas`` carries a bit-identity guarantee: any setting
    produces byte-identical results, ledgers, fault streams, and store
    shards to the default one.  ``invariant_sample`` is the one
    *diagnostic* knob: it decides how often the online invariant
    checker observes a run, so results are byte-identical per fixed
    sampling policy (which is exactly what the CI equivalence grids pin
    down), and runs without it emit no invariant data at all.  The
    policy never enters a spec, so it never touches ``spec_hash`` or a
    serialized document.

    Parameters
    ----------
    batch_replicas:
        Cap on the lanes of one fused execution unit (``None`` defers
        to the runner default; a pool lowers it so every worker gets a
        share; ``1`` runs every spec as a one-lane unit).
        Lower it for smaller units, which also bounds what a crash
        loses below a store's ``chunk_size``.
    invariant_sample:
        Online invariant-checking period: check the registered safety
        properties (:mod:`repro.radio.invariants`) every that many
        executed slots (``1`` = every slot, the debug setting).
        ``None`` (the default) disables checking entirely.  Checked
        specs always execute as serial singleton units — sampling is
        defined on a single engine's slot clock — and a spec whose
        algorithm runs on the Local-Broadcast tier (any outside
        :data:`~repro.experiments.registry.LANE_RUNNERS`) is refused.
    backend:
        Inert: accepts ``None`` or ``"megabatch"`` and changes nothing.
        It stays only because the benchmark's workload file still
        passes ``backend="megabatch"``; the next change to the
        benchmark deletes it.
    """

    batch_replicas: Optional[int] = None
    invariant_sample: Optional[int] = None
    backend: Optional[str] = None

    def __post_init__(self) -> None:
        if self.backend not in (None, "megabatch"):
            raise ConfigurationError(
                f"unknown execution backend {self.backend!r}; backend "
                "accepts only 'megabatch' or None and changes nothing "
                "(the planner fuses small cells by itself)"
            )
        for name in ("batch_replicas", "invariant_sample"):
            object.__setattr__(
                self, name, validate_batch_replicas(getattr(self, name), name)
            )

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-native form — for logs and CLI plumbing only.

        Never embedded in spec or result documents: execution policy
        must not influence ``spec_hash`` or any serialized artifact.
        """
        return {
            "batch_replicas": self.batch_replicas,
            "invariant_sample": self.invariant_sample,
            "backend": self.backend,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExecutionPolicy":
        """Rebuild a policy from :meth:`to_dict` output (validating)."""
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"execution policy must be a mapping, got {type(data).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown execution policy fields: {sorted(unknown)}; "
                f"expected {sorted(known)}"
            )
        return cls(**{k: data[k] for k in data})


@dataclass(frozen=True)
class ExperimentSpec:
    """One cell of an experiment grid, fully pinned down.

    Parameters
    ----------
    topology:
        A name from :func:`repro.radio.topology.scenario_names`.
    n:
        The family's size knob (approximate vertex count).
    algorithm:
        A name from :func:`repro.experiments.algorithm_names`.
    algorithm_params:
        Algorithm-specific knobs (e.g. ``{"depth_budget": 40}``),
        JSON scalars and lists only; canonicalized to a sorted tuple so
        specs stay hashable and order-insensitive.
    engine:
        Slot-engine tier for slot-level algorithms
        (:func:`repro.radio.available_engines`); LB-level algorithms
        record but do not consume it.
    collision_model:
        ``"no_cd"`` or ``"receiver_cd"``.
    message_limit_bits:
        RN[b] message-size limit; ``None`` means RN[inf].
    seed:
        Master seed; every random stream of the run derives from it.
    fault_model:
        Optional fault stack (schema v2): a
        :class:`~repro.radio.faults.FaultModel`, its ``to_dict``
        mapping, or a :func:`~repro.radio.faults.named_fault_models`
        preset name.  ``None`` (and the empty stack, which normalizes
        to ``None``) is the clean channel of the paper's model.
    dynamic:
        Optional dynamic-membership schedule (schema v3): a
        :class:`~repro.radio.dynamic.DynamicSchedule`, its ``to_dict``
        mapping, or a
        :func:`~repro.radio.dynamic.named_dynamic_schedules` preset
        name.  ``None`` (and the null schedule, which normalizes to
        ``None``) is the paper's static topology.  Part of the cell's
        identity — and of ``spec_hash`` when set; static specs keep
        their historic hashes because the key is only serialized when
        present.
    sinr:
        Optional SINR physical-layer parameters (schema v3): a
        :class:`~repro.radio.sinr.SinrParams`, its ``to_dict`` mapping,
        or a :func:`~repro.radio.sinr.named_sinr_params` preset name.
        Only meaningful — and always present, defaulting to
        ``SinrParams()`` — when ``collision_model`` is ``"sinr"``;
        rejected for the binary models.  Part of the cell's identity
        (threshold, power ladder and costs, pathloss exponent, noise
        floor all change what a run computes) and of ``spec_hash``;
        binary-model specs keep their historic hashes because the key
        is only serialized when set.  SINR compiles per-edge gains for
        a static topology, so it cannot combine with ``dynamic``.
    """

    topology: str
    n: int
    algorithm: str
    algorithm_params: Tuple[Tuple[str, ParamValue], ...] = ()
    engine: str = "reference"
    collision_model: str = "no_cd"
    message_limit_bits: Optional[int] = None
    seed: int = 0
    fault_model: Optional[FaultModel] = None
    dynamic: Optional[DynamicSchedule] = None
    sinr: Optional[SinrParams] = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "algorithm_params", _canonical_params(self.algorithm_params)
        )
        object.__setattr__(
            self, "fault_model", coerce_fault_model(self.fault_model)
        )
        object.__setattr__(
            self, "dynamic", coerce_dynamic_schedule(self.dynamic)
        )
        sinr = coerce_sinr_params(self.sinr)
        if self.collision_model == CollisionModel.SINR.value:
            if sinr is None:
                sinr = SinrParams()
            if self.dynamic is not None:
                raise ConfigurationError(
                    "the SINR collision model compiles per-edge gains for a "
                    "static topology; it cannot combine with a dynamic "
                    "schedule"
                )
        elif sinr is not None:
            raise ConfigurationError(
                f"sinr params require collision_model='sinr', got "
                f"{self.collision_model!r}"
            )
        object.__setattr__(self, "sinr", sinr)
        for name in ("n", "seed", "message_limit_bits"):
            object.__setattr__(
                self, name, canonical_int(getattr(self, name), name)
            )
        if self.topology not in topology.scenario_names():
            raise ConfigurationError(
                f"unknown topology {self.topology!r}; registered: "
                f"{', '.join(topology.scenario_names())}"
            )
        if not isinstance(self.n, int) or self.n < 1:
            raise ConfigurationError(f"n must be a positive int, got {self.n!r}")
        if self.engine not in available_engines():
            raise ConfigurationError(
                f"unknown engine {self.engine!r}; available: "
                f"{', '.join(available_engines())}"
            )
        if self.collision_model not in COLLISION_MODELS:
            raise ConfigurationError(
                f"unknown collision model {self.collision_model!r}; "
                f"available: {', '.join(COLLISION_MODELS)}"
            )
        if self.message_limit_bits is not None and (
            not isinstance(self.message_limit_bits, int)
            or self.message_limit_bits < 1
        ):
            raise ConfigurationError(
                f"message_limit_bits must be a positive int or None, "
                f"got {self.message_limit_bits!r}"
            )
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigurationError(
                f"seed must be a non-negative int, got {self.seed!r}"
            )
        # Lazy import: the registry imports this module.
        from .registry import algorithm_names

        if self.algorithm not in algorithm_names():
            raise ConfigurationError(
                f"unknown algorithm {self.algorithm!r}; registered: "
                f"{', '.join(algorithm_names())}"
            )

    # ------------------------------------------------------------------
    # Derived objects
    # ------------------------------------------------------------------
    def params(self) -> Dict[str, Any]:
        """The algorithm parameters as a plain dict (tuples as lists)."""
        return {k: _listify(v) for k, v in self.algorithm_params}

    def seed_streams(self) -> List[np.random.Generator]:
        """The run's five derived streams: topology, wiring, algorithm,
        fault injection, dynamic membership.

        Streams are derived by index, so each addition left every
        earlier stream identical — the schema-v1 derivation (first
        three), the fault stream (v2), and the dynamic stream (v3)
        never changed an existing run's randomness.
        """
        return spawn_streams(make_rng(self.seed), 5)

    def build_graph(self) -> nx.Graph:
        """Construct this cell's topology (deterministic in ``seed``)."""
        return topology.scenario(self.topology, self.n, seed=self.seed_streams()[0])

    def collision(self) -> CollisionModel:
        """The channel model as the enum the engines consume."""
        return CollisionModel(self.collision_model)

    def size_policy(self) -> MessageSizePolicy:
        """The RN[b] message-size policy the engines enforce."""
        if self.message_limit_bits is None:
            return MessageSizePolicy.unbounded()
        return MessageSizePolicy(float(self.message_limit_bits))

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self, include_fault_model: bool = True) -> Dict[str, Any]:
        """Lossless JSON-native form (see ``from_dict``).

        ``include_fault_model=False`` reproduces the schema-v1 spec
        shape (no ``fault_model`` key) and is only valid for fault-free
        specs — :meth:`~repro.experiments.results.RunResult.to_dict` uses it to re-emit v1
        documents byte-identically.
        """
        doc = {
            "topology": self.topology,
            "n": self.n,
            "algorithm": self.algorithm,
            "algorithm_params": {k: _listify(v) for k, v in self.algorithm_params},
            "engine": self.engine,
            "collision_model": self.collision_model,
            "message_limit_bits": self.message_limit_bits,
            "seed": self.seed,
        }
        if include_fault_model:
            doc["fault_model"] = (
                None if self.fault_model is None else self.fault_model.to_dict()
            )
        elif self.fault_model is not None:
            raise ConfigurationError(
                "a spec with a fault_model cannot be serialized in the v1 "
                "schema; use the default (v2) serialization"
            )
        # The dynamic schedule is emitted only when set: static specs
        # keep their historic canonical bytes (and spec_hash) across the
        # v3 schema bump, while dynamic specs are only expressible in
        # schemas that carry the key (enforced by RunResult.to_dict).
        if self.dynamic is not None:
            if not include_fault_model:
                raise ConfigurationError(
                    "a spec with a dynamic schedule cannot be serialized in "
                    "the v1 schema; use the default serialization"
                )
            doc["dynamic"] = self.dynamic.to_dict()
        # Same emit-only-when-set contract for the SINR axis: binary
        # specs keep their historic canonical bytes, SINR specs carry
        # their full physical-layer identity.
        if self.sinr is not None:
            if not include_fault_model:
                raise ConfigurationError(
                    "a spec with sinr params cannot be serialized in the v1 "
                    "schema; use the default serialization"
                )
            doc["sinr"] = self.sinr.to_dict()
        return doc

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        """Rebuild a spec from :meth:`to_dict` output (validating it)."""
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"spec must be a mapping, got {type(data).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown spec fields: {sorted(unknown)}; expected {sorted(known)}"
            )
        missing = {"topology", "n", "algorithm"} - set(data)
        if missing:
            raise ConfigurationError(f"spec is missing fields: {sorted(missing)}")
        return cls(**{k: data[k] for k in data})
