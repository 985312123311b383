"""SINR-threshold physical layer: fixed-point signal model + power ladder.

The binary collision models (:class:`~repro.radio.channel.CollisionModel`
``NO_CD`` / ``RECEIVER_CD``) arbitrate each listener's slot by *counting*
transmitting neighbors.  The ``SINR`` model instead arbitrates by
received signal strength: every transmitting neighbor ``u`` of listener
``v`` contributes a received power

    ``sig(u, v) = gain(u, v) * power_levels[level_u]``

and the strongest contributor is delivered iff it is *uniquely*
strongest and its signal-to-interference-plus-noise ratio clears the
configured threshold.  Following "Optimal Discrete Power Control in
Poisson-Clustered Ad Hoc Networks" (PAPERS.md), the transmit power
``level_u`` is a discrete, algorithm-visible knob
(:attr:`~repro.radio.device.Device.power_level`, or per-action via
``Action.transmit(msg, power=...)``) charged to the
:class:`~repro.radio.energy.EnergyLedger` at ``power_costs[level]``
energy units per transmitting slot — *louder costs more*.

Fixed-point convention (everything is an ``int``)
-------------------------------------------------
The reference engine's per-listener loop and the vectorized tiers'
fused CSR gather must stay bit-for-bit equivalent, so the whole signal
pipeline is integer-only:

- node positions (the ``pos`` attribute written by the geometric
  generators) are quantized onto a :data:`GRID` x :data:`GRID` integer
  lattice (``round(x * GRID)``); graphs without geometry use the
  uniform :data:`DEFAULT_EDGE_DIST` for every edge;
- ``dist(u, v) = max(1, isqrt(dx^2 + dy^2))`` in lattice units;
- ``gain(u, v) = max(1, GAIN_SCALE // dist ** pathloss_exponent)``;
- the threshold test for the strongest signal ``M`` against total
  in-range power ``S`` and the noise floor avoids division entirely:
  with ``beta = threshold_milli / 1000``,

      ``M / (S - M + noise) >= beta``
      ``<=>  (1000 + threshold_milli) * M >= threshold_milli * (S + noise)``

Because int64 sums, maxima and comparisons are exact and
order-independent, every tier computes the identical arbitration by
construction, however its lanes are fused; no floating-point tolerance
exists.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Any, Dict, Hashable, Mapping, Optional, Sequence, Tuple, Union

import networkx as nx
import numpy as np
from networkx.classes.reportviews import EdgeView

from ..errors import ConfigurationError, SimulationError
from .channel import Feedback, Reception
from .message import Message

#: Side length of the integer position lattice.  A power of two so that
#: ``coord / GRID`` is float-exact and the ``poisson_cluster`` generator
#: round-trips its integer geometry through the float ``pos`` attribute.
GRID = 1024

#: Numerator scale of the fixed-point pathloss gain.
GAIN_SCALE = 1 << 20

#: Lattice distance assumed for every edge of a graph without node
#: geometry (no ``pos`` attributes): all links equally strong.
DEFAULT_EDGE_DIST = 16

#: Denominator of the milli-scaled SINR threshold.
THRESHOLD_DEN = 1000

#: int64 headroom bound for the threshold inequality operands.
_INT64_GUARD = 1 << 62


def _check_positive_int(name: str, value: Any, minimum: int = 1) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ConfigurationError(
            f"{name} must be an int >= {minimum}, got {value!r}"
        )
    return value


@dataclass(frozen=True)
class SinrParams:
    """The SINR model's knobs — a spec-identity axis (canonical JSON).

    ``threshold_milli`` is the SINR threshold scaled by 1000 (2000 means
    ``beta = 2.0``); ``power_levels`` are the discrete received-power
    multipliers an algorithm may select (level 0 is the default);
    ``power_costs[level]`` is the energy charged per transmitting slot
    at that level; ``pathloss_exponent`` is the integer ``alpha`` of the
    ``1 / dist^alpha`` decay; ``noise_floor`` is the additive noise term
    in fixed-point signal units.
    """

    threshold_milli: int = 2000
    power_levels: Tuple[int, ...] = (1, 2, 4)
    power_costs: Tuple[int, ...] = (1, 2, 4)
    pathloss_exponent: int = 2
    noise_floor: int = 1

    def __post_init__(self) -> None:
        _check_positive_int("threshold_milli", self.threshold_milli)
        if self.threshold_milli > 1_000_000:
            raise ConfigurationError(
                f"threshold_milli must be <= 1000000, got {self.threshold_milli}"
            )
        for field_name in ("power_levels", "power_costs"):
            raw = getattr(self, field_name)
            if isinstance(raw, (list, tuple)) and raw:
                coerced = tuple(
                    _check_positive_int(f"{field_name}[{i}]", v)
                    for i, v in enumerate(raw)
                )
                object.__setattr__(self, field_name, coerced)
            else:
                raise ConfigurationError(
                    f"{field_name} must be a non-empty sequence of positive "
                    f"ints, got {raw!r}"
                )
        if len(self.power_costs) != len(self.power_levels):
            raise ConfigurationError(
                f"power_costs must match power_levels in length, got "
                f"{len(self.power_costs)} costs for "
                f"{len(self.power_levels)} levels"
            )
        if max(self.power_levels) > GAIN_SCALE:
            raise ConfigurationError(
                f"power levels must be <= {GAIN_SCALE}, got "
                f"{max(self.power_levels)}"
            )
        if not isinstance(self.pathloss_exponent, int) or isinstance(
            self.pathloss_exponent, bool
        ) or not 1 <= self.pathloss_exponent <= 4:
            raise ConfigurationError(
                f"pathloss_exponent must be an int in [1, 4], got "
                f"{self.pathloss_exponent!r}"
            )
        if not isinstance(self.noise_floor, int) or isinstance(
            self.noise_floor, bool
        ) or self.noise_floor < 0:
            raise ConfigurationError(
                f"noise_floor must be a non-negative int, got "
                f"{self.noise_floor!r}"
            )

    @property
    def levels(self) -> int:
        """Number of selectable power levels."""
        return len(self.power_levels)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-native canonical form (sorted keys, lists for tuples)."""
        return {
            "noise_floor": self.noise_floor,
            "pathloss_exponent": self.pathloss_exponent,
            "power_costs": list(self.power_costs),
            "power_levels": list(self.power_levels),
            "threshold_milli": self.threshold_milli,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SinrParams":
        """Inverse of :meth:`to_dict`; missing keys take the defaults."""
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"sinr params must be a mapping, got {type(data).__name__}"
            )
        known = {
            "noise_floor", "pathloss_exponent", "power_costs",
            "power_levels", "threshold_milli",
        }
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown sinr param keys {unknown}; known: {sorted(known)}"
            )
        kwargs = dict(data)
        for field_name in ("power_levels", "power_costs"):
            if field_name in kwargs:
                raw = kwargs[field_name]
                if isinstance(raw, (list, tuple)):
                    kwargs[field_name] = tuple(raw)
        return cls(**kwargs)


def named_sinr_params() -> Dict[str, SinrParams]:
    """The named SINR presets (the CLI's ``--sinr`` vocabulary)."""
    return {
        "default": SinrParams(),
        "capture": SinrParams(threshold_milli=500),
        "strict": SinrParams(threshold_milli=4000),
        "high_power": SinrParams(
            power_levels=(1, 4, 16), power_costs=(1, 3, 9)
        ),
    }


def coerce_sinr_params(
    value: Union[None, str, Mapping[str, Any], SinrParams],
) -> Optional[SinrParams]:
    """Accept ``None``, a preset name, a mapping, or ready params."""
    if value is None or isinstance(value, SinrParams):
        return value
    if isinstance(value, str):
        presets = named_sinr_params()
        if value not in presets:
            raise ConfigurationError(
                f"unknown sinr preset {value!r}; known: "
                f"{', '.join(sorted(presets))}"
            )
        return presets[value]
    if isinstance(value, Mapping):
        return SinrParams.from_dict(value)
    raise ConfigurationError(
        f"cannot coerce {type(value).__name__} to SinrParams"
    )


def transmit_level(device: Any, action: Any, params: SinrParams) -> int:
    """Resolve one transmitter's discrete power level for this slot.

    Per-action ``power`` (``Action.transmit(msg, power=...)``) wins over
    the device's standing :attr:`~repro.radio.device.Device.power_level`.
    Any integral level is accepted (numpy integers included, ``bool``
    excluded) and returned as a Python ``int``.  The serial engines
    resolve levels here and the batched lanes check their standing level
    with :func:`check_power_level`, so the per-transmission validation
    can never drift between them.
    """
    level = action.power
    if level is None:
        level = getattr(device, "power_level", 0)
    return check_power_level(getattr(device, "vertex", None), level, params)


def check_power_level(vertex: Any, level: Any, params: SinrParams) -> int:
    """``level`` as a Python ``int`` if it is a rung of the ladder; a
    :class:`~repro.errors.SimulationError` naming ``vertex`` otherwise."""
    if not isinstance(level, numbers.Integral) or isinstance(level, bool) or not (
        0 <= level < params.levels
    ):
        raise SimulationError(
            f"device {vertex!r} selected transmit power level "
            f"{level!r}; the ladder has levels 0..{params.levels - 1}"
        )
    return int(level)


def resolve_sinr(
    contributions: Sequence[Tuple[Message, int]], params: SinrParams
) -> Reception:
    """Reference arbitration of one listener's slot (Python ints).

    ``contributions`` holds ``(message, received_signal)`` for every
    transmitting neighbor.  The uniquely strongest signal is delivered
    iff it clears the SINR threshold; equal-strength maxima always
    collide.  Feedback is CD-like: :attr:`Feedback.SILENCE` on an empty
    channel, :attr:`Feedback.MESSAGE` on delivery,
    :attr:`Feedback.NOISE` otherwise.  Order-independent by
    construction (sums and maxima commute), which the property suite
    verifies against the vectorized kernel.
    """
    if not contributions:
        return Reception(Feedback.SILENCE)
    total = 0
    best = -1
    ties = 0
    winner: Optional[Message] = None
    for message, signal in contributions:
        total += signal
        if signal > best:
            best, ties, winner = signal, 1, message
        elif signal == best:
            ties += 1
    num = params.threshold_milli
    if ties == 1 and (THRESHOLD_DEN + num) * best >= num * (
        total + params.noise_floor
    ):
        return Reception(Feedback.MESSAGE, winner)
    return Reception(Feedback.NOISE)


def quantize_positions(
    graph: nx.Graph,
) -> Optional[Dict[Hashable, Tuple[int, int]]]:
    """Quantize node ``pos`` attributes onto the integer lattice.

    Returns ``None`` when any node lacks geometry — the field then falls
    back to the uniform :data:`DEFAULT_EDGE_DIST` for every edge.
    """
    coords: Dict[Hashable, Tuple[int, int]] = {}
    for vertex, data in graph.nodes(data=True):
        pos = data.get("pos")
        if pos is None:
            return None
        x, y = pos
        coords[vertex] = (
            min(GRID, max(0, round(float(x) * GRID))),
            min(GRID, max(0, round(float(y) * GRID))),
        )
    return coords


class SinrField:
    """Compiled per-edge gain table for one (static) topology.

    Built once per engine at construction; both the reference
    per-listener loop and the CSR gather read gains from here, so the
    invariant monitor can cross-check an engine's live table against a
    fresh recomputation (``sinr_gain_integrity``).
    """

    def __init__(self, graph: nx.Graph, params: SinrParams) -> None:
        self.params = params
        self._coords = quantize_positions(graph)
        self._gains: Dict[Tuple[Hashable, Hashable], int] = {}
        # A fresh view, not the cached ``graph.edges``: that one points
        # back at ``graph`` and would keep it alive until a cyclic
        # collection.
        for u, v in EdgeView(graph):
            gain = self._compute_gain(u, v)
            self._gains[(u, v)] = gain
            self._gains[(v, u)] = gain
        self._validate_bounds(graph.number_of_nodes())

    def _distance(self, u: Hashable, v: Hashable) -> int:
        if self._coords is None:
            return DEFAULT_EDGE_DIST
        ux, uy = self._coords[u]
        vx, vy = self._coords[v]
        return max(1, math.isqrt((ux - vx) ** 2 + (uy - vy) ** 2))

    def _compute_gain(self, u: Hashable, v: Hashable) -> int:
        dist = self._distance(u, v)
        return max(1, GAIN_SCALE // dist ** self.params.pathloss_exponent)

    def gain(self, u: Hashable, v: Hashable) -> int:
        """Fixed-point channel gain of the edge ``u -> v``."""
        return self._gains[(u, v)]

    def gain_table(self) -> Dict[Tuple[Hashable, Hashable], int]:
        """A copy of the directed edge-gain table (both directions)."""
        return dict(self._gains)

    def _validate_bounds(self, n: int) -> None:
        """Reject configurations whose arbitration could overflow int64."""
        max_signal = GAIN_SCALE * max(self.params.power_levels)
        num = self.params.threshold_milli
        total_bound = max(1, n) * max_signal + self.params.noise_floor
        if (THRESHOLD_DEN + num) * max_signal >= _INT64_GUARD or (
            num * total_bound >= _INT64_GUARD
        ):
            raise ConfigurationError(
                "sinr configuration overflows the int64 fixed-point "
                f"arbitration (n={n}, threshold_milli={num}, max power "
                f"multiplier {max(self.params.power_levels)})"
            )

    def csr_gains(
        self, indptr: np.ndarray, indices: np.ndarray,
        vertices: Sequence[Hashable],
    ) -> np.ndarray:
        """Gains aligned with a CSR adjacency's ``indices`` array.

        Entry ``k`` in row ``i`` receives
        ``gain(vertices[i], vertices[indices[k]])``.
        """
        gains = np.empty(len(indices), dtype=np.int64)
        for i in range(len(vertices)):
            u = vertices[i]
            for k in range(int(indptr[i]), int(indptr[i + 1])):
                gains[k] = self._gains[(u, vertices[int(indices[k])])]
        return gains
