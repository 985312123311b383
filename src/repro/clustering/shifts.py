"""Exponential start-time shifts for MPX clustering (paper Section 2.2).

Each vertex ``v`` samples ``delta_v ~ Exponential(beta)`` (mean
``1/beta``) and sets its start time ``start_v = ceil(T - delta_v)``
where ``T = radius_multiplier * ln(n) / beta`` is the horizon.  The
paper uses ``T = 4 log(n) / beta``, under which all start times are
positive with probability ``1 - 1/n^3``; we expose the multiplier and
clamp the rare overshoot to round 1 (equivalent to conditioning on the
w.h.p. event, as the paper's analysis does — see DESIGN.md §3.3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List


from ..errors import ConfigurationError
from ..rng import SeedLike, make_rng


@dataclass(frozen=True)
class ShiftParameters:
    """Shape of the shifted start-time sampling."""

    beta: float
    n: int
    radius_multiplier: float = 4.0

    def __post_init__(self) -> None:
        if not (0.0 < self.beta <= 1.0):
            raise ConfigurationError(f"beta must be in (0, 1], got {self.beta}")
        inv = 1.0 / self.beta
        if abs(inv - round(inv)) > 1e-9:
            raise ConfigurationError(
                f"1/beta must be an integer (paper convention), got 1/beta={inv}"
            )
        if self.n < 2:
            raise ConfigurationError(f"n must be >= 2, got {self.n}")
        if self.radius_multiplier <= 0:
            raise ConfigurationError("radius_multiplier must be positive")

    @property
    def inv_beta(self) -> int:
        """The integer ``1/beta``."""
        return round(1.0 / self.beta)

    @property
    def horizon(self) -> int:
        """``T = ceil(radius_multiplier * ln(n) / beta)``: growth rounds.

        This bounds every cluster radius (a cluster born at round ``s``
        grows for ``T - s < T`` rounds), which is the "all radii at most
        ``4 log(n)/beta``" event the paper conditions on.
        """
        return max(1, math.ceil(self.radius_multiplier * math.log(self.n) / self.beta))


@dataclass(frozen=True)
class Shifts:
    """Sampled shifts and derived integer start times."""

    params: ShiftParameters
    delta: Dict[Hashable, float]
    start_time: Dict[Hashable, int]

    @classmethod
    def sample(
        cls,
        vertices: Iterable[Hashable],
        params: ShiftParameters,
        seed: SeedLike = None,
    ) -> "Shifts":
        """Sample ``delta_v ~ Exp(beta)`` per vertex and round start times."""
        rng = make_rng(seed)
        vertex_list = list(vertices)
        draws = rng.exponential(scale=1.0 / params.beta, size=len(vertex_list))
        delta: Dict[Hashable, float] = {}
        start: Dict[Hashable, int] = {}
        horizon = params.horizon
        for v, d in zip(vertex_list, draws):
            delta[v] = float(d)
            # start_v = ceil(T - delta_v); clamp the 1/poly(n)-probability
            # overshoot (delta > T) to round 1.
            start[v] = max(1, math.ceil(horizon - d))
        return cls(params=params, delta=delta, start_time=start)

    def centers_by_round(
        self, vertices: Iterable[Hashable]
    ) -> Dict[int, List[Hashable]]:
        """Bucket ``vertices`` by start time: ``{round: vertices}``.

        Each bucket is sorted by ``repr`` (stably, so ties keep the
        order of ``vertices``): the order in which MPX makes a round's
        new centers.  Built once per clustering, so no round rescans the
        vertex set for its centers.
        """
        buckets: Dict[int, List[Hashable]] = {}
        start = self.start_time
        for v in vertices:
            buckets.setdefault(start[v], []).append(v)
        for bucket in buckets.values():
            bucket.sort(key=repr)
        return buckets
