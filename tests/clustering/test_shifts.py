"""Tests for exponential shift sampling."""

import math

import numpy as np
import pytest

from repro.clustering import ShiftParameters, Shifts
from repro.errors import ConfigurationError


class TestShiftParameters:
    def test_horizon_formula(self):
        p = ShiftParameters(beta=1 / 4, n=100, radius_multiplier=4.0)
        assert p.horizon == math.ceil(4.0 * math.log(100) * 4)
        assert p.inv_beta == 4

    def test_invalid_beta(self):
        with pytest.raises(ConfigurationError):
            ShiftParameters(beta=0.0, n=10)
        with pytest.raises(ConfigurationError):
            ShiftParameters(beta=0.3, n=10)  # 1/0.3 not integer
        with pytest.raises(ConfigurationError):
            ShiftParameters(beta=2.0, n=10)

    def test_invalid_n(self):
        with pytest.raises(ConfigurationError):
            ShiftParameters(beta=1 / 2, n=1)

    def test_invalid_multiplier(self):
        with pytest.raises(ConfigurationError):
            ShiftParameters(beta=1 / 2, n=10, radius_multiplier=0)


class TestSampling:
    def test_start_times_positive(self):
        p = ShiftParameters(beta=1 / 4, n=50)
        s = Shifts.sample(range(50), p, seed=0)
        assert all(1 <= t <= p.horizon for t in s.start_time.values())

    def test_delta_exponential_mean(self):
        """Sampled shifts have mean ~ 1/beta."""
        p = ShiftParameters(beta=1 / 8, n=4000)
        s = Shifts.sample(range(4000), p, seed=1)
        mean = np.mean(list(s.delta.values()))
        assert 6.0 < mean < 10.5  # 1/beta = 8 +- sampling noise

    def test_rounding_rule(self):
        p = ShiftParameters(beta=1 / 2, n=16)
        s = Shifts.sample(range(16), p, seed=2)
        horizon = p.horizon
        for v in range(16):
            expected = max(1, math.ceil(horizon - s.delta[v]))
            assert s.start_time[v] == expected

    def test_reproducible(self):
        p = ShiftParameters(beta=1 / 4, n=30)
        a = Shifts.sample(range(30), p, seed=3)
        b = Shifts.sample(range(30), p, seed=3)
        assert a.start_time == b.start_time

    def test_centers_by_round(self):
        p = ShiftParameters(beta=1 / 2, n=20)
        s = Shifts.sample(range(20), p, seed=4)
        buckets = s.centers_by_round(range(20))
        assert sorted(buckets) == sorted(set(s.start_time.values()))
        for r in range(1, p.horizon + 1):
            assert buckets.get(r, []) == sorted(
                (v for v, t in s.start_time.items() if t == r), key=repr
            )

    def test_centers_by_round_sorts_by_repr_stably(self):
        class Tied:
            def __repr__(self):
                return "t"

        first, second = Tied(), Tied()
        p = ShiftParameters(beta=1 / 2, n=20)
        s = Shifts(params=p, delta={},
                   start_time={second: 1, 10: 1, first: 1, 9: 2})
        assert s.centers_by_round([second, 10, first, 9]) == {
            1: [10, second, first], 2: [9]}
