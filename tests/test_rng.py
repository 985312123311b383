"""Tests for seeded randomness utilities."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.rng import (
    DeviceStreams,
    LazyGenerator,
    device_streams,
    exponential,
    geometric_decay_slot,
    make_rng,
    spawn_streams,
)


class TestMakeRng:
    def test_from_int(self):
        a, b = make_rng(7), make_rng(7)
        assert a.random() == b.random()

    def test_passthrough_generator(self):
        g = np.random.default_rng(1)
        assert make_rng(g) is g

    def test_none_gives_fresh(self):
        assert isinstance(make_rng(None), np.random.Generator)


class TestSpawnStreams:
    def test_count(self):
        streams = spawn_streams(make_rng(0), 5)
        assert len(streams) == 5

    def test_independence(self):
        streams = spawn_streams(make_rng(0), 3)
        draws = [s.random() for s in streams]
        assert len(set(draws)) == 3

    def test_reproducible(self):
        a = [s.random() for s in spawn_streams(make_rng(9), 4)]
        b = [s.random() for s in spawn_streams(make_rng(9), 4)]
        assert a == b

    def test_negative_count_rejected(self):
        """Library-wide error taxonomy: bad config raises ConfigurationError."""
        with pytest.raises(ConfigurationError):
            spawn_streams(make_rng(0), -1)

    def test_zero_count(self):
        assert spawn_streams(make_rng(0), 0) == []

    def test_returns_generators(self):
        streams = spawn_streams(make_rng(0), 3)
        assert all(isinstance(s, np.random.Generator) for s in streams)


class TestExponential:
    def test_mean(self):
        rng = make_rng(3)
        draws = [exponential(rng, beta=0.5) for _ in range(4000)]
        assert 1.8 < float(np.mean(draws)) < 2.2  # mean 1/beta = 2

    def test_positive(self):
        rng = make_rng(4)
        assert all(exponential(rng, 1.0) >= 0 for _ in range(100))

    def test_invalid_beta(self):
        with pytest.raises(ValueError):
            exponential(make_rng(0), 0.0)


class TestGeometricDecaySlot:
    def test_range(self):
        rng = make_rng(5)
        for _ in range(200):
            slot = geometric_decay_slot(rng, 6)
            assert 1 <= slot <= 6

    def test_distribution_lower_bound(self):
        """Lemma 2.4 needs P(X = t) >= 2^-t; check t = 1, 2 empirically."""
        rng = make_rng(6)
        draws = [geometric_decay_slot(rng, 8) for _ in range(8000)]
        for t in (1, 2, 3):
            freq = sum(1 for d in draws if d == t) / len(draws)
            assert freq >= 2.0**-t - 0.03

    def test_truncation_mass(self):
        """Leftover geometric mass lands on the last slot."""
        rng = make_rng(7)
        draws = [geometric_decay_slot(rng, 2) for _ in range(4000)]
        freq2 = sum(1 for d in draws if d == 2) / len(draws)
        assert freq2 >= 0.45  # 1 - P(1) = 1/2

    def test_invalid_max_slot(self):
        with pytest.raises(ValueError):
            geometric_decay_slot(make_rng(0), 0)


class TestDecaySenderSlots:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("max_degree, f", [(1, 0.5), (9, 1e-5), (300, 1e-12)])
    def test_vector_draw_equals_the_scalar_loop_and_ends_at_the_same_position(
        self, seed, max_degree, f
    ):
        """NumPy does not document that ``geometric(p, size=k)`` draws
        like ``k`` scalar calls; Decay's sender schedules rely on it."""
        from repro.primitives.decay import DecayParameters

        params = DecayParameters.for_network(max_degree, f)
        vector_rng, scalar_rng = make_rng(seed), make_rng(seed)
        got = params.sender_slots(vector_rng)
        want = [it * params.window + geometric_decay_slot(scalar_rng, params.window) - 1
                for it in range(params.iterations)]
        assert got.dtype == np.int64 and got.tolist() == want
        assert (vector_rng.bit_generator.state
                == scalar_rng.bit_generator.state)


def _state(rng):
    return rng.bit_generator.state


class TestDeviceStreams:
    @pytest.mark.parametrize("seed", [0, 12345, [3, 1, 4]])
    def test_children_equal_eager_spawn_across_blocks(self, seed):
        """Child ``k`` is the ``k``-th child ``SeedSequence.spawn`` gives,
        whatever the block it was reserved in."""
        streams = DeviceStreams(np.random.default_rng(seed))
        eager = np.random.default_rng(seed).bit_generator.seed_seq.spawn(23)
        bases = [streams.reserve(size) for size in (5, 0, 11, 7)]
        assert bases == [0, 5, 5, 16]
        for k in (0, 4, 5, 15, 16, 22):
            assert _state(streams.generator(k)) == _state(
                np.random.default_rng(eager[k]))

    def test_starts_where_the_seed_counter_stood(self):
        rng = make_rng(8)
        first = spawn_streams(rng, 3)
        streams = DeviceStreams(rng)
        assert streams.reserve(2) == 3
        after = spawn_streams(make_rng(8), 5)[3:]
        assert [_state(streams.generator(3 + i)) for i in range(2)] == [
            _state(g) for g in after]
        assert len(first) == 3

    def test_negative_reserve_rejected(self):
        with pytest.raises(ConfigurationError):
            DeviceStreams(0).reserve(-1)

    def test_holder_does_not_advance_the_seed_counter(self):
        rng = make_rng(2)
        DeviceStreams(rng).reserve(10)
        assert rng.bit_generator.seed_seq.n_children_spawned == 0

    def test_a_callers_generator_keeps_eager_derivation(self):
        """A Generator handed to ``device_streams`` directly (as
        ``run_decay_local_broadcast``'s ``seed``, say) has its counter
        advanced, so spawning from it again continues past the block,
        exactly as the eager spawn did."""
        rng = make_rng(4)
        streams, base = device_streams(rng, 6)
        assert base == 0
        assert rng.bit_generator.seed_seq.n_children_spawned == 6
        streams2, base2 = device_streams(rng, 6)
        assert base2 == 6
        eager = spawn_streams(make_rng(4), 12)
        assert _state(streams.generator(5)) == _state(eager[5])
        assert _state(streams2.generator(base2 + 1)) == _state(eager[7])
        # An int seed owns its Generator, so nothing is spawned eagerly.
        holder = DeviceStreams(4)
        assert device_streams(holder, 3) == (holder, 0)


class TestLazyGenerator:
    def test_builds_on_first_use_and_forwards(self, monkeypatch):
        built = []
        generator = DeviceStreams.generator
        monkeypatch.setattr(DeviceStreams, "generator",
                            lambda self, k: built.append(k) or generator(self, k))
        lazy = LazyGenerator(DeviceStreams(5), 2)
        assert built == []
        eager = spawn_streams(make_rng(5), 3)[2]
        assert lazy.random() == eager.random()
        assert lazy.integers(100) == eager.integers(100)
        assert built == [2]

    def test_copies_and_pickles_draw_like_the_original(self):
        import copy
        import pickle

        for clone in (copy.copy, lambda g: pickle.loads(pickle.dumps(g))):
            lazy = LazyGenerator(DeviceStreams(6), 1)
            assert clone(lazy).random() == lazy.random()

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_a_device_that_never_draws_builds_no_generator(self, engine,
                                                           monkeypatch):
        """A Decay round through ``spawn_device_map`` on a 16-vertex grid:
        only the sender draws, so only vertex 0's stream is built."""
        from repro.primitives.decay import run_decay_local_broadcast
        from repro.radio import make_network, message_of_ints, topology

        built = []
        generator = DeviceStreams.generator
        monkeypatch.setattr(DeviceStreams, "generator",
                            lambda self, k: built.append(k) or generator(self, k))
        net = make_network(topology.scenario("grid", 16), engine=engine)
        streams = DeviceStreams(3)
        streams.reserve(32)
        run_decay_local_broadcast(
            net, {0: message_of_ints(0, 0)}, [1, 4], seed=streams)
        assert built == [32]
