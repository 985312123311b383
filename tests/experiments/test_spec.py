"""Tests for ExperimentSpec: validation, canonicalization, round-trip."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments import ExecutionPolicy, ExperimentSpec, spec_hash
from repro.radio.channel import CollisionModel
from repro.radio.message import UNBOUNDED


def spec(**overrides):
    base = dict(topology="path", n=16, algorithm="trivial_bfs", seed=0)
    base.update(overrides)
    return ExperimentSpec(**base)


class TestValidation:
    def test_minimal_spec(self):
        s = spec()
        assert s.engine == "reference"
        assert s.collision_model == "no_cd"
        assert s.message_limit_bits is None

    def test_unknown_topology(self):
        with pytest.raises(ConfigurationError, match="unknown topology"):
            spec(topology="no-such-family")

    def test_unknown_algorithm(self):
        with pytest.raises(ConfigurationError, match="unknown algorithm"):
            spec(algorithm="no-such-algorithm")

    def test_unknown_engine(self):
        with pytest.raises(ConfigurationError, match="unknown engine"):
            spec(engine="warp")

    def test_unknown_collision_model(self):
        with pytest.raises(ConfigurationError, match="collision model"):
            spec(collision_model="psychic")

    def test_bad_n(self):
        with pytest.raises(ConfigurationError):
            spec(n=0)

    def test_bad_seed(self):
        with pytest.raises(ConfigurationError):
            spec(seed=-1)

    def test_bad_message_limit(self):
        with pytest.raises(ConfigurationError):
            spec(message_limit_bits=0)

    def test_non_json_param_rejected(self):
        with pytest.raises(ConfigurationError):
            spec(algorithm_params={"fn": object()})

    def test_non_finite_param_rejected(self):
        with pytest.raises(ConfigurationError):
            spec(algorithm_params={"x": float("inf")})

    def test_non_finite_numpy_param_rejected(self):
        import numpy as np

        with pytest.raises(ConfigurationError):
            spec(algorithm_params={"x": np.float64("inf")})
        with pytest.raises(ConfigurationError):
            spec(algorithm_params={"x": np.float64("nan")})


class TestIntegerFields:
    """``n``, ``seed`` and ``message_limit_bits`` take numpy integers
    as plain ints and refuse bools, which would otherwise share a cell's
    equality and ``hash`` but not its ``spec_hash``."""

    @pytest.mark.parametrize("field", ["n", "seed", "message_limit_bits"])
    @pytest.mark.parametrize("value", [True, np.True_])
    def test_bool_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match="not a bool") as info:
            spec(**{field: value})
        assert "\n" not in str(info.value)

    def test_from_dict_rejects_bool_n(self):
        with pytest.raises(ConfigurationError, match="not a bool"):
            ExperimentSpec.from_dict(
                {"topology": "path", "n": True, "algorithm": "trivial_bfs"}
            )

    def test_numpy_integers_become_ints(self):
        s = spec(n=np.int64(8), seed=np.uint32(3),
                 message_limit_bits=np.int16(64))
        plain = spec(n=8, seed=3, message_limit_bits=64)
        assert s == plain
        assert spec_hash(s) == spec_hash(plain)
        assert all(type(v) is int for v in (s.n, s.seed, s.message_limit_bits))

    @pytest.mark.parametrize(
        "field", ["batch_replicas", "mega_batch", "invariant_sample"])
    def test_execution_caps_take_numpy_integers(self, field):
        policy = ExecutionPolicy(**{field: np.int64(8)})
        assert policy == ExecutionPolicy(**{field: 8})
        assert type(getattr(policy, field)) is int

    @pytest.mark.parametrize(
        "field", ["batch_replicas", "mega_batch", "invariant_sample"])
    @pytest.mark.parametrize("value", [True, np.True_])
    def test_execution_caps_reject_bools(self, field, value):
        with pytest.raises(ConfigurationError, match="not a bool") as info:
            ExecutionPolicy(**{field: value})
        assert "\n" not in str(info.value)


class TestCanonicalization:
    def test_params_order_insensitive(self):
        a = spec(algorithm_params={"a": 1, "b": 2})
        b = spec(algorithm_params={"b": 2, "a": 1})
        assert a == b
        assert hash(a) == hash(b)

    def test_lists_become_tuples(self):
        s = spec(algorithm_params={"sources": [0, 1]})
        assert s.algorithm_params == (("sources", (0, 1)),)
        assert s.params() == {"sources": [0, 1]}

    def test_spec_is_hashable_and_frozen(self):
        s = spec()
        {s}
        with pytest.raises(AttributeError):
            s.n = 99


class TestDerived:
    def test_build_graph_deterministic(self):
        a, b = spec(topology="tree", n=24, seed=7), spec(topology="tree", n=24, seed=7)
        assert sorted(a.build_graph().edges) == sorted(b.build_graph().edges)

    def test_build_graph_varies_with_seed(self):
        a = spec(topology="tree", n=24, seed=7).build_graph()
        b = spec(topology="tree", n=24, seed=8).build_graph()
        assert sorted(a.edges) != sorted(b.edges)

    def test_collision_enum(self):
        assert spec(collision_model="receiver_cd").collision() is CollisionModel.RECEIVER_CD

    def test_size_policy(self):
        assert spec().size_policy().limit_bits == UNBOUNDED
        assert spec(message_limit_bits=64).size_policy().limit_bits == 64.0

    def test_seed_streams_independent_and_stable(self):
        a = [g.random() for g in spec(seed=3).seed_streams()]
        b = [g.random() for g in spec(seed=3).seed_streams()]
        assert a == b
        # v2 added the fault stream (index 3) and v3 the dynamic stream
        # (index 4); earlier streams must stay identical to the earlier
        # derivations, so adding a stream never reseeds old results.
        assert len(set(a)) == 5
        from repro.rng import make_rng, spawn_streams

        v1 = [g.random() for g in spawn_streams(make_rng(3), 3)]
        assert a[:3] == v1
        v2 = [g.random() for g in spawn_streams(make_rng(3), 4)]
        assert a[:4] == v2


class TestRoundTrip:
    def test_to_from_dict(self):
        s = spec(
            topology="grid",
            n=30,
            algorithm="decay_bfs",
            algorithm_params={"sources": [0, 5], "depth_budget": 12},
            engine="fast",
            collision_model="receiver_cd",
            message_limit_bits=128,
            seed=11,
        )
        assert ExperimentSpec.from_dict(s.to_dict()) == s

    def test_from_dict_rejects_unknown_fields(self):
        d = spec().to_dict()
        d["bogus"] = 1
        with pytest.raises(ConfigurationError, match="unknown spec fields"):
            ExperimentSpec.from_dict(d)

    def test_from_dict_rejects_missing_fields(self):
        with pytest.raises(ConfigurationError, match="missing"):
            ExperimentSpec.from_dict({"topology": "path"})
