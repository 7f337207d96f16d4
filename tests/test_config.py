"""Tests for model/cluster/parallelism configuration."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.config import (
    MODEL_SPECS,
    BoundError,
    ClusterSpec,
    GenParallelConfig,
    ParallelConfig,
    RlhfWorkload,
    resolve_model_spec,
    tiny_spec,
)


class TestModelSpec:
    def test_llama_7b_param_count_matches_published(self):
        assert MODEL_SPECS["llama-7b"].n_params() == pytest.approx(6.7e9, rel=0.02)

    def test_llama_13b_param_count_matches_published(self):
        assert MODEL_SPECS["llama-13b"].n_params() == pytest.approx(13e9, rel=0.02)

    def test_llama_70b_param_count_matches_published(self):
        assert MODEL_SPECS["llama-70b"].n_params() == pytest.approx(69e9, rel=0.02)

    def test_param_bytes_is_two_per_param_in_bf16(self):
        spec = MODEL_SPECS["llama-7b"]
        assert spec.param_bytes() == 2 * spec.n_params()

    def test_kv_cache_bytes_per_token_7b(self):
        # 2 (K and V) * 32 layers * 32 heads * 128 dim * 2 bytes
        assert MODEL_SPECS["llama-7b"].kv_cache_bytes_per_token() == 2 * 32 * 4096 * 2

    def test_gqa_shrinks_kv_cache(self):
        assert (
            MODEL_SPECS["llama-70b"].kv_cache_bytes_per_token()
            < MODEL_SPECS["llama-13b"].kv_cache_bytes_per_token()
        )

    def test_train_flops_are_triple_forward(self):
        spec = MODEL_SPECS["llama-7b"]
        assert spec.flops_per_token_train(128) == 3 * spec.flops_per_token_forward(128)

    def test_tiny_spec_is_small(self):
        assert tiny_spec().n_params() < 1_000_000

    def test_resolve_by_name_and_passthrough(self):
        spec = resolve_model_spec("llama-7b")
        assert resolve_model_spec(spec) is spec

    def test_resolve_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown model"):
            resolve_model_spec("llama-3b")


class TestClusterSpec:
    def test_paper_testbed_dimensions(self):
        cluster = ClusterSpec()
        assert cluster.n_gpus == 128
        assert cluster.machine_of(0) == 0
        assert cluster.machine_of(127) == 15

    def test_machine_of_out_of_range(self):
        with pytest.raises(ValueError):
            ClusterSpec().machine_of(128)

    def test_bandwidth_intra_vs_inter(self):
        cluster = ClusterSpec()
        assert cluster.bandwidth_between(0, 7) == cluster.intra_node_bandwidth
        assert cluster.bandwidth_between(0, 8) == cluster.inter_node_bandwidth
        assert cluster.bandwidth_between(3, 3) == math.inf

    def test_subcluster_whole_machines(self):
        sub = ClusterSpec().subcluster(16)
        assert sub.n_machines == 2 and sub.n_gpus == 16

    def test_subcluster_partial_machine(self):
        sub = ClusterSpec().subcluster(4)
        assert sub.n_gpus == 4 and sub.n_machines == 1

    def test_n_racks_counts_the_partial_last_rack(self):
        assert ClusterSpec(n_machines=4).n_racks(2) == 2
        assert ClusterSpec(n_machines=3).n_racks(2) == 2
        assert ClusterSpec(n_machines=1).n_racks(2) == 1
        with pytest.raises(ValueError, match="machines_per_rack"):
            ClusterSpec().n_racks(0)

    def test_subcluster_invalid(self):
        with pytest.raises(ValueError):
            ClusterSpec().subcluster(12)  # not a whole number of machines
        with pytest.raises(ValueError):
            ClusterSpec().subcluster(0)


class TestParallelConfig:
    def test_world_size_and_mp(self):
        cfg = ParallelConfig(pp=2, tp=4, dp=3)
        assert cfg.world_size == 24
        assert cfg.model_parallel_size == 8
        assert str(cfg) == "2-4-3"

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            ParallelConfig(pp=0, tp=1, dp=1)

    @given(
        pp=st.integers(1, 4),
        tp=st.integers(1, 8),
        dp=st.integers(1, 8),
    )
    def test_world_size_identity(self, pp, tp, dp):
        cfg = ParallelConfig(pp=pp, tp=tp, dp=dp)
        assert cfg.world_size == pp * tp * dp


class TestGenParallelConfig:
    def test_derive_micro_dp(self):
        train = ParallelConfig(pp=1, tp=8, dp=2)
        gen = GenParallelConfig.derive(train, gen_pp=1, gen_tp=2)
        assert gen.micro_dp == 4

    def test_derive_identity_config(self):
        train = ParallelConfig(pp=2, tp=4, dp=2)
        gen = GenParallelConfig.derive(train, gen_pp=2, gen_tp=4)
        assert gen.micro_dp == 1

    def test_derive_rejects_non_dividing(self):
        train = ParallelConfig(pp=1, tp=6, dp=2)
        with pytest.raises(ValueError, match="must divide"):
            GenParallelConfig.derive(train, gen_pp=1, gen_tp=4)

    @pytest.mark.parametrize("gen_pp,gen_tp,field", [(1, 0, "tp"), (0, 1, "pp")])
    def test_derive_names_an_out_of_bound_size(self, gen_pp, gen_tp, field):
        # the bound is checked before the sizes divide anything
        with pytest.raises(BoundError, match=f"^{field} must be >= 1, got 0"):
            GenParallelConfig.derive(ParallelConfig(1, 8, 2), gen_pp, gen_tp)

    def test_derive_rejects_larger_than_training(self):
        train = ParallelConfig(pp=1, tp=2, dp=2)
        with pytest.raises(ValueError):
            GenParallelConfig.derive(train, gen_pp=1, gen_tp=4)

    @given(
        p=st.sampled_from([1, 2, 4]),
        t=st.sampled_from([1, 2, 4, 8]),
        d=st.integers(1, 4),
        pg_div=st.sampled_from([1, 2]),
        tg_div=st.sampled_from([1, 2, 4]),
    )
    def test_na_invariant(self, p, t, d, pg_div, tg_div):
        """§5.1: N_a = p*t*d = p_g*t_g*d_g*d for any valid derivation."""
        if p % pg_div or t % tg_div:
            return
        train = ParallelConfig(pp=p, tp=t, dp=d)
        gen = GenParallelConfig.derive(train, p // pg_div, t // tg_div)
        assert gen.pp * gen.tp * gen.micro_dp * d == train.world_size


class TestWorkload:
    def test_paper_defaults(self):
        wl = RlhfWorkload()
        assert wl.seq_length == 2048
        assert wl.tokens_per_iteration == 1024 * 2048

    def test_grpo_multiplies_tokens(self):
        wl = RlhfWorkload(n_generations_per_prompt=4)
        assert wl.tokens_per_iteration == 4 * 1024 * 2048


class TestFieldBounds:
    """Each bounded config field rejects the nearest value outside its bound
    with a ``BoundError`` naming the field; the bounds are read from the
    fields' metadata."""

    @staticmethod
    def _configs():
        from repro.analysis.modelcheck import ModelChecker
        from repro.faults.plan import FaultEvent, FaultKind
        from repro.faults.policy import RetryPolicy
        from repro.fleet.job import JobSpec
        from repro.pipeline.config import PipelineConfig
        from repro.rlhf.trainers import TrainerConfig
        from repro.runtime import SystemSpec
        from repro.serving.server import ServingConfig

        return [
            (ClusterSpec, {}),
            (ParallelConfig, {}),
            (GenParallelConfig, {}),
            (RlhfWorkload, {}),
            (ServingConfig, {}),
            (PipelineConfig, {}),
            (FaultEvent, {"kind": FaultKind.TRANSIENT_RPC, "at_step": 0}),
            (RetryPolicy, {}),
            (JobSpec, {"name": "j"}),
            (ModelChecker, {}),
            (TrainerConfig, {}),
            (SystemSpec, {}),
        ]

    def test_every_bound_holds(self):
        from repro.config import BoundError, field_bounds

        checked = 0
        for cls, required in self._configs():
            cls(**required)
            for name, (bound, _optional) in field_bounds(cls).items():
                ((key, limit),) = bound.items()
                outside = limit if key == "gt" else limit - 1
                with pytest.raises(BoundError, match=f"^{name} must be") as exc:
                    cls(**{**required, name: outside})
                assert exc.value.field == name and exc.value.value == outside
                checked += 1
        assert checked >= 30

    def test_an_optional_bound_admits_none_and_says_so(self):
        from repro.config import BoundError
        from repro.serving.server import ServingConfig

        assert ServingConfig(n_blocks=None).n_blocks is None
        with pytest.raises(BoundError, match="n_blocks must be None or >= 1, got 0"):
            ServingConfig(n_blocks=0)

    def test_a_tuple_seed_is_held_elementwise(self):
        from repro.config import BoundError
        from repro.serving.server import ServingConfig

        ServingConfig(seed=(0, 3))
        with pytest.raises(BoundError, match="seed must be >= 0"):
            ServingConfig(seed=(0, -1))
