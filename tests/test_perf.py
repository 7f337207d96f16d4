"""Tests for the analytical performance layer."""

import dataclasses
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import (
    MODEL_SPECS,
    ClusterSpec,
    GenParallelConfig,
    ParallelConfig,
    RlhfWorkload,
)
from repro.hybrid_engine.overhead import EngineKind
from repro.perf.compute import batch_efficiency, inference_latency, training_latency
from repro.perf.generation import GenerationEstimate, generation_latency
from repro.perf.iteration import (
    GenerationPlan,
    ModelExecution,
    call_latency,
    estimate_iteration,
)
from repro.perf.memory import MemoryModel
from repro.perf.transition import transition_time, weight_sync_time
from repro.rlhf.core import AlgoType
from repro.rlhf.graph import GENERATION, PREPARATION, TRAINING
from repro.runtime.builder import required_models
from tests.oracles import estimate_iteration_reference

SPEC7 = MODEL_SPECS["llama-7b"]
SPEC70 = MODEL_SPECS["llama-70b"]
WL = RlhfWorkload()


def cluster(n_machines=2):
    return ClusterSpec(n_machines=n_machines)


class TestMemoryModel:
    def test_training_state_shards_by_mp(self):
        mm = MemoryModel(SPEC7, cluster())
        full = mm.training(ParallelConfig(1, 1, 1), WL)
        half = mm.training(ParallelConfig(1, 2, 1), WL)
        assert half.params == pytest.approx(full.params / 2)
        assert half.optimizer == pytest.approx(full.optimizer / 2)

    def test_zero3_shards_by_world(self):
        mm = MemoryModel(SPEC7, cluster())
        z = mm.training(ParallelConfig(1, 1, 8), WL, zero3=True)
        assert z.persistent < mm.training(ParallelConfig(1, 1, 8), WL).persistent

    def test_7b_does_not_fit_unsharded(self):
        mm = MemoryModel(SPEC7, cluster())
        # 6.7B * 18 bytes of training state ~ 121 GB > 80 GB
        assert mm.training(ParallelConfig(1, 1, 1), WL).total > mm.usable_bytes_per_gpu()
        assert mm.training(ParallelConfig(1, 4, 1), WL).total < mm.usable_bytes_per_gpu()

    def test_inference_is_params_only(self):
        mm = MemoryModel(SPEC7, cluster())
        stage = mm.inference(ParallelConfig(1, 2, 1), WL)
        assert stage.grads == 0 and stage.optimizer == 0

    def test_kv_capacity_decreases_with_reservation(self):
        mm = MemoryModel(SPEC7, cluster())
        free = mm.kv_capacity_sequences(1, WL)
        tight = mm.kv_capacity_sequences(1, WL, reserved_bytes=40e9)
        assert free > tight > 0

    def test_kv_capacity_zero_when_params_do_not_fit(self):
        mm = MemoryModel(SPEC70, cluster())
        assert mm.kv_capacity_sequences(1, WL) == 0


class TestComputeModels:
    def test_batch_efficiency_monotone(self):
        assert batch_efficiency(0) == 0
        assert batch_efficiency(100) < batch_efficiency(10_000) < 1.0

    def test_training_scales_down_with_gpus(self):
        t8 = training_latency(SPEC7, cluster(1), ParallelConfig(1, 8, 1), WL)
        t16 = training_latency(SPEC7, cluster(2), ParallelConfig(1, 8, 2), WL)
        assert t16 < t8

    def test_training_scales_up_with_model(self):
        c = cluster(2)
        p = ParallelConfig(1, 8, 2)
        assert training_latency(SPEC70, c, p, WL) > training_latency(SPEC7, c, p, WL)

    def test_zero3_not_faster_than_megatron_across_machines(self):
        c = cluster(8)  # 64 GPUs
        zero = training_latency(SPEC7, c, ParallelConfig(1, 1, 64), WL, zero3=True)
        megatron = training_latency(SPEC7, c, ParallelConfig(1, 8, 8), WL)
        assert zero >= megatron

    def test_inference_cheaper_than_training(self):
        c = cluster(1)
        p = ParallelConfig(1, 8, 1)
        assert inference_latency(SPEC7, c, p, WL) < training_latency(SPEC7, c, p, WL)

    def test_epochs_scale_training(self):
        c = cluster(1)
        p = ParallelConfig(1, 8, 1)
        one = training_latency(SPEC7, c, p, WL, n_passes_over_batch=1)
        two = training_latency(SPEC7, c, p, WL, n_passes_over_batch=2)
        assert two > 1.8 * one


class TestGenerationModel:
    #: Per-GPU memory held by the colocated PPO models in the Fig. 15 setup
    #: (four 7B/13B-class models' persistent states over 16 GPUs).
    FIG15_RESERVED = 17e9

    def _fig15_times(self, spec):
        c = cluster(2)
        return {
            tg: generation_latency(
                spec, c, tg, 1, n_replicas=2 * (8 // tg), workload=WL,
                reserved_bytes=self.FIG15_RESERVED,
            ).total
            for tg in (1, 2, 4, 8)
        }

    def test_figure15_same_tp_as_training_is_suboptimal(self):
        """§8.4: using the training TP size for generation (t_g = t = 8, the
        NeMo-Aligner approach) is never the best choice — the whole point of
        resharding between the stages."""
        for spec in (SPEC7, MODEL_SPECS["llama-13b"]):
            times = self._fig15_times(spec)
            assert times[8] > min(times.values()) * 1.1

    def test_figure15_13b_prefers_larger_tg_than_7b(self):
        """7B optimum at t_g<=2, 13B at t_g=4 (Figure 15)."""
        best7 = min((t := self._fig15_times(SPEC7)), key=t.get)
        best13 = min((t := self._fig15_times(MODEL_SPECS["llama-13b"])), key=t.get)
        assert best7 <= 2
        assert best13 == 4

    def test_figure15_tiny_tg_hits_kv_pressure_13b(self):
        """'Further reducing t_g fails to achieve higher speedup, as a
        smaller t_g necessitates maintaining a larger KVCache per GPU.'"""
        times = self._fig15_times(MODEL_SPECS["llama-13b"])
        assert times[1] > min(times.values())

    def test_infeasible_kv_returns_infinite(self):
        est = generation_latency(SPEC70, cluster(2), 1, 1, 16, WL)
        assert est.total == float("inf")

    def test_no_kv_cache_is_slower(self):
        c = cluster(2)
        with_kv = generation_latency(SPEC7, c, 2, 1, 8, WL)
        without = generation_latency(SPEC7, c, 2, 1, 8, WL, use_kv_cache=False)
        assert without.total > 2 * with_kv.total

    def test_remax_double_pass(self):
        c = cluster(2)
        single = generation_latency(SPEC7, c, 2, 1, 8, WL)
        double = generation_latency(SPEC7, c, 2, 1, 8, WL, n_generation_passes=2)
        assert double.total == pytest.approx(2 * single.total)

    def test_waves_when_kv_budget_small(self):
        est = generation_latency(
            SPEC7, cluster(2), 1, 1, 2, WL, reserved_bytes=50e9
        )
        assert est.n_waves > 1

    def test_step_overhead_adds_linear_cost(self):
        c = cluster(2)
        base = generation_latency(SPEC7, c, 2, 1, 8, WL)
        slow = generation_latency(SPEC7, c, 2, 1, 8, WL, step_overhead=0.01)
        expected_extra = 0.01 * WL.response_length * base.n_waves
        assert slow.decode_time - base.decode_time == pytest.approx(
            expected_extra, rel=0.01
        )

    def test_replicas_required(self):
        with pytest.raises(ValueError):
            generation_latency(SPEC7, cluster(2), 1, 1, 0, WL)


class TestTransitionModel:
    def test_hybridflow_cheapest(self):
        c = cluster(2)
        train = ParallelConfig(1, 8, 2)
        gen = GenParallelConfig.derive(train, 1, 2)
        hf = transition_time(EngineKind.HYBRIDFLOW, SPEC7, c, train, gen)
        v = transition_time(EngineKind.HYBRIDFLOW_V, SPEC7, c, train, gen)
        ds = transition_time(
            EngineKind.DS_CHAT, SPEC7, c, ParallelConfig(1, 1, 16),
            GenParallelConfig(1, 1, 1),
        )
        assert hf < v < ds

    def test_identity_transition_is_free(self):
        train = ParallelConfig(1, 8, 2)
        gen = GenParallelConfig.derive(train, 1, 8)
        assert transition_time(EngineKind.HYBRIDFLOW, SPEC7, cluster(2), train, gen) == 0

    def test_hybridflow_constant_across_cluster_scale(self):
        """Figure 14: HybridFlow's transition cost does not grow with GPUs."""
        train_small = ParallelConfig(1, 8, 2)
        train_large = ParallelConfig(1, 8, 16)
        gen_s = GenParallelConfig.derive(train_small, 1, 2)
        gen_l = GenParallelConfig.derive(train_large, 1, 2)
        t_small = transition_time(
            EngineKind.HYBRIDFLOW, SPEC7, cluster(2), train_small, gen_s
        )
        t_large = transition_time(
            EngineKind.HYBRIDFLOW, SPEC7, cluster(16), train_large, gen_l
        )
        assert t_large == pytest.approx(t_small, rel=0.05)

    def test_ds_chat_grows_with_cluster_scale(self):
        t16 = transition_time(
            EngineKind.DS_CHAT, SPEC7, cluster(2), ParallelConfig(1, 1, 16),
            GenParallelConfig(1, 1, 1),
        )
        t128 = transition_time(
            EngineKind.DS_CHAT, SPEC7, cluster(16), ParallelConfig(1, 1, 128),
            GenParallelConfig(1, 1, 1),
        )
        assert t128 > t16

    def test_weight_sync_scales_with_model(self):
        c = cluster(2)
        assert weight_sync_time(SPEC70, c, 8) > weight_sync_time(SPEC7, c, 8)


class TestSimulateLatency:
    def test_dispatch_per_stage(self):
        """``call_latency`` is the one stage dispatch (the paper's ``simu``):
        Algorithm 2 searches with it and the iteration replay prices with it."""
        c = cluster(1)
        p = ParallelConfig(1, 8, 1)
        execution = ModelExecution(SPEC7, "actor", p)
        plan = GenerationPlan(tp=2, pp=1, n_replicas=4, pool="actor")
        t = call_latency(TRAINING, execution, None, WL, c)
        i = call_latency(PREPARATION, execution, None, WL, c)
        g = call_latency(GENERATION, execution, plan, WL, c)
        assert t > i > 0
        assert g > 0
        assert t == training_latency(SPEC7, c, p, WL)
        assert i == inference_latency(SPEC7, c, p, WL)
        assert g == generation_latency(SPEC7, c, 2, 1, 4, WL).total
        # a model's own cluster overrides the job's, as a zone's does
        v100 = dataclasses.replace(c, gpu=dataclasses.replace(c.gpu, peak_flops=125e12))
        on_v100 = dataclasses.replace(execution, cluster=v100)
        assert call_latency(TRAINING, on_v100, None, WL, c) == training_latency(SPEC7, v100, p, WL)


class TestIterationEstimate:
    def executions(self, pool="shared"):
        p = ParallelConfig(1, 8, 2)
        return {
            m: ModelExecution(spec=SPEC7, pool=pool, parallel=p)
            for m in ("actor", "critic", "reference", "reward")
        }

    def gen_plan(self):
        return GenerationPlan(tp=2, pp=1, n_replicas=8, pool="shared")

    def test_breakdown_sums(self):
        b = estimate_iteration(
            AlgoType.PPO, self.executions(), self.gen_plan(), WL, cluster(2)
        )
        assert b.total == pytest.approx(
            b.transition + b.generation + b.preparation + b.training + b.data_transfer
        )
        assert b.throughput(WL) > 0

    def test_missing_role_rejected(self):
        ex = self.executions()
        del ex["critic"]
        with pytest.raises(ValueError, match="critic"):
            estimate_iteration(AlgoType.PPO, ex, self.gen_plan(), WL, cluster(2))

    def test_separate_pools_overlap_in_stage(self):
        """Prep stage: 3 models on one pool serialize; on 3 pools they run
        concurrently, so the stage is strictly faster."""
        colocated = estimate_iteration(
            AlgoType.PPO, self.executions(), self.gen_plan(), WL, cluster(2)
        )
        ex = self.executions()
        ex = {
            m: ModelExecution(spec=SPEC7, pool=f"pool-{m}", parallel=e.parallel)
            for m, e in ex.items()
        }
        split = estimate_iteration(
            AlgoType.PPO, ex, self.gen_plan(), WL, cluster(2)
        )
        assert split.preparation < colocated.preparation
        assert split.training < colocated.training

    def test_remax_doubles_generation(self):
        ppo = estimate_iteration(
            AlgoType.PPO, self.executions(), self.gen_plan(), WL, cluster(2)
        )
        ex = {m: e for m, e in self.executions().items() if m != "critic"}
        remax = estimate_iteration(
            AlgoType.REMAX, ex, self.gen_plan(), WL, cluster(2)
        )
        assert remax.generation == pytest.approx(2 * ppo.generation)

    def test_infinite_generation_gives_zero_throughput(self):
        plan = GenerationPlan(
            tp=1, pp=1, n_replicas=16, pool="shared", reserved_bytes=80e9
        )
        b = estimate_iteration(AlgoType.PPO, self.executions(), plan, WL, cluster(2))
        assert b.throughput(WL) == 0.0


class TestReplayIsTheStageSum:
    """The replay against the stage-sum model it replaced
    (``tests/oracles.py``), on drawn placements and per-call latencies.

    Both price calls through the same simulator names, patched to read a
    drawn table keyed by (role, stage): only the scheduling differs.
    """

    POOLS = st.sampled_from(["p0", "p1", "p2"])
    PAR = ParallelConfig(1, 8, 1)
    SECONDS = st.floats(0.01, 100.0)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        algo=st.sampled_from(
            [AlgoType.PPO, AlgoType.GRPO, AlgoType.SAFE_RLHF, AlgoType.REMAX]
        ),
        data=st.data(),
    )
    def test_replay_against_the_stage_sum(self, algo, data):
        roles = required_models(algo)
        pools = {role: data.draw(self.POOLS, label=role) for role in roles}
        gen_pool = data.draw(self.POOLS, label="generation")
        table = {
            (role, stage): data.draw(self.SECONDS, label=f"{role}/{stage}")
            for role in roles
            for stage in (GENERATION, PREPARATION, TRAINING)
        }
        transition = data.draw(self.SECONDS, label="transition")
        simulators = {
            "generation_latency": lambda spec, *a, n_generation_passes=1, **k: (
                GenerationEstimate(
                    0.0, table[spec.name, GENERATION] * n_generation_passes, 1, 1
                )
            ),
            "inference_latency": lambda spec, *a, **k: table[spec.name, PREPARATION],
            "training_latency": lambda spec, *a, n_passes_over_batch=1.0, **k: (
                table[spec.name, TRAINING] * n_passes_over_batch
            ),
            "transition_time": lambda *a: transition,
        }
        executions = {
            role: ModelExecution(
                dataclasses.replace(SPEC7, name=role), pools[role], self.PAR
            )
            for role in roles
        }
        plan = GenerationPlan(tp=2, pp=1, n_replicas=4, pool=gen_pool)
        with mock.patch.multiple("repro.perf.iteration", **simulators), \
                mock.patch.multiple("tests.oracles", **simulators):
            replay = estimate_iteration(algo, executions, plan, WL, cluster(2))
            stage_sum = estimate_iteration_reference(
                algo, executions, plan, WL, cluster(2)
            )
        if algo is not AlgoType.REMAX:
            assert replay.total == pytest.approx(stage_sum.total, rel=1e-12, abs=0)
            return
        # the scorers of the first rollout may overlap the second
        assert replay.total <= stage_sum.total * (1 + 1e-12)
        if len({gen_pool, *pools.values()}) == 1:
            assert replay.total == pytest.approx(stage_sum.total, rel=1e-12, abs=0)
