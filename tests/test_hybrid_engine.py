"""Tests for the 3D-HybridEngine: functional resharding and Table 2 claims."""

import dataclasses
import functools
import json
import pathlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import ShardingVerifier
from repro.config import ClusterSpec, GenParallelConfig, ParallelConfig
from repro.hybrid_engine import (
    EngineKind,
    HybridEngine3D,
    WeightPublisher,
    plan_for_geometry,
    plan_transition,
    transition_overhead,
)
from repro.models.sharding import shard_nbytes, shard_params
from repro.models.tinylm import TinyLM, TinyLMConfig
from repro.parallel.topology import GenGroupingMode
from repro.single_controller import SingleController, WorkerGroup
from repro.workers import ActorWorker

LM_CFG = TinyLMConfig(
    n_layers=4,
    hidden_size=32,
    n_heads=4,
    ffn_hidden_size=48,
    vocab_size=16,
    max_seq_len=32,
)


# every tp in {1, 2, 3, 4, 6} and pp in {1, 2, 4} divides it
WIDE_CFG = TinyLMConfig(
    n_layers=4,
    hidden_size=48,
    n_heads=12,
    ffn_hidden_size=96,
    vocab_size=24,
    max_seq_len=16,
)
GOLDEN = pathlib.Path(__file__).parent / "golden" / "transition_reports.json"


def actor_group(
    parallel, gen_tp, gen_pp=1, mode=GenGroupingMode.HYBRIDFLOW, cfg=LM_CFG
):
    controller = SingleController(ClusterSpec(n_machines=2))
    pool = controller.create_pool(parallel.world_size)
    gen = GenParallelConfig.derive(parallel, gen_pp, gen_tp)
    group = WorkerGroup(
        ActorWorker,
        pool,
        parallel_config=parallel,
        gen_config=gen,
        gen_mode=mode,
        controller=controller,
        name="actor",
        worker_kwargs={"model_config": cfg},
    )
    return controller, group


@functools.lru_cache(maxsize=None)
def full_state(cfg):
    return TinyLM(cfg, seed=0).state_dict()


def prescribed_gen_shard(group, worker, cfg):
    """The slice of the full model a rank's generation coordinates name."""
    gen = group.gen_topology
    c = gen.coords(worker.ctx.global_rank)
    return shard_params(
        full_state(cfg),
        tp_rank=c.tg,
        tp_size=gen.config.tp,
        pp_rank=c.pg,
        pp_size=gen.config.pp,
        n_layers=cfg.n_layers,
    )


def assert_shards_equal(actual, expected):
    assert set(actual) == set(expected)
    for name in expected:
        np.testing.assert_array_equal(actual[name], expected[name])


GRIDS = [
    (ParallelConfig(1, 4, 2), 2, 1),  # Figure 8
    (ParallelConfig(1, 4, 1), 1, 1),
    (ParallelConfig(2, 2, 2), 2, 1),
    (ParallelConfig(2, 2, 1), 1, 1),
    (ParallelConfig(4, 2, 1), 2, 2),
]


class TestFunctionalTransition:
    @pytest.mark.parametrize("parallel,gen_tp,gen_pp", GRIDS)
    @pytest.mark.parametrize(
        "mode", [GenGroupingMode.HYBRIDFLOW, GenGroupingMode.VANILLA]
    )
    def test_gen_shards_are_bit_exact(self, parallel, gen_tp, gen_pp, mode):
        """Each rank's generation shard equals the slice of the full model
        that its generation coordinates prescribe — for both groupings."""
        _, group = actor_group(parallel, gen_tp, gen_pp, mode)
        HybridEngine3D(group).to_generation()
        for worker in group.workers:
            assert_shards_equal(
                worker.gen_shard, prescribed_gen_shard(group, worker, LM_CFG)
            )

    @pytest.mark.parametrize("parallel,gen_tp,gen_pp", GRIDS)
    @pytest.mark.parametrize(
        "mode", [GenGroupingMode.HYBRIDFLOW, GenGroupingMode.VANILLA]
    )
    def test_observed_costs_match_the_recorded_ones(
        self, parallel, gen_tp, gen_pp, mode
    ):
        """Per-rank comm/peak/redundancy, ledger peaks and the meter total are
        what the two hand-written executors reported before the engine became
        an interpreter of its plan (recorded at that commit)."""
        controller, group = actor_group(parallel, gen_tp, gen_pp, mode)
        report = HybridEngine3D(group).to_generation()
        ranks = [w.ctx.global_rank for w in group.workers]
        key = (
            f"{parallel.pp}-{parallel.tp}-{parallel.dp}->{gen_pp}-{gen_tp}"
            f"[{mode.name}]"
        )
        assert json.loads(GOLDEN.read_text())[key] == {
            "comm": [report.comm_bytes_per_rank[r] for r in ranks],
            "peak": [report.peak_param_bytes_per_rank[r] for r in ranks],
            "redundant": [report.redundant_bytes_per_rank[r] for r in ranks],
            "peak_used": [w.ctx.device.memory.peak_used for w in group.workers],
            "meter_total": controller.meter.total_bytes(),
        }

    @pytest.mark.parametrize("gen_tp,whole_shard_reused", [
        (6, {0, 1, 2, 3, 4, 5}),
        (1, {0, 1, 2, 3, 4, 5}),
        (3, {0, 5}),
    ])
    def test_vanilla_redundancy_is_exact_when_tp_is_not_a_power_of_two(
        self, gen_tp, whole_shard_reused
    ):
        """Interval containment is decided on exact fractions: with tp=6 the
        float form ``int(nbytes * (t+1)/6 ...)`` dropped a byte per
        partitioned tensor on ranks 3 and 5 and reported it as redundant —
        even for the identity transition."""
        cfg = TinyLMConfig(
            n_layers=2,
            hidden_size=48,
            n_heads=6,
            ffn_hidden_size=96,
            vocab_size=18,
            max_seq_len=16,
        )
        _, group = actor_group(
            ParallelConfig(1, 6, 1), gen_tp, mode=GenGroupingMode.VANILLA, cfg=cfg
        )
        report = HybridEngine3D(group).to_generation()
        for worker in group.workers:
            rank = worker.ctx.global_rank
            train_bytes = shard_nbytes(worker.shard)
            extra = worker.ctx.device.memory.bytes_for("actor/gen_params_extra")
            if rank in whole_shard_reused:
                assert report.redundant_bytes_per_rank[rank] == 0
                assert extra == shard_nbytes(worker.gen_shard) - train_bytes
            else:
                assert 0 < report.redundant_bytes_per_rank[rank] < train_bytes

    def test_hybridflow_zero_redundancy_observed(self):
        _, group = actor_group(ParallelConfig(1, 4, 2), gen_tp=2)
        report = HybridEngine3D(group).to_generation()
        assert report.total_redundant_bytes == 0
        for worker in group.workers:
            extra = worker.ctx.device.memory.bytes_for("actor/gen_params_extra")
            gen_bytes = shard_nbytes(worker.gen_shard)
            train_bytes = shard_nbytes(worker.shard)
            # extra allocation is exactly the non-resident part of the shard
            assert extra == gen_bytes - train_bytes

    def test_vanilla_redundancy_observed_on_figure8_ranks(self):
        _, group = actor_group(
            ParallelConfig(1, 4, 2), gen_tp=2, mode=GenGroupingMode.VANILLA
        )
        report = HybridEngine3D(group).to_generation()
        # G2, G3, G6, G7 (0-indexed 1, 2, 5, 6) hold fully-duplicate weights
        for rank in (1, 2, 5, 6):
            assert report.redundant_bytes_per_rank[rank] > 0
        for rank in (0, 3, 4, 7):
            assert report.redundant_bytes_per_rank[rank] == 0

    def test_vanilla_peak_is_full_model(self):
        _, group = actor_group(
            ParallelConfig(1, 4, 1), gen_tp=2, mode=GenGroupingMode.VANILLA
        )
        engine = HybridEngine3D(group)
        report = engine.to_generation()
        full_bytes = sum(
            arr.nbytes for arr in TinyLM(LM_CFG, seed=0).state_dict().values()
        )
        assert report.max_peak_bytes == full_bytes
        # the device ledger saw the transient gather buffer
        for worker in group.workers:
            assert worker.ctx.device.memory.peak_used >= full_bytes

    def test_to_training_frees_generation_memory(self):
        _, group = actor_group(ParallelConfig(1, 4, 1), gen_tp=1)
        engine = HybridEngine3D(group)
        engine.to_generation()
        engine.to_training()
        for worker in group.workers:
            assert not hasattr(worker, "gen_shard")
            assert (
                worker.ctx.device.memory.bytes_for("actor/gen_params_extra") == 0
            )

    def test_double_transition_rejected(self):
        _, group = actor_group(ParallelConfig(1, 2, 1), gen_tp=1)
        engine = HybridEngine3D(group)
        engine.to_generation()
        with pytest.raises(RuntimeError, match="already"):
            engine.to_generation()
        engine.to_training()
        with pytest.raises(RuntimeError, match="not in"):
            engine.to_training()

    def test_requires_gen_topology(self):
        controller = SingleController(ClusterSpec(n_machines=1))
        pool = controller.create_pool(2)
        group = WorkerGroup(
            ActorWorker,
            pool,
            parallel_config=ParallelConfig(1, 2, 1),
            controller=controller,
            worker_kwargs={"model_config": LM_CFG},
        )
        with pytest.raises(ValueError, match="generation topology"):
            HybridEngine3D(group)

    def test_materialize_generation_replica_equals_full_model(self):
        _, group = actor_group(ParallelConfig(1, 4, 1), gen_tp=2)
        engine = HybridEngine3D(group)
        engine.to_generation()
        full = TinyLM(LM_CFG, seed=0).state_dict()
        state = engine.materialize_generation_replica(group.workers[0])
        for name in full:
            np.testing.assert_array_equal(state[name], full[name])

    def test_transition_after_update_carries_new_weights(self):
        """The §5.2 workflow: weights updated in iteration i are what the
        generation stage of iteration i+1 sees."""
        from repro.data.batch import DataBatch

        _, group = actor_group(ParallelConfig(1, 2, 1), gen_tp=1)
        rng = np.random.default_rng(0)
        p = DataBatch({"prompts": rng.integers(0, 16, size=(2, 4))})
        out = group.generate_sequences(p).get()
        resp_len = out["old_log_probs"].shape[1]
        batch = out.union(group.compute_log_prob(out).get()).union(
            DataBatch({"advantages": np.ones((2, resp_len))}, meta=out.meta)
        )
        group.update_actor(batch, loss_func="ppo").get()
        engine = group.hybrid_engine
        engine.to_generation()
        updated = group.workers[0].materialize_full_state()
        state = engine.materialize_generation_replica(group.workers[0])
        for name in state:
            np.testing.assert_array_equal(state[name], updated[name])
        engine.to_training()


class TestCommVolumeMatchesTable2:
    @pytest.mark.parametrize("parallel,gen_tp,gen_pp", GRIDS)
    def test_hybridflow_comm_at_most_formula(self, parallel, gen_tp, gen_pp):
        """Observed per-rank all-gather bytes stay within the Table 2 bound.

        The formula assumes an even parameter split across ranks; real
        parameters include replicated norms so per-rank bytes vary slightly —
        the observed maximum must stay within a small factor of the bound.
        """
        _, group = actor_group(parallel, gen_tp, gen_pp)
        report = HybridEngine3D(group).to_generation()
        gen = GenParallelConfig.derive(parallel, gen_pp, gen_tp)
        bound = transition_overhead(
            EngineKind.HYBRIDFLOW, parallel, gen
        ).comm_bytes(sum(
            arr.nbytes for arr in TinyLM(LM_CFG, seed=0).state_dict().values()
        ))
        if gen.micro_dp == 1:
            assert report.max_comm_bytes == 0
        else:
            assert report.max_comm_bytes <= bound * 1.6
            assert report.max_comm_bytes > 0


class TestOverheadAlgebra:
    def setup_method(self):
        self.train = ParallelConfig(pp=1, tp=8, dp=2)
        self.gen = GenParallelConfig.derive(self.train, 1, 2)

    def test_ds_chat_row(self):
        o = transition_overhead(EngineKind.DS_CHAT, self.train, self.gen)
        assert o.comm_fraction == Fraction(15, 16)
        assert o.peak_memory_fraction == 1
        assert o.redundancy_fraction == Fraction(1, 16)

    def test_hybridflow_v_row(self):
        o = transition_overhead(EngineKind.HYBRIDFLOW_V, self.train, self.gen)
        assert o.comm_fraction == Fraction(7, 8)
        assert o.peak_memory_fraction == 1
        assert o.redundancy_fraction == Fraction(1, 8)

    def test_hybridflow_row(self):
        o = transition_overhead(EngineKind.HYBRIDFLOW, self.train, self.gen)
        # (tp - tg*pg) / (tg*pg*tp) with tp=8, tg*pg=2 -> 6/16 = 3/8
        assert o.comm_fraction == Fraction(3, 8)
        assert o.peak_memory_fraction == Fraction(1, 2)
        assert o.redundancy_fraction == 0

    def test_hybridflow_strictly_dominates(self):
        for gen_tp in (1, 2, 4, 8):
            gen = GenParallelConfig.derive(self.train, 1, gen_tp)
            hf = transition_overhead(EngineKind.HYBRIDFLOW, self.train, gen)
            v = transition_overhead(EngineKind.HYBRIDFLOW_V, self.train, gen)
            ds = transition_overhead(EngineKind.DS_CHAT, self.train, gen)
            assert hf.comm_fraction <= v.comm_fraction <= ds.comm_fraction
            assert hf.peak_memory_fraction <= v.peak_memory_fraction
            assert hf.redundancy_fraction <= v.redundancy_fraction

    def test_identity_config_costs_nothing(self):
        gen = GenParallelConfig.derive(self.train, 1, 8)
        o = transition_overhead(EngineKind.HYBRIDFLOW, self.train, gen)
        assert o.comm_fraction == 0
        assert o.redundancy_fraction == 0

    def test_bytes_helpers(self):
        o = transition_overhead(EngineKind.HYBRIDFLOW, self.train, self.gen)
        assert o.comm_bytes(16) == 6.0
        assert o.peak_memory_bytes(16) == 8.0
        assert o.redundancy_bytes(16) == 0.0

    def test_invalid_gen_size_rejected(self):
        bad = GenParallelConfig(pp=1, tp=3, micro_dp=1)
        with pytest.raises(ValueError):
            transition_overhead(EngineKind.HYBRIDFLOW, self.train, bad)


class TestPlanCache:
    """``plan_transition`` memoizes on (mode, gen cfg, train cfg, ranks)."""

    def setup_method(self):
        plan_for_geometry.cache_clear()

    @staticmethod
    def stats():
        info = plan_for_geometry.cache_info()
        return {"hits": info.hits, "misses": info.misses, "size": info.currsize}

    def test_repeat_topology_hits_cache(self):
        _, group = actor_group(ParallelConfig(1, 4, 2), gen_tp=2)
        first = plan_transition(group.gen_topology)
        assert self.stats() == {"hits": 0, "misses": 1, "size": 1}
        second = plan_transition(group.gen_topology)
        assert second is first
        assert self.stats()["hits"] == 1

    def test_distinct_topologies_miss(self):
        _, a = actor_group(ParallelConfig(1, 4, 2), gen_tp=2)
        _, b = actor_group(ParallelConfig(1, 4, 1), gen_tp=1)
        plan_transition(a.gen_topology)
        plan_transition(b.gen_topology)
        stats = self.stats()
        assert stats["misses"] == 2
        assert stats["hits"] == 0

    def test_grouping_mode_is_part_of_the_key(self):
        _, hf = actor_group(ParallelConfig(2, 2, 2), gen_tp=2)
        _, vanilla = actor_group(
            ParallelConfig(2, 2, 2), gen_tp=2, mode=GenGroupingMode.VANILLA
        )
        plan_transition(hf.gen_topology)
        plan_transition(vanilla.gen_topology)
        assert self.stats()["misses"] == 2

    def test_clear_resets(self):
        _, group = actor_group(ParallelConfig(1, 4, 1), gen_tp=1)
        plan_transition(group.gen_topology)
        plan_for_geometry.cache_clear()
        assert self.stats() == {"hits": 0, "misses": 0, "size": 0}

    def test_the_engine_plans_and_equal_geometries_share_the_plan(self):
        """``to_generation`` is the planner: one miss for the first engine,
        hits afterwards — also from a second controller, whose meter the
        shared plan therefore cannot be bound to."""
        _, a = actor_group(ParallelConfig(1, 4, 2), gen_tp=2)
        _, b = actor_group(ParallelConfig(1, 4, 2), gen_tp=2)
        for group in (a, b):
            engine = HybridEngine3D(group)
            engine.to_generation()
            engine.to_training()
        assert self.stats() == {"hits": 1, "misses": 1, "size": 1}
        assert plan_transition(a.gen_topology) is plan_transition(b.gen_topology)


#: every (training 3D config, gen pp, gen tp, grouping) on <= 16 ranks whose
#: generation sizes divide the training ones
TRANSITIONS = [
    (ParallelConfig(pp, tp, dp), gen_pp, gen_tp, mode)
    for pp in (1, 2, 4)
    for tp in (1, 2, 3, 4, 6)
    for dp in (1, 2)
    if pp * tp * dp <= 16
    for gen_pp in (1, 2, 4)
    for gen_tp in (1, 2, 3, 4, 6)
    if pp % gen_pp == 0 and tp % gen_tp == 0
    for mode in GenGroupingMode
]


class TestExecutedPlanIsTheProvenPlan:
    """ROADMAP item 5's differential clause: what the engine moved, what the
    plan says, what the verifier proved and what a publication is charged
    are one derivation, on random layouts and both groupings."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.sampled_from(TRANSITIONS))
    def test_execution_proof_and_costs_agree(self, transition):
        parallel, gen_pp, gen_tp, mode = transition
        _, group = actor_group(parallel, gen_tp, gen_pp, mode, cfg=WIDE_CFG)
        used_before = [w.ctx.device.memory.used for w in group.workers]
        engine = HybridEngine3D(group)
        report = engine.to_generation()

        plan = engine.plan_transition()
        assert plan is plan_transition(group.gen_topology)
        proof = ShardingVerifier().verify_transition(group.gen_topology, plan=plan)
        assert proof.findings == []

        full_bytes = shard_nbytes(full_state(WIDE_CFG))
        for worker in group.workers:
            rank = worker.ctx.global_rank
            assert_shards_equal(
                worker.gen_shard, prescribed_gen_shard(group, worker, WIDE_CFG)
            )
            if mode is GenGroupingMode.HYBRIDFLOW:
                assert report.redundant_bytes_per_rank[rank] == 0
                assert report.peak_param_bytes_per_rank[rank] == shard_nbytes(
                    worker.gen_shard
                )
            else:
                assert report.peak_param_bytes_per_rank[rank] == full_bytes
        assert (
            sum(report.comm_bytes_per_rank.values())
            == WeightPublisher(group).publish_bytes_per_version()
        )

        engine.to_training()
        assert [w.ctx.device.memory.used for w in group.workers] == used_before

    @pytest.mark.parametrize(
        "mode", [GenGroupingMode.HYBRIDFLOW, GenGroupingMode.VANILLA]
    )
    def test_a_plan_the_proof_rejects_builds_the_wrong_shard(
        self, mode, monkeypatch
    ):
        """The proof is about what runs: drop one tile from rank 0's plan and
        SH402 refuses it *and* the executor, handed that plan, no longer
        builds the prescribed slice."""
        _, group = actor_group(ParallelConfig(1, 4, 1), gen_tp=2, mode=mode)
        plan = plan_transition(group.gen_topology)
        needed = next(
            t for t in plan.by_rank[0].tiles
            if plan.by_rank[0].target.contains(t.shard)
        )
        rank0 = dataclasses.replace(
            plan.by_rank[0],
            tiles=tuple(t for t in plan.by_rank[0].tiles if t is not needed),
        )
        broken = dataclasses.replace(plan, by_rank={**plan.by_rank, 0: rank0})

        proof = ShardingVerifier().verify_transition(group.gen_topology, plan=broken)
        assert [f.rule for f in proof.findings] == ["SH402"]

        engine = HybridEngine3D(group)
        monkeypatch.setattr(engine, "plan_transition", lambda: broken)
        engine.to_generation()
        built = {w.ctx.global_rank: w for w in group.workers}
        with pytest.raises(AssertionError):
            assert_shards_equal(
                built[0].gen_shard, prescribed_gen_shard(group, built[0], LM_CFG)
            )
        assert_shards_equal(
            built[1].gen_shard, prescribed_gen_shard(group, built[1], LM_CFG)
        )


class TestRemoteMethodCache:
    """WorkerGroup memoizes RemoteMethod handles per method name."""

    def test_handle_identity_across_lookups(self):
        _, group = actor_group(ParallelConfig(1, 4, 2), gen_tp=2)
        assert group.generate_sequences is group.generate_sequences

    def test_cache_cleared_on_topology_change(self):
        _, group = actor_group(ParallelConfig(1, 4, 2), gen_tp=2)
        before = group.generate_sequences
        group.set_gen_topology(
            GenParallelConfig.derive(ParallelConfig(1, 4, 2), 1, 1),
            GenGroupingMode.HYBRIDFLOW,
        )
        assert group.generate_sequences is not before
