"""Tests for the async one-step-off pipeline (``repro.pipeline``).

Covers the staleness-window semantics (0 = the synchronous loop, W bounds
the version lag and the buffer), the truncated importance-weight numerics,
the weight-publication protocol, race-freedom of the overlapped schedule,
supervised async jobs (``JobRun`` checkpoints, steps and recovers them with
rollouts in flight), the DF108 soundness checks, and what a window buys on
the timeline replay of the shipped job.
"""

import json
import pathlib

import numpy as np
import pytest

from repro.analysis import DataflowChecker, RaceDetector, TraceAuditor
from repro.config import ClusterSpec, GenParallelConfig, ParallelConfig
from repro.data import PromptDataset
from repro.faults import FaultInjector, FaultPlan
from repro.models.tinylm import TinyLMConfig
from repro.pipeline import (
    AsyncPipelineDriver,
    BufferFull,
    ExperienceBuffer,
    PipelineConfig,
    overlap_study,
)
from repro.rlhf.core import AlgoType
from repro.rlhf.losses import (
    ppo_policy_loss,
    truncated_importance_weights,
)
from repro.rlhf.trainers import RlhfTrainerBase, TrainerConfig
from repro.runtime import (
    JobRun,
    ModelAssignment,
    PlacementPlan,
    build_rlhf_system,
    restore_system,
    train_with_recovery,
)
from repro.runtime.builder import required_models
from repro.runtime.timeline import build_timeline

CFG = TinyLMConfig(
    n_layers=2,
    hidden_size=32,
    n_heads=4,
    ffn_hidden_size=48,
    vocab_size=16,
    max_seq_len=32,
)


def build_system(algo=AlgoType.PPO, cluster=None, use_serving=False, **trainer_kwargs):
    """Disaggregated placement: actor alone, scorers on a shared pool."""
    actor_par = ParallelConfig(pp=1, tp=2, dp=1)
    scorer_par = ParallelConfig(pp=1, tp=1, dp=1)
    assignments = {
        "actor": ModelAssignment(
            "actor", actor_par, GenParallelConfig.derive(actor_par, 1, 1)
        ),
    }
    for role in ("reference", "reward", "critic", "cost"):
        if role in required_models(algo):
            assignments[role] = ModelAssignment("scorer", scorer_par)
    plan = PlacementPlan(
        pools={"actor": 2, "scorer": 1}, assignments=assignments
    )
    return build_rlhf_system(
        algo,
        plan,
        CFG,
        cluster_spec=ClusterSpec(n_machines=1, gpus_per_machine=4),
        trainer_config=TrainerConfig(kl_coef=0.01, seed=7, **trainer_kwargs),
        max_new_tokens=6,
        lr=5e-3,
        seed=7,
        cluster=cluster,
        use_serving=use_serving,
    )


def build_async(cluster=None):
    """The W=1 PPO job as ``JobRun`` builds it: a driver wraps the trainer."""
    system = build_system(cluster=cluster)
    AsyncPipelineDriver(system.trainer, PipelineConfig(staleness_window=1))
    return system


def replay(controller):
    return build_timeline(controller.trace, controller.planned_duration)


def dataset():
    return PromptDataset(n_prompts=64, prompt_length=4, vocab_size=16, seed=1)


def histories_equal(ha, hb) -> bool:
    if len(ha) != len(hb):
        return False
    for a, b in zip(ha, hb):
        if set(a) != set(b):
            return False
        for key in a:
            if not np.array_equal(np.asarray(a[key]), np.asarray(b[key])):
                return False
    return True


W1_GOLDEN = pathlib.Path(__file__).parent / "golden" / "async_w1_history.json"

ALGO_CASES = {
    # algo -> (trainer kwargs, prompts per batch, iterations)
    AlgoType.PPO: ({}, 4, 3),
    AlgoType.GRPO: ({"group_size": 2}, 2, 2),
}


#: algo, whether the actor generates through the serving engine, trainer
#: kwargs, prompts per batch, iterations
SYNC_CASES = {
    "ppo": (AlgoType.PPO, False, {}, 4, 3),
    "remax": (AlgoType.REMAX, False, {}, 4, 2),
    "safe-rlhf": (AlgoType.SAFE_RLHF, False, {}, 4, 2),
    "grpo": (AlgoType.GRPO, False, {"group_size": 2}, 2, 2),
    "grpo-serving": (AlgoType.GRPO, True, {"group_size": 2}, 2, 2),
}


def observed(system):
    """What one run leaves behind besides its weights and history."""
    controller = system.controller
    return (
        [(r.group, r.method, r.deps) for r in controller.trace],
        [e.resource for e in controller.access_log.events],
        controller.metrics.families(),
    )


class TestWindowZeroIsSync:
    """``W = 0`` is the synchronous loop: a W = 0 driver run and
    ``trainer.train`` are the same run — every algorithm, serving-backed
    actors included, no buffer or publisher traffic."""

    @pytest.mark.parametrize("case", list(SYNC_CASES))
    def test_driver_run_is_trainer_train(self, case):
        algo, serving, kwargs, batch_size, iterations = SYNC_CASES[case]
        sync = build_system(algo, use_serving=serving, **kwargs)
        sync.trainer.train(dataset(), iterations, batch_size)

        system = build_system(algo, use_serving=serving, **kwargs)
        driver = AsyncPipelineDriver(
            system.trainer, PipelineConfig(staleness_window=0)
        )
        history = driver.train(dataset(), iterations, batch_size)

        assert sync.state_equal(system)
        assert histories_equal(sync.trainer.history, history)
        assert observed(sync) == observed(system)
        report = driver.report()
        assert report["publications"] == report["buffer_peak_occupancy"] == 0
        assert driver.publisher.acquisitions == 0

    @pytest.mark.parametrize("stream", [False, True], ids=["batch", "stream"])
    @pytest.mark.parametrize("algo", list(ALGO_CASES), ids=lambda a: a.value)
    def test_buffered_first_iteration_is_the_synchronous_one(self, algo, stream):
        """Iteration 0 of a W = 1 run goes through the buffer on-policy —
        rollout, put, pop, learn — and lands on the synchronous numbers."""
        kwargs, batch_size, _ = ALGO_CASES[algo]
        sync = build_system(algo, **kwargs)
        sync.trainer.train(dataset(), 1, batch_size)

        system = build_system(algo, **kwargs)
        AsyncPipelineDriver(
            system.trainer,
            PipelineConfig(staleness_window=1, stream_scoring=stream),
        ).train(dataset(), 2, batch_size)
        assert histories_equal(sync.trainer.history, system.trainer.history[:1])


class TestStalenessOneHistoryPinned:
    """W=1 histories pinned exactly (tests/golden/async_w1_history.json): the
    off-policy path — stale anchor, importance weights, publication order —
    keeps its arithmetic bit for bit.

    Re-recorded once, when TinyLM became fused primitives with hand VJPs:
    forward values are bit-identical to the op-by-op tape's, but the VJPs
    reduce in another order (weight gradients as one GEMM over batch*seq,
    closed-form RMSNorm/softmax backward), so after the first update every
    float moved in its 13th-16th significant digit (worst 1.0e-14 relative;
    e.g. grpo ``actor/grpo_loss`` -0.016868341068245588 ->
    -0.016868341068245495).  The GRPO rows were re-recorded again when a
    group's shared prompt became one computation in the packed forwards:
    iteration 0 is unchanged, later floats moved in their 15th-16th digit
    (worst 1.7e-14 relative, e.g. that loss -> -0.01686834106824578), as the
    prompt tokens' weight gradients now sum the group before the GEMM.  All
    four were re-recorded when the scoring and training forwards ran their
    last layer at the response positions only: iteration 0 is unchanged,
    later floats moved in their 15th-16th digit (worst 1.75e-14 relative,
    ppo ``actor/policy_loss`` 0.1776821968493029 -> 0.17768219684929978),
    as that layer's weight-gradient GEMMs reduce over fewer token rows.  All
    four were re-recorded again when a cached forward became one 2-D stream
    with one attention core at a canonical key width: generation log-probs
    (the PPO ratio's ``old_log_probs``) moved in their last bits, so every
    float moved by rounding (worst 3.5e-14 relative, grpo-batch iteration 2
    ``actor/grpo_loss`` -0.01686834106824582 -> -0.016868341068245238).  All
    four were re-recorded again when every scoring and training forward
    moved to the cached path's tiled stream and one attention core: every
    float moved by rounding, iteration 0's rounding-level zeros included
    (by ≤ 4.2e-17), the rest by ≤ 1.2e-14 relative (ppo iteration 1
    ``actor/policy_loss`` 0.10825860743791456 -> 0.1082586074379133).  The
    comparison stays exact so later drift is still caught."""

    @pytest.mark.parametrize("stream", [False, True], ids=["batch", "stream"])
    @pytest.mark.parametrize("algo", list(ALGO_CASES), ids=lambda a: a.value)
    def test_history_equals_the_recorded_one(self, algo, stream):
        golden = json.loads(W1_GOLDEN.read_text())[
            f"{algo.value}-{'stream' if stream else 'batch'}"
        ]
        kwargs, batch_size, _ = ALGO_CASES[algo]
        system = build_system(algo, **kwargs)
        driver = AsyncPipelineDriver(
            system.trainer,
            PipelineConfig(staleness_window=1, stream_scoring=stream),
        )
        history = driver.train(dataset(), n_iterations=3, batch_size=batch_size)
        assert driver.max_staleness_seen == 1
        assert histories_equal(history, golden)


class TestStalenessBounds:
    @pytest.mark.parametrize("window", [0, 1, 3])
    def test_max_staleness_and_buffer_bounded_by_window(self, window):
        system = build_system()
        driver = AsyncPipelineDriver(
            system.trainer, PipelineConfig(staleness_window=window)
        )
        n = 5
        driver.train(dataset(), n_iterations=n, batch_size=4)
        assert driver.max_staleness_seen == min(window, n - 1)
        assert driver.buffer.peak_occupancy <= window + 1
        assert len(driver.buffer) == 0  # fully drained at the end
        report = driver.report()
        assert report["iterations"] == n
        # at W = 0 there is nothing to hand off
        assert report["publications"] == (n if window else 0)

    def test_stale_iterations_are_tagged_in_history(self):
        system = build_system()
        driver = AsyncPipelineDriver(
            system.trainer, PipelineConfig(staleness_window=2)
        )
        history = driver.train(dataset(), n_iterations=4, batch_size=4)
        # iteration 0 is always on-policy; later ones trained at lag min(t, W)
        assert "pipeline/staleness" not in history[0]
        assert history[1]["pipeline/staleness"] == 1
        assert history[2]["pipeline/staleness"] == 2
        assert history[3]["pipeline/staleness"] == 2
        assert history[3]["pipeline/policy_version"] == 1


class TestOverlapSpeedup:
    def test_window_one_beats_synchronous_on_modeled_timeline(self):
        sync = build_system()
        sync.trainer.train(dataset(), n_iterations=3, batch_size=4)
        sync_tl = replay(sync.controller)

        system = build_system()
        AsyncPipelineDriver(
            system.trainer, PipelineConfig(staleness_window=1)
        ).train(dataset(), n_iterations=3, batch_size=4)
        async_tl = replay(system.controller)

        assert async_tl.makespan < sync_tl.makespan
        # the actor pool's idle bubble collapses under overlap
        assert async_tl.idle_fraction("actor") < sync_tl.idle_fraction("actor")


class TestImportanceWeights:
    def test_on_policy_weights_are_all_ones(self):
        logp = np.log(np.full((2, 3), 0.25))
        w = truncated_importance_weights(logp, logp.copy())
        assert np.allclose(w, 1.0)

    def test_truncation_caps_the_ratio(self):
        behaviour = np.full((1, 4), np.log(0.1))
        anchor = np.full((1, 4), np.log(0.9))  # ratio 9 >> clip
        w = truncated_importance_weights(anchor, behaviour, clip=2.0)
        assert np.allclose(w, 2.0)

    def test_masked_positions_get_weight_one(self):
        behaviour = np.full((1, 4), np.log(0.1))
        anchor = np.full((1, 4), np.log(0.9))
        mask = np.array([[1.0, 1.0, 0.0, 0.0]])
        w = truncated_importance_weights(
            anchor, behaviour, clip=5.0, response_mask=mask
        )
        assert np.allclose(w[0, :2], 5.0)
        assert np.allclose(w[0, 2:], 1.0)

    def test_clip_below_one_rejected(self):
        logp = np.zeros((1, 2))
        with pytest.raises(ValueError):
            truncated_importance_weights(logp, logp, clip=0.5)

    def test_ppo_loss_scales_advantages_by_weights(self):
        rng = np.random.default_rng(0)
        shape = (2, 5)
        logp = rng.normal(size=shape) * 0.1
        old = logp + rng.normal(size=shape) * 0.01
        adv = rng.normal(size=shape)
        weights = np.full(shape, 0.5)
        _, m_plain = ppo_policy_loss(logp, old, adv)
        _, m_weighted = ppo_policy_loss(
            logp, old, adv, importance_weights=weights
        )
        _, m_half = ppo_policy_loss(logp, old, adv * 0.5)
        assert m_weighted["iw_mean"] == pytest.approx(0.5)
        assert m_weighted["policy_loss"] == pytest.approx(m_half["policy_loss"])
        assert m_weighted["policy_loss"] != pytest.approx(
            m_plain["policy_loss"]
        )

    def test_stale_batches_carry_iw_metrics_in_history(self):
        system = build_system()
        driver = AsyncPipelineDriver(
            system.trainer, PipelineConfig(staleness_window=1)
        )
        history = driver.train(dataset(), n_iterations=3, batch_size=4)
        assert "actor/iw_mean" not in history[0]  # on-policy warm-up
        for h in history[1:]:
            assert h["actor/iw_mean"] > 0.0
            assert h["actor/iw_min"] <= h["actor/iw_mean"]


class TestRaceFreedom:
    def test_overlapped_schedule_is_clean(self):
        system = build_system()
        AsyncPipelineDriver(
            system.trainer, PipelineConfig(staleness_window=1)
        ).train(dataset(), n_iterations=3, batch_size=4)
        report = TraceAuditor().audit_system(system)
        RaceDetector().detect_system(system, report=report)
        races = [f for f in report.findings if f.rule.startswith("RC")]
        assert races == []
        assert report.ok(strict=True)

    def test_publication_leaves_versioned_access_trail(self):
        system = build_system()
        AsyncPipelineDriver(
            system.trainer, PipelineConfig(staleness_window=1)
        ).train(dataset(), n_iterations=2, batch_size=4)
        resources = {
            e.resource for e in system.controller.access_log.events
        }
        assert "pipeline/weights[v1]" in resources
        assert "pipeline/experience[0]" in resources


class TestRecoveryMidOverlap:
    """An async job under ``JobRun``: checkpointed and restored with a
    rollout in flight, and stepped one iteration at a time on the schedule
    of one unsupervised call."""

    N = 4

    @pytest.fixture(scope="class")
    def oracle(self):
        system = build_async()
        system.trainer.train(dataset(), self.N, 4)
        return system

    def test_checkpoint_restores_trainer_and_rollout_state(self, oracle, tmp_path):
        run = JobRun(build_async, dataset(), 4, str(tmp_path / "ckpt"))
        run.start()
        run.step(self.N)  # rollouts 0 and 1, iteration 0: batch 1 in flight
        run.save()

        restored = build_async()
        resumed, _ = restore_system(restored, str(tmp_path / "ckpt"))
        trainer, pipeline = restored.trainer, restored.trainer.pipeline
        assert resumed == len(trainer.history) == 1
        assert pipeline.buffer.indices() == [1]
        assert len(trainer.history) + len(pipeline.buffer) == 2  # the cursor
        assert pipeline.publisher.staged_version == 1
        trainer.train(dataset(), self.N - 1, 4)

        assert oracle.state_equal(restored)
        # trainer checkpoints persist the history *count*, not the metric
        # dicts (matching RlhfTrainerBase.load_state_dict); every iteration
        # trained after the restore must match the uninterrupted run
        assert histories_equal(oracle.trainer.history[1:], trainer.history[1:])

    def test_stepped_job_is_one_call(self, oracle, tmp_path, monkeypatch):
        moves = {"one call": [], "stepped": []}
        advance = RlhfTrainerBase.advance

        def recorded(trainer, move, batches):
            moves[key].append(move)
            return advance(trainer, move, batches)

        monkeypatch.setattr(RlhfTrainerBase, "advance", recorded)
        key = "one call"
        build_async().trainer.train(dataset(), self.N, 4)
        key = "stepped"
        run = JobRun(build_async, dataset(), 4, str(tmp_path / "ckpt"))
        run.start()
        while run.iteration < self.N:
            run.step(self.N)
        # the loop's moves, not only where they end: rollouts run ahead of
        # each learn exactly as in one call
        assert moves["stepped"] == moves["one call"]
        assert moves["one call"][:3] == ["rollout", "rollout", "learn"]
        assert histories_equal(oracle.trainer.history, run.history)
        assert oracle.state_equal(run.system)
        pipeline = run.system.trainer.pipeline
        assert pipeline.max_staleness_seen == 1
        assert pipeline.buffer.peak_occupancy == 2

    def test_device_lost_between_a_rollout_and_its_learn(self, oracle, tmp_path):
        # rollout 2 is the third generation; the next actor call is
        # iteration 1's anchor log-probs, so the kill lands with batch 2
        # buffered and iteration 1 unfinished
        generations = [
            r.seq for r in oracle.controller.trace
            if r.method == "generate_sequences"
        ]
        injector = FaultInjector(
            FaultPlan().kill_device(0, at_step=generations[2] + 1)
        )
        system, history, report = train_with_recovery(
            build_async, dataset(), self.N, 4, str(tmp_path / "ckpt"),
            checkpoint_every=1, injector=injector,
        )
        assert [(e.failed_iteration, e.resumed_iteration) for e in report.events] == [
            (1, 1)
        ]
        assert histories_equal(oracle.trainer.history, history)
        assert oracle.state_equal(system)
        assert system.trainer.pipeline.max_staleness_seen == 1


class TestWeightPublisher:
    def test_publish_acquire_protocol(self):
        system = build_system()
        from repro.hybrid_engine import WeightPublisher

        publisher = WeightPublisher(system.groups["actor"])
        assert publisher.acquire() == 0
        publisher.publish(1)
        # staged but not visible until the next generate-call boundary
        assert publisher.active_version == 0
        assert publisher.acquire() == 1
        with pytest.raises(ValueError):
            publisher.publish(1)  # must be monotonically increasing
        assert publisher.bytes_published > 0
        assert publisher.publish_bytes_per_version() > 0

    def test_requires_generation_topology(self):
        system = build_system()
        from repro.hybrid_engine import WeightPublisher

        with pytest.raises(ValueError):
            WeightPublisher(system.groups["critic"])


class TestExperienceBuffer:
    def _batch(self):
        from repro.data.batch import DataBatch

        return DataBatch({"sequences": np.arange(6).reshape(2, 3)})

    def test_capacity_enforced(self):
        buffer = ExperienceBuffer(2)
        buffer.put(0, 0, self._batch())
        buffer.put(1, 0, self._batch())
        with pytest.raises(BufferFull):
            buffer.put(2, 1, self._batch())
        buffer.pop(0)
        buffer.put(2, 1, self._batch())  # freed slot is reusable
        assert buffer.peak_occupancy == 2

    def test_duplicate_and_missing_indices(self):
        buffer = ExperienceBuffer(2)
        buffer.put(0, 0, self._batch())
        with pytest.raises(ValueError):
            buffer.put(0, 0, self._batch())
        with pytest.raises(KeyError):
            buffer.pop(5)

    def test_state_roundtrip_preserves_arrays(self):
        buffer = ExperienceBuffer(3)
        buffer.put(4, 3, self._batch())
        state = buffer.state_dict()
        fresh = ExperienceBuffer(3)
        fresh.load_state_dict(state)
        entry = fresh.pop(4)
        assert entry.version == 3
        assert np.array_equal(
            entry.batch["sequences"], np.arange(6).reshape(2, 3)
        )
        assert entry.batch["sequences"].dtype == np.arange(6).dtype


class TestDataflowRule108:
    def check(self, pipeline_config, trainer_config=None, algo=AlgoType.PPO):
        return DataflowChecker().check_pipeline(
            pipeline_config, trainer_config, algo
        )

    def test_clean_config_has_no_findings(self):
        report = self.check(PipelineConfig(staleness_window=1), TrainerConfig())
        assert report.findings == []

    def test_no_recompute_anchor_is_a_warning(self):
        report = self.check(
            PipelineConfig(staleness_window=1),
            TrainerConfig(recompute_log_probs=False),
        )
        assert [f.severity for f in report.findings] == ["warning"]

    def test_negative_window_fails_at_construction(self):
        with pytest.raises(ValueError, match="staleness_window"):
            PipelineConfig(staleness_window=-1)

    def test_iw_clip_below_one_fails_at_construction(self):
        # it would down-scale on-policy tokens
        with pytest.raises(ValueError, match="iw_clip"):
            PipelineConfig(iw_clip=0.5)

    def test_actor_without_generation_plan_is_a_single_error(self):
        from types import SimpleNamespace

        actor = SimpleNamespace(gen_topology=None, workers=())
        report = DataflowChecker().check_pipeline(
            PipelineConfig(staleness_window=1),
            TrainerConfig(),
            AlgoType.PPO,
            actor=actor,
        )
        assert [f.rule for f in report.findings] == ["DF108"]
        assert report.findings[0].severity == "error"
        assert "generation topology" in report.findings[0].message
        assert report.findings[0].hint

    def test_serving_backed_actor_is_a_single_error(self):
        from types import SimpleNamespace

        actor = SimpleNamespace(
            gen_topology=object(),
            workers=(SimpleNamespace(use_serving=True),),
        )
        report = DataflowChecker().check_pipeline(
            PipelineConfig(staleness_window=1),
            TrainerConfig(),
            AlgoType.PPO,
            actor=actor,
        )
        assert [f.rule for f in report.findings] == ["DF108"]
        assert report.findings[0].severity == "error"
        assert "use_serving" in report.findings[0].message
        assert report.findings[0].hint

    def test_driver_refuses_serving_backed_actor(self):
        system = build_system()
        for worker in system.trainer.actor.workers:
            worker.use_serving = True
        with pytest.raises(ValueError, match="DF108"):
            AsyncPipelineDriver(
                system.trainer, PipelineConfig(staleness_window=1)
            )

    def test_driver_refuses_unsupported_algo(self):
        system = build_system(AlgoType.REMAX)
        with pytest.raises(ValueError, match="DF108.*remax"):
            AsyncPipelineDriver(system.trainer, PipelineConfig(staleness_window=1))

    @pytest.mark.parametrize("algo", [AlgoType.REMAX, AlgoType.SAFE_RLHF])
    def test_window_zero_accepts_any_trainer(self, algo):
        assert self.check(PipelineConfig(staleness_window=0), algo=algo).findings == []
        assert self.check(PipelineConfig(staleness_window=1), algo=algo).errors

    def test_window_zero_accepts_a_serving_backed_actor(self):
        system = build_system(AlgoType.GRPO, use_serving=True)
        driver = AsyncPipelineDriver(
            system.trainer, PipelineConfig(staleness_window=0)
        )
        assert system.trainer.pipeline is driver
        with pytest.raises(ValueError, match="DF108.*use_serving"):
            AsyncPipelineDriver(system.trainer, PipelineConfig(staleness_window=1))


class TestOverlapOnTheReplay:
    """What a window buys on the shipped job, read off the one timeline
    replay of the runs ``overlap_study`` makes (planned durations)."""

    @pytest.fixture(scope="class")
    def studies(self):
        return {
            w: overlap_study(4, 8, PipelineConfig(staleness_window=w))
            for w in (0, 1, 2)
        }

    def test_window_zero_is_the_synchronous_chain(self, studies):
        assert studies[0].bit_exact
        assert studies[0].timeline.makespan == studies[0].sync_makespan

    def test_makespans_are_pinned(self, studies):
        assert [s.sync_makespan for s in studies.values()] == [48.0, 48.0, 48.0]
        assert [s.timeline.makespan for s in studies.values()] == [48.0, 42.0, 44.0]

    def test_speedup_never_below_one(self, studies):
        assert all(s.speedup >= 1.0 for s in studies.values())

    def test_wider_window_front_loads_the_actor_pool(self, studies):
        # the actor generates and trains on one pool: W = 2 puts three
        # rollouts ahead of the first anchor log-prob both updates wait on
        def leading_rollouts(study):
            names = [e.name for e in study.timeline.events_on("actor")]
            return names.index("actor.compute_log_prob")

        assert [leading_rollouts(studies[w]) for w in (0, 1, 2)] == [1, 2, 3]

    def test_slow_rollout_is_not_absorbed_on_one_actor_pool(self, studies):
        for study in studies.values():
            controller = study.system.controller
            planned = controller.planned_duration
            slow = [
                r.seq for r in controller.trace if r.method == "generate_sequences"
            ][2]
            jittered = build_timeline(
                controller.trace, lambda r: 14.0 if r.seq == slow else planned(r)
            )
            assert jittered.makespan == study.timeline.makespan + 8.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            overlap_study(0, 8, PipelineConfig(staleness_window=1))
        with pytest.raises(ValueError):
            overlap_study(4, 3, PipelineConfig(staleness_window=1))
        with pytest.raises(ValueError):
            overlap_study(4, 8, PipelineConfig(staleness_window=-1))


class TestStreamedScoring:
    def test_stream_on_and_off_train_identical_weights(self):
        plain_sys = build_system()
        AsyncPipelineDriver(
            plain_sys.trainer, PipelineConfig(staleness_window=1)
        ).train(dataset(), n_iterations=3, batch_size=4)

        stream_sys = build_system()
        AsyncPipelineDriver(
            stream_sys.trainer,
            PipelineConfig(staleness_window=1, stream_scoring=True),
        ).train(dataset(), n_iterations=3, batch_size=4)

        assert plain_sys.state_equal(stream_sys)
        assert histories_equal(
            plain_sys.trainer.history, stream_sys.trainer.history
        )
