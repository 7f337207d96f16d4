"""End-to-end functional tests of the four RLHF algorithm drivers (Figure 6)."""

import enum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    DataflowChecker,
    ShapeFlowChecker,
    ShapeRecorder,
    predict_system_outputs,
    shape_cross_validate,
)
from repro.config import (
    MODEL_SPECS,
    ClusterSpec,
    GenParallelConfig,
    ParallelConfig,
    RlhfWorkload,
)
from repro.data.dataset import PromptDataset, SyntheticPreferenceTask
from repro.mapping import map_dataflow
from repro.models.tinylm import TinyLM, TinyLMConfig
from repro.perf.compute import inference_latency, training_latency
from repro.perf.iteration import GenerationPlan, ModelExecution, estimate_iteration
from repro.rlhf.core import AlgoType
from repro.rlhf.graph import (
    GENERATION,
    PREPARATION,
    TRAINING,
    UncontractedCallError,
    dataflow_of,
)
from repro.rlhf.trainers import RlhfTrainerBase, TrainerConfig
from repro.runtime import SystemSpec, build_rlhf_system, build_timeline
from repro.runtime.builder import required_models
from repro.runtime.placement import ModelAssignment, PlacementPlan

CFG = TinyLMConfig(
    n_layers=2,
    hidden_size=32,
    n_heads=4,
    ffn_hidden_size=48,
    vocab_size=16,
    max_seq_len=32,
)
TASK = SyntheticPreferenceTask(vocab_size=16, target_token=7, unsafe_token=3)


def plan_for(algo: AlgoType, use_reward_fn: bool) -> PlacementPlan:
    par = ParallelConfig(pp=1, tp=2, dp=1)
    gen = GenParallelConfig.derive(par, 1, 1)
    models = required_models(algo)
    pools = {"main": 2}
    assignments = {}
    for m in models:
        if m == "reward" and use_reward_fn:
            pools["reward_pool"] = 1
            assignments[m] = ModelAssignment(
                "reward_pool", ParallelConfig(1, 1, 1)
            )
        else:
            assignments[m] = ModelAssignment(
                "main", par, gen if m == "actor" else None
            )
    return PlacementPlan(pools=pools, assignments=assignments)


def build(algo, trainer_config=None, reward_fn=TASK.reward, **kwargs):
    return build_rlhf_system(
        algo,
        plan_for(algo, reward_fn is not None),
        CFG,
        trainer_config=trainer_config,
        reward_fn=reward_fn,
        max_new_tokens=8,
        lr=5e-3,
        **kwargs,
    )


def dataset(vocab=16):
    return PromptDataset(n_prompts=128, prompt_length=4, vocab_size=vocab, seed=1)


def learning_curve(system, iters=20, batch=16):
    history = system.trainer.train(dataset(), iters, batch)
    return [h["score_mean"] for h in history]


class TestPPO:
    def test_learns_synthetic_preference(self):
        tc = TrainerConfig(kl_coef=0.01, ppo_epochs=2, updates_per_epoch=2)
        system = build(AlgoType.PPO, tc)
        scores = learning_curve(system, iters=20)
        assert np.mean(scores[-5:]) > np.mean(scores[:5]) + 0.2

    def test_execution_pattern_matches_figure6(self):
        system = build(AlgoType.PPO)
        system.trainer.train(dataset(), 1, 8)
        trace = system.controller.trace_methods()
        assert trace == [
            "actor.generate_sequences",
            "critic.compute_values",
            "reference.compute_ref_log_prob",
            "reward.compute_reward",
            "actor.compute_log_prob",
            "critic.update_critic",
            "actor.update_actor",
        ]

    def test_metrics_present(self):
        system = build(AlgoType.PPO)
        history = system.trainer.train(dataset(), 1, 8)
        h = history[0]
        assert {"score_mean", "actor/policy_loss", "critic/value_loss"} <= set(h)


class TestReMax:
    def test_learns_without_critic(self):
        tc = TrainerConfig(kl_coef=0.01, ppo_epochs=2, updates_per_epoch=2)
        system = build(AlgoType.REMAX, tc)
        assert system.trainer.critic is None
        scores = learning_curve(system, iters=30)
        assert np.mean(scores[-5:]) > np.mean(scores[:5]) + 0.15

    def test_two_generation_passes_per_iteration(self):
        system = build(AlgoType.REMAX)
        system.trainer.train(dataset(), 1, 8)
        trace = system.controller.trace_methods()
        assert trace.count("actor.generate_sequences") == 2
        assert "critic.update_critic" not in trace

    def test_baseline_scores_recorded(self):
        system = build(AlgoType.REMAX)
        history = system.trainer.train(dataset(), 1, 8)
        assert "baseline_score_mean" in history[0]

    def test_update_waits_for_the_baseline_reward(self):
        # the advantages are computed from the baseline's scores, so the
        # replayed schedule may not start the update before they land (with
        # the edge dropped it started at 13.0 s, the score landed at 15.0 s)
        spec = SystemSpec(algo=AlgoType.REMAX, disaggregated=True)
        system = spec.build()
        system.trainer.train(spec.dataset(), 1, 8)
        controller = system.controller

        def duration(record):
            if record.method == "compute_reward":
                return 3.0
            return controller.planned_duration(record)

        events = build_timeline(controller.trace, duration).events
        baseline = [e for e in events if e.name == "reward.compute_reward"][-1]
        update = next(e for e in events if e.name == "actor.update_actor")
        assert update.start >= baseline.end


class TestSafeRLHF:
    def test_runs_with_cost_model_and_lagrange(self):
        tc = TrainerConfig(
            kl_coef=0.01, cost_limit=0.05, lagrange_lr=1.0, updates_per_epoch=2
        )
        system = build(AlgoType.SAFE_RLHF, tc)
        history = system.trainer.train(dataset(), 4, 8)
        assert all("cost_mean" in h for h in history)
        assert system.trainer.lagrange_multiplier >= 0

    def test_lagrange_grows_under_violation(self):
        tc = TrainerConfig(cost_limit=-1.0, lagrange_lr=1.0)  # always violated
        system = build(AlgoType.SAFE_RLHF, tc)
        system.trainer.train(dataset(), 2, 8)
        assert system.trainer.lagrange_multiplier > 0

    def test_extra_stage_calls_match_figure6(self):
        system = build(AlgoType.SAFE_RLHF)
        system.trainer.train(dataset(), 1, 8)
        trace = system.controller.trace_methods()
        assert "cost.compute_cost" in trace
        assert "critic.compute_values" in trace

    def test_pretrain_loss_included_when_dataset_given(self):
        system = build_rlhf_system(
            AlgoType.SAFE_RLHF,
            plan_for(AlgoType.SAFE_RLHF, True),
            CFG,
            reward_fn=TASK.reward,
            pretrain_dataset=dataset(),
            max_new_tokens=8,
        )
        history = system.trainer.train(dataset(), 1, 8)
        assert "pretrain_loss" in history[0]
        assert "actor.compute_loss" in system.controller.trace_methods()

    def test_requires_cost_worker(self):
        from repro.rlhf.trainers import SafeRLHFTrainer

        with pytest.raises(ValueError, match="cost"):
            SafeRLHFTrainer(
                actor=None, reference=None, reward=None, critic=None, cost=None
            )


class TestGRPO:
    def test_learns_with_group_sampling(self):
        tc = TrainerConfig(
            kl_coef=0.005, group_size=4, ppo_epochs=2, updates_per_epoch=2
        )
        system = build(AlgoType.GRPO, tc)
        scores = learning_curve(system, iters=20, batch=8)
        assert np.mean(scores[-5:]) > np.mean(scores[:5]) + 0.15

    def test_batch_is_repeated_by_group_size(self):
        tc = TrainerConfig(group_size=4)
        system = build(AlgoType.GRPO, tc)
        history = system.trainer.train(dataset(), 1, 4)
        assert history  # 4 prompts * 4 samples flowed through

    def test_no_critic_in_dataflow(self):
        system = build(AlgoType.GRPO)
        assert "critic" not in system.groups

    def test_group_of_one_rejected_at_construction(self):
        from repro.rlhf.trainers import GRPOTrainer

        with pytest.raises(ValueError) as err:
            GRPOTrainer(None, None, None, config=TrainerConfig(group_size=1))
        message, hint = GRPOTrainer.group_size_problem(1)
        assert str(err.value) == f"{message}; {hint}"
        assert "group_size=1" in message and hint.endswith(">= 2")


class TestEosRaggedRuns:
    """Trainer-level runs over EOS-ragged batches: every scoring and
    training forward lays out each row's real tokens."""

    @staticmethod
    def run_twice(monkeypatch, algo, **kwargs):
        packed = []
        trunk = TinyLM._trunk

        def spy(model, token_ids, cache, pos_offset, layout, shift=0):
            # a forward laid out rows whose real tokens end before its grid's
            lengths = None if layout is None else layout.lengths
            seq = np.shape(token_ids)[1] + shift
            packed.append(lengths is not None and bool((lengths < seq).any()))
            return trunk(model, token_ids, cache, pos_offset, layout, shift)

        monkeypatch.setattr(TinyLM, "_trunk", spy)
        runs = []
        for _ in range(2):
            system = build(algo, eos_token_id=1, **kwargs)
            history = system.trainer.train(dataset(), 1, 8)
            runs.append((history, system.state_digest()))
        assert runs[0] == runs[1]
        values = [v for v in runs[0][0][0].values() if isinstance(v, float)]
        assert values and np.isfinite(values).all()
        assert any(packed)  # EOS left ragged rows, and a forward laid them out

    def test_grpo_through_the_server(self, monkeypatch):
        self.run_twice(
            monkeypatch,
            AlgoType.GRPO,
            trainer_config=TrainerConfig(group_size=4),
            use_serving=True,
        )

    def test_ppo_with_a_reward_model(self, monkeypatch):
        self.run_twice(monkeypatch, AlgoType.PPO, reward_fn=None)


class TestDriverErrors:
    def test_indivisible_minibatches_rejected(self):
        tc = TrainerConfig(updates_per_epoch=3)
        system = build(AlgoType.PPO, tc)
        with pytest.raises(ValueError, match="divisible"):
            system.trainer.train(dataset(), 1, 8)


# (group.method, deps) one ``trainer.step`` leaves in ``controller.trace`` —
# recorded before ``step`` was split into rollout/prepare/learn, with
# ppo_epochs=2 x updates_per_epoch=2 (four optimizer rounds).  Dispatch order
# is the schedule; deps are the dataflow edges the timeline replays.  Kept as
# literal data: it is the reference the derived graph (``dataflow_of``) and
# every real trace are compared against.
STEP_TRACES = {
    AlgoType.PPO: [
        ("actor.generate_sequences", ()),
        ("critic.compute_values", (0,)),
        ("reference.compute_ref_log_prob", (0,)),
        ("reward.compute_reward", (0,)),
        ("actor.compute_log_prob", (0,)),
    ]
    + [
        ("critic.update_critic", (0, 1, 2, 3, 4)),
        ("actor.update_actor", (0, 1, 2, 3, 4)),
    ]
    * 4,
    AlgoType.REMAX: [
        ("actor.generate_sequences", ()),
        ("actor.generate_sequences", ()),
        ("reference.compute_ref_log_prob", (0,)),
        ("reward.compute_reward", (0,)),
        ("actor.compute_log_prob", (0,)),
        ("reward.compute_reward", (1,)),
    ]
    # moved once (PR 21): update_actor now also depends on call 5, the
    # baseline's reward, whose lineage ReMaxTrainer.prepare used to drop —
    # the pin had recorded that bug as truth: (0, 2, 3, 4)
    + [("actor.update_actor", (0, 2, 3, 4, 5))] * 4,
    AlgoType.SAFE_RLHF: [
        ("actor.generate_sequences", ()),
        ("critic.compute_values", (0,)),
        ("cost.compute_cost", (0,)),
        ("reference.compute_ref_log_prob", (0,)),
        ("reward.compute_reward", (0,)),
        ("actor.compute_log_prob", (0,)),
        ("actor.compute_loss", ()),
    ]
    + [
        ("critic.update_critic", (0, 1, 2, 3, 4, 5)),
        ("actor.update_actor", (0, 1, 2, 3, 4, 5)),
    ]
    * 4,
    AlgoType.GRPO: [
        ("actor.generate_sequences", ()),
        ("reference.compute_ref_log_prob", (0,)),
        ("reward.compute_reward", (0,)),
        ("actor.compute_log_prob", (0,)),
    ]
    + [("actor.update_actor", (0, 1, 2, 3))] * 4,
}


PRETRAIN = PromptDataset(n_prompts=32, prompt_length=12, vocab_size=16, seed=2)


def trainer_kwargs(algo, pretrain=True):
    """Safe-RLHF's pretrain set: the one trainer argument that adds a call."""
    if algo is AlgoType.SAFE_RLHF and pretrain:
        return {"pretrain_dataset": PRETRAIN}
    return {}


def executed(system):
    return [(f"{r.group}.{r.method}", r.deps) for r in system.controller.trace]


def derived(algo, tc=None, **kwargs):
    graph = dataflow_of(algo, tc, **kwargs)
    return [(f"{n.role}.{n.method}", n.deps) for n in graph.nodes]


class TestStageSplitKeepsTheTrace:
    @pytest.mark.parametrize("algo", list(STEP_TRACES), ids=lambda a: a.value)
    def test_step_dispatch_order_and_dataflow_edges(self, algo):
        kwargs = trainer_kwargs(algo)
        tc = TrainerConfig(ppo_epochs=2, updates_per_epoch=2, group_size=2)
        system = build(algo, tc, **kwargs)
        system.trainer.step(dataset().batch(0, 8))
        # derived == executed == pinned
        assert derived(algo, tc, **kwargs) == executed(system) == STEP_TRACES[algo]

    def test_step_is_the_three_stages_composed(self):
        a, b = build(AlgoType.PPO), build(AlgoType.PPO)
        prompts = dataset().batch(0, 8)
        composed = b.trainer.learn(b.trainer.prepare(b.trainer.rollout(prompts)))
        assert a.trainer.step(prompts) == composed
        assert a.controller.trace == b.controller.trace


class TestDerivedGraphIsTheExecutedGraph:
    """``dataflow_of`` runs the trainer's own ``step`` against contract-shaped
    probes; what it derives must be what a built system really dispatches."""

    @pytest.mark.parametrize("disaggregated", [False, True], ids=["colocated", "split"])
    @pytest.mark.parametrize("algo", list(STEP_TRACES), ids=lambda a: a.value)
    def test_on_both_shipped_placements(self, algo, disaggregated):
        spec = SystemSpec(algo=algo, disaggregated=disaggregated)
        tc = TrainerConfig(ppo_epochs=2, updates_per_epoch=2, group_size=2)
        system = build_rlhf_system(
            algo,
            spec.plan,
            CFG,
            trainer_config=tc,
            reward_fn=TASK.reward if spec.function_rewards else None,
            **trainer_kwargs(algo),
        )
        system.trainer.step(dataset().batch(0, 8))
        assert executed(system) == STEP_TRACES[algo]
        assert set(system.groups) == set(dataflow_of(algo).roles)

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(
        algo=st.sampled_from(list(AlgoType)),
        ppo_epochs=st.integers(1, 3),
        updates_per_epoch=st.sampled_from([1, 2, 4]),
        recompute=st.booleans(),
        group_size=st.sampled_from([2, 4]),
        pretrain=st.booleans(),
        dp=st.sampled_from([1, 2]),
        tp=st.sampled_from([1, 2]),
        disaggregated=st.booleans(),
    )
    def test_under_every_trainer_config(
        self, algo, ppo_epochs, updates_per_epoch, recompute, group_size, pretrain,
        dp, tp, disaggregated,
    ):
        tc = TrainerConfig(
            ppo_epochs=ppo_epochs,
            updates_per_epoch=updates_per_epoch,
            recompute_log_probs=recompute,
            group_size=group_size,
        )
        kwargs = trainer_kwargs(algo, pretrain)
        spec = SystemSpec(algo=algo, tp=tp, dp=dp, disaggregated=disaggregated)
        system = build_rlhf_system(
            algo,
            spec.plan,
            CFG,
            trainer_config=tc,
            reward_fn=TASK.reward if spec.function_rewards else None,
            max_new_tokens=8,
            **kwargs,
        )
        recorder = system.controller.shape_recorder = ShapeRecorder()
        system.trainer.step(dataset().batch(0, 8))
        assert derived(algo, tc, **kwargs) == executed(system)
        # ... and the shapes the SF pass's probe collects over the system's
        # own placement are the shapes the run collected (ROADMAP 5(d))
        report = shape_cross_validate(
            recorder, predict_system_outputs(system, batch_size=8, prompt_length=4)
        )
        assert report.findings == [], [f.message for f in report.findings]
        graph = dataflow_of(algo, tc, **kwargs)
        assert report.checked["recorded_samples"] == sum(
            1 for node in graph.nodes if node.produced
        )
        assert "unpredicted_calls" not in report.checked

    def test_figure1_stages_and_multiplicities(self):
        figure1 = TrainerConfig(recompute_log_probs=False)
        stages = {
            algo: tuple(
                dataflow_of(algo, figure1).calls(stage)
                for stage in (GENERATION, PREPARATION, TRAINING)
            )
            for algo in AlgoType
        }
        scorers = {"reference": 1, "reward": 1}
        assert stages == {
            AlgoType.PPO: (
                {"actor": 1},
                {"critic": 1, **scorers},
                {"actor": 1, "critic": 1},
            ),
            # ReMax's two special cases, structurally: a second generation
            # pass and the reward model scoring both responses
            AlgoType.REMAX: ({"actor": 2}, {"reference": 1, "reward": 2}, {"actor": 1}),
            AlgoType.SAFE_RLHF: (
                {"actor": 1},
                {"critic": 1, **scorers, "cost": 1},
                {"actor": 1, "critic": 1},
            ),
            AlgoType.GRPO: ({"actor": 1}, scorers, {"actor": 1}),
        }

    def test_controller_step_is_observed(self):
        (step,) = dataflow_of(AlgoType.REMAX).controller
        assert step.reads == ("log_probs", "scores", "ref_log_probs", "baseline_scores")
        assert step.writes == (
            ("baseline_scores", "B:float64"),
            ("advantages", "B,R:float64"),
        )
        assert step.deps == (0, 2, 3, 4, 5) and step.before == 6

    def test_each_call_sees_the_workers_as_they_are(self, monkeypatch):
        from repro.single_controller.decorator import (
            register,
            registered_protocol,
            registered_shape_contract,
            shape_contract,
        )
        from repro.workers import ReferenceWorker

        real = ReferenceWorker.compute_ref_log_prob
        raw = registered_shape_contract(real)

        @register(registered_protocol(real))
        @shape_contract(**dict(raw, outputs={**raw["outputs"], "ref_entropy": "B,R"}))
        def widened(self, *args, **kwargs):
            return real(self, *args, **kwargs)

        def made():
            graph = dataflow_of("ppo")
            return next(n.produced for n in graph.nodes if n.method == real.__name__)

        intact = made()
        monkeypatch.setattr(ReferenceWorker, "compute_ref_log_prob", widened)
        assert made() == intact + ("ref_entropy",)
        monkeypatch.undo()
        assert made() == intact

    def test_uncontracted_call_is_a_typed_error(self):
        class Peeking(RlhfTrainerBase):
            algo = AlgoType.PPO

            def prepare(self, gen):
                return self.actor.save_checkpoint(gen).get()

        with pytest.raises(UncontractedCallError, match="actor.save_checkpoint"):
            dataflow_of(Peeking)


class Algo(str, enum.Enum):
    REINFORCE = "reinforce"


class ReinforceTrainer(RlhfTrainerBase):
    """REINFORCE with a batch-mean baseline: rollout → reward → update_actor.

    The fifth algorithm, defined only here: everything below holds with no
    edit under ``src/repro`` — the paper's §4 flexibility claim.
    """

    algo = Algo.REINFORCE

    def prepare(self, gen):
        return self._advantages(gen.union(self.reward.compute_reward(gen).get()))

    def _advantages(self, batch):
        out = batch.copy()
        centred = batch["scores"] - batch["scores"].mean()
        out["advantages"] = centred[:, None] * np.ones_like(batch["old_log_probs"])
        return out

    def _update(self, mini):
        return {"actor": self.actor.update_actor(mini, loss_func="ppo").get()}


class TestFifthAlgorithm:
    PAR = ParallelConfig(pp=1, tp=2, dp=1)

    def plan(self, *extra):
        return PlacementPlan.grouped(
            {"main": (self.PAR, ["actor", *extra]), "r": (ParallelConfig(1, 1, 1), ["reward"])},
            GenParallelConfig.derive(self.PAR, 1, 1),
        )

    def test_roles_are_read_off_its_step(self):
        assert required_models(ReinforceTrainer) == ("actor", "reward")
        assert derived(ReinforceTrainer) == [
            ("actor.generate_sequences", ()),
            ("reward.compute_reward", (0,)),
            ("actor.update_actor", (0, 1)),
        ]

    def test_passes_the_static_checkers(self):
        df = DataflowChecker()
        for report in (
            df.check_plan(ReinforceTrainer, self.plan(), function_rewards=("reward",)),
            ShapeFlowChecker().check_plan(
                ReinforceTrainer, self.plan(), function_rewards=("reward",), batch_size=8
            ),
        ):
            assert report.findings == [], report.findings
        idle = df.check_plan(
            ReinforceTrainer, self.plan("critic"), function_rewards=("reward",)
        )
        assert [f.rule for f in idle.findings] == ["DF106"]
        assert "reinforce" in idle.findings[0].message

    def test_builds_and_trains(self):
        system = build_rlhf_system(
            ReinforceTrainer, self.plan(), CFG, reward_fn=TASK.reward, lr=5e-3
        )
        assert set(system.groups) == {"actor", "reward"}
        history = system.trainer.train(dataset(), 2, 8)
        assert len(history) == 2
        assert all(np.isfinite(v) for h in history for v in h.values())
        calls = [name for name, _deps in derived(ReinforceTrainer)]
        assert system.controller.trace_methods() == calls * 2
        assert ShapeFlowChecker().check_system(system, 8, 4).findings == []

    def test_is_priced_by_the_iteration_model(self):
        spec, cluster, wl = MODEL_SPECS["llama-7b"], ClusterSpec(n_machines=2), RlhfWorkload()
        par = ParallelConfig(1, 8, 2)
        executions = {
            role: ModelExecution(spec=spec, pool="shared", parallel=par)
            for role in required_models(ReinforceTrainer)
        }
        gen_plan = GenerationPlan(tp=2, pp=1, n_replicas=8, pool="shared")
        cost = estimate_iteration(ReinforceTrainer, executions, gen_plan, wl, cluster)
        # preparation = one reward inference, training = one actor pass
        assert cost.preparation == inference_latency(spec, cluster, par, wl)
        assert cost.training == training_latency(
            spec, cluster, par, wl, n_passes_over_batch=float(wl.ppo_epochs)
        )
        mapped = map_dataflow(
            ReinforceTrainer, {r: spec for r in executions}, ClusterSpec(n_machines=1), wl
        )
        assert sorted(mapped.strategies) == ["actor", "reward"]
