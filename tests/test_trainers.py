"""End-to-end functional tests of the four RLHF algorithm drivers (Figure 6)."""

import numpy as np
import pytest

from repro.config import GenParallelConfig, ParallelConfig
from repro.data.dataset import PromptDataset, SyntheticPreferenceTask
from repro.models.tinylm import TinyLMConfig
from repro.rlhf.core import AlgoType
from repro.rlhf.trainers import TrainerConfig
from repro.runtime import build_rlhf_system
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
    from repro.runtime.builder import required_models

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


class TestDriverErrors:
    def test_indivisible_minibatches_rejected(self):
        tc = TrainerConfig(updates_per_epoch=3)
        system = build(AlgoType.PPO, tc)
        with pytest.raises(ValueError, match="divisible"):
            system.trainer.train(dataset(), 1, 8)


# (group.method, deps) one ``trainer.step`` leaves in ``controller.trace`` —
# recorded before ``step`` was split into rollout/prepare/learn, with
# ppo_epochs=2 x updates_per_epoch=2 (four optimizer rounds).  Dispatch order
# is the schedule; deps are the dataflow edges the timeline replays.
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
    + [("actor.update_actor", (0, 2, 3, 4))] * 4,
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


class TestStageSplitKeepsTheTrace:
    @pytest.mark.parametrize("algo", list(STEP_TRACES), ids=lambda a: a.value)
    def test_step_dispatch_order_and_dataflow_edges(self, algo):
        kwargs = {}
        if algo is AlgoType.SAFE_RLHF:
            kwargs["pretrain_dataset"] = PromptDataset(
                n_prompts=32, prompt_length=12, vocab_size=16, seed=2
            )
        tc = TrainerConfig(ppo_epochs=2, updates_per_epoch=2, group_size=2)
        system = build(algo, tc, **kwargs)
        system.trainer.step(dataset().batch(0, 8))
        trace = [
            (f"{r.group}.{r.method}", r.deps) for r in system.controller.trace
        ]
        assert trace == STEP_TRACES[algo]

    def test_step_is_the_three_stages_composed(self):
        a, b = build(AlgoType.PPO), build(AlgoType.PPO)
        prompts = dataset().batch(0, 8)
        composed = b.trainer.learn(b.trainer.prepare(b.trainer.rollout(prompts)))
        assert a.trainer.step(prompts) == composed
        assert a.controller.trace == b.controller.trace
