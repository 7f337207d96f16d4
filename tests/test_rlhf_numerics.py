"""Tests for advantage estimators and RLHF losses."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data.batch import DataBatch
from repro.models.autograd import Tensor
from repro.rlhf import losses as L
from repro.rlhf.advantage import (
    compose_token_rewards,
    gae_advantages,
    grpo_advantages,
    remax_advantages,
    whiten,
)
from repro.rlhf.core import AlgoType, compute_advantages


class TestComposeTokenRewards:
    def test_score_lands_on_final_token(self):
        scores = np.array([2.0])
        logp = np.zeros((1, 4))
        rewards = compose_token_rewards(scores, logp, logp, kl_coef=0.1)
        np.testing.assert_allclose(rewards, [[0, 0, 0, 2.0]])

    def test_kl_penalty_sign(self):
        """Actor more confident than reference => negative shaped reward."""
        scores = np.zeros(1)
        logp = np.full((1, 3), -0.5)
        ref = np.full((1, 3), -1.0)
        rewards = compose_token_rewards(scores, logp, ref, kl_coef=0.2)
        np.testing.assert_allclose(rewards, np.full((1, 3), -0.1))

    def test_kl_clipping(self):
        scores = np.zeros(1)
        logp = np.zeros((1, 2))
        ref = np.full((1, 2), -100.0)
        rewards = compose_token_rewards(scores, logp, ref, kl_coef=1.0, clip_kl=5.0)
        np.testing.assert_allclose(rewards, [[-5.0, -5.0]])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            compose_token_rewards(np.zeros(2), np.zeros((1, 3)), np.zeros((1, 3)))
        with pytest.raises(ValueError):
            compose_token_rewards(np.zeros(1), np.zeros((1, 3)), np.zeros((1, 4)))


class TestGAE:
    def test_matches_manual_recursion(self):
        rewards = np.array([[1.0, 0.0, 2.0]])
        values = np.array([[0.5, 0.2, 0.1]])
        gamma, lam = 0.9, 0.8
        adv, ret = gae_advantages(rewards, values, gamma, lam)
        # manual backwards recursion
        d2 = 2.0 + 0 - 0.1
        d1 = 0.0 + 0.9 * 0.1 - 0.2
        d0 = 1.0 + 0.9 * 0.2 - 0.5
        a2 = d2
        a1 = d1 + 0.9 * 0.8 * a2
        a0 = d0 + 0.9 * 0.8 * a1
        np.testing.assert_allclose(adv, [[a0, a1, a2]])
        np.testing.assert_allclose(ret, adv + values)

    def test_lambda_zero_is_td_error(self):
        rewards = np.array([[1.0, 1.0]])
        values = np.array([[0.3, 0.6]])
        adv, _ = gae_advantages(rewards, values, gamma=1.0, lam=0.0)
        np.testing.assert_allclose(adv, [[1.0 + 0.6 - 0.3, 1.0 - 0.6]])

    def test_perfect_critic_gives_zero_advantage(self):
        """When values equal the exact returns, advantages vanish."""
        rewards = np.array([[0.0, 0.0, 3.0]])
        values = np.array([[3.0, 3.0, 3.0]])  # undiscounted sum-to-go
        adv, _ = gae_advantages(rewards, values, gamma=1.0, lam=1.0)
        np.testing.assert_allclose(adv, np.zeros((1, 3)), atol=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            gae_advantages(np.zeros((1, 3)), np.zeros((1, 4)))

    @settings(max_examples=20, deadline=None)
    @given(
        batch=st.integers(1, 4),
        horizon=st.integers(1, 10),
        seed=st.integers(0, 100),
    )
    def test_lambda_one_gamma_one_is_reward_to_go_minus_value(
        self, batch, horizon, seed
    ):
        rng = np.random.default_rng(seed)
        rewards = rng.normal(size=(batch, horizon))
        values = rng.normal(size=(batch, horizon))
        adv, _ = gae_advantages(rewards, values, gamma=1.0, lam=1.0)
        togo = np.cumsum(rewards[:, ::-1], axis=1)[:, ::-1]
        np.testing.assert_allclose(adv, togo - values, atol=1e-9)


class TestWhiten:
    def test_zero_mean_unit_std(self):
        rng = np.random.default_rng(0)
        x = whiten(rng.normal(3.0, 5.0, size=(4, 8)))
        assert abs(x.mean()) < 1e-10
        assert abs(x.std() - 1.0) < 1e-6


class TestReMaxAdvantage:
    def test_baseline_subtraction_and_broadcast(self):
        adv = remax_advantages(np.array([2.0, 1.0]), np.array([1.5, 1.5]), 3)
        np.testing.assert_allclose(adv, [[0.5] * 3, [-0.5] * 3])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            remax_advantages(np.zeros(2), np.zeros(3), 4)


class TestGRPOAdvantage:
    def test_group_normalisation(self):
        rewards = np.array([1.0, 3.0, 0.0, 0.0])
        adv = grpo_advantages(rewards, group_size=2, response_length=2)
        assert adv.shape == (4, 2)
        np.testing.assert_allclose(adv[0], [-1.0, -1.0], atol=1e-6)
        np.testing.assert_allclose(adv[1], [1.0, 1.0], atol=1e-6)
        np.testing.assert_allclose(adv[2], [0.0, 0.0], atol=1e-6)  # zero std

    def test_validation(self):
        with pytest.raises(ValueError):
            grpo_advantages(np.zeros(4), group_size=1, response_length=2)
        with pytest.raises(ValueError):
            grpo_advantages(np.zeros(5), group_size=2, response_length=2)
        with pytest.raises(ValueError):
            grpo_advantages(np.zeros((2, 2)), group_size=2, response_length=2)


class TestPPOLoss:
    def test_zero_drift_loss_is_negative_mean_advantage(self):
        logp = Tensor(np.full((2, 3), -1.0), requires_grad=True)
        adv = np.full((2, 3), 0.5)
        loss, metrics = L.ppo_policy_loss(logp, logp.data.copy(), adv)
        assert loss.item() == pytest.approx(-0.5)
        assert metrics["clip_frac"] == 0.0
        assert metrics["ratio_mean"] == pytest.approx(1.0)

    def test_gradient_pushes_towards_positive_advantage(self):
        logp = Tensor(np.zeros((1, 2)), requires_grad=True)
        old = np.zeros((1, 2))
        adv = np.array([[1.0, -1.0]])
        loss, _ = L.ppo_policy_loss(logp, old, adv)
        loss.backward()
        assert logp.grad[0, 0] < 0  # increase log-prob of positive-adv token
        assert logp.grad[0, 1] > 0

    def test_clipping_kills_gradient_outside_range(self):
        # ratio = e^1 ≈ 2.7 >> 1+eps with positive advantage: clipped, so
        # the surrogate is constant and gradient vanishes
        logp = Tensor(np.array([[1.0]]), requires_grad=True)
        old = np.array([[0.0]])
        adv = np.array([[1.0]])
        loss, metrics = L.ppo_policy_loss(logp, old, adv, clip_ratio=0.2)
        loss.backward()
        assert metrics["clip_frac"] == 1.0
        np.testing.assert_allclose(logp.grad, [[0.0]])


class TestValueLoss:
    def test_perfect_values_zero_loss(self):
        values = Tensor(np.ones((2, 2)), requires_grad=True)
        loss, metrics = L.value_loss(values, np.ones((2, 2)), np.ones((2, 2)))
        assert loss.item() == 0.0
        assert metrics["explained_var"] == 0.0  # zero-variance target

    def test_clip_takes_worse_error(self):
        values = Tensor(np.array([[2.0]]), requires_grad=True)
        old = np.array([[0.0]])
        returns = np.array([[2.0]])
        loss, _ = L.value_loss(values, old, returns, clip_range=0.2)
        # clipped prediction is 0.2 -> error (0.2-2)^2 = 3.24; unclipped 0
        assert loss.item() == pytest.approx(0.5 * 3.24)


class TestKLAndSafety:
    def test_k1_and_k3_estimators(self):
        logp = Tensor(np.full((1, 2), -1.0))
        ref = np.full((1, 2), -1.5)
        assert L.kl_penalty(logp, ref, "k1").item() == pytest.approx(0.5)
        k3 = L.kl_penalty(logp, ref, "k3").item()
        assert k3 == pytest.approx(np.exp(-0.5) - 1 + 0.5)
        with pytest.raises(ValueError):
            L.kl_penalty(logp, ref, "k9")

    def test_k3_nonnegative_property(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            logp = Tensor(rng.normal(size=(2, 3)))
            ref = rng.normal(size=(2, 3))
            assert L.kl_penalty(logp, ref, "k3").item() >= 0

    def test_pretrain_loss_is_nll(self):
        logp = Tensor(np.full((2, 2), -2.0))
        assert L.pretrain_loss(logp).item() == pytest.approx(2.0)

    def test_safe_rlhf_combines_advantages(self):
        logp = Tensor(np.zeros((1, 1)), requires_grad=True)
        old = np.zeros((1, 1))
        loss, metrics = L.safe_rlhf_policy_loss(
            logp, old, np.array([[1.0]]), np.array([[1.0]]), lagrange_multiplier=1.0
        )
        # combined advantage (1 - 1*1)/(1+1) = 0 -> loss 0
        assert loss.item() == pytest.approx(0.0)
        assert metrics["lagrange_multiplier"] == 1.0

    def test_lagrange_update_direction(self):
        up = L.update_lagrange_multiplier(0.5, np.array([0.9]), cost_limit=0.1, lr=1.0)
        assert up == pytest.approx(1.3)
        down = L.update_lagrange_multiplier(0.5, np.array([0.0]), cost_limit=0.1, lr=1.0)
        assert down == pytest.approx(0.4)
        floor = L.update_lagrange_multiplier(0.0, np.array([0.0]), cost_limit=1.0, lr=1.0)
        assert floor == 0.0

    def test_grpo_loss_adds_kl_term(self):
        logp = Tensor(np.zeros((1, 2)), requires_grad=True)
        old = np.zeros((1, 2))
        ref = np.full((1, 2), -1.0)
        adv = np.zeros((1, 2))
        loss, metrics = L.grpo_policy_loss(logp, old, adv, ref, kl_coef=0.5)
        assert metrics["kl_to_ref"] > 0
        assert loss.item() == pytest.approx(0.5 * metrics["kl_to_ref"])


class TestLossDoesNotDependOnTheSplit:
    """A data-parallel actor/critic update: each replica computes its rows'
    loss and gradient, and ``workers/base.py`` mean-all-reduces the
    gradients.  With ragged masks that must equal the whole batch's."""

    LENGTHS = [5, 1, 3, 6]  # shard 0 holds 6 real tokens, shard 1 holds 9

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP 10(a): each rank normalises by its own token count",
    )
    @pytest.mark.parametrize(
        "loss_fn", [L.ppo_policy_loss, L.value_loss], ids=["ppo_clip", "value_clip"]
    )
    def test_mean_of_shard_gradients_is_the_whole_batch_gradient(self, loss_fn):
        rng = np.random.default_rng(0)
        t = max(self.LENGTHS)
        mask = (np.arange(t) < np.array(self.LENGTHS)[:, None]).astype(float)
        data = rng.normal(-1.0, 0.5, size=mask.shape)
        old = data + rng.normal(scale=0.3, size=mask.shape)  # log-probs / values
        target = rng.normal(size=mask.shape)  # advantages / returns
        consts = (old, target)

        def grad(rows):
            x = Tensor(data[rows].copy(), requires_grad=True)
            loss, _ = loss_fn(x, *(c[rows] for c in consts), response_mask=mask[rows])
            loss.backward()
            full = np.zeros_like(data)
            full[rows] = x.grad
            return full

        whole = grad(slice(None))
        shards = [grad(slice(0, 2)), grad(slice(2, None))]
        np.testing.assert_allclose(sum(shards) / len(shards), whole, rtol=1e-12)


class TestComputeAdvantages:
    def batch(self, n=4, t=3):
        rng = np.random.default_rng(0)
        return DataBatch(
            {
                "scores": rng.normal(size=n),
                "log_probs": -np.abs(rng.normal(size=(n, t))),
                "ref_log_probs": -np.abs(rng.normal(size=(n, t))),
                "values": rng.normal(size=(n, t)),
            }
        )

    def test_ppo_adds_advantages_and_returns(self):
        out = compute_advantages(self.batch(), AlgoType.PPO)
        assert out["advantages"].shape == (4, 3)
        assert out["returns"].shape == (4, 3)
        assert abs(out["advantages"].mean()) < 1e-9  # whitened

    def test_safe_rlhf_adds_cost_columns(self):
        b = self.batch()
        b["costs"] = np.abs(np.random.default_rng(1).normal(size=4))
        b["cost_values"] = np.zeros((4, 3))
        out = compute_advantages(b, AlgoType.SAFE_RLHF)
        assert "cost_advantages" in out and "cost_returns" in out

    def test_remax(self):
        b = self.batch()
        b["baseline_scores"] = np.zeros(4)
        out = compute_advantages(b, AlgoType.REMAX)
        assert out["advantages"].shape == (4, 3)
        # sequence-level advantage broadcast: identical across tokens
        assert np.allclose(out["advantages"].std(axis=1), 0)

    def test_grpo(self):
        out = compute_advantages(self.batch(), AlgoType.GRPO, group_size=2)
        assert out["advantages"].shape == (4, 3)

    def test_accepts_string_algo(self):
        b = self.batch()
        out = compute_advantages(b, "ppo")
        assert "advantages" in out

    def test_original_batch_unmodified(self):
        b = self.batch()
        compute_advantages(b, AlgoType.PPO)
        assert "advantages" not in b
