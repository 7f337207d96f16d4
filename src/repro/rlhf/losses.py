"""Differentiable RLHF losses over autograd Tensors.

These are the per-algorithm loss functions the paper lists in Table 4
("We implement various loss for diverse RLHF algorithms including PPO,
Safe-RLHF, ReMax, GRPO and others"), shared by the actor/critic workers.

Each token loss — the PPO clip (PPO, ReMax, Safe-RLHF, GRPO), the value
clip, the k1/k3 KL — and the reward model's pairwise loss is **one** tape
node whose forward and VJP are written together.  Both follow the op-by-op
spelling kept in ``tests/oracles.py`` ufunc for ufunc, in its summation and
multiplication order, so values and gradients are bit-identical to it.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.models.autograd import Tensor


def _as_array(x) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def _mask_array(
    response_mask: Optional[np.ndarray], shape: Tuple[int, ...]
) -> Optional[np.ndarray]:
    if response_mask is None:
        return None
    mask = np.asarray(response_mask, dtype=np.float64)
    if mask.shape != shape:
        raise ValueError(
            f"response_mask shape {mask.shape} does not match {shape}"
        )
    return mask


def _n_tokens(mask: Optional[np.ndarray], shape: Tuple[int, ...]) -> float:
    """A loss's normaliser: the real tokens of this batch (all of them
    without a mask).  Each data-parallel rank counts its own rows."""
    if mask is None:
        return float(np.prod(shape))
    return max(float(mask.sum()), 1.0)


def _token_mean(
    x: Tensor,
    per_token: np.ndarray,
    vjp: Callable[[np.ndarray], np.ndarray],
    mask: Optional[np.ndarray],
    n_tokens: float,
    coef: float = 1.0,
) -> Tensor:
    """``coef * sum(per_token * mask) / n_tokens`` as one tape node on ``x``.

    ``per_token`` was computed from ``x``'s values; ``vjp`` maps the
    gradient of ``per_token`` (a fresh array it may overwrite) to that of
    ``x``.  An array ``x`` is a constant.
    """
    x = Tensor._wrap(x)
    inv_n = 1.0 / n_tokens
    total = per_token.sum() if mask is None else (per_token * mask).sum()
    out = total * inv_n * coef

    def backward(g: np.ndarray) -> None:
        d = np.full(per_token.shape, g * coef * inv_n)
        if mask is not None:
            d *= mask
        x._accumulate(vjp(d), owned=True)

    return Tensor._from_op(out, (x,), backward)


def _masked_mean_np(arr: np.ndarray, mask: Optional[np.ndarray]) -> float:
    if mask is None:
        return float(np.mean(arr))
    n = max(float(mask.sum()), 1.0)
    return float((arr * mask).sum() / n)


def truncated_importance_weights(
    log_probs,
    old_log_probs,
    clip: float = 2.0,
    response_mask: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per-token truncated importance weights for bounded-staleness training.

    When experience was generated by a *stale* policy (the async one-step-off
    pipeline), the PPO surrogate's behaviour distribution no longer matches
    the policy the advantages should be taken under.  The standard correction
    multiplies each token's advantage by the importance ratio between the
    train-time *anchor* policy (``log_probs``, recomputed when the batch is
    consumed) and the generation-time *behaviour* policy (``old_log_probs``),
    truncated at ``clip`` to bound the variance (Espeholt et al.'s V-trace
    rho-bar / MindSpeed-RL-style truncated IS).

    Weights are constants — they scale advantages and carry no gradient.
    Masked-out (post-EOS) positions get weight exactly ``1.0`` so the column
    is inert wherever the loss is.

    Args:
        log_probs: Anchor-policy log-probs ``(batch, T)`` (Tensor or array).
        old_log_probs: Behaviour-policy log-probs ``(batch, T)``.
        clip: Upper truncation for the ratio; must be ``>= 1`` so on-policy
            tokens (ratio 1) are never scaled down.
        response_mask: Optional ``(batch, T)`` real-token mask.
    """
    if clip < 1.0:
        raise ValueError(f"iw clip must be >= 1.0, got {clip}")
    anchor = _as_array(log_probs)
    behaviour = _as_array(old_log_probs)
    if anchor.shape != behaviour.shape:
        raise ValueError(
            f"log-prob shapes differ: {anchor.shape} vs {behaviour.shape}"
        )
    weights = np.minimum(np.exp(anchor - behaviour), float(clip))
    mask = _mask_array(response_mask, behaviour.shape)
    if mask is not None:
        weights = np.where(mask > 0, weights, 1.0)
    return weights


def ppo_policy_loss(
    log_probs: Tensor,
    old_log_probs: np.ndarray,
    advantages: np.ndarray,
    clip_ratio: float = 0.2,
    response_mask: Optional[np.ndarray] = None,
    importance_weights: Optional[np.ndarray] = None,
) -> Tuple[Tensor, Dict[str, float]]:
    """Clipped-surrogate PPO objective [68] over response tokens.

    Args:
        log_probs: Current-policy log-probs, differentiable ``(batch, T)``.
        old_log_probs: Behaviour-policy log-probs ``(batch, T)`` (constant).
        advantages: Token-level advantages ``(batch, T)`` (constant).
        clip_ratio: PPO epsilon.
        response_mask: Optional ``(batch, T)`` mask of real response tokens;
            the surrogate and every monitoring statistic average over real
            tokens only, so post-EOS padding carries no gradient.
        importance_weights: Optional ``(batch, T)`` truncated importance
            weights (:func:`truncated_importance_weights`) scaling the
            advantages — the off-policy correction for experience generated
            by a stale policy in the async pipeline.  ``None`` (the
            synchronous loop) leaves the objective untouched.

    Returns:
        ``(loss, metrics)``; metrics include the clipped fraction and an
        estimate of the policy KL for monitoring.
    """
    old_log_probs = _as_array(old_log_probs)
    advantages = _as_array(advantages)
    mask = _mask_array(response_mask, old_log_probs.shape)
    if importance_weights is not None:
        weights = _as_array(importance_weights)
        if weights.shape != advantages.shape:
            raise ValueError(
                f"importance_weights shape {weights.shape} does not match "
                f"advantages {advantages.shape}"
            )
        advantages = advantages * weights
    lo, hi = 1.0 - clip_ratio, 1.0 + clip_ratio
    ratio = np.exp(_as_array(log_probs) - old_log_probs)
    in_range = (ratio >= lo) & (ratio <= hi)
    # min(surr1, surr2) spelled -max(-surr1, -surr2), the loss its negated mean
    neg1 = -(ratio * advantages)
    neg2 = -(np.clip(ratio, lo, hi) * advantages)
    take1 = neg1 >= neg2

    def vjp(d: np.ndarray) -> np.ndarray:
        d = -d
        grad = -(d * take1) * advantages
        grad += -(d * ~take1) * advantages * in_range
        grad *= ratio
        return grad

    loss = _token_mean(
        log_probs,
        -np.maximum(neg1, neg2),
        vjp,
        mask,
        _n_tokens(mask, ratio.shape),
        coef=-1.0,
    )
    metrics = {
        "policy_loss": float(loss.item()),
        "clip_frac": _masked_mean_np((~in_range).astype(np.float64), mask),
        "approx_kl": _masked_mean_np(old_log_probs - _as_array(log_probs), mask),
        "ratio_mean": _masked_mean_np(ratio, mask),
    }
    if importance_weights is not None:
        metrics["iw_mean"] = _masked_mean_np(weights, mask)
        metrics["iw_min"] = float(weights.min()) if weights.size else 1.0
    return loss, metrics


def value_loss(
    values: Tensor,
    old_values: np.ndarray,
    returns: np.ndarray,
    clip_range: float = 0.2,
    response_mask: Optional[np.ndarray] = None,
) -> Tuple[Tensor, Dict[str, float]]:
    """Clipped squared-error critic loss [55].

    The value prediction is clipped around the behaviour-time value to limit
    per-update movement, and the worse (max) of the two squared errors is
    taken.  With ``response_mask``, padded positions are excluded from the
    regression and its statistics.
    """
    old_values = _as_array(old_values)
    returns = _as_array(returns)
    mask = _mask_array(response_mask, old_values.shape)
    pred = _as_array(values)
    delta = pred - old_values
    in_range = (delta >= -clip_range) & (delta <= clip_range)
    err = pred - returns
    err_clipped = old_values + np.clip(delta, -clip_range, clip_range) - returns
    sq, sq_clipped = err**2, err_clipped**2
    take = sq >= sq_clipped

    def vjp(d: np.ndarray) -> np.ndarray:
        grad = d * take * 2 * err
        grad += d * ~take * 2 * err_clipped * in_range
        return grad

    loss = _token_mean(
        values,
        np.maximum(sq, sq_clipped),
        vjp,
        mask,
        _n_tokens(mask, sq.shape),
        coef=0.5,
    )
    clip_hits = (np.abs(delta) > clip_range).astype(np.float64)
    target = returns
    if mask is not None:
        keep = mask > 0
        pred, target = pred[keep], returns[keep]
    metrics = {
        "value_loss": float(loss.item()),
        "value_clip_frac": _masked_mean_np(clip_hits, mask),
        "explained_var": _explained_variance(pred, target),
    }
    return loss, metrics


def _explained_variance(pred: np.ndarray, target: np.ndarray) -> float:
    if target.size == 0:
        return 0.0
    var = float(np.var(target))
    if var < 1e-12:
        return 0.0
    return float(1.0 - np.var(target - pred) / var)


def preference_loss(chosen: Tensor, rejected: Tensor) -> Tensor:
    """Pairwise reward-model loss ``mean(-log sigmoid(chosen - rejected))``
    over ``(batch,)`` scores, spelled ``softplus(-margin)`` for stability."""
    e = np.exp(-(chosen.data - rejected.data))
    shifted = e + 1.0
    inv_n = 1.0 / shifted.size

    def backward(g: np.ndarray) -> None:
        d_margin = -(np.full(shifted.shape, g * inv_n) / shifted * e)
        if chosen.requires_grad:
            chosen._accumulate(d_margin)
        if rejected.requires_grad:
            rejected._accumulate(-d_margin, owned=True)

    out = np.log(shifted).sum() * inv_n
    return Tensor._from_op(out, (chosen, rejected), backward)


def pretrain_loss(log_probs: Tensor) -> Tensor:
    """Auxiliary next-token NLL on a pretraining batch (PPO-ptx / Safe-RLHF).

    ``log_probs`` is the actor's ``token_log_probs`` output on pretraining
    text; the loss is the mean negative log-likelihood.
    """
    return -log_probs.mean()


def kl_penalty(
    log_probs: Tensor,
    ref_log_probs: np.ndarray,
    kind: str = "k1",
    response_mask: Optional[np.ndarray] = None,
) -> Tensor:
    """Differentiable KL estimate between actor and reference per token.

    ``k1`` is the plain difference estimator; ``k3`` is Schulman's
    low-variance unbiased estimator ``exp(-d) - 1 + d`` with
    ``d = log_probs - ref_log_probs`` (used by GRPO-style losses).
    """
    ref_arr = _as_array(ref_log_probs)
    mask = _mask_array(response_mask, ref_arr.shape)
    if kind not in ("k1", "k3"):
        raise ValueError(f"unknown KL estimator {kind!r}")
    diff = _as_array(log_probs) - ref_arr
    e = np.exp(-diff) if kind == "k3" else None

    def vjp(d: np.ndarray) -> np.ndarray:
        return d if e is None else d - d * e

    per_token = diff if e is None else e - 1.0 + diff
    return _token_mean(log_probs, per_token, vjp, mask, _n_tokens(mask, diff.shape))


def grpo_policy_loss(
    log_probs: Tensor,
    old_log_probs: np.ndarray,
    advantages: np.ndarray,
    ref_log_probs: np.ndarray,
    clip_ratio: float = 0.2,
    kl_coef: float = 0.04,
    response_mask: Optional[np.ndarray] = None,
    importance_weights: Optional[np.ndarray] = None,
) -> Tuple[Tensor, Dict[str, float]]:
    """GRPO objective [70]: PPO clip plus an explicit k3 KL-to-reference term."""
    loss, metrics = ppo_policy_loss(
        log_probs, old_log_probs, advantages, clip_ratio,
        response_mask=response_mask,
        importance_weights=importance_weights,
    )
    kl = kl_penalty(
        log_probs, ref_log_probs, kind="k3", response_mask=response_mask
    )
    total = loss + kl_coef * kl
    metrics = dict(metrics)
    metrics["kl_to_ref"] = float(kl.item())
    metrics["grpo_loss"] = float(total.item())
    return total, metrics


def safe_rlhf_policy_loss(
    log_probs: Tensor,
    old_log_probs: np.ndarray,
    reward_advantages: np.ndarray,
    cost_advantages: np.ndarray,
    lagrange_multiplier: float,
    clip_ratio: float = 0.2,
    response_mask: Optional[np.ndarray] = None,
) -> Tuple[Tensor, Dict[str, float]]:
    """Safe-RLHF [19]: PPO-Lagrangian on the combined advantage.

    The policy maximises ``A_reward - lambda * A_cost`` (normalised by
    ``1 + lambda`` as in the Safe-RLHF reference implementation); the
    multiplier itself is updated outside the loss from the observed cost.
    """
    reward_advantages = _as_array(reward_advantages)
    cost_advantages = _as_array(cost_advantages)
    combined = (reward_advantages - lagrange_multiplier * cost_advantages) / (
        1.0 + lagrange_multiplier
    )
    loss, metrics = ppo_policy_loss(
        log_probs, old_log_probs, combined, clip_ratio,
        response_mask=response_mask,
    )
    metrics = dict(metrics)
    metrics["lagrange_multiplier"] = float(lagrange_multiplier)
    return loss, metrics


def update_lagrange_multiplier(
    multiplier: float,
    mean_cost: np.ndarray,
    cost_limit: float,
    lr: float = 0.1,
) -> float:
    """Projected gradient-ascent step on the Safe-RLHF dual variable.

    The multiplier grows when observed cost exceeds the limit and shrinks
    (down to 0) otherwise.
    """
    violation = float(np.mean(mean_cost)) - cost_limit
    return max(0.0, multiplier + lr * violation)
