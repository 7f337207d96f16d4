"""Slow reference implementations the fast paths under ``src/`` are tested against.

Tests-only: nothing under ``src/`` imports this module.  Each function is
the historical, obviously-correct spelling of something production code now
does in one vectorized pass.
"""

from __future__ import annotations

import numpy as np

from repro.models import autograd as ag
from repro.models.autograd import Tensor, no_grad


class ConcatKVCache:
    """The historical grow-by-concatenate KV cache, one per batch.  The
    oracle's own: it shares nothing with the ``KVStore`` it checks."""

    def __init__(self, n_layers):
        self.keys = [None] * n_layers
        self.values = [None] * n_layers

    def append(self, layer, k, v):
        if self.keys[layer] is not None:
            k = np.concatenate([self.keys[layer], k], axis=2)
            v = np.concatenate([self.values[layer], v], axis=2)
        self.keys[layer], self.values[layer] = k, v
        return k, v


def sample_tokens_reference(logits, rng, temperature=1.0, greedy=False):
    """The historical per-row ``rng.choice`` sampler (one draw per row)."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2:
        raise ValueError(f"logits must be (batch, vocab), got {logits.shape}")
    if greedy:
        return logits.argmax(axis=-1)
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    scaled = logits / temperature
    scaled = scaled - scaled.max(axis=-1, keepdims=True)
    probs = np.exp(scaled)
    probs /= probs.sum(axis=-1, keepdims=True)
    out = np.empty(logits.shape[0], dtype=np.int64)
    for i, row in enumerate(probs):
        out[i] = rng.choice(len(row), p=row)
    return out


def generate_reference(
    model,
    prompts,
    max_new_tokens,
    temperature=1.0,
    greedy=False,
    rng=None,
    eos_token_id=None,
    pad_token_id=None,
):
    """The historical ``generate`` loop: per-row sampler, its own log-softmax,
    one ``np.concatenate`` per emitted column, no early exit, the op-by-op
    forward through the concatenate cache.

    Returns ``(sequences, response_log_probs, response_mask)``; the mask is
    ``None`` without an ``eos_token_id``.
    """
    prompts = np.asarray(prompts, dtype=np.int64)
    batch, prompt_len = prompts.shape
    cache = ConcatKVCache(model.config.n_layers)
    sequences = prompts.copy()
    log_probs = np.zeros((batch, max_new_tokens))
    mask = np.zeros((batch, max_new_tokens))
    alive = np.ones(batch, dtype=bool)
    pad = eos_token_id if pad_token_id is None else pad_token_id
    with no_grad():
        logits = tinylm_forward_reference(model, prompts, cache, 0)
        for step in range(max_new_tokens):
            step_logits = logits.data[:, -1, :]
            tokens = sample_tokens_reference(
                step_logits, rng, temperature=temperature, greedy=greedy
            )
            shifted = step_logits - step_logits.max(axis=-1, keepdims=True)
            logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
            step_logp = logp[np.arange(batch), tokens]
            if eos_token_id is not None:
                tokens = np.where(alive, tokens, pad)
                step_logp = np.where(alive, step_logp, 0.0)
                mask[:, step] = alive
                alive = alive & (tokens != eos_token_id)
            log_probs[:, step] = step_logp
            sequences = np.concatenate([sequences, tokens[:, None]], axis=1)
            if step + 1 < max_new_tokens:
                logits = tinylm_forward_reference(
                    model, tokens[:, None], cache, prompt_len + step
                )
    return sequences, log_probs, mask if eos_token_id is not None else None


# -- the op-by-op TinyLM ---------------------------------------------------------


def _rms_norm_reference(x, weight, eps):
    variance = (x * x).mean(axis=-1, keepdims=True)
    return x * ((variance + eps) ** -0.5) * weight


def _attention_reference(model, x, layer, cache, pos_offset):
    cfg = model.config
    b, t, h = x.shape
    nh, hd = cfg.n_heads, cfg.head_dim
    p = model.params
    prefix = f"layers.{layer}.attn"

    def split_heads(proj):
        return proj.reshape(b, t, nh, hd).transpose(0, 2, 1, 3)

    q = split_heads(x @ p[f"{prefix}.wq"])
    k = split_heads(x @ p[f"{prefix}.wk"])
    v = split_heads(x @ p[f"{prefix}.wv"])

    if cache is not None:
        k_data, v_data = cache.append(layer, k.data, v.data)
        k = Tensor(k_data)
        v = Tensor(v_data)
    kv_len = k.shape[2]

    scores = (q @ k.swapaxes(-1, -2)) * (1.0 / np.sqrt(hd))
    # causal mask: query position (pos_offset + i) attends to kv <= it
    q_pos = pos_offset + np.arange(t)[:, None]
    kv_pos = np.arange(kv_len)[None, :]
    mask = kv_pos > q_pos  # True = masked out
    scores = scores + Tensor(np.where(mask, -1e9, 0.0))
    attn = ag.softmax(scores, axis=-1)
    out = attn @ v  # (b, nh, t, hd)
    out = out.transpose(0, 2, 1, 3).reshape(b, t, h)
    return out @ p[f"{prefix}.wo"]


def _mlp_reference(model, x, layer):
    p = model.params
    prefix = f"layers.{layer}.mlp"
    gate = (x @ p[f"{prefix}.w_gate"]).silu()
    up = x @ p[f"{prefix}.w_up"]
    return (gate * up) @ p[f"{prefix}.w_down"]


def tinylm_forward_reference(model, token_ids, cache=None, pos_offset=0):
    """``TinyLM.forward`` as the op-by-op tape composition it used to be.

    One generic ``Tensor`` op per arithmetic step (~170 tape nodes for four
    layers).  The fused primitives in ``repro.models.autograd`` must
    reproduce its forward values bit for bit and its gradients to rounding.
    With a ``cache`` it re-wraps the cached K/V as constants, so it is a
    forward oracle only there.
    """
    cfg, p = model.config, model.params
    token_ids = np.asarray(token_ids, dtype=np.int64)
    positions = np.arange(pos_offset, pos_offset + token_ids.shape[1])
    x = ag.embedding(p["embed.weight"], token_ids) + ag.embedding(
        p["pos_embed.weight"], positions
    )
    for layer in range(cfg.n_layers):
        normed = _rms_norm_reference(
            x, p[f"layers.{layer}.attn_norm.weight"], cfg.rms_eps
        )
        x = x + _attention_reference(model, normed, layer, cache, pos_offset)
        normed = _rms_norm_reference(
            x, p[f"layers.{layer}.mlp_norm.weight"], cfg.rms_eps
        )
        x = x + _mlp_reference(model, normed, layer)
    x = _rms_norm_reference(x, p["final_norm.weight"], cfg.rms_eps)
    if cfg.output_head == "lm":
        return x @ p["lm_head.weight"]
    values = x @ p["value_head.weight"]
    b, t, _one = values.shape
    return values.reshape(b, t)


def token_log_probs_reference(model, token_ids):
    """``TinyLM.token_log_probs`` through a full log-softmax and a gather."""
    token_ids = np.asarray(token_ids, dtype=np.int64)
    logits = tinylm_forward_reference(model, token_ids[:, :-1])
    return ag.gather_last(ag.log_softmax(logits, axis=-1), token_ids[:, 1:])
