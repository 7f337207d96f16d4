"""Slow reference implementations the fast paths under ``src/`` are tested against.

Tests-only: nothing under ``src/`` imports this module.  Each function is
the historical, obviously-correct spelling of something production code now
does in one vectorized pass.
"""

from __future__ import annotations

import numpy as np

from repro.models.autograd import no_grad
from repro.models.tinylm import KVCache


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
    one ``np.concatenate`` per emitted column, no early exit.

    Returns ``(sequences, response_log_probs, response_mask)``; the mask is
    ``None`` without an ``eos_token_id``.
    """
    prompts = np.asarray(prompts, dtype=np.int64)
    batch, prompt_len = prompts.shape
    cache = KVCache(model.config.n_layers)
    sequences = prompts.copy()
    log_probs = np.zeros((batch, max_new_tokens))
    mask = np.zeros((batch, max_new_tokens))
    alive = np.ones(batch, dtype=bool)
    pad = eos_token_id if pad_token_id is None else pad_token_id
    with no_grad():
        logits = model.forward(prompts, cache=cache, pos_offset=0)
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
                logits = model.forward(
                    tokens[:, None], cache=cache, pos_offset=prompt_len + step
                )
    return sequences, log_probs, mask if eos_token_id is not None else None
