"""Token sampling and auto-regressive generation for TinyLM.

Implements the generation stage of RLHF (§2.1 stage 1): KV-cached incremental
decoding with temperature sampling or greedy decoding (ReMax's variance
reduction uses ``do_sample=False`` for the baseline pass, Figure 6).
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.models.autograd import no_grad
from repro.models.tinylm import KVStore, TinyLM


def _softmax_probs(logits: np.ndarray, temperature: float) -> np.ndarray:
    """Temperature-scaled sampling distribution per row, ``(batch, vocab)``."""
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    scaled = logits / temperature
    scaled = scaled - scaled.max(axis=-1, keepdims=True)
    probs = np.exp(scaled)
    probs /= probs.sum(axis=-1, keepdims=True)
    return probs


def _inverse_cdf_sample(probs: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Batched inverse-CDF draw, bit-exact with per-row ``rng.choice``.

    ``Generator.choice(n, p=row)`` computes ``cdf = row.cumsum();
    cdf /= cdf[-1]`` and returns ``searchsorted(cdf, rng.random(),
    side="right")``.  Replaying exactly those operations across the whole
    batch — cumsum, normalise by the last column, count entries ``<= u``
    (identical to right-sided search on a non-decreasing array) — keeps
    every row's draw bit-identical to the historical per-row loop while
    sampling the batch in one vectorized pass.
    """
    cdf = probs.cumsum(axis=-1)
    cdf /= cdf[:, -1:]
    return (cdf <= uniforms[:, None]).sum(axis=-1).astype(np.int64)


def decode_step(
    logits: np.ndarray,
    uniforms: Optional[np.ndarray],
    temperature: float = 1.0,
) -> Tuple[np.ndarray, np.ndarray]:
    """One decode step: last-position ``logits`` ``(batch, vocab)`` to the
    next token per row and that token's log-prob, both ``(batch,)``.

    The one place the step's arithmetic lives — :func:`generate`, the
    serving engine and the ``sample_tokens*`` helpers differ only in where
    ``uniforms`` come from.  Row ``i`` is drawn by inverse CDF from
    ``uniforms[i]``; ``uniforms=None`` decodes greedily (argmax, nothing
    random to consume).  Log-probs are under the untempered distribution.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2:
        raise ValueError(f"logits must be (batch, vocab), got {logits.shape}")
    if uniforms is None:
        tokens = logits.argmax(axis=-1)
    else:
        tokens = _inverse_cdf_sample(
            _softmax_probs(logits, temperature), uniforms
        )
    shifted = logits - logits.max(axis=-1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return tokens, logp[np.arange(logits.shape[0]), tokens]


def sample_tokens(
    logits: np.ndarray,
    rng: np.random.Generator,
    temperature: float = 1.0,
    greedy: bool = False,
) -> np.ndarray:
    """Sample one token per row from ``logits`` of shape ``(batch, vocab)``.

    Consumes exactly one uniform draw per row from ``rng`` (none when
    ``greedy``) — the same stream consumption, and bit-identical output, as
    a per-row ``rng.choice`` loop (the oracle in ``tests/oracles.py``).
    """
    uniforms = None if greedy else rng.random(np.shape(logits)[0])
    return decode_step(logits, uniforms, temperature)[0]


def sample_tokens_batch(
    logits: np.ndarray,
    rngs: Sequence[np.random.Generator],
    temperature: float = 1.0,
    greedy: bool = False,
) -> np.ndarray:
    """Sample one token per row where each row has its *own* rng stream.

    Row ``i`` consumes exactly one scalar uniform from ``rngs[i]`` —
    identical stream consumption to sampling that row alone, which is what
    makes the serving engine's output independent of how it batches.
    """
    if len(rngs) != np.shape(logits)[0]:
        raise ValueError(
            f"need one rng per row: {len(rngs)} rngs for "
            f"{np.shape(logits)[0]} rows"
        )
    uniforms = None if greedy else np.array([rng.random() for rng in rngs])
    return decode_step(logits, uniforms, temperature)[0]


@dataclasses.dataclass
class GenerationOutput:
    """Result of one generation pass.

    Attributes:
        sequences: Prompt + response token ids, ``(batch, prompt+response)``.
        response_log_probs: Log-prob of each generated token under the
            sampling distribution, ``(batch, response)``.
        prompt_length: Number of prompt tokens (responses start there).
        kv_cache_bytes: Peak KV-cache footprint of the pass, for the memory
            accounting the HybridEngine's offload path uses.
        response_mask: ``(batch, response)`` with 1.0 on real response tokens
            (the EOS token itself included) and 0.0 on post-EOS padding.
            ``None`` when generation ran without an ``eos_token_id`` — every
            slot then emits exactly ``max_new_tokens`` real tokens.
    """

    sequences: np.ndarray
    response_log_probs: np.ndarray
    prompt_length: int
    kv_cache_bytes: int
    response_mask: Optional[np.ndarray] = None

    @property
    def responses(self) -> np.ndarray:
        return self.sequences[:, self.prompt_length :]

    @property
    def response_lengths(self) -> np.ndarray:
        """Real response tokens per sequence, ``(batch,)``."""
        if self.response_mask is None:
            width = self.sequences.shape[1] - self.prompt_length
            return np.full(self.sequences.shape[0], width, dtype=np.int64)
        return self.response_mask.sum(axis=1).astype(np.int64)


@dataclasses.dataclass
class MicroBatch:
    """One generation replica's share of a decode round: its ``(batch,
    seq)`` prompts and its own rng."""

    prompts: np.ndarray
    rng: np.random.Generator


def generate(
    model: TinyLM,
    prompts: Union[np.ndarray, Sequence[MicroBatch]],
    max_new_tokens: int,
    temperature: float = 1.0,
    greedy: bool = False,
    rng: Optional[np.random.Generator] = None,
    eos_token_id: Optional[int] = None,
    pad_token_id: Optional[int] = None,
) -> Union[GenerationOutput, List[GenerationOutput]]:
    """Auto-regressively extend ``prompts`` by up to ``max_new_tokens`` tokens.

    Uses a real KV cache: the prompt is prefilled once, then each step feeds
    only the newly sampled token — the prefill/decode split whose memory-bound
    decode phase motivates the paper's smaller generation TP sizes (§2.3).

    ``prompts`` is one ``(batch, seq)`` array, sampled from ``rng``, or a
    generation round's micro-batches — a list of :class:`MicroBatch` of one
    prompt length, each with its own rng (``rng`` must be ``None``) —
    decoded together through one :class:`KVStore`: one forward per step
    whatever the number of micro-batches (Figure 7 step ②).  A round
    returns one :class:`GenerationOutput` per micro-batch, each bit for bit
    what decoding that micro-batch alone returns — a cached forward's row
    does not depend on the rows beside it — with its own ``kv_cache_bytes``
    and its own rng consumption.

    With ``eos_token_id`` set, a sequence that emits EOS stops producing real
    tokens: subsequent positions are filled with ``pad_token_id`` (defaults
    to the EOS id), their log-probs are zeroed, and ``response_mask`` marks
    the real tokens.  Output stays fixed-width ``(batch, prompt +
    max_new_tokens)`` so DP micro-batches concatenate.  The rng is consumed
    lock-step for finished rows too, keeping each row's sample stream
    independent of the other rows' termination (and the no-EOS behaviour
    bit-identical to before).  Once every row of a micro-batch has
    terminated it exits: it draws nothing more and its rows leave the
    forward.  The lock-step analogue of continuous batching's slot refill,
    and the sequential baseline the serving engine is checked against.
    """
    if model.config.output_head != "lm":
        raise RuntimeError("generation requires an LM head")
    single = not (
        isinstance(prompts, (list, tuple))
        and all(isinstance(block, MicroBatch) for block in prompts)
    )
    if single:
        blocks = [MicroBatch(prompts, np.random.default_rng(0) if rng is None else rng)]
    elif rng is not None:
        raise ValueError("a round's micro-batches carry their own rngs")
    else:
        blocks = list(prompts)
    if not blocks:
        raise ValueError("a round needs at least one micro-batch")
    arrays = [np.asarray(block.prompts, dtype=np.int64) for block in blocks]
    for array in arrays:
        if array.ndim != 2:
            raise ValueError(f"prompts must be (batch, seq), got {array.shape}")
    if len({array.shape[1] for array in arrays}) > 1:
        raise ValueError(
            "a round's micro-batches share one prompt length, got "
            f"{[array.shape[1] for array in arrays]}"
        )
    if max_new_tokens < 1:
        raise ValueError(f"max_new_tokens must be >= 1, got {max_new_tokens}")
    if eos_token_id is not None and not (
        0 <= eos_token_id < model.config.vocab_size
    ):
        raise ValueError(
            f"eos_token_id {eos_token_id} outside vocab "
            f"[0, {model.config.vocab_size})"
        )
    prompts = np.concatenate(arrays)
    batch, prompt_len = prompts.shape
    n_layers, hidden = model.config.n_layers, model.config.hidden_size
    # micro-batch ``b`` holds rows ``bounds[b]:bounds[b + 1]``; row ``i`` is ``owner[i]``'s
    sizes = [len(array) for array in arrays]
    bounds = np.cumsum([0] + sizes)
    owner = np.repeat(np.arange(len(blocks)), sizes)
    # the last sampled token is never fed back, so never cached
    cache = KVStore(model.config, batch, prompt_len + max_new_tokens - 1)
    pad = eos_token_id if pad_token_id is None else pad_token_id
    sequences = np.full(
        (batch, prompt_len + max_new_tokens),
        0 if pad is None else pad,
        dtype=np.int64,
    )
    sequences[:, :prompt_len] = prompts
    log_probs = np.zeros((batch, max_new_tokens), dtype=np.float64)
    mask = np.zeros((batch, max_new_tokens), dtype=np.float64)
    alive = np.ones(batch, dtype=bool)
    # micro-batches still decoding, and the step of each one's last forward
    live = list(range(len(blocks)))
    last_step = [max_new_tokens - 1] * len(blocks)
    rows = np.arange(batch)

    with no_grad():
        feed, pos_offset, store = prompts, 0, cache
        for step in range(max_new_tokens):
            logits = model.forward(feed, cache=store, pos_offset=pos_offset)
            next_tokens, step_logp = decode_step(
                logits.data[:, -1, :],
                None
                if greedy
                else np.concatenate(
                    [blocks[b].rng.random(sizes[b]) for b in live]
                ),
                temperature,
            )
            if eos_token_id is not None:
                running = alive[rows]
                next_tokens = np.where(running, next_tokens, pad)
                step_logp = np.where(running, step_logp, 0.0)
                mask[rows, step] = running
                alive[rows] = running & (next_tokens != eos_token_id)
            log_probs[rows, step] = step_logp
            sequences[rows, prompt_len + step] = next_tokens
            done = [b for b in live if not alive[bounds[b] : bounds[b + 1]].any()]
            if done:  # every row of these terminated: the rest stays padding
                for b in done:
                    last_step[b] = step
                live = [b for b in live if b not in done]
                if not live:
                    break
                kept = np.isin(owner[rows], live)
                rows, next_tokens = rows[kept], next_tokens[kept]
                store = cache.rows(rows)
            feed, pos_offset = next_tokens[:, None], prompt_len + step

    outputs = [
        GenerationOutput(
            sequences=sequences[lo:hi],
            response_log_probs=log_probs[lo:hi],
            prompt_length=prompt_len,
            # float64 K and V per layer of what its last forward cached
            kv_cache_bytes=2 * n_layers * (hi - lo) * hidden
            * (prompt_len + last) * 8,
            response_mask=mask[lo:hi] if eos_token_id is not None else None,
        )
        for lo, hi, last in zip(bounds[:-1], bounds[1:], last_step)
    ]
    return outputs[0] if single else outputs
