"""Slow reference implementations the fast paths under ``src/`` are tested against.

Tests-only: nothing under ``src/`` imports this module.  Each function is
the historical, obviously-correct spelling of something production code now
does in one vectorized pass.

The op-by-op tape lives here too: :class:`OpTensor` is ``Tensor`` plus the
generic operators (one tape node each) and the free functions below it are
the generic array ops.  ``TinyLM``'s former body and the former tape-built
RLHF losses are written with them; the fused primitives in
``repro.models.autograd`` and ``repro.rlhf.losses`` are graded against
those compositions.  :func:`estimate_iteration_reference` is the stage-sum
iteration model the cost model's timeline replay is graded against, and
:func:`orca_trace_reference` the Orca schedule the rollout server's drain is.
:func:`ledger_streams` records the per-operation stream the device ledger
no longer keeps, and :func:`double_frees_reference` is the post-run
double-free rule that once read it.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from repro.config import (
    BYTES_BF16,
    ClusterSpec,
    GenParallelConfig,
    ParallelConfig,
    RlhfWorkload,
)
from repro.models import autograd as ag
from repro.models.autograd import Tensor, no_grad
from repro.perf.compute import inference_latency, training_latency
from repro.perf.generation import generation_latency
from repro.perf.iteration import (
    FIGURE1_DATAFLOW,
    FRAMEWORK_OVERHEAD_BASE,
    FRAMEWORK_OVERHEAD_PER_UPDATE,
    SAFE_RLHF_ACTOR_TRAIN_FACTOR,
    GenerationPlan,
    IterationBreakdown,
    ModelExecution,
)
from repro.perf.transition import transition_time, weight_sync_time
from repro.rlhf.core import AlgoType
from repro.rlhf.graph import GENERATION, PREPARATION, TRAINING, dataflow_of


# -- the op-by-op tape ------------------------------------------------------------


class OpTensor(Tensor):
    """``Tensor`` with the generic operators: every op one tape node.

    Results of an op on an ``OpTensor`` are ``OpTensor``s (``Tensor``'s own
    operators build through ``self._from_op``); :func:`lift` brings a plain
    ``Tensor`` onto this tape through an identity node.
    """

    __slots__ = ()

    @staticmethod
    def _wrap(x):
        return x if isinstance(x, Tensor) else OpTensor(x)

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __sub__(self, other: object) -> "OpTensor":
        return self + (-self._wrap(other))

    def __rsub__(self, other: object) -> "OpTensor":
        return self._wrap(other) + (-self)

    def __truediv__(self, other: object) -> "OpTensor":
        other = self._wrap(other)
        out_data = self.data / other.data

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g / other.data, owned=True)
            if other.requires_grad:
                other._accumulate(-g * self.data / (other.data**2), owned=True)

        return self._from_op(out_data, (self, other), backward)

    def __rtruediv__(self, other: object) -> "OpTensor":
        return self._wrap(other) / self

    def __pow__(self, exponent: float) -> "OpTensor":
        out_data = self.data**exponent

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * exponent * self.data ** (exponent - 1), owned=True)

        return self._from_op(out_data, (self,), backward)

    def __matmul__(self, other: object) -> "OpTensor":
        other = self._wrap(other)
        out_data = self.data @ other.data

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g @ np.swapaxes(other.data, -1, -2), owned=True)
            if other.requires_grad:
                grad_w = np.swapaxes(self.data, -1, -2) @ g
                other._accumulate(grad_w, owned=True)

        return self._from_op(out_data, (self, other), backward)

    # -- elementwise nonlinearities --------------------------------------------

    def exp(self) -> "OpTensor":
        out_data = np.exp(self.data)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * out_data, owned=True)

        return self._from_op(out_data, (self,), backward)

    def log(self) -> "OpTensor":
        out_data = np.log(self.data)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g / self.data, owned=True)

        return self._from_op(out_data, (self,), backward)

    def tanh(self) -> "OpTensor":
        out_data = np.tanh(self.data)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * (1.0 - out_data**2), owned=True)

        return self._from_op(out_data, (self,), backward)

    def sigmoid(self) -> "OpTensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * out_data * (1.0 - out_data), owned=True)

        return self._from_op(out_data, (self,), backward)

    def silu(self) -> "OpTensor":
        """SiLU / swish, the Llama MLP activation: ``x * sigmoid(x)``."""
        sig = 1.0 / (1.0 + np.exp(-self.data))
        out_data = self.data * sig

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * (sig + self.data * sig * (1.0 - sig)), owned=True)

        return self._from_op(out_data, (self,), backward)

    def relu(self) -> "OpTensor":
        mask = self.data > 0
        out_data = self.data * mask

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * mask, owned=True)

        return self._from_op(out_data, (self,), backward)

    def sqrt(self) -> "OpTensor":
        return self**0.5

    def abs(self) -> "OpTensor":
        sign = np.sign(self.data)
        out_data = np.abs(self.data)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * sign, owned=True)

        return self._from_op(out_data, (self,), backward)

    def clip(self, lo: float, hi: float) -> "OpTensor":
        mask = (self.data >= lo) & (self.data <= hi)
        out_data = np.clip(self.data, lo, hi)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * mask, owned=True)

        return self._from_op(out_data, (self,), backward)

    def maximum(self, other: object) -> "OpTensor":
        other = self._wrap(other)
        take_self = self.data >= other.data
        out_data = np.maximum(self.data, other.data)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * take_self, owned=True)
            if other.requires_grad:
                other._accumulate(g * ~take_self, owned=True)

        return self._from_op(out_data, (self, other), backward)

    def transpose(self, *axes: int) -> "OpTensor":
        axes_t = tuple(axes) if axes else tuple(reversed(range(self.ndim)))
        out_data = self.data.transpose(axes_t)
        inverse = tuple(np.argsort(axes_t))

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(
                    np.asarray(g, dtype=np.float64).transpose(inverse)
                )

        return self._from_op(out_data, (self,), backward)

    def swapaxes(self, a: int, b: int) -> "OpTensor":
        out_data = np.swapaxes(self.data, a, b)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(
                    np.swapaxes(np.asarray(g, dtype=np.float64), a, b)
                )

        return self._from_op(out_data, (self,), backward)


def lift(t: Tensor) -> OpTensor:
    """``t`` as an :class:`OpTensor`; gradients pass through to ``t``."""
    return OpTensor._from_op(t.data, (t,), t._accumulate)


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> OpTensor:
    """Differentiable concatenation."""
    tensors = [OpTensor._wrap(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g: np.ndarray) -> None:
        g = np.asarray(g, dtype=np.float64)
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                index = [slice(None)] * g.ndim
                index[axis] = slice(lo, hi)
                t._accumulate(g[tuple(index)])

    return OpTensor._from_op(out_data, tuple(tensors), backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> OpTensor:
    """Differentiable stack along a new axis."""
    tensors = [OpTensor._wrap(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(g: np.ndarray) -> None:
        g = np.asarray(g, dtype=np.float64)
        for i, t in enumerate(tensors):
            if t.requires_grad:
                t._accumulate(np.take(g, i, axis=axis))

    return OpTensor._from_op(out_data, tuple(tensors), backward)


def embedding(table: Tensor, token_ids: np.ndarray) -> OpTensor:
    """Look up rows of ``table`` for integer ``token_ids``."""
    token_ids = np.asarray(token_ids, dtype=np.int64)
    out_data = table.data[token_ids]

    def backward(g: np.ndarray) -> None:
        if table.requires_grad:
            full = np.zeros_like(table.data)
            np.add.at(full, token_ids, g)
            table._accumulate(full, owned=True)

    return OpTensor._from_op(out_data, (table,), backward)


def softmax(x: Tensor, axis: int = -1) -> OpTensor:
    """Numerically-stable softmax with exact gradient."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    out_data = exp / exp.sum(axis=axis, keepdims=True)

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            g = np.asarray(g, dtype=np.float64)
            dot = (g * out_data).sum(axis=axis, keepdims=True)
            x._accumulate(out_data * (g - dot), owned=True)

    return OpTensor._from_op(out_data, (x,), backward)


def log_softmax(x: Tensor, axis: int = -1) -> OpTensor:
    """Numerically-stable log-softmax with exact gradient."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    logsum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - logsum
    probs = np.exp(out_data)

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            g = np.asarray(g, dtype=np.float64)
            x._accumulate(g - probs * g.sum(axis=axis, keepdims=True), owned=True)

    return OpTensor._from_op(out_data, (x,), backward)


def gather_last(x: Tensor, index: np.ndarray) -> OpTensor:
    """Gather along the last axis: ``out[..., ] = x[..., index[...]]``.

    ``index`` must have the shape of ``x`` minus the last axis; used to pick
    per-token log-probabilities from the vocabulary axis.
    """
    index = np.asarray(index, dtype=np.int64)
    expanded = np.expand_dims(index, -1)
    out_data = np.take_along_axis(x.data, expanded, axis=-1).squeeze(-1)

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            full = np.zeros_like(x.data)
            np.put_along_axis(full, expanded, np.expand_dims(g, -1), axis=-1)
            x._accumulate(full, owned=True)

    return OpTensor._from_op(out_data, (x,), backward)


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> OpTensor:
    """Differentiable select: gradient flows to the chosen branch."""
    condition = np.asarray(condition, dtype=bool)
    a = OpTensor._wrap(a)
    b = OpTensor._wrap(b)
    out_data = np.where(condition, a.data, b.data)

    def backward(g: np.ndarray) -> None:
        g = np.asarray(g, dtype=np.float64)
        if a.requires_grad:
            a._accumulate(np.where(condition, g, 0.0), owned=True)
        if b.requires_grad:
            b._accumulate(np.where(condition, 0.0, g), owned=True)

    return OpTensor._from_op(out_data, (a, b), backward)


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


def embed_reference(tok_table, pos_table, token_ids, positions):
    return embedding(tok_table, token_ids) + embedding(pos_table, positions)


def rms_norm_reference(x, weight, eps):
    variance = (x * x).mean(axis=-1, keepdims=True)
    return x * ((variance + eps) ** -0.5) * weight


def attention_reference(x, wq, wk, wv, wo, n_heads, grid, cache=None, layer=0, pos_offset=0):
    """``ag.attention`` of a TinyLM forward of whole rows, without
    ``residual``, op by op.  ``x`` is the 2-D stream of a ``grid`` ``(b, t)``
    of tokens, padded to whole 4-row tiles by repeating its first tokens.
    Each row's queries run as one block: of ``t`` rows with a ``cache`` (a
    :class:`ConcatKVCache`, its K/V re-wrapped as constants), else of ``t``
    rounded up to whole tiles, zero rows after; keys and values are
    zero-padded to the canonical key width, a multiple of 8, at least 16.
    Queries sit at ``pos_offset + i`` with a cache, else at ``i``."""
    b, t = grid
    h = x.shape[-1]
    hd = h // n_heads

    def padded(rows, depth):
        """``(b, n, h)`` rows, zero rows appended up to ``depth``."""
        if depth == rows.shape[1]:
            return rows
        return concatenate([rows, OpTensor(np.zeros((b, depth - rows.shape[1], h)))], 1)

    def split_heads(rows):
        return rows.reshape(b, -1, n_heads, hd).transpose(0, 2, 1, 3)

    def block(proj):
        return proj[: b * t].reshape(b, t, h)

    height = t if cache is not None else -(-t // 4) * 4
    q = split_heads(padded(block(x @ wq), height))
    kv = [block(x @ wk), block(x @ wv)]
    if cache is not None:
        # heads side by side, as the projection lays them: a compact
        # (b, head, position, head_dim) layout rounds att @ v differently
        kv = [
            OpTensor(a.transpose(0, 2, 1, 3).reshape(b, -1, h))
            for a in cache.append(layer, *(split_heads(a).data for a in kv))
        ]
    width = max(16, -(-kv[0].shape[1] // 8) * 8)
    k, v = (split_heads(padded(a, width)) for a in kv)

    scores = (q @ k.swapaxes(-1, -2)) * (1.0 / np.sqrt(hd))
    # causal mask: query position (offset + i) attends to kv <= it
    q_pos = (pos_offset if cache is not None else 0) + np.arange(height)[:, None]
    mask = np.arange(width)[None, :] > q_pos  # True = masked out
    scores = scores + Tensor(np.where(mask, -1e9, 0.0))
    attn = softmax(scores, axis=-1)
    out = (attn @ v).transpose(0, 2, 1, 3).reshape(b, height, h)[:, :t]
    # the padded stream again
    out = out.reshape(b * t, h)[np.arange(x.shape[0]) % (b * t)]
    return out @ wo


def square_mask(stream):
    """``(rows or 1, 1, height, width)``: -1e9 at the keys past each query
    slot of ``stream``'s whole query block, every row at every key."""
    queries = stream.first[:, None] + np.arange(stream.height)
    return np.where(np.arange(stream.width) > queries[:, None, :, None], -1e9, 0.0)


def attention_square_reference(
    x, wq, wk, wv, wo, n_heads, stream, residual=None, cache=None, layer=0
):
    """``ag.attention`` as one square: every core row's whole query block
    scores every key at the stream's ``width`` under :func:`square_mask`,
    one softmax and context over it — the core before the causal staircase,
    line for line.  The staircase must match it bit for bit: output, every
    weight gradient and the input's (``tests/test_attention_staircase.py``)."""
    parents = (x, wq, wk, wv, wo) + (() if residual is None else (residual,))
    tracked = ag._tracked(*parents)
    if tracked and cache is not None:
        raise RuntimeError(
            "a KV cache is inference-only: cached keys/values carry no "
            "gradient to wk/wv; run the forward under no_grad()"
        )
    xd = x.data
    h = xd.shape[-1]
    hd = h // n_heads
    scale = 1.0 / np.sqrt(hd)
    rows, height, width = stream.rows, stream.height, stream.width
    reads = slice(None) if stream.reads is None else stream.reads
    slots, n = stream.slots, len(stream.slots)  # n: the real query tokens
    full = stream.run == height  # every slot a query, in stream order: views

    def heads(block):
        return block.reshape(len(block), -1, n_heads, hd).transpose(0, 2, 1, 3)

    def projected(src, w):
        return np.matmul(src, w.data, out=np.empty(src.shape))

    def blocked(flat, tiling=False):
        """The query block of the stream ``flat``; ``tiling``: a tiling
        token's row sums into its first token's slot."""
        if full and (len(flat) == n or not tiling):
            return flat[:n].reshape(rows, height, h)
        block = np.empty((rows, height, h))
        block[:, stream.run or 0 :] = 0.0
        ag._put(block, slots, stream.run, flat[:n])
        if tiling:
            np.add.at(block.reshape(-1, h), stream.gather[n:], flat[n:])
        return block

    xr = xd[reads]
    q = heads(blocked(projected(xr, wq)))
    if cache is not None:
        kv = cache.extend(layer, *(projected(xd, w) for w in (wk, wv)))
    else:
        keys = stream.keys
        kv = np.empty((2, rows, width, h))
        kv[:, :, keys.run or 0 :] = 0.0
        for block, w in zip(kv, (wk, wv)):
            proj = projected(xd, w)
            ag._put(block, keys.at, keys.run, proj[: len(keys.src)] if keys.run else proj[keys.src])
    k, v = heads(kv[0]), heads(kv[1])
    att = np.matmul(q, k.swapaxes(-1, -2), out=np.empty((rows, n_heads, height, width)))
    att *= scale
    att += square_mask(stream)
    att -= att.max(axis=-1, keepdims=True)
    np.exp(att, out=att)
    att /= att.sum(axis=-1, keepdims=True)
    # each head's context in its columns of the block: BLAS writes a GEMM
    # at any output row stride alike
    ctx_block = np.empty((rows, height, h))
    np.matmul(att, v, out=heads(ctx_block))
    # a tiling token repeats its first: its context is that token's
    ctx = ctx_block.reshape(-1, h)
    if not full or len(xr) > n:
        ctx = np.empty(xr.shape)
        ctx[:n] = ag._take(ctx_block, slots, stream.run)
        ctx[n:] = ctx_block.reshape(-1, h)[stream.gather[n:]]
    out = ctx @ wo.data
    if residual is not None:
        out += residual.data[reads]
    if not tracked:
        return Tensor._from_op(out, (), None)

    def backward(g):
        if wo.requires_grad:
            wo._accumulate(ctx.T @ g, owned=True)
        dctx = heads(blocked(g @ wo.data.T, tiling=True))
        # each head's gradient in its columns of a ``(rows, depth, hidden)`` block
        dq, dk, dv = (np.empty((rows, depth, h)) for depth in (height, width, width))
        np.matmul(att.swapaxes(-1, -2), dctx, out=heads(dv))
        datt = np.matmul(dctx, v.swapaxes(-1, -2), out=np.empty(att.shape))
        # softmax VJP (masked entries have att == 0), then the score scaling
        datt -= np.einsum("...k,...k->...", datt, att)[..., None]
        datt *= att
        datt *= scale
        np.matmul(datt, k, out=heads(dq))
        np.matmul(datt.swapaxes(-1, -2), q, out=heads(dk))
        at_queries = slice(0, n) if stream.reads is None else stream.reads[:n]
        terms = [(wq, xr[:n], ag._take(dq, slots, stream.run), at_queries)]
        for w, d in ((wk, dk), (wv, dv)):
            # a key position's gradient sums into the stream token it read
            tokens, d = stream.keys.folded(d)
            terms.append((w, xd[tokens], d, tokens))
        dx = np.zeros(xd.shape, dtype=np.float64)
        for w, src, d, at in terms:
            if w.requires_grad:
                w._accumulate(src.T @ d, owned=True)
            if x.requires_grad:
                dx[at] += d @ w.data.T
        if x.requires_grad:
            x._accumulate(dx, owned=True)
        if residual is not None and residual.requires_grad:
            if stream.reads is not None:
                g, returned = np.zeros(xd.shape, dtype=np.float64), g
                g[at_queries] = returned[:n]
                if len(returned) > n:  # the tiling tokens
                    np.add.at(g, stream.reads[n:], returned[n:])
            residual._accumulate(g, owned=True)

    return Tensor._from_op(out, parents, backward)


def mlp_reference(x, w_gate, w_up, w_down):
    gate = (x @ w_gate).silu()
    up = x @ w_up
    return (gate * up) @ w_down


def tinylm_forward_reference(model, token_ids, cache=None, pos_offset=0):
    """``TinyLM.forward`` of whole rows as the op-by-op tape composition it
    used to be.

    One generic tape op per arithmetic step (~170 tape nodes for four
    layers).  The fused primitives in ``repro.models.autograd`` must
    reproduce its forward values bit for bit and its gradients to rounding.
    The tokens run as one 2-D stream, padded to whole 4-row tiles by
    repeating its first tokens (a one-row product is a GEMV, a part-filled
    tile another BLAS path), and each row's attention as blocks of whole
    tiles (:func:`attention_reference`).  With a ``cache`` it re-wraps the
    cached K/V as constants, so it is a forward oracle only there.
    """
    cfg, p = model.config, model.params
    token_ids = np.asarray(token_ids, dtype=np.int64)
    b, t = token_ids.shape
    positions = np.broadcast_to(np.asarray(pos_offset)[..., None] + np.arange(t), (b, t))
    x = embed_reference(p["embed.weight"], p["pos_embed.weight"], token_ids, positions)
    h = x.shape[-1]
    x = x.reshape(b * t, h)[np.arange(-(-b * t // 4) * 4) % (b * t)]
    for layer in range(cfg.n_layers):
        pre = f"layers.{layer}"
        normed = rms_norm_reference(x, p[f"{pre}.attn_norm.weight"], cfg.rms_eps)
        weights = [p[f"{pre}.attn.{w}"] for w in ("wq", "wk", "wv", "wo")]
        x = x + attention_reference(
            normed, *weights, cfg.n_heads, (b, t), cache, layer, pos_offset
        )
        normed = rms_norm_reference(x, p[f"{pre}.mlp_norm.weight"], cfg.rms_eps)
        weights = [p[f"{pre}.mlp.{w}"] for w in ("w_gate", "w_up", "w_down")]
        x = x + mlp_reference(normed, *weights)
    x = rms_norm_reference(x, p["final_norm.weight"], cfg.rms_eps)
    if cfg.output_head == "lm":
        return (x @ p["lm_head.weight"])[: b * t].reshape(b, t, -1)
    return (x @ p["value_head.weight"])[: b * t].reshape(b, t)


def token_log_probs_reference(model, token_ids):
    """``TinyLM.token_log_probs`` through a full log-softmax and a gather."""
    token_ids = np.asarray(token_ids, dtype=np.int64)
    logits = tinylm_forward_reference(model, token_ids[:, :-1])
    return gather_last(log_softmax(logits, axis=-1), token_ids[:, 1:])


# -- the tape-built RLHF losses ----------------------------------------------------
#
# Differentiable inputs are ``OpTensor``s (:func:`lift` a ``Tensor``).


def masked_mean_reference(t, mask):
    """Mean of ``t`` over real tokens, op by op (all tokens without a mask)."""
    if mask is None:
        return t.mean()
    n = max(float(np.sum(mask)), 1.0)
    return (t * OpTensor(mask)).sum() * (1.0 / n)


def ppo_policy_loss_reference(
    log_probs, old_log_probs, advantages, clip_ratio=0.2, response_mask=None,
    importance_weights=None,
):
    """``rlhf.losses.ppo_policy_loss``'s loss as the tape composition it was."""
    if importance_weights is not None:
        advantages = advantages * importance_weights
    ratio = (log_probs - OpTensor(old_log_probs)).exp()
    surr1 = ratio * OpTensor(advantages)
    surr2 = ratio.clip(1.0 - clip_ratio, 1.0 + clip_ratio) * OpTensor(advantages)
    # elementwise min(surr1, surr2) via -max(-a, -b); loss is its negated mean
    per_token = -((-surr1).maximum(-surr2))
    return -(masked_mean_reference(per_token, response_mask))


def value_loss_reference(
    values, old_values, returns, clip_range=0.2, response_mask=None
):
    """``rlhf.losses.value_loss``'s loss as the tape composition it was."""
    clipped = old_values + (values - OpTensor(old_values)).clip(
        -clip_range, clip_range
    )
    err = (values - OpTensor(returns)) ** 2
    err_clipped = (clipped - OpTensor(returns)) ** 2
    return 0.5 * masked_mean_reference(err.maximum(err_clipped), response_mask)


def kl_penalty_reference(log_probs, ref_log_probs, kind="k1", response_mask=None):
    """``rlhf.losses.kl_penalty`` as the tape composition it was."""
    diff = log_probs - OpTensor(ref_log_probs)
    if kind == "k1":
        return masked_mean_reference(diff, response_mask)
    return masked_mean_reference((-diff).exp() - 1.0 + diff, response_mask)


def grpo_policy_loss_reference(
    log_probs, old_log_probs, advantages, ref_log_probs, clip_ratio=0.2,
    kl_coef=0.04, response_mask=None, importance_weights=None,
):
    loss = ppo_policy_loss_reference(
        log_probs, old_log_probs, advantages, clip_ratio, response_mask,
        importance_weights,
    )
    kl = kl_penalty_reference(log_probs, ref_log_probs, "k3", response_mask)
    return loss + kl_coef * kl


def safe_rlhf_policy_loss_reference(
    log_probs, old_log_probs, reward_advantages, cost_advantages,
    lagrange_multiplier, clip_ratio=0.2, response_mask=None,
):
    combined = (reward_advantages - lagrange_multiplier * cost_advantages) / (
        1.0 + lagrange_multiplier
    )
    return ppo_policy_loss_reference(
        log_probs, old_log_probs, combined, clip_ratio, response_mask
    )


def preference_loss_reference(chosen, rejected):
    """The reward model's pairwise loss as the tape composition it was."""
    margin = chosen - rejected
    # -log sigmoid(margin), numerically stable via softplus(-margin)
    return ((-margin).exp() + 1.0).log().mean()


# -- the per-tensor optimizer -----------------------------------------------------


class AdamReference:
    """``repro.models.adam.Adam`` as it was: a loop of fresh-temporary ufuncs
    per tensor over a dict of independent parameter arrays, rebinding each
    ``p.data``.  The flat in-place optimizer must leave parameters, moments
    and step count bit-identical to it."""

    def __init__(self, params, lr=1e-3, betas=(0.9, 0.999), eps=1e-8,
                 weight_decay=0.0, max_grad_norm=None):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.max_grad_norm = max_grad_norm
        self.step_count = 0
        self._m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self._v = {name: np.zeros_like(p.data) for name, p in params.items()}

    def grad_global_norm(self):
        total = 0.0
        for p in self.params.values():
            if p.grad is not None:
                total += float((p.grad**2).sum())
        return float(np.sqrt(total))

    def clip_gradients(self):
        norm = self.grad_global_norm()
        if self.max_grad_norm is not None and norm > self.max_grad_norm > 0:
            scale = self.max_grad_norm / (norm + 1e-12)
            for p in self.params.values():
                if p.grad is not None:
                    p.grad = p.grad * scale
        return norm

    def step(self):
        self.clip_gradients()
        self.step_count += 1
        t = self.step_count
        bias1 = 1.0 - self.beta1**t
        bias2 = 1.0 - self.beta2**t
        for name, p in self.params.items():
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            m = self._m[name]
            v = self._v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad**2
            m_hat = m / bias1
            v_hat = v / bias2
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


# -- the stage-sum iteration model ------------------------------------------------
#
# ``repro.perf.iteration.estimate_iteration`` replays the dataflow graph on the
# timeline scheduler.  Before, it summed stages: within a stage, calls on one
# pool add up and pools run in parallel; the stages then add up.  For a graph
# whose every training call waits on every preparation call, which waits on
# generation, the two agree up to summation order.


def _stage_latency(
    per_model: Dict[str, Tuple[str, float]],
) -> float:
    """Sum latencies within each pool, take the max across pools."""
    by_pool: Dict[str, float] = {}
    for _model, (pool, latency) in per_model.items():
        by_pool[pool] = by_pool.get(pool, 0.0) + latency
    return max(by_pool.values()) if by_pool else 0.0


def estimate_iteration_reference(
    algo: AlgoType,
    executions: Dict[str, ModelExecution],
    gen_plan: GenerationPlan,
    workload: RlhfWorkload,
    cluster: ClusterSpec,
) -> IterationBreakdown:
    """``estimate_iteration`` as it was: a sum over Figure 1's stages.

    ``algo`` is an ``AlgoType`` member or a trainer class; ``executions``
    maps the model roles its dataflow calls (Figure 1) to their placement
    and parallelism; ``gen_plan`` describes the actor's generation
    configuration and resharding mechanism.
    """
    graph = dataflow_of(algo, FIGURE1_DATAFLOW)
    prep_calls, train_calls = graph.calls(PREPARATION), graph.calls(TRAINING)
    missing = [r for r in graph.roles if r not in executions]
    if missing:
        raise ValueError(f"{graph.name} needs executions for {missing}")
    actor = executions["actor"]

    # -- transition --------------------------------------------------------------
    transition = 0.0
    actor_cluster = actor.cluster or cluster
    gen_cluster = gen_plan.cluster or actor_cluster
    if gen_plan.weight_sync:
        gen_gpus = gen_plan.n_replicas * gen_plan.tp * gen_plan.pp
        transition = weight_sync_time(actor.spec, gen_cluster, gen_gpus)
    elif gen_plan.engine is not None:
        if actor.zero3:
            # ZeRO-3 shards parameters over all ranks: the transition gathers
            # across the whole DP world (the DS-Chat row of Table 2)
            train_cfg = ParallelConfig(pp=1, tp=1, dp=actor.parallel.world_size)
            gen_cfg = GenParallelConfig(pp=1, tp=1, micro_dp=1)
        else:
            train_cfg = actor.parallel
            gen_cfg = GenParallelConfig.derive(
                train_cfg, gen_plan.pp, gen_plan.tp
            )
        transition = transition_time(
            gen_plan.engine, actor.spec, actor_cluster, train_cfg, gen_cfg
        )

    # -- stage 1: generation --------------------------------------------------------
    gen_estimate = generation_latency(
        actor.spec,
        gen_cluster,
        gen_tp=gen_plan.tp,
        gen_pp=gen_plan.pp,
        n_replicas=gen_plan.n_replicas,
        workload=workload,
        use_kv_cache=gen_plan.use_kv_cache,
        reserved_bytes=gen_plan.reserved_bytes,
        n_generation_passes=sum(graph.calls(GENERATION).values()),
        step_overhead=gen_plan.step_overhead,
    )
    generation = gen_estimate.total

    # -- stage 2: preparation ---------------------------------------------------------
    prep: Dict[str, Tuple[str, float]] = {}
    for role, n_calls in prep_calls.items():
        execution = executions[role]
        latency = inference_latency(
            execution.spec,
            execution.cluster or cluster,
            execution.parallel,
            workload,
            zero3=execution.zero3,
        )
        prep[role] = (execution.pool, latency * n_calls)
    preparation = _stage_latency(prep)

    # -- stage 3: training ----------------------------------------------------------------
    train: Dict[str, Tuple[str, float]] = {}
    for role, n_calls in train_calls.items():
        execution = executions[role]
        n_passes = float(workload.ppo_epochs) * n_calls
        if role == "actor" and graph.name == AlgoType.SAFE_RLHF.value:
            n_passes *= SAFE_RLHF_ACTOR_TRAIN_FACTOR
        latency = training_latency(
            execution.spec,
            execution.cluster or cluster,
            execution.parallel,
            workload,
            zero3=execution.zero3,
            n_passes_over_batch=n_passes,
        )
        train[role] = (execution.pool, latency)
    training = _stage_latency(train)

    # -- inter-model data movement ------------------------------------------------------
    # sequences + per-token floats flow between models; tiny next to weights
    batch_tokens = workload.tokens_per_iteration
    edge_bytes = batch_tokens * (8 + 4 * BYTES_BF16)
    n_edges = len(prep_calls) + len(train_calls)
    data_transfer = n_edges * edge_bytes / cluster.inter_node_bandwidth
    data_transfer += (
        FRAMEWORK_OVERHEAD_BASE
        + FRAMEWORK_OVERHEAD_PER_UPDATE
        * workload.ppo_epochs
        * workload.ppo_updates_per_epoch
    )

    return IterationBreakdown(
        transition=transition,
        generation=generation,
        preparation=preparation,
        training=training,
        data_transfer=data_transfer,
    )


# -- the Orca schedule ---------------------------------------------------------------


def orca_trace_reference(lengths: Sequence[int], capacity: int) -> List[Tuple[int, float]]:
    """Per-step ``(n_active, mean_progress)`` of Orca's iteration-level
    schedule of response ``lengths`` on ``capacity`` slots, all queued at
    once: before each step free slots take queued requests in order, every
    occupied slot emits one token, and a request leaves the step it emits
    its last.  The analytic twin the rollout server was once checked against
    (``tests/golden/orca_schedules.json`` holds its priced schedules)."""
    remaining: List[int] = [int(x) for x in lengths]
    active: List[int] = []
    progress: List[int] = []
    trace: List[Tuple[int, float]] = []
    while remaining or active:
        while remaining and len(active) < capacity:
            active.append(remaining.pop(0))
            progress.append(0)
        trace.append((len(active), sum(progress) / len(progress)))
        progress = [p + 1 for p in progress]
        keep = [i for i, (length, p) in enumerate(zip(active, progress)) if p < length]
        active = [active[i] for i in keep]
        progress = [progress[i] for i in keep]
    return trace


# -- the device ledger's operation stream --------------------------------------------


LedgerOp = Tuple[str, str, int, int]


def ledger_streams(monkeypatch) -> Dict[object, List[LedgerOp]]:
    """Every ``DeviceMemory`` operation from now on, keyed by the ledger, as
    the ledger once kept them itself: ``(op, tag, nbytes, balance)``, where
    ``nbytes`` is what the operation asked for (``alloc``/``resize``) or
    released (``free``/``clear``) and ``balance`` what the tag holds after.
    A ``clear`` is one event per held tag, in tag order; an operation that
    raises leaves none."""
    from repro.cluster import DeviceMemory

    streams: Dict[object, List[LedgerOp]] = defaultdict(list)
    alloc, free_tag = DeviceMemory.alloc, DeviceMemory.free_tag
    resize, clear = DeviceMemory.resize, DeviceMemory.clear

    def recorded_alloc(memory, tag, nbytes):
        alloc(memory, tag, nbytes)
        streams[memory].append(("alloc", tag, nbytes, memory.bytes_for(tag)))

    def recorded_free(memory, tag):
        released = free_tag(memory, tag)
        streams[memory].append(("free", tag, released, 0))
        return released

    def recorded_resize(memory, tag, nbytes):
        resize(memory, tag, nbytes)
        streams[memory].append(("resize", tag, nbytes, nbytes))

    def recorded_clear(memory):
        streams[memory] += [("clear", tag, nbytes, 0) for tag, nbytes in memory.tags()]
        clear(memory)

    monkeypatch.setattr(DeviceMemory, "alloc", recorded_alloc)
    monkeypatch.setattr(DeviceMemory, "free_tag", recorded_free)
    monkeypatch.setattr(DeviceMemory, "resize", recorded_resize)
    monkeypatch.setattr(DeviceMemory, "clear", recorded_clear)
    return streams


def double_frees_reference(
    stream: Sequence[LedgerOp], ever_allocated: Set[str]
) -> List[Tuple[int, str]]:
    """``(index, tag)`` of each double free in one ledger's ``stream``, by
    the rule the TraceAuditor ran over the kept stream after the run: a
    ``free`` that released nothing, of a tag whose previous operation was a
    ``free``, counts when the tag is in ``ever_allocated`` — the ledger's
    set as it stood at audit time, not at the free."""
    last_op: Dict[str, str] = {}
    found = []
    for i, (op, tag, nbytes, _balance) in enumerate(stream):
        if (
            op == "free"
            and nbytes == 0
            and tag in ever_allocated
            and last_op.get(tag) == "free"
        ):
            found.append((i, tag))
        last_op[tag] = op
    return found
