"""The causal staircase computes the one square's bits, and only what the mask keeps.

A stream whose query block is taller than ``QUERY_BLOCK`` slots runs its
attention core block by block: each block of 16 query slots over the core
rows that have queries there, at the key width its last query reads
(``autograd.Stream.blocks``).  ``tests/oracles.py::attention_square_reference``
is the core before that change, line for line: every row's whole query
block against every key at the stream's width.  On layouts taller than one
block — EOS-ragged rows up to 64 tokens, GRPO groups sharing a prompt,
tails from the prompt on, both heads — a TinyLM forward's output and every
parameter gradient, and one attention call's output and input gradients,
must be ``np.array_equal`` to the oracle's.  The bench-shaped GRPO batch is
an explicit example, and its score count is pinned.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.models import autograd as ag
from repro.models.autograd import QUERY_BLOCK, Tensor
from repro.models.tinylm import Layout, TinyLM, TinyLMConfig, _leaders
from tests import oracles as O

CONFIGS = {
    "h16": TinyLMConfig(
        n_layers=2, hidden_size=16, n_heads=2, ffn_hidden_size=24,
        vocab_size=16, max_seq_len=64,
    ),
    # grpo_serve_ragged's model (bench/workloads.py ``_BIG``)
    "bench": TinyLMConfig(
        n_layers=4, hidden_size=64, n_heads=4, ffn_hidden_size=128,
        vocab_size=64, max_seq_len=128,
    ),
}
#: grpo_serve_ragged's batch: 4 prompts of 16 tokens, 8 responses each, up to 48 tokens
BENCH_GRPO = dict(groups=4, size=8, prompt=16, seq=64)


def grpo_batch(groups, size, prompt, seq, vocab, rng):
    """``(ids, lengths)``: ``groups`` prompts of ``prompt`` tokens, ``size``
    EOS-ragged responses each, the first row of the batch full length."""
    ids = rng.integers(0, vocab, size=(groups * size, seq))
    ids[:, :prompt] = np.repeat(ids[::size, :prompt], size, axis=0)
    lengths = rng.integers(prompt + 1, seq + 1, size=groups * size)
    lengths[0] = seq
    return ids, lengths


@st.composite
def layouts(draw):
    """``(config, head, ids, Layout)`` whose first layers' query block is
    taller than one staircase block."""
    config = draw(st.sampled_from(sorted(CONFIGS)))
    head = draw(st.sampled_from(["lm", "scalar"]))
    kind = draw(st.sampled_from(["ragged", "grpo", "tail"]))
    seq = draw(st.integers(QUERY_BLOCK + 2, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    vocab = CONFIGS[config].vocab_size
    if kind == "grpo":
        groups, size = draw(st.integers(1, 3)), draw(st.integers(2, 4))
        prompt = draw(st.integers(1, seq - 1))
        ids, lengths = grpo_batch(groups, size, prompt, seq, vocab, rng)
        return config, head, ids, Layout(lengths, prompt)
    rows = draw(st.integers(1, 6))
    ids = rng.integers(0, vocab, size=(rows, seq))
    lengths = rng.integers(1, seq + 1, size=rows)
    lengths[rng.integers(rows)] = seq
    if kind == "ragged":
        return config, head, ids, Layout(lengths)
    prompt = draw(st.integers(1, seq - 1))
    return config, head, ids, Layout(lengths if draw(st.booleans()) else None, prompt)


def _bench_grpo(head):
    ids, lengths = grpo_batch(**BENCH_GRPO, vocab=CONFIGS["bench"].vocab_size,
                              rng=np.random.default_rng(0))
    return "bench", head, ids, Layout(lengths, BENCH_GRPO["prompt"])


def forward_and_grads(config, head, ids, layout):
    """A forward's output and every parameter's gradient of ``<out, probe>``."""
    cfg = dataclasses.replace(CONFIGS[config], output_head=head)
    model = TinyLM(cfg, seed=len(ids))
    out = model.token_log_probs(ids, layout) if head == "lm" else model.values(ids, layout)
    probe = np.random.default_rng(1).normal(size=out.shape)
    (out * probe).sum().backward()
    return out.data, {name: p.grad for name, p in model.params.items()}


@settings(derandomize=True, max_examples=30, deadline=None)
@given(layouts())
@example(_bench_grpo("lm"))
@example(_bench_grpo("scalar"))
def test_a_forward_is_the_one_square_bit_for_bit(case):
    config, head, ids, layout = case
    out, grads = forward_and_grads(*case)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ag, "attention", O.attention_square_reference)
        want, want_grads = forward_and_grads(*case)
    assert np.array_equal(out, want)
    for name, grad in want_grads.items():
        assert np.array_equal(grads[name], grad), name


def _attention_call(core, stream, n_tokens, h, n_heads, seed):
    """One attention call of ``core`` over ``stream``: output, and the
    gradients of ``<out, probe>`` to the input, residual and weights."""
    rng = np.random.default_rng(seed)
    x, residual = (Tensor(rng.normal(size=(n_tokens, h)), requires_grad=True) for _ in "xr")
    weights = [Tensor(rng.normal(size=(h, h)) / np.sqrt(h), requires_grad=True) for _ in "qkvo"]
    out = core(x, *weights, n_heads, stream, residual=residual)
    (out * rng.normal(size=out.shape)).sum().backward()
    return [out.data, x.grad, residual.grad] + [w.grad for w in weights]


@settings(derandomize=True, max_examples=30, deadline=None)
@given(layouts(), st.booleans())
@example(_bench_grpo("lm"), False)
@example(_bench_grpo("lm"), True)
def test_an_attention_call_is_the_one_square_bit_for_bit(case, last_layer):
    config, head, ids, layout = case
    cfg = CONFIGS[config]
    lengths, prompt = layout
    leaders = _leaders(ids, prompt)
    stream = ag.Stream(ids.shape, lengths, leaders, prompt, max(prompt - 1, 0))
    n_tokens = len(stream.index)
    assert len(stream.blocks) > 1  # a staircase
    if last_layer:
        stream = stream.tail
    calls = [
        _attention_call(core, stream, n_tokens, cfg.hidden_size, cfg.n_heads, len(ids))
        for core in (ag.attention, O.attention_square_reference)
    ]
    for got, want in zip(*calls):
        assert np.array_equal(got, want)


def scores(stream):
    """Attention scores a layer over ``stream`` computes, per head."""
    return sum(r * (hi - lo) * w for r, lo, hi, w, _ in stream.blocks)


def test_bench_grpo_layout_scores_only_what_the_mask_keeps():
    """grpo_serve_ragged's scoring forward (the LM trunk of ``token_log_probs``:
    rows less their last token, a group's prompt shared but its last
    token): the staircase scores 41,984 of the square's 131,072 entries per
    head in the first layers, and 38,400 of 98,304 in the last."""
    _, _, ids, (lengths, prompt) = _bench_grpo("lm")
    leaders = np.repeat(np.arange(0, 32, 8), 8)
    stream = ag.Stream((32, 63), lengths - 1, leaders, prompt - 1, prompt - 1)
    for layer, square, staircase in ((stream, 131_072, 41_984), (stream.tail, 98_304, 38_400)):
        assert layer.rows * layer.height * layer.width == square
        assert scores(layer) == staircase
    # a stream whose queries fit one block is the square itself
    short = ag.Stream((32, 8), np.full(32, 8))
    assert len(short.blocks) == 1 and scores(short) == 32 * 8 * 16


def probability_bytes(out, n_heads):
    """Bytes of the probabilities a tracked attention call keeps for its
    backward: the arrays its VJP closes over (or over a list of) that own
    their memory and have a heads axis."""
    kept = {}
    for cell in out._backward.__closure__:
        value = cell.cell_contents
        for item in value if isinstance(value, (list, tuple)) else (value,):
            if isinstance(item, np.ndarray) and item.base is None and item.ndim == 4 \
                    and item.shape[1] == n_heads:
                kept[id(item)] = item.nbytes
    return sum(kept.values())


@pytest.mark.parametrize("last_layer", [False, True])
def test_bench_grpo_call_keeps_only_the_staircase_probabilities(last_layer):
    """On grpo_serve_ragged's layout a tracked attention call keeps each
    block's probabilities, 8 bytes per score the staircase computes, not the
    zero-padded square (32 % of it in the first layers, 39 % in the last)."""
    cfg = CONFIGS["bench"]
    _, _, ids, (lengths, prompt) = _bench_grpo("lm")
    stream = ag.Stream(ids.shape, lengths, _leaders(ids, prompt), prompt, prompt - 1)
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(len(stream.index), cfg.hidden_size)), requires_grad=True)
    weights = [Tensor(rng.normal(size=(cfg.hidden_size,) * 2), requires_grad=True) for _ in "qkvo"]
    layer = stream.tail if last_layer else stream
    out = ag.attention(x, *weights, cfg.n_heads, layer, residual=x)
    kept = probability_bytes(out, cfg.n_heads)
    assert 0 < kept <= 8 * cfg.n_heads * scores(layer)
    assert kept < 0.45 * 8 * cfg.n_heads * layer.rows * layer.height * layer.width
