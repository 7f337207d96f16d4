"""The fused TinyLM primitives against the op-by-op tape they replaced.

``tests/oracles.py`` keeps TinyLM's former body — one generic ``Tensor`` op
per arithmetic step — as ``tinylm_forward_reference``.  The primitives in
``repro.models.autograd`` must reproduce its forward values bit for bit
(train mode, ``no_grad``, incremental decode through a ``KVStore``) and its
gradients to rounding; each primitive's VJP is also finite-difference
checked on its own, and the tape's ownership rules (one ``backward()`` per
graph, gradients on leaves only, a KV cache is inference-only) are pinned.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.models import autograd as ag
from repro.models.autograd import Tensor, no_grad
from repro.models.tinylm import KVStore, TinyLM, TinyLMConfig
from repro.rlhf.losses import ppo_policy_loss, value_loss
from tests.oracles import (
    ConcatKVCache,
    tinylm_forward_reference,
    token_log_probs_reference,
)
from tests.test_autograd import check_primitive

VOCAB = 11


def build(n_layers, n_heads, head_dim, output_head="lm", seed=3):
    hidden = n_heads * head_dim
    cfg = TinyLMConfig(
        n_layers=n_layers,
        hidden_size=hidden,
        n_heads=n_heads,
        ffn_hidden_size=hidden + 3,
        vocab_size=VOCAB,
        max_seq_len=16,
        output_head=output_head,
    )
    return TinyLM(cfg, seed=seed)


def split_heads(rows, n_heads):
    """``(batch, seq, hidden)`` rows of a ``KVStore`` (heads side by side) as
    the ``(batch, n_heads, seq, head_dim)`` the oracle's cache holds."""
    return rows.reshape(*rows.shape[:2], n_heads, -1).swapaxes(1, 2)


def grads_of(model, loss):
    model.zero_grad()
    loss.backward()
    return {name: p.grad.copy() for name, p in model.params.items()}


def ppo_clip_loss(log_probs, rng):
    """A PPO-clip loss whose ratios straddle the clip range."""
    old = log_probs.data + rng.normal(scale=0.3, size=log_probs.shape)
    return ppo_policy_loss(log_probs, old, rng.normal(size=log_probs.shape))[0]


def value_clip_loss(values, rng):
    old = values.data + rng.normal(scale=0.3, size=values.shape)
    return value_loss(values, old, rng.normal(size=values.shape))[0]


def assert_grads_close(fused, oracle, tol=1e-12):
    assert set(fused) == set(oracle)
    for name, expected in oracle.items():
        # max-abs difference over the oracle's max-abs (an all-zero gradient,
        # e.g. wq under a one-key softmax, must be exactly zero here too)
        assert np.abs(fused[name] - expected).max() <= tol * np.abs(expected).max(), name


shapes = st.tuples(
    st.integers(1, 3),  # batch
    st.integers(2, 7),  # seq
    st.integers(1, 3),  # n_layers
    st.sampled_from([1, 2, 4]),  # n_heads
    st.sampled_from([2, 4, 8]),  # head_dim
    st.integers(1, 6),  # prefill length of the prefill+decode split
)


class TestMatchesOpByOpOracle:
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(shapes, st.sampled_from(["lm", "scalar"]))
    def test_forward_is_bit_identical(self, shape, head):
        batch, seq, n_layers, n_heads, head_dim, prefill = shape
        prefill = min(prefill, seq - 1)
        model = build(n_layers, n_heads, head_dim, head)
        ids = np.random.default_rng(seq).integers(0, VOCAB, size=(batch, seq))

        expected = tinylm_forward_reference(model, ids)
        got = model.forward(ids)
        assert got.requires_grad and expected.requires_grad
        assert np.array_equal(got.data, expected.data)
        with no_grad():
            quiet = model.forward(ids)
            assert not quiet.requires_grad and quiet._backward is None
            assert np.array_equal(quiet.data, expected.data)

            # prefill, then one token at a time, through a KV cache each
            ours, theirs = KVStore(model.config, batch), ConcatKVCache(n_layers)
            steps = [(0, prefill)] + [(i, i + 1) for i in range(prefill, seq)]
            for lo, hi in steps:
                a = model.forward(ids[:, lo:hi], cache=ours, pos_offset=lo)
                b = tinylm_forward_reference(model, ids[:, lo:hi], theirs, lo)
                assert np.array_equal(a.data, b.data)
                # every row of the full forward, whatever batch it rode in
                assert np.allclose(a.data, expected.data[:, lo:hi], atol=1e-12)
            for mine, oracle in zip(
                ours.keys + ours.values, theirs.keys + theirs.values
            ):
                assert np.array_equal(split_heads(mine[:, :seq], n_heads), oracle)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        st.integers(1, 3),  # n_layers
        st.sampled_from([1, 2, 4]),  # n_heads
        st.sampled_from([2, 4, 8]),  # head_dim
        st.lists(st.integers(1, 9), min_size=1, max_size=6),  # cached lengths
        st.integers(1, 4),  # tokens fed
    )
    def test_rows_of_differing_cached_length_equal_each_row_alone(
        self, n_layers, n_heads, head_dim, cached, feed
    ):
        # one forward over rows that have cached different lengths, scattered
        # over the store's slots, against each row alone through the
        # op-by-op oracle and its own concatenate cache
        model = build(n_layers, n_heads, head_dim)
        rng = np.random.default_rng(sum(cached))
        rows = [rng.integers(0, VOCAB, size=n + feed) for n in cached]
        slots = rng.permutation(len(rows) + 2)[: len(rows)]
        store = KVStore(model.config, len(rows) + 2)
        for buffer in store.keys + store.values:
            buffer[...] = np.nan
        with no_grad():
            for ids, n, slot in zip(rows, cached, slots):
                model.forward(ids[None, :n], cache=store.rows([slot]))
            together = model.forward(
                np.stack([ids[n:] for ids, n in zip(rows, cached)]),
                cache=store.rows(slots),
                pos_offset=np.array(cached),
            )
            for i, (ids, n) in enumerate(zip(rows, cached)):
                alone = ConcatKVCache(n_layers)
                tinylm_forward_reference(model, ids[None, :n], alone)
                expected = tinylm_forward_reference(model, ids[None, n:], alone, n)
                assert np.array_equal(together.data[i], expected.data[0])
                for layer in range(n_layers):
                    ours = store.keys[layer][slots[i], None, : n + feed]
                    assert np.array_equal(split_heads(ours, n_heads), alone.keys[layer])

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(shapes)
    def test_ppo_clip_gradients_agree_to_rounding(self, shape):
        batch, seq, n_layers, n_heads, head_dim, start = shape
        start = min(start, seq - 1) - 1
        model = build(n_layers, n_heads, head_dim)
        ids = np.random.default_rng(seq).integers(0, VOCAB, size=(batch, seq))

        fused_logp = model.token_log_probs(ids)
        oracle_logp = token_log_probs_reference(model, ids)
        assert np.array_equal(fused_logp.data, oracle_logp.data)
        fused = grads_of(
            model, ppo_clip_loss(fused_logp[:, start:], np.random.default_rng(1))
        )
        oracle = grads_of(
            model, ppo_clip_loss(oracle_logp[:, start:], np.random.default_rng(1))
        )
        assert_grads_close(fused, oracle)

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(shapes)
    def test_value_clip_gradients_agree_to_rounding(self, shape):
        batch, seq, n_layers, n_heads, head_dim, start = shape
        start = min(start, seq - 1) - 1
        model = build(n_layers, n_heads, head_dim, "scalar")
        ids = np.random.default_rng(seq).integers(0, VOCAB, size=(batch, seq))

        fused = grads_of(
            model,
            value_clip_loss(model.values(ids)[:, start:-1], np.random.default_rng(1)),
        )
        oracle = grads_of(
            model,
            value_clip_loss(
                tinylm_forward_reference(model, ids)[:, start:-1],
                np.random.default_rng(1),
            ),
        )
        assert_grads_close(fused, oracle)


class TestPrimitiveGradients:
    """Hand-picked inputs through the registry's grader
    (``tests/test_autograd.py``): oracle and central differences."""

    @pytest.fixture(autouse=True)
    def _fresh_rng(self):
        self.rng = np.random.default_rng(5)

    def normal(self, *shape, scale=1.0):
        return self.rng.normal(scale=scale, size=shape)

    def test_embed(self):
        ids = np.array([[1, 4, 1], [0, 1, 3]])  # token 1 repeats: rows sum
        tables = [self.normal(5, 4), self.normal(6, 4)]
        positions = np.broadcast_to(2 + np.arange(3), ids.shape)
        check_primitive("embed", tables, {"token_ids": ids, "positions": positions})
        # rows at their own offsets, a stream's tiling tokens repeating its first
        stream = {"token_ids": ids.ravel()[[0, 1, 2, 3, 4, 5, 0, 1]],
                  "positions": np.array([0, 1, 2, 3, 4, 5, 0, 1])}
        check_primitive("embed", tables, stream)

    def test_rms_norm(self):
        arrays = [self.normal(2, 3, 6), self.normal(6)]
        check_primitive("rms_norm", arrays, {"eps": 1e-5})

    def test_linear(self):
        check_primitive("linear", [self.normal(2, 3, 4), self.normal(4, 5)], {})
        check_primitive("linear", [self.normal(2, 3, 4), self.normal(4, 1)], {})

    @pytest.mark.parametrize(
        "batch, seq, n_heads, shared",
        # causal rows (position i sees i + 1 keys), a follower that reads
        # every key from its leader (it queries nothing), a one-token row
        [(2, 4, 2, 0), (1, 3, 1, 0), (2, 3, 2, 5), (3, 1, 2, 0)],
    )
    def test_attention(self, batch, seq, n_heads, shared):
        h = 4 * n_heads
        stream = ag.Stream((batch, seq), leaders=np.zeros(batch, dtype=int), shared=shared)
        n = len(stream.index)  # whole tiles: the first tokens repeat
        arrays = [self.normal(n, h)]
        arrays += [self.normal(h, h, scale=0.5) for _ in range(4)]
        arrays += [self.normal(n, h)]  # the residual
        check_primitive("attention", arrays, {"n_heads": n_heads, "stream": stream})

    def test_attention_masked_keys_get_no_gradient(self):
        h, n_heads = 8, 2
        stream = ag.Stream((1, 3))
        x = Tensor(self.normal(4, h), requires_grad=True)  # 3 tokens, 1 tiling
        weights = [Tensor(self.normal(h, h), requires_grad=True) for _ in range(4)]
        out = ag.attention(x, *weights, n_heads, stream)
        out[0].sum().backward()  # position 0 attends to key 0 only
        assert np.abs(x.grad[0]).max() > 0
        assert not x.grad[1:].any()

    def test_swiglu_mlp(self):
        arrays = [self.normal(2, 3, 4), self.normal(4, 6), self.normal(4, 6)]
        arrays += [self.normal(6, 4)]
        check_primitive("swiglu_mlp", arrays, {})
        check_primitive("swiglu_mlp", arrays + [self.normal(2, 3, 4)], {})

    def test_log_softmax_gather(self):
        index = np.array([[0, 4, 2], [1, 1, 3]])
        logits = [self.normal(2, 3, 5, scale=3.0)]
        check_primitive("log_softmax_gather", logits, {"index": index})


def heavy_update():
    """One ``update_actor``-shaped graph on the ``ppo_train_heavy`` shape."""
    cfg = TinyLMConfig(
        n_layers=4,
        hidden_size=64,
        n_heads=4,
        ffn_hidden_size=128,
        vocab_size=64,
        max_seq_len=128,
    )
    model = TinyLM(cfg, seed=7)
    rng = np.random.default_rng(0)
    ids = rng.integers(0, 64, size=(8, 48))

    def loss():
        return ppo_clip_loss(
            model.token_log_probs(ids)[:, 31:], np.random.default_rng(1)
        )

    return model, ids, loss


class TestStructuralCeilings:
    """Host-independent budgets on the ``ppo_train_heavy`` shape (8x48 tokens,
    4 layers, hidden 64, ffn 128, vocab 64); the op-by-op tape read 28.8 MiB,
    63.1 MiB and 170 nodes."""

    def test_bytes_retained_and_peak(self):
        _model, _ids, loss = heavy_update()
        ag._FREE.clear()  # recycled scratch would not be counted as allocated
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            graph = loss()
            retained = tracemalloc.get_traced_memory()[0] - base
            tracemalloc.reset_peak()
            graph.backward()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert retained <= 20 * 2**20
        assert peak <= 32 * 2**20

    def test_tape_nodes_per_forward(self, monkeypatch):
        model, ids, _loss = heavy_update()
        calls = []
        original = Tensor.__dict__["_from_op"].__func__

        def counting(cls, *args):
            calls.append(1)
            return original(cls, *args)

        monkeypatch.setattr(Tensor, "_from_op", classmethod(counting))
        model.token_log_probs(ids)
        assert 0 < len(calls) <= 40
        grad_mode = len(calls)
        with no_grad():
            model.token_log_probs(ids)
        assert len(calls) == 2 * grad_mode  # the same count under no_grad

    def test_same_update_twice_gives_equal_gradients(self):
        # recycled / uninitialised scratch must be fully written before read
        model, _ids, loss = heavy_update()
        first = grads_of(model, loss())
        ag._FREE.clear()
        second = grads_of(model, loss())
        third = grads_of(model, loss())  # this one runs on recycled scratch
        for name in first:
            assert np.array_equal(first[name], second[name]), name
            assert np.array_equal(first[name], third[name]), name


class TestPerRowPositionOffsets:
    def test_gradients_are_the_sum_of_each_row_at_its_own_offset(self):
        model = build(2, 2, 4)
        ids = np.random.default_rng(0).integers(0, VOCAB, size=(3, 4))
        offsets = np.array([5, 0, 5])
        together = model.forward(ids, pos_offset=offsets)
        alone = [model.forward(ids[i : i + 1], pos_offset=int(o)) for i, o in enumerate(offsets)]
        for i, row in enumerate(alone):
            assert np.array_equal(together.data[i], row.data[0])
        weights = np.random.default_rng(1).normal(size=together.shape)
        fused = grads_of(model, (together * weights).sum())
        summed = {name: np.zeros_like(g) for name, g in fused.items()}
        for i, row in enumerate(alone):
            for name, g in grads_of(model, (row * weights[i : i + 1]).sum()).items():
                summed[name] += g
        assert_grads_close(fused, summed)
        assert np.abs(fused["pos_embed.weight"][9:]).max() == 0  # rows end at 5 + 4


class TestKVCacheIsInferenceOnly:
    def test_cache_with_grad_raises(self):
        model = build(1, 2, 4)
        ids = np.array([[1, 2, 3]])
        with pytest.raises(RuntimeError, match="inference-only"):
            model.forward(ids, cache=KVStore(model.config, 1))
        with pytest.raises(RuntimeError, match="inference-only"):
            model.forward(
                ids, cache=KVStore(model.config, 1), pos_offset=np.array([0])
            )
        with no_grad():
            model.forward(ids, cache=KVStore(model.config, 1))

    def test_cache_allowed_when_nothing_requires_grad(self):
        model = build(1, 2, 4)
        frozen = TinyLM(
            model.config, params={k: Tensor(p.data) for k, p in model.params.items()}
        )
        out = frozen.forward(
            np.array([[1, 2, 3]]), cache=KVStore(model.config, 1)
        )
        assert not out.requires_grad


class TestTapeOwnership:
    def test_second_backward_raises(self):
        x = Tensor(np.arange(3.0), requires_grad=True)
        loss = (x * x).sum()
        loss.backward()
        np.testing.assert_array_equal(x.grad, 2 * np.arange(3.0))
        with pytest.raises(RuntimeError, match="already been backpropagated"):
            loss.backward()
        np.testing.assert_array_equal(x.grad, 2 * np.arange(3.0))  # untouched

    def test_backward_through_a_released_interior_raises_before_accumulating(self):
        x = Tensor(np.arange(3.0), requires_grad=True)
        y = Tensor(np.ones(3), requires_grad=True)
        shared = x * 2.0
        (shared * 3.0).sum().backward()
        with pytest.raises(RuntimeError, match="already been backpropagated"):
            (shared + y).sum().backward()
        assert y.grad is None  # nothing partial was written

    def test_interior_grads_are_dropped_leaf_grads_kept(self):
        x = Tensor(np.arange(3.0), requires_grad=True)
        mid = x * 2.0
        loss = mid.sum()
        loss.backward()
        assert mid.grad is None and loss.grad is None
        np.testing.assert_array_equal(x.grad, np.full(3, 2.0))

    def test_leaf_grads_sum_over_two_forwards_in_one_graph(self):
        # Safe-RLHF's ptx term: policy loss + coef * loss on a second batch
        model = build(2, 2, 4)
        rng = np.random.default_rng(0)
        a, b = rng.integers(0, VOCAB, size=(2, 2, 5))

        def term(ids):
            return -model.token_log_probs(ids).mean()

        separate = grads_of(model, term(a))
        for name, grad in grads_of(model, term(b)).items():
            separate[name] = separate[name] + 0.5 * grad
        joint = grads_of(model, term(a) + 0.5 * term(b))
        assert_grads_close(joint, separate)

    def test_leaf_grads_accumulate_over_separate_graphs_until_zero_grad(self):
        x = Tensor(np.arange(3.0), requires_grad=True)
        (x * x).sum().backward()
        (x * 3.0).sum().backward()
        np.testing.assert_array_equal(x.grad, 2 * np.arange(3.0) + 3.0)
        x.zero_grad()
        assert x.grad is None

    def test_borrowed_gradient_is_copied_owned_one_is_adopted(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        borrowed = np.ones(3)
        x._accumulate(borrowed)
        x._accumulate(borrowed)
        np.testing.assert_array_equal(borrowed, np.ones(3))
        np.testing.assert_array_equal(x.grad, np.full(3, 2.0))
        y = Tensor(np.zeros(3), requires_grad=True)
        fresh = np.ones(3)
        y._accumulate(fresh, owned=True)
        assert y.grad is fresh

    def test_caller_gradient_is_not_mutated(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        w = Tensor(np.ones(3), requires_grad=True)
        seed = np.ones((2, 3))
        ag.rms_norm(x, w, 1e-5).backward(seed)  # this VJP scribbles on its g
        np.testing.assert_array_equal(seed, np.ones((2, 3)))


class TestGetitemGradient:
    def test_basic_slices_write_the_gradient_once(self):
        x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        (x[:, 1:-1] * 2.0).sum().backward()
        expected = np.zeros((3, 4))
        expected[:, 1:-1] = 2.0
        np.testing.assert_array_equal(x.grad, expected)
        x.zero_grad()
        x[:, -1].sum().backward()
        np.testing.assert_array_equal(x.grad[:, -1], np.ones(3))
        assert not x.grad[:, :-1].any()

    def test_repeated_integer_array_indices_still_sum(self):
        x = Tensor(np.arange(4.0), requires_grad=True)
        x[np.array([0, 2, 2, 2])].sum().backward()
        np.testing.assert_array_equal(x.grad, [1.0, 0.0, 3.0, 0.0])
        y = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        y[[0, 0], [1, 1]].sum().backward()
        np.testing.assert_array_equal(y.grad, [[0.0, 2.0, 0.0], [0.0, 0.0, 0.0]])
