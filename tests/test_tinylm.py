"""Tests for the TinyLM transformer: forward, KV cache, heads, training."""

import contextlib
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.models import autograd as ag
from repro.models.adam import Adam, FlatParams
from repro.models.autograd import Packing, Tensor, no_grad
from repro.models.sampler import generate
from repro.models.tinylm import KVStore, TinyLM, TinyLMConfig, key_width
from tests.oracles import AdamReference


@pytest.fixture
def config():
    return TinyLMConfig(
        n_layers=2,
        hidden_size=16,
        n_heads=2,
        ffn_hidden_size=24,
        vocab_size=11,
        max_seq_len=16,
    )


@pytest.fixture
def model(config):
    return TinyLM(config, seed=1)


def tokens(config, batch=2, seq=6, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, config.vocab_size, size=(batch, seq))


class TestForward:
    def test_logits_shape(self, model, config):
        out = model.forward(tokens(config))
        assert out.shape == (2, 6, config.vocab_size)

    def test_scalar_head_shape(self, config):
        critic = TinyLM(dataclasses.replace(config, output_head="scalar"))
        out = critic.values(tokens(config))
        assert out.shape == (2, 6)

    def test_causality(self, model, config):
        """Changing a future token must not change earlier logits."""
        ids = tokens(config)
        with no_grad():
            base = model.forward(ids).data
            ids2 = ids.copy()
            ids2[:, -1] = (ids2[:, -1] + 1) % config.vocab_size
            perturbed = model.forward(ids2).data
        np.testing.assert_allclose(base[:, :-1], perturbed[:, :-1])
        assert not np.allclose(base[:, -1], perturbed[:, -1])

    def test_sequence_too_long_rejected(self, model, config):
        with pytest.raises(ValueError, match="max_seq_len"):
            model.forward(np.zeros((1, config.max_seq_len + 1), dtype=int))

    def test_token_ids_must_be_2d(self, model):
        with pytest.raises(ValueError):
            model.forward(np.zeros(4, dtype=int))

    def test_wrong_head_methods_raise(self, model, config):
        with pytest.raises(RuntimeError):
            model.values(tokens(config))
        critic = TinyLM(dataclasses.replace(config, output_head="scalar"))
        with pytest.raises(RuntimeError):
            critic.token_log_probs(tokens(config))


class TestKVCache:
    def test_incremental_matches_full_forward(self, model, config):
        ids = tokens(config, seq=8)
        with no_grad():
            full = model.forward(ids).data
            cache = KVStore(config, n_slots=2)
            inc = model.forward(ids[:, :3], cache=cache).data
            for t in range(3, 8):
                step = model.forward(ids[:, t : t + 1], cache=cache, pos_offset=t)
                inc = np.concatenate([inc, step.data], axis=1)
        np.testing.assert_allclose(full, inc, atol=1e-10)

    def test_cache_grows_and_reports_bytes(self, model, config):
        # grows in place: preallocated once, each forward writes behind the last
        cache = KVStore(config, n_slots=2, capacity=6)
        buffers = [id(a) for a in cache.keys + cache.values]
        shape = (2, key_width(6), config.hidden_size)  # read at width 16
        assert all(a.shape == shape for a in cache.keys + cache.values)
        ids = tokens(config, seq=5)
        with no_grad():
            model.forward(ids[:, :4], cache=cache)
            prefix = cache.keys[0][:, :4].copy()
            model.forward(ids[:, 4:], cache=cache, pos_offset=4)
        assert [id(a) for a in cache.keys + cache.values] == buffers
        assert np.array_equal(cache.keys[0][:, :4], prefix)
        assert KVStore(config, n_slots=3).keys[0].shape[1] == config.max_seq_len
        # the bytes a pass reports are what its last forward had cached:
        # 2 layers * (K + V) * batch 2 * (4 + 2) positions * hidden 16 * 8 bytes
        out = generate(model, ids[:, :4], max_new_tokens=3)
        assert out.kv_cache_bytes == 2 * 2 * 2 * 6 * 16 * 8

    def test_rows_share_buffers_and_run_at_their_own_lengths(self, model, config):
        # slot 2 has cached 5 positions, slot 0 has cached 3: one forward
        # decodes both, each row equal to that sequence decoded alone
        ids = tokens(config, seq=6)
        store = KVStore(config, n_slots=3)
        with no_grad():
            model.forward(ids[:1, :5], cache=store.rows([2]))
            model.forward(ids[1:, :3], cache=store.rows([0]))
            both = model.forward(
                np.array([[ids[0, 5]], [ids[1, 3]]]),
                cache=store.rows([2, 0]),
                pos_offset=np.array([5, 3]),
            ).data
            for row, n in ((0, 5), (1, 3)):
                alone = KVStore(config, n_slots=1)
                model.forward(ids[row : row + 1, :n], cache=alone)
                expected = model.forward(
                    ids[row : row + 1, n : n + 1], cache=alone, pos_offset=n
                ).data
                assert np.array_equal(both[row], expected[0])
        assert store.rows([1]).keys[0] is store.keys[0]

    def test_overflowing_the_capacity_raises(self, model, config):
        cache = KVStore(config, n_slots=2, capacity=4)
        with no_grad(), pytest.raises(ValueError):
            model.forward(tokens(config, seq=5), cache=cache)
        with no_grad(), pytest.raises(ValueError, match="max_seq_len"):
            model.forward(
                tokens(config, seq=1),
                cache=KVStore(config, n_slots=2),
                pos_offset=np.array([3, config.max_seq_len]),
            )


class TestLogProbs:
    def test_shape_and_range(self, model, config):
        logp = model.token_log_probs(tokens(config)).data
        assert logp.shape == (2, 5)
        assert (logp <= 0).all()

    def test_matches_manual_log_softmax(self, model, config):
        ids = tokens(config)
        with no_grad():
            logits = model.forward(ids[:, :-1]).data
        shifted = logits - logits.max(axis=-1, keepdims=True)
        ref = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        manual = np.take_along_axis(ref, ids[:, 1:, None], axis=-1)[..., 0]
        np.testing.assert_allclose(
            model.token_log_probs(ids).data, manual, atol=1e-10
        )


class TestStateManagement:
    def test_state_dict_roundtrip(self, model, config):
        state = model.state_dict()
        other = TinyLM(config, seed=99)
        other.load_state_dict(state)
        ids = tokens(config)
        np.testing.assert_allclose(
            model.forward(ids).data, other.forward(ids).data
        )

    def test_load_rejects_mismatched_keys(self, model):
        state = model.state_dict()
        del state["embed.weight"]
        with pytest.raises(ValueError, match="missing"):
            model.load_state_dict(state)

    def test_load_rejects_mismatched_shapes(self, model):
        state = model.state_dict()
        state["embed.weight"] = state["embed.weight"][:2]
        with pytest.raises(ValueError, match="shape"):
            model.load_state_dict(state)

    def test_clone_is_independent(self, model, config):
        clone = model.clone()
        ids = tokens(config)
        before = clone.forward(ids).data.copy()
        model.params["embed.weight"].data += 1.0
        np.testing.assert_allclose(clone.forward(ids).data, before)

    def test_param_count_positive_and_matches_bytes(self, model):
        assert model.param_bytes() == model.n_params() * 8


class TestTraining:
    def test_lm_loss_decreases_with_adam(self, model, config):
        ids = tokens(config, batch=4, seq=8, seed=3)
        opt = Adam(model.params, lr=5e-3)
        first = None
        for _ in range(25):
            model.zero_grad()
            loss = -model.token_log_probs(ids).mean()
            if first is None:
                first = loss.item()
            loss.backward()
            opt.step()
        assert loss.item() < 0.5 * first

    def test_full_gradient_check_one_param(self, model, config):
        """End-to-end finite-difference check through the whole transformer."""
        ids = tokens(config)
        loss = -model.token_log_probs(ids).mean()
        loss.backward()
        name = "layers.1.mlp.w_down"
        p = model.params[name]
        i, j = 2, 3
        eps = 1e-6
        orig = p.data[i, j]
        p.data[i, j] = orig + eps
        up = -model.token_log_probs(ids).mean().item()
        p.data[i, j] = orig - eps
        down = -model.token_log_probs(ids).mean().item()
        p.data[i, j] = orig
        fd = (up - down) / (2 * eps)
        assert abs(p.grad[i, j] - fd) < 1e-6 + 1e-4 * abs(fd)


class TestAdam:
    def test_rejects_bad_lr(self, model):
        with pytest.raises(ValueError):
            Adam(model.params, lr=0.0)

    def test_grad_clipping_bounds_norm(self, model, config):
        opt = Adam(model.params, lr=1e-3, max_grad_norm=0.1)
        loss = -(100.0 * model.token_log_probs(tokens(config))).mean()
        loss.backward()
        assert opt.grad_global_norm() > 0.1
        opt.clip_gradients()
        assert opt.grad_global_norm() <= 0.1 + 1e-9

    def test_state_bytes_counts_both_moments(self, model):
        opt = Adam(model.params, lr=1e-3)
        assert opt.state_bytes() == 2 * model.param_bytes()

    def test_step_skips_params_without_grads(self, model, config):
        opt = Adam(model.params, lr=1e-2)
        before = model.params["embed.weight"].data.copy()
        opt.step()  # no gradients anywhere
        np.testing.assert_allclose(model.params["embed.weight"].data, before)


class TestFlatAdamIsTheOracle:
    """The flat in-place ``Adam`` leaves parameters, both moments and the
    step count bit-identical to the per-tensor loop it replaced
    (``tests/oracles.py``), over several steps: gradients bound to the flat
    buffer (accumulated into, as backward does) or handed in as separate
    arrays, one parameter without a gradient, the global norm above and
    below ``max_grad_norm``, weight decay, and a checkpoint round trip into
    a fresh optimizer mid-run."""

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        shapes=st.lists(
            st.lists(st.integers(1, 24), min_size=1, max_size=3).map(tuple),
            min_size=2,
            max_size=6,
        ),
        grad_scale=st.sampled_from([1e-4, 1e-2, 10.0]),
        weight_decay=st.sampled_from([0.0, 0.01]),
        max_grad_norm=st.sampled_from([None, 1.0]),
        without_grad=st.integers(0, 5),
        bound=st.booleans(),
        reload_at=st.integers(0, 3),
        seed=st.integers(0, 2**16),
    )
    def test_steps_match(
        self, shapes, grad_scale, weight_decay, max_grad_norm, without_grad,
        bound, reload_at, seed,
    ):
        rng = np.random.default_rng(seed)
        init = {f"p{i}": rng.normal(size=shape) for i, shape in enumerate(shapes)}
        skipped = f"p{without_grad % len(shapes)}"
        kwargs = dict(lr=1e-2, weight_decay=weight_decay, max_grad_norm=max_grad_norm)
        ref = {name: Tensor(arr.copy()) for name, arr in init.items()}
        oracle = AdamReference(ref, **kwargs)
        flat = FlatParams({name: arr.shape for name, arr in init.items()})
        for name, arr in init.items():
            flat.arrays[name][...] = arr
        adam = Adam(flat, **kwargs)
        for step in range(4):
            flat.zero_grad()
            for name, shape in flat.shapes.items():
                grad = rng.normal(size=shape) * grad_scale
                ref[name].grad = None if name == skipped else grad
                if name == skipped:
                    flat.params[name].grad = None
                elif bound:
                    flat.params[name].grad += grad
                else:
                    flat.params[name].grad = grad.copy()
            if step == reload_at:
                saved = {k: np.copy(v) for k, v in adam.state_for_checkpoint().items()}
                adam = Adam(flat, **kwargs)
                adam.load_from_checkpoint(saved)
            oracle.step()
            adam.step()
            assert adam.step_count == oracle.step_count
            for name in init:
                assert np.array_equal(flat.arrays[name], ref[name].data), name
                assert np.array_equal(adam._m[name], oracle._m[name]), name
                assert np.array_equal(adam._v[name], oracle._v[name]), name


class TestKVCacheTrimFree:
    """Rolling a row back (preempt-and-recompute) or giving its slot to
    another sequence clears nothing: a forward's ``pos_offset`` *is* the
    row's length, and nothing at or past it is ever read."""

    def test_trim_keeps_prefix_and_matches_recompute(self, model, config):
        ids = tokens(config, seq=8)
        with no_grad():
            cache = KVStore(config, n_slots=2)
            model.forward(ids, cache=cache)
            fresh = KVStore(config, n_slots=2)
            model.forward(ids[:, :5], cache=fresh)
            for k1, v1, k2, v2 in zip(
                cache.keys, cache.values, fresh.keys, fresh.values
            ):
                np.testing.assert_allclose(k1[:, :5], k2[:, :5], atol=1e-12)
                np.testing.assert_allclose(v1[:, :5], v2[:, :5], atol=1e-12)
            # rolled back to 5 cached positions: positions 5..7 are stale
            other = (ids[:, 5:6] + 1) % config.vocab_size
            rolled = model.forward(other, cache=cache, pos_offset=5).data
            recomputed = model.forward(other, cache=fresh, pos_offset=5).data
        np.testing.assert_allclose(rolled, recomputed, atol=1e-12)

    def test_trim_to_zero_and_free(self, model, config):
        # a slot given up and taken by another sequence starts from zero
        with no_grad():
            used = KVStore(config, n_slots=2)
            model.forward(tokens(config, seq=6), cache=used)
            for buffer in used.keys + used.values:
                buffer[...] = np.nan  # whatever the last holder left
            ids = tokens(config, seq=4, seed=1)
            reused = model.forward(ids, cache=used).data
            fresh = model.forward(ids, cache=KVStore(config, n_slots=2)).data
        assert np.array_equal(reused, fresh)


#: The shipped layer widths (``bench/`` and ``repro bench`` models) at head
#: dims 4, 8 and 16, long enough for every canonical key width.
CANONICAL_PROBES = [
    TinyLMConfig(n_layers=2, hidden_size=16, n_heads=4, ffn_hidden_size=32,
                 vocab_size=16, max_seq_len=128),
    TinyLMConfig(n_layers=2, hidden_size=32, n_heads=4, ffn_hidden_size=48,
                 vocab_size=32, max_seq_len=128),
    TinyLMConfig(n_layers=1, hidden_size=64, n_heads=4, ffn_hidden_size=128,
                 vocab_size=64, max_seq_len=128),
]


class TestOneCoreAtACanonicalWidth:
    """The rule ``KVStore``'s one attention core rests on: a row's cached
    forward is bit-identical at every key width in {16, 24, ..., 128} at or
    above its own, and beside any rows — alone, on two rows, in a crowd."""

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(
        st.sampled_from(range(len(CANONICAL_PROBES))),
        st.integers(1, 127),  # the row's cached length
        st.integers(1, 4),  # its new tokens
        st.lists(st.integers(1, 120), min_size=1, max_size=5),  # rows beside it
        st.integers(0, 2**16),
    )
    def test_a_row_is_the_same_at_every_width_and_in_every_batch(
        self, which, cached, t, beside, seed
    ):
        cfg = CANONICAL_PROBES[which]
        cached = min(cached, cfg.max_seq_len - t)
        model = TinyLM(cfg, seed=seed % 7)
        rng = np.random.default_rng(seed)
        row = rng.integers(0, cfg.vocab_size, size=cached + t)
        others = [rng.integers(0, cfg.vocab_size, size=n + 1) for n in beside]
        filler = rng.integers(0, cfg.vocab_size, size=cfg.max_seq_len)
        store = KVStore(cfg, n_slots=2 + len(others))
        for buffer in store.keys + store.values:
            buffer[...] = np.nan  # no position past a row's length is read
        with no_grad():
            # slot 0 the row, 1 a filler that sets the width, 2.. the others
            for slot, ids in enumerate([row[:cached], filler[:-1]] + [o[:-1] for o in others]):
                model.forward(ids[None], cache=store.rows([slot]))

            def decode(slots, offsets, feeds):
                out = model.forward(
                    np.stack(feeds), cache=store.rows(slots), pos_offset=np.array(offsets)
                )
                return out.data[0]

            new = row[cached:]
            alone = decode([0], [cached], [new])
            assert np.array_equal(alone, decode([0, 0], [cached] * 2, [new, new]))
            for width in range(key_width(cached + t), cfg.max_seq_len + 1, 8):
                beside_filler = decode([0, 1], [cached, width - t], [new, filler[:t]])
                assert np.array_equal(alone, beside_filler), width
            crowd = decode(
                [0] + list(range(2, 2 + len(others))),
                [cached] + [len(o) - 1 for o in others],
                [new] + [np.resize(o[-1:], t) for o in others],
            )
            assert np.array_equal(alone, crowd)

    def test_a_width_past_the_rule_is_rejected(self):
        # past 128 numpy's pairwise sum splits a row at a point that moves
        # with the width: a length-100 softmax row zero-padded to 128 and to
        # 136 sums differently
        rows = np.random.default_rng(0).random((50, 100))
        pad = lambda width: np.pad(rows, ((0, 0), (0, width - 100))).sum(axis=1)
        assert not np.array_equal(pad(128), pad(136))
        assert np.array_equal(pad(104), pad(128))
        ok = dataclasses.replace(CANONICAL_PROBES[0], max_seq_len=128)
        assert KVStore(ok, n_slots=1).keys[0].shape[1] == 128
        with pytest.raises(ValueError, match="key width 136"):
            KVStore(dataclasses.replace(ok, max_seq_len=129), n_slots=1)


#: Every layer width a multiple of 8, as in every shipped config: BLAS
#: treats the last 1-3 columns of a narrower output by a path that depends
#: on a row's place in the matrix (docs/PERF.md, "padding-free forwards").
PACKED = TinyLMConfig(
    n_layers=2,
    hidden_size=16,
    n_heads=2,
    ffn_hidden_size=24,
    vocab_size=16,
    max_seq_len=40,
)
PACKED_MODELS = {
    head: TinyLM(dataclasses.replace(PACKED, output_head=head), seed=5)
    for head in ("lm", "scalar")
}


class TestPackedForwardIsThePaddedForward:
    """With ``lengths`` TinyLM computes each row's real tokens only; on them
    it is the dense forward bit for bit, its gradients agree to rounding
    (weight GEMMs reduce over fewer rows), and full rows change nothing."""

    @staticmethod
    def run(head, ids, lengths, probe):
        """Forward output and parameter gradients of ``<output, probe>``:
        log-probs of ``ids`` for the LM head, values for the scalar one."""
        model = PACKED_MODELS[head]
        model.zero_grad()
        if head == "lm":
            out = model.token_log_probs(ids, lengths)
        else:
            out = model.values(ids, lengths)
        (out * Tensor(probe)).sum().backward()
        return out.data, {name: p.grad.copy() for name, p in model.params.items()}

    @pytest.mark.parametrize("residue", range(8))
    @settings(derandomize=True, max_examples=8, deadline=None)
    @given(data=st.data())
    def test_packed_is_padded(self, residue, data):
        head = data.draw(st.sampled_from(["lm", "scalar"]))
        t = 8 * data.draw(st.integers(0 if residue >= 2 else 1, 4)) + residue
        b = data.draw(st.integers(1, 6))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        ids = rng.integers(0, PACKED.vocab_size, size=(b, t))
        lengths = rng.integers(1, t + 1, size=b)
        # an LM row of n tokens predicts n - 1 of them
        computed = lengths - 1 if head == "lm" else lengths
        width = t - 1 if head == "lm" else t
        real = np.arange(width) < computed[:, None]
        probe = rng.normal(size=(b, width)) * real

        dense, dense_grads = self.run(head, ids, None, probe)
        packed, packed_grads = self.run(head, ids, lengths, probe)
        assert np.array_equal(packed[real], dense[real])
        if Packing((b, width), computed).index is not None:
            assert not packed[~real].any()  # never computed: 0
        for name, want in dense_grads.items():
            got = packed_grads[name]
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name

        full, full_grads = self.run(head, ids, np.full(b, t), probe)
        assert np.array_equal(full, dense)
        for name, want in dense_grads.items():
            assert np.array_equal(full_grads[name], want), name

    def test_only_real_tokens_enter_the_forward(self):
        lengths = np.array([3, 9, 17, 40])
        packing = Packing((4, 40), lengths)
        assert len(packing.index) == lengths.sum()
        # keys at a width of 16, 24 or 40 (past 40 - 40 % 8 = 40: 40 itself)
        widths = {tuple(rows.rows): rows.width for rows in packing.groups}
        assert widths == {(0, 1): 16, (2,): 24, (3,): 40}
        assert Packing((4, 40), np.full(4, 40)).index is None
        assert Packing((4, 40)).index is None

    def test_lengths_pack_whole_rows_only(self, model, config):
        with pytest.raises(ValueError, match="lengths"):
            model.forward(
                tokens(config, seq=4),
                cache=KVStore(config, 2),
                lengths=np.array([2, 4]),
            )
        with pytest.raises(ValueError, match="lengths"):
            model.forward(tokens(config, seq=4), cache=KVStore(config, 2), prefix=2)


class TestSharedPromptIsComputedOnce:
    """Rows that share their first ``prefix`` tokens (a GRPO group's prompt)
    compute them once: every output is still the dense forward's bit for
    bit, gradients agree to rounding (the group's prompt gradients are
    summed before the weight GEMMs), and the stream holds each prompt once."""

    #: head dims 16, 8, 4 (queries start past the prefix) and 2 (they do
    #: not: a context row would round by its place in the GEMM)
    MODELS = {
        (head, n_heads): TinyLM(
            dataclasses.replace(PACKED, output_head=head, n_heads=n_heads), seed=5
        )
        for head in ("lm", "scalar")
        for n_heads in (1, 2, 4, 8)
    }

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(data=st.data())
    def test_shared_prefix_is_the_dense_forward(self, data):
        head = data.draw(st.sampled_from(["lm", "scalar"]))
        model = self.MODELS[head, data.draw(st.sampled_from([1, 2, 4, 8]))]
        t = data.draw(st.integers(3, PACKED.max_seq_len))
        prefix = data.draw(st.integers(1, t - 1))
        groups, size = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        b = groups * size
        ids = rng.integers(0, PACKED.vocab_size, size=(b, t))
        ids[:, :prefix] = np.repeat(
            rng.integers(0, PACKED.vocab_size, size=(groups, prefix)), size, axis=0
        )
        ids = ids[rng.permutation(b)]  # group members need not be adjacent
        ragged = data.draw(st.booleans())
        lengths = rng.integers(prefix + 1, t + 1, size=b) if ragged else None
        full = np.full(b, t) if lengths is None else lengths
        computed = full - 1 if head == "lm" else full
        width = t - 1 if head == "lm" else t
        real = np.arange(width) < computed[:, None]
        probe = rng.normal(size=(b, width)) * real

        def run(lengths, prefix):
            model.zero_grad()
            if head == "lm":
                out = model.token_log_probs(ids, lengths, prefix)
            else:
                out = model.values(ids, lengths, prefix)
            (out * Tensor(probe)).sum().backward()
            return out.data, {name: p.grad.copy() for name, p in model.params.items()}

        dense, dense_grads = run(None, 0)
        shared, shared_grads = run(lengths, prefix)
        assert np.array_equal(shared[real], dense[real])
        for name, want in dense_grads.items():
            got = shared_grads[name]
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name

    def test_each_prompt_enters_the_stream_once(self):
        # two groups of three rows, prompt of 5; the LM trunk shares 4
        # positions, so each row still predicts its own first response token
        ids = np.repeat(np.arange(12).reshape(2, 6) % PACKED.vocab_size, 3, axis=0)
        ids[:, 5] = np.arange(6)
        lengths = np.array([6, 6, 5, 6, 4, 6])
        packing = Packing((6, 6), lengths, np.array([0, 0, 0, 3, 3, 3]), 4)
        assert len(packing.index) == lengths.sum() - 4 * 4
        # each follower's first 4 positions read its leader's same positions
        at, read = packing.shared.at, packing.index[packing.shared.src]
        assert sorted(at.tolist()) == [r * 6 + p for r in (1, 2, 4, 5) for p in range(4)]
        assert np.array_equal(read % 6, at % 6)
        assert np.array_equal(read // 6, np.array([0, 0, 0, 3, 3, 3])[at // 6])
        # no two rows share: the packed forward of the parent, unchanged
        plain = Packing((6, 6), lengths)
        assert plain.shared is None and len(plain.index) == lengths.sum()


class TestOnlyReadPositionsAreComputed:
    """``read_from`` returns the positions from it on, and the last layer
    computes only those: its queries, output projection, MLP, final norm
    and head (keys and values still at every position).  Outputs are the
    full forward's bit for bit, and so are the gradients, except the last
    layer's weight gradients, whose GEMMs reduce over fewer token rows."""

    MODELS = TestSharedPromptIsComputedOnce.MODELS
    #: the parameters whose gradients may round differently
    LAST = (f"layers.{PACKED.n_layers - 1}.", "final_norm.", "lm_head.", "value_head.")

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(data=st.data())
    def test_tail_is_the_full_forward(self, data):
        head = data.draw(st.sampled_from(["lm", "scalar"]))
        model = self.MODELS[head, data.draw(st.sampled_from([1, 2, 4, 8]))]
        prompt = data.draw(st.integers(1, 20))
        t = prompt + data.draw(st.integers(1, PACKED.max_seq_len - prompt))
        b = data.draw(st.integers(1, 6))
        rows = data.draw(st.sampled_from(["dense", "eos", "grpo"]))
        grad = data.draw(st.booleans())
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        ids = rng.integers(0, PACKED.vocab_size, size=(b, t))
        lengths, prefix, leaders = None, 0, np.arange(b)
        if rows == "grpo":
            size = data.draw(st.integers(1, b))
            leaders = np.arange(b) // size * size
            ids[:, :prompt] = ids[leaders, :prompt]
            prefix = prompt
        if rows == "eos" or rows == "grpo" and data.draw(st.booleans()):
            lengths = rng.integers(prompt + 1, t + 1, size=b)
        read_from = prompt - 1
        lm = head == "lm"
        # an LM row of n tokens predicts n - 1 of them, from its first
        computed = (np.full(b, t) if lengths is None else lengths) - lm
        shared = np.minimum(np.minimum(computed, computed[leaders]), prefix - lm)
        own_from = np.where(leaders == np.arange(b), 0, shared)
        returned = np.maximum(computed - np.maximum(own_from, read_from), 0).sum()
        width = t - lm
        real = np.arange(width)[read_from:] < computed[:, None]
        probe = rng.normal(size=real.shape) * real

        def run(start):
            model.zero_grad()
            mlp_tokens = []
            swiglu_mlp = ag.swiglu_mlp

            def spy(x, *args, **kwargs):
                mlp_tokens.append(x.data.size // x.shape[-1])
                return swiglu_mlp(x, *args, **kwargs)

            forward = model.token_log_probs if lm else model.values
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(ag, "swiglu_mlp", spy)
                with contextlib.nullcontext() if grad else no_grad():
                    out = forward(ids, lengths, prefix, start)
            if grad:
                weights = probe if start else np.pad(probe, ((0, 0), (read_from, 0)))
                (out * Tensor(weights)).sum().backward()
            grads = {
                n: p.grad.copy() for n, p in model.params.items() if p.grad is not None
            }
            return out.data, grads, mlp_tokens[-1]

        full, full_grads, _ = run(0)
        tail, tail_grads, last_mlp = run(read_from)
        assert np.array_equal(tail, full[:, read_from:])
        if returned >= 2:  # one token would be a GEMV: the full forward runs
            assert last_mlp == returned
        assert tail_grads.keys() == full_grads.keys()
        for name, want in full_grads.items():
            got = tail_grads[name]
            if name.startswith(self.LAST):
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name
            else:
                assert np.array_equal(got, want), name

    def test_dense_tail_is_a_view_of_the_grid(self):
        packing = Packing((3, 10), read_from=4, offset_queries=True)
        assert packing.index is None and packing.tail.index is None
        assert packing.tail.reads == (slice(None), slice(4, None))
        # a head dim whose queries cannot start past 0: the stream packs
        narrow = Packing((3, 10), read_from=4).tail
        assert narrow.index.tolist() == [
            r * 10 + p for r in range(3) for p in range(4, 10)
        ]
        # under two returned tokens: no tail
        assert Packing((1, 10), read_from=9, offset_queries=True).tail.read_from == 0
