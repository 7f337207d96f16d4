"""Tests for the TinyLM transformer: forward, KV cache, heads, training."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.models import autograd as ag
from repro.models.adam import Adam, FlatParams
from repro.models.autograd import Tensor, no_grad
from repro.models.sampler import generate
from repro.models.tinylm import KVStore, Layout, TinyLM, TinyLMConfig, key_width
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
#: dims 4, 8 and 16, long enough for every canonical key width, and a model
#: of head dim 2 whose MLP and vocabulary widths are not multiples of 8.
CANONICAL_PROBES = [
    TinyLMConfig(n_layers=2, hidden_size=16, n_heads=4, ffn_hidden_size=32,
                 vocab_size=16, max_seq_len=128),
    TinyLMConfig(n_layers=2, hidden_size=32, n_heads=4, ffn_hidden_size=48,
                 vocab_size=32, max_seq_len=128),
    TinyLMConfig(n_layers=1, hidden_size=64, n_heads=4, ffn_hidden_size=128,
                 vocab_size=64, max_seq_len=128),
    TinyLMConfig(n_layers=2, hidden_size=16, n_heads=8, ffn_hidden_size=27,
                 vocab_size=11, max_seq_len=128),
]
PROBE_MODELS = {
    (which, head): TinyLM(dataclasses.replace(cfg, output_head=head), seed=which)
    for which, cfg in enumerate(CANONICAL_PROBES)
    for head in ("lm", "scalar")
}
LAYOUT_KINDS = ("dense", "ragged", "grpo", "tail", "cached")


def _decoded_alone(model, length, beside, seed):
    """The cached layout: a row's new tokens decoded beside other rows —
    a filler that sets every key width from its own up to 128, a crowd of
    rows of other cached lengths — are the row decoded alone."""
    cfg = model.config
    t = 1 + seed % 4  # its new tokens
    cached = min(length, cfg.max_seq_len - t)
    rng = np.random.default_rng(seed)
    row = rng.integers(0, cfg.vocab_size, size=cached + t)
    others = [rng.integers(0, cfg.vocab_size, size=min(n, cfg.max_seq_len - t) + 1) for n in beside]
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


def a_row_is_the_row_alone(which, head, kind, length, beside, prompt, seed):
    """The one forward layout's property: in any layout — ``kind`` of
    :data:`LAYOUT_KINDS`, beside rows of lengths ``beside``, a GRPO group
    sharing a prompt or a tail from it on — each row's outputs are the plain
    forward of that row alone, bit for bit, 0 past its real tokens, and the
    layout's parameter gradients are the sum of the rows' alone, to
    rounding (weight GEMMs reduce over other token rows).  Returns the
    layout's row lengths, prompt length and output."""
    model = PROBE_MODELS[which, head]
    if kind == "cached":
        return _decoded_alone(model, length, beside, seed)
    cfg, lm = model.config, head == "lm"
    rng = np.random.default_rng(seed)
    lengths = np.array([length] + beside if kind != "dense" else [length] * (1 + len(beside)))
    lengths = np.maximum(lengths, 1 + lm)[rng.permutation(len(lengths))]
    b, t = len(lengths), int(lengths.max())
    ids = rng.integers(0, cfg.vocab_size, size=(b, t))
    prompt = min(prompt, t) if kind in ("grpo", "tail") else 0  # rows hold their prompt
    if kind == "grpo":  # rows of a group share its first row's prompt
        group = rng.integers(0, 2, size=b)
        ids[:, :prompt] = ids[np.argmax(group[:, None] == group, axis=0)][:, :prompt]
    layout = None if kind == "dense" else Layout(lengths, prompt)
    forward = model.token_log_probs if lm else model.values
    read_from = max(prompt - 1, 0)
    returns = np.maximum(lengths - lm - read_from, 0)
    real = np.arange(t - lm - read_from) < returns[:, None]
    probe = rng.normal(size=real.shape) * real
    model.zero_grad()
    out = forward(ids, layout)
    (out * Tensor(probe)).sum().backward()
    grads = {name: p.grad.copy() for name, p in model.params.items()}
    summed = {name: np.zeros_like(g) for name, g in grads.items()}
    assert not out.data[~real].any()
    for i, n in enumerate(lengths):
        model.zero_grad()
        alone = forward(ids[i : i + 1, :n])
        assert np.array_equal(out.data[i, : returns[i]], alone.data[0, read_from:]), i
        weights = np.zeros(alone.shape)
        weights[0, read_from:] = probe[i, : returns[i]]
        (alone * Tensor(weights)).sum().backward()
        for name, p in model.params.items():
            if p.grad is not None:
                summed[name] += p.grad
    for name, want in summed.items():
        scale = np.abs(want).max()
        assert np.abs(grads[name] - want).max() <= 1e-12 * scale, name
    return lengths, prompt, out


#: tiny streams: a row of one to three tokens alone, beside others and in a
#: group (an LM row of two tokens predicts one)
TINY = [
    dict(which=which, head=head, kind=kind, length=length, beside=beside, prompt=1, seed=0)
    for which in (0, 3)
    for head in ("lm", "scalar")
    for kind, beside in (("dense", []), ("ragged", [1, 3]), ("grpo", [2, 3]), ("tail", [3]))
    for length in (1, 2, 3)
]


def _tiny(test):
    for case in TINY:
        test = example(**case)(test)
    return test


class TestOneCoreAtACanonicalWidth:
    """Every forward's one layout (``repro.models.autograd.Stream``): its
    tokens one 2-D stream of whole tiles, one attention core over every row
    at the canonical key width of its longest — so a row is the same at
    every width up to 128 and in every batch, on every BLAS kernel CI runs
    (docs/PERF.md, "One forward layout")."""

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(
        which=st.sampled_from(range(len(CANONICAL_PROBES))),
        head=st.sampled_from(["lm", "scalar"]),
        kind=st.sampled_from(LAYOUT_KINDS),
        length=st.integers(1, 127),  # the row's tokens (cached, when cached)
        beside=st.lists(st.integers(1, 120), max_size=5),  # rows beside it
        prompt=st.integers(1, 24),
        seed=st.integers(0, 2**16),
    )
    @_tiny
    def test_a_row_is_the_same_at_every_width_and_in_every_batch(
        self, which, head, kind, length, beside, prompt, seed
    ):
        a_row_is_the_row_alone(which, head, kind, length, beside, prompt, seed)

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


#: each layout family: the one property's draws with the family fixed
_DRAWS = dict(
    which=st.sampled_from(range(len(CANONICAL_PROBES))),
    head=st.sampled_from(["lm", "scalar"]),
    beside=st.lists(st.integers(1, 48), max_size=5),
    prompt=st.integers(1, 24),
    seed=st.integers(0, 2**16),
)


class TestPackedForwardIsThePaddedForward:
    """EOS-ragged rows compute their real tokens only, each the row alone."""

    @pytest.mark.parametrize("residue", range(8))
    @settings(derandomize=True, max_examples=6, deadline=None)
    @given(tiles=st.integers(0, 5), **_DRAWS)
    def test_packed_is_padded(self, residue, tiles, which, head, beside, prompt, seed):
        length = 8 * tiles + residue
        a_row_is_the_row_alone(which, head, "ragged", length, beside, prompt, seed)

    def test_only_real_tokens_enter_the_forward(self):
        lengths = np.array([3, 9, 17, 40])
        stream = ag.Stream((4, 40), lengths)
        assert stream.n == lengths.sum() == 69
        assert len(stream.index) == 72  # whole tiles: the first 3 repeat
        assert np.array_equal(stream.index[69:], stream.index[:3])
        # one core over every row: keys at 40, queries in blocks of 40 from
        # position 0 in every row, run as a causal staircase — the longest
        # row first, each block of 16 slots over the rows with queries there
        # at the width its last query reads, under one mask per block
        assert stream.width == stream.height == 40
        assert [(r, lo, hi, w) for r, lo, hi, w, _ in stream.blocks] == [
            (4, 0, 16, 16), (2, 16, 32, 32), (1, 32, 40, 40)]
        assert [mask.shape for *_, mask in stream.blocks] == [
            (1, 1, 16, 16), (1, 1, 16, 32), (1, 1, 8, 40)]
        assert np.array_equal(stream.slots[:3], 3 * 40 + np.arange(3))  # row 0 is core row 3

    def test_lengths_pack_whole_rows_only(self, model, config):
        with pytest.raises(ValueError, match="layout"):
            model.forward(
                tokens(config, seq=4),
                cache=KVStore(config, 2),
                layout=Layout(np.array([2, 4])),
            )


class TestSharedPromptIsComputedOnce:
    """Rows that share their prompt (a GRPO group) compute it once, in the
    first such row; each row is still the row alone."""

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(length=st.integers(2, 48), **_DRAWS)
    def test_shared_prefix_is_the_dense_forward(self, length, which, head, beside, prompt, seed):
        a_row_is_the_row_alone(which, head, "grpo", length, beside, prompt, seed)

    def test_each_prompt_enters_the_stream_once(self):
        # two groups of three rows, prompt of 5; the LM trunk shares 4
        # positions, so each row still predicts its own first response token
        ids = np.repeat(np.arange(12).reshape(2, 6), 3, axis=0)
        ids[:, 5] = np.arange(6)
        leaders = np.array([0, 0, 0, 3, 3, 3])
        stream = ag.Stream((6, 6), np.array([6, 6, 5, 6, 4, 6]), leaders, 4)
        assert stream.n == 33 - 4 * 4
        # each follower's first 4 key positions read its leader's tokens
        row, pos = np.divmod(stream.keys.at, stream.width)
        read = stream.index[stream.keys.src]
        assert np.array_equal(read % 6, pos)
        assert np.array_equal(read // 6, np.where(pos < 4, leaders[row], row))
        # no two rows share: every row computes every token
        assert ag.Stream((6, 6), np.array([6, 6, 5, 6, 4, 6])).n == 33


class TestOnlyReadPositionsAreComputed:
    """A tail from ``prompt_length - 1`` on: the last layer's queries, MLP
    and head run at the returned positions only; each is the row alone."""

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(length=st.integers(2, 48), **_DRAWS)
    def test_tail_is_the_full_forward(self, length, which, head, beside, prompt, seed):
        mlp_tokens = []
        swiglu_mlp = ag.swiglu_mlp

        def spy(x, *args, **kwargs):
            mlp_tokens.append(len(x.data))
            return swiglu_mlp(x, *args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ag, "swiglu_mlp", spy)
            lengths, prompt, out = a_row_is_the_row_alone(
                which, head, "tail", length, beside, prompt, seed
            )
        lm = head == "lm"
        returned = np.maximum(lengths - lm - max(prompt - 1, 0), 0).sum()
        # the layout's last layer, before the rows alone
        n_layers = CANONICAL_PROBES[which].n_layers
        assert mlp_tokens[n_layers - 1] == -(-returned // 4) * 4
