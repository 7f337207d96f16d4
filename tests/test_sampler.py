"""Tests for sampling and auto-regressive generation."""

import numpy as np
import pytest

from repro.models.sampler import (
    GenerationOutput,
    MicroBatch,
    generate,
    sample_tokens,
    sample_tokens_batch,
)
from repro.models.tinylm import TinyLM, TinyLMConfig
from tests.oracles import generate_reference, sample_tokens_reference


@pytest.fixture
def model():
    return TinyLM(
        TinyLMConfig(
            n_layers=2,
            hidden_size=16,
            n_heads=2,
            ffn_hidden_size=24,
            vocab_size=13,
            max_seq_len=24,
        ),
        seed=4,
    )


class TestSampleTokens:
    def test_greedy_is_argmax(self):
        logits = np.array([[0.0, 5.0, 1.0], [9.0, 0.0, 0.0]])
        out = sample_tokens(logits, np.random.default_rng(0), greedy=True)
        np.testing.assert_array_equal(out, [1, 0])

    def test_sampling_respects_distribution(self):
        logits = np.array([[10.0, -10.0, -10.0]])
        rng = np.random.default_rng(0)
        draws = [sample_tokens(logits, rng)[0] for _ in range(50)]
        assert all(d == 0 for d in draws)

    def test_low_temperature_approaches_greedy(self):
        rng = np.random.default_rng(0)
        logits = np.array([[1.0, 2.0, 0.5]])
        draws = {
            sample_tokens(logits, rng, temperature=0.01)[0] for _ in range(20)
        }
        assert draws == {1}

    def test_temperature_must_be_positive(self):
        with pytest.raises(ValueError):
            sample_tokens(np.zeros((1, 3)), np.random.default_rng(0), temperature=0)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            sample_tokens(np.zeros(3), np.random.default_rng(0))


class TestGenerate:
    def test_output_shapes(self, model):
        prompts = np.zeros((3, 4), dtype=int)
        out = generate(model, prompts, max_new_tokens=5, rng=np.random.default_rng(1))
        assert isinstance(out, GenerationOutput)
        assert out.sequences.shape == (3, 9)
        assert out.responses.shape == (3, 5)
        assert out.response_log_probs.shape == (3, 5)
        assert out.prompt_length == 4
        assert out.kv_cache_bytes > 0

    def test_prompt_preserved(self, model):
        rng = np.random.default_rng(2)
        prompts = rng.integers(0, 13, size=(2, 5))
        out = generate(model, prompts, max_new_tokens=3, rng=rng)
        np.testing.assert_array_equal(out.sequences[:, :5], prompts)

    def test_deterministic_by_seed(self, model):
        prompts = np.ones((2, 4), dtype=int)
        a = generate(model, prompts, 6, rng=np.random.default_rng(7))
        b = generate(model, prompts, 6, rng=np.random.default_rng(7))
        np.testing.assert_array_equal(a.sequences, b.sequences)

    def test_greedy_is_deterministic_without_rng(self, model):
        prompts = np.ones((2, 4), dtype=int)
        a = generate(model, prompts, 6, greedy=True, rng=np.random.default_rng(1))
        b = generate(model, prompts, 6, greedy=True, rng=np.random.default_rng(2))
        np.testing.assert_array_equal(a.sequences, b.sequences)

    def test_log_probs_match_model(self, model):
        """The sampling log-prob of each generated token must equal the
        model's own log-prob of that token given the prefix."""
        prompts = np.ones((2, 3), dtype=int)
        out = generate(model, prompts, 4, rng=np.random.default_rng(3))
        logp = model.token_log_probs(out.sequences).data
        np.testing.assert_allclose(
            out.response_log_probs, logp[:, out.prompt_length - 1 :], atol=1e-9
        )

    def test_requires_lm_head(self):
        critic = TinyLM(
            TinyLMConfig(
                n_layers=1,
                hidden_size=8,
                n_heads=2,
                ffn_hidden_size=8,
                vocab_size=5,
                max_seq_len=8,
                output_head="scalar",
            )
        )
        with pytest.raises(RuntimeError):
            generate(critic, np.zeros((1, 2), dtype=int), 2)

    def test_validates_arguments(self, model):
        with pytest.raises(ValueError):
            generate(model, np.zeros(4, dtype=int), 2)
        with pytest.raises(ValueError):
            generate(model, np.zeros((1, 2), dtype=int), 0)


class TestEosTermination:
    def test_mask_marks_eos_and_padding(self, model):
        prompts = np.ones((4, 4), dtype=int)
        out = generate(
            model,
            prompts,
            max_new_tokens=8,
            rng=np.random.default_rng(11),
            eos_token_id=2,
        )
        assert out.response_mask is not None
        assert out.response_mask.shape == out.responses.shape
        for row, mask in zip(out.responses, out.response_mask):
            n = int(mask.sum())
            assert n >= 1
            # contiguous ones then zeros; EOS (if hit) is the last real token
            np.testing.assert_array_equal(
                mask, ([1.0] * n + [0.0] * (8 - n))
            )
            if n < 8:
                assert row[n - 1] == 2
                assert not (row[:n - 1] == 2).any()

    def test_padding_uses_pad_token_and_zero_logp(self, model):
        prompts = np.ones((4, 4), dtype=int)
        out = generate(
            model,
            prompts,
            max_new_tokens=8,
            rng=np.random.default_rng(11),
            eos_token_id=2,
            pad_token_id=0,
        )
        dead = out.response_mask == 0.0
        assert (out.responses[dead] == 0).all()
        assert (out.response_log_probs[dead] == 0.0).all()

    def test_response_lengths_property(self, model):
        prompts = np.ones((3, 4), dtype=int)
        out = generate(
            model,
            prompts,
            max_new_tokens=6,
            rng=np.random.default_rng(12),
            eos_token_id=2,
        )
        np.testing.assert_array_equal(
            out.response_lengths, out.response_mask.sum(axis=1).astype(int)
        )

    def test_no_eos_is_bit_identical_to_legacy_path(self, model):
        # The EOS machinery consumes rng draws in lock-step for finished
        # rows, so running without an EOS token must match the historical
        # output exactly — and carry no mask.
        prompts = np.ones((3, 4), dtype=int)
        legacy = generate(model, prompts, 6, rng=np.random.default_rng(13))
        out = generate(model, prompts, 6, rng=np.random.default_rng(13))
        np.testing.assert_array_equal(legacy.sequences, out.sequences)
        assert out.response_mask is None

    def test_live_rows_unaffected_by_others_finishing(self, model):
        # Greedy decode: a row's tokens before its own EOS must be identical
        # with and without EOS termination enabled (row independence).
        prompts = np.arange(12, dtype=int).reshape(3, 4) % 13
        plain = generate(model, prompts, 8, greedy=True,
                         rng=np.random.default_rng(0))
        eos = generate(model, prompts, 8, greedy=True,
                       rng=np.random.default_rng(0), eos_token_id=2)
        for row in range(3):
            n = int(eos.response_mask[row].sum())
            np.testing.assert_array_equal(
                eos.responses[row, :n], plain.responses[row, :n]
            )

    def test_eos_must_be_in_vocab(self, model):
        with pytest.raises(ValueError):
            generate(
                model, np.ones((1, 2), dtype=int), 2, eos_token_id=13
            )


class TestVectorizedBitExactness:
    """Golden tests: the vectorized sampler vs the historical per-row loop.

    ``sample_tokens`` replaced a per-row ``rng.choice`` loop with one batched
    inverse-CDF pass; these tests pin that the replacement is bit-exact —
    same tokens AND same rng stream consumption — across temperatures,
    shapes, greedy mode, and full EOS/pad generation.
    """

    @pytest.mark.parametrize("temperature", [0.3, 0.7, 1.0, 2.5])
    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_matches_reference_across_temperatures(self, temperature, seed):
        logits = np.random.default_rng(seed).normal(size=(16, 29)) * 3.0
        new = sample_tokens(
            logits, np.random.default_rng(seed), temperature=temperature
        )
        old = sample_tokens_reference(
            logits, np.random.default_rng(seed), temperature=temperature
        )
        np.testing.assert_array_equal(new, old)

    def test_rng_stream_stays_in_lockstep(self):
        # After sampling, both generators must sit at the same stream
        # position: their next draws are identical.
        logits = np.random.default_rng(3).normal(size=(8, 13))
        rng_new = np.random.default_rng(42)
        rng_old = np.random.default_rng(42)
        sample_tokens(logits, rng_new)
        sample_tokens_reference(logits, rng_old)
        np.testing.assert_array_equal(rng_new.random(5), rng_old.random(5))

    def test_greedy_matches_reference(self):
        logits = np.random.default_rng(9).normal(size=(6, 11))
        new = sample_tokens(logits, np.random.default_rng(0), greedy=True)
        old = sample_tokens_reference(
            logits, np.random.default_rng(0), greedy=True
        )
        np.testing.assert_array_equal(new, old)

    def test_single_row_batch(self):
        logits = np.random.default_rng(5).normal(size=(1, 13))
        new = sample_tokens(logits, np.random.default_rng(11))
        old = sample_tokens_reference(logits, np.random.default_rng(11))
        np.testing.assert_array_equal(new, old)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(eos_token_id=2, pad_token_id=0),
            dict(temperature=0.7),
            dict(greedy=True, eos_token_id=2),
        ],
    )
    def test_generate_bit_identical_to_reference_loop(self, model, kwargs):
        # Full EOS/pad generation through ``decode_step`` must equal the
        # historical loop (per-row sampler, its own log-softmax, one
        # concatenate per column) token for token and draw for draw.
        prompts = np.arange(12, dtype=int).reshape(3, 4) % 13
        rng_new, rng_old = np.random.default_rng(21), np.random.default_rng(21)
        new = generate(model, prompts, 8, rng=rng_new, **kwargs)
        sequences, log_probs, mask = generate_reference(
            model, prompts, 8, rng=rng_old, **kwargs
        )
        np.testing.assert_array_equal(new.sequences, sequences)
        np.testing.assert_array_equal(new.response_log_probs, log_probs)
        if mask is None:
            assert new.response_mask is None
            np.testing.assert_array_equal(rng_new.random(3), rng_old.random(3))
        else:
            np.testing.assert_array_equal(new.response_mask, mask)

    def test_early_exit_leaves_padding_and_zero_mask(self, model):
        # Once every row has emitted EOS the loop stops running the model;
        # the columns it never reached must read as padding, not as tokens.
        prompts = np.arange(12, dtype=int).reshape(3, 4) % 13
        exited_early = 0
        for eos in range(13):
            out = generate(
                model, prompts, 20, rng=np.random.default_rng(eos),
                eos_token_id=eos, pad_token_id=0,
            )
            sequences, log_probs, mask = generate_reference(
                model, prompts, 20, rng=np.random.default_rng(eos),
                eos_token_id=eos, pad_token_id=0,
            )
            np.testing.assert_array_equal(out.sequences, sequences)
            np.testing.assert_array_equal(out.response_log_probs, log_probs)
            np.testing.assert_array_equal(out.response_mask, mask)
            exited_early += int(out.response_lengths.max() < 19)
        assert exited_early  # the property was exercised


class TestARoundOfMicroBatches:
    """Micro-batches decoded together: each gets what it gets alone."""

    @pytest.mark.parametrize("seed", range(8))
    def test_each_micro_batch_is_its_own_loop(self, model, seed):
        draw = np.random.default_rng(seed)
        sizes = draw.integers(1, 5, size=draw.integers(2, 5))
        prompts = [draw.integers(0, 13, size=(n, 3)) for n in sizes]
        # EOS (or not) and greedy (or not): micro-batches exit at their own steps
        kwargs = dict(
            eos_token_id=None if seed % 3 == 0 else int(draw.integers(0, 13)),
            greedy=seed % 4 == 1,
            temperature=(0.7, 1.0, 1.6)[seed % 3],
        )
        rngs = [np.random.default_rng((seed, i)) for i in range(len(sizes))]
        outs = generate(model, [MicroBatch(p, r) for p, r in zip(prompts, rngs)], 9, **kwargs)
        for i, (p, out) in enumerate(zip(prompts, outs)):
            alone_rng = np.random.default_rng((seed, i))
            alone = generate(model, p, 9, rng=alone_rng, **kwargs)
            assert np.array_equal(out.sequences, alone.sequences)
            assert np.array_equal(out.response_log_probs, alone.response_log_probs)
            if alone.response_mask is not None:
                assert np.array_equal(out.response_mask, alone.response_mask)
            assert out.kv_cache_bytes == alone.kv_cache_bytes
            assert rngs[i].bit_generator.state == alone_rng.bit_generator.state

    def test_rejects_what_no_round_could_decode(self, model):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="own rngs"):
            generate(model, [MicroBatch(np.zeros((1, 2), int), rng)], 2, rng=rng)
        with pytest.raises(ValueError, match="one prompt length"):
            generate(
                model,
                [MicroBatch(np.zeros((1, 2), int), rng), MicroBatch(np.zeros((1, 3), int), rng)],
                2,
            )


class TestSampleTokensBatch:
    """Per-row rng streams for the serving engine's batched decode."""

    def test_equals_per_row_independent_sampling(self):
        logits = np.random.default_rng(2).normal(size=(5, 17))
        rngs = [np.random.default_rng(100 + i) for i in range(5)]
        batched = sample_tokens_batch(logits, rngs, temperature=0.8)
        singles = [
            sample_tokens(
                logits[i : i + 1], np.random.default_rng(100 + i),
                temperature=0.8,
            )[0]
            for i in range(5)
        ]
        np.testing.assert_array_equal(batched, singles)

    def test_each_rng_consumes_exactly_one_draw(self):
        logits = np.random.default_rng(4).normal(size=(3, 7))
        rngs = [np.random.default_rng(i) for i in range(3)]
        controls = [np.random.default_rng(i) for i in range(3)]
        sample_tokens_batch(logits, rngs)
        for rng, control in zip(rngs, controls):
            control.random()  # one scalar uniform per row
            assert rng.random() == control.random()

    def test_greedy_ignores_rngs(self):
        logits = np.array([[0.0, 5.0, 1.0], [9.0, 0.0, 0.0]])
        rngs = [np.random.default_rng(0), np.random.default_rng(1)]
        out = sample_tokens_batch(logits, rngs, greedy=True)
        np.testing.assert_array_equal(out, [1, 0])
        assert rngs[0].random() == np.random.default_rng(0).random()

    def test_rng_count_must_match_rows(self):
        with pytest.raises(ValueError):
            sample_tokens_batch(
                np.zeros((3, 5)), [np.random.default_rng(0)] * 2
            )
