"""Tests for DataBatch and the synthetic datasets."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data import DataBatch, PromptDataset, SyntheticPreferenceTask


class TestDataBatch:
    def make(self, n=8):
        return DataBatch(
            {
                "prompts": np.arange(n * 3).reshape(n, 3),
                "scores": np.arange(n, dtype=float),
            },
            meta={"prompt_length": 3},
        )

    def test_batch_size_and_columns(self):
        b = self.make()
        assert len(b) == 8
        assert "prompts" in b and "missing" not in b
        with pytest.raises(KeyError, match="no column"):
            b["missing"]

    def test_rejects_mismatched_batch(self):
        b = self.make()
        with pytest.raises(ValueError, match="batch"):
            b["bad"] = np.zeros(5)

    def test_rejects_scalar_column(self):
        b = self.make()
        with pytest.raises(ValueError):
            b["bad"] = np.float64(3.0)

    def test_chunk_concat_roundtrip(self):
        b = self.make()
        parts = b.chunk(4)
        assert all(len(p) == 2 for p in parts)
        rebuilt = DataBatch.concat(parts)
        np.testing.assert_array_equal(rebuilt["prompts"], b["prompts"])
        assert rebuilt.meta["prompt_length"] == 3

    def test_chunk_indivisible_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            self.make().chunk(3)

    def test_concat_mismatched_columns_rejected(self):
        a = DataBatch({"x": np.zeros(2)})
        b = DataBatch({"y": np.zeros(2)})
        with pytest.raises(ValueError, match="mismatch"):
            DataBatch.concat([a, b])

    def test_union_merges_and_detects_conflicts(self):
        b = self.make()
        extra = DataBatch({"values": np.ones(8)})
        merged = b.union(extra)
        assert set(merged.keys()) == {"prompts", "scores", "values"}
        conflicting = DataBatch({"scores": np.zeros(8)})
        with pytest.raises(ValueError, match="conflict"):
            b.union(conflicting)

    def test_union_allows_identical_overlap(self):
        b = self.make()
        same = DataBatch({"scores": b["scores"].copy()})
        assert "scores" in b.union(same)

    def test_select(self):
        sel = self.make().select(["scores"])
        assert list(sel.keys()) == ["scores"]
        assert sel.meta["prompt_length"] == 3

    def test_repeat_interleaves_rows(self):
        b = DataBatch({"x": np.array([1, 2])})
        r = b.repeat(3)
        np.testing.assert_array_equal(r["x"], [1, 1, 1, 2, 2, 2])

    def test_shuffle_is_permutation(self):
        b = self.make()
        s = b.shuffle(np.random.default_rng(0))
        assert sorted(s["scores"]) == sorted(b["scores"])

    def test_copy_is_deep(self):
        b = self.make()
        c = b.copy()
        c["scores"][0] = 99
        assert b["scores"][0] == 0

    def test_empty_batch_has_no_size(self):
        with pytest.raises(ValueError):
            DataBatch().batch_size

    @settings(max_examples=20, deadline=None)
    @given(n_chunks=st.sampled_from([1, 2, 4, 8]), seed=st.integers(0, 50))
    def test_chunk_concat_identity_property(self, n_chunks, seed):
        rng = np.random.default_rng(seed)
        b = DataBatch({"x": rng.normal(size=(8, 2)), "y": rng.integers(0, 5, 8)})
        rebuilt = DataBatch.concat(b.chunk(n_chunks))
        np.testing.assert_array_equal(rebuilt["x"], b["x"])
        np.testing.assert_array_equal(rebuilt["y"], b["y"])


class TestPromptDataset:
    def test_deterministic_by_seed(self):
        a = PromptDataset(10, 4, 16, seed=3)
        b = PromptDataset(10, 4, 16, seed=3)
        np.testing.assert_array_equal(a.prompts, b.prompts)

    def test_tokens_in_vocab(self):
        ds = PromptDataset(10, 4, 16)
        assert ds.prompts.min() >= 0 and ds.prompts.max() < 16

    def test_batching(self):
        ds = PromptDataset(10, 4, 16)
        batch = ds.batch(2, 3)
        assert batch["prompts"].shape == (3, 4)
        with pytest.raises(IndexError):
            ds.batch(8, 3)

    def test_iter_batches_drops_remainder(self):
        ds = PromptDataset(10, 4, 16)
        batches = list(ds.iter_batches(3))
        assert len(batches) == 3

    def test_iter_batches_skip_is_the_tail_of_the_stream(self):
        ds = PromptDataset(10, 4, 16)
        whole = [b["prompts"] for b in ds.iter_batches(3, epochs=3)]
        for skip in (0, 2, 3, 7, 9, 12):  # mid-epoch, on and across boundaries, past the end
            tail = [b["prompts"] for b in ds.iter_batches(3, epochs=3, skip=skip)]
            assert len(tail) == len(whole[skip:])
            for got, want in zip(tail, whole[skip:]):
                np.testing.assert_array_equal(got, want)
        with pytest.raises(ValueError, match="skip"):
            next(ds.iter_batches(3, skip=-1))

    def test_validation(self):
        with pytest.raises(ValueError):
            PromptDataset(0, 4, 16)
        with pytest.raises(ValueError):
            PromptDataset(4, 4, 1)


class TestSyntheticPreferenceTask:
    def test_reward_is_target_fraction(self):
        task = SyntheticPreferenceTask(vocab_size=8, target_token=2)
        responses = np.array([[2, 2, 0, 0], [2, 2, 2, 2]])
        np.testing.assert_allclose(task.reward(responses), [0.5, 1.0])

    def test_cost_counts_unsafe(self):
        task = SyntheticPreferenceTask(vocab_size=8, unsafe_token=3)
        responses = np.array([[3, 3, 3, 0]])
        np.testing.assert_allclose(task.cost(responses), [0.75])

    def test_token_level_reward_sums_to_sample_reward(self):
        task = SyntheticPreferenceTask(vocab_size=8, target_token=1)
        responses = np.array([[1, 0, 1, 1]])
        np.testing.assert_allclose(
            task.token_level_reward(responses).sum(axis=-1),
            task.reward(responses),
        )

    def test_rejects_tokens_outside_vocab(self):
        with pytest.raises(ValueError):
            SyntheticPreferenceTask(vocab_size=4, target_token=9)
