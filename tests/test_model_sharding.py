"""Tests for TinyLM parameter sharding (TP/PP rectangles and flat shards)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.models.sharding import (
    flat_shard_params,
    gather_flat_shards,
    gather_full_params,
    layer_of,
    merge_tp_shards,
    param_partition,
    pp_stage_of,
    shard_nbytes,
    shard_params,
    stage_layers,
)
from repro.models.tinylm import TinyLM, TinyLMConfig


@pytest.fixture
def state():
    cfg = TinyLMConfig(
        n_layers=4,
        hidden_size=16,
        n_heads=4,
        ffn_hidden_size=32,
        vocab_size=16,
        max_seq_len=8,
    )
    return TinyLM(cfg, seed=5).state_dict(), cfg


class TestPartitionSpec:
    def test_column_parallel_axes(self):
        assert param_partition("layers.0.attn.wq") == 1
        assert param_partition("layers.3.mlp.w_up") == 1
        assert param_partition("lm_head.weight") == 1

    def test_row_parallel_axes(self):
        assert param_partition("layers.0.attn.wo") == 0
        assert param_partition("layers.2.mlp.w_down") == 0

    def test_replicated(self):
        assert param_partition("layers.1.attn_norm.weight") is None
        assert param_partition("final_norm.weight") is None
        assert param_partition("pos_embed.weight") is None
        assert param_partition("value_head.weight") is None

    def test_unknown_param_raises(self):
        with pytest.raises(KeyError):
            param_partition("mystery.weight")

    def test_layer_extraction(self):
        assert layer_of("layers.2.attn.wq") == 2
        assert layer_of("embed.weight") is None

    def test_stage_assignment(self):
        assert pp_stage_of("embed.weight", 4, 2) == 0
        assert pp_stage_of("lm_head.weight", 4, 2) == 1
        assert pp_stage_of("layers.0.attn.wq", 4, 2) == 0
        assert pp_stage_of("layers.3.attn.wq", 4, 2) == 1

    def test_stage_layers(self):
        assert list(stage_layers(4, 2, 0)) == [0, 1]
        assert list(stage_layers(4, 2, 1)) == [2, 3]
        with pytest.raises(ValueError):
            stage_layers(5, 2, 0)


class TestShardGather:
    @pytest.mark.parametrize("tp,pp", [(1, 1), (2, 1), (4, 1), (1, 2), (2, 2), (4, 4)])
    def test_roundtrip_bit_exact(self, state, tp, pp):
        full, cfg = state
        shards = {
            (p, t): shard_params(full, t, tp, p, pp, cfg.n_layers)
            for p in range(pp)
            for t in range(tp)
        }
        rebuilt = gather_full_params(shards, tp_size=tp, pp_size=pp)
        assert set(rebuilt) == set(full)
        for name in full:
            np.testing.assert_array_equal(rebuilt[name], full[name])

    def test_pp_partitions_are_disjoint_per_layer_param(self, state):
        full, cfg = state
        s0 = shard_params(full, 0, 1, 0, 2, cfg.n_layers)
        s1 = shard_params(full, 0, 1, 1, 2, cfg.n_layers)
        layer_names0 = {n for n in s0 if layer_of(n) is not None}
        layer_names1 = {n for n in s1 if layer_of(n) is not None}
        assert not layer_names0 & layer_names1
        assert "embed.weight" in s0 and "embed.weight" not in s1
        assert "lm_head.weight" in s1 and "lm_head.weight" not in s0

    def test_tp_shards_split_bytes_for_split_params(self, state):
        full, cfg = state
        s = shard_params(full, 0, 4)
        assert s["layers.0.attn.wq"].shape == (16, 4)
        assert s["layers.0.attn.wo"].shape == (4, 16)
        assert s["layers.0.attn_norm.weight"].shape == (16,)  # replicated

    def test_invalid_ranks_rejected(self, state):
        full, cfg = state
        with pytest.raises(ValueError):
            shard_params(full, 2, 2)
        with pytest.raises(ValueError):
            shard_params(full, 0, 1, 1, 2)  # pp>1 without n_layers

    def test_gather_requires_all_shards(self, state):
        full, cfg = state
        shards = {(0, 0): shard_params(full, 0, 2)}
        with pytest.raises(ValueError, match="all"):
            gather_full_params(shards, tp_size=2)

    def test_indivisible_tp_rejected(self, state):
        full, cfg = state
        with pytest.raises(ValueError, match="divisible"):
            shard_params(full, 0, 3)


class TestMergeTpShards:
    def test_merging_two_tp_shards_halves_the_split(self, state):
        full, cfg = state
        quarters = [shard_params(full, t, 4) for t in range(4)]
        left = merge_tp_shards(quarters[:2])
        expected = shard_params(full, 0, 2)
        assert set(left) == set(expected)
        for name in expected:
            np.testing.assert_array_equal(left[name], expected[name])

    def test_pieces_of_several_pp_stages_merge_into_one_shard(self, state):
        """The engine's case: 4 PP stages x 4 TP ranks hold the tiles of the
        generation shard (pp 2 of 2, tp 1 of 2), handed over in (pp, tp) order."""
        full, cfg = state
        tiles = [
            shard_params(full, t, 4, p, 4, cfg.n_layers)
            for p in (2, 3)
            for t in (2, 3)
        ]
        merged = merge_tp_shards(tiles)
        expected = shard_params(full, 1, 2, 1, 2, cfg.n_layers)
        assert set(merged) == set(expected)
        for name in expected:
            np.testing.assert_array_equal(merged[name], expected[name])

    def test_mismatched_names_rejected(self, state):
        full, cfg = state
        a = shard_params(full, 0, 2)
        b = dict(shard_params(full, 1, 2))
        del b["embed.weight"]
        with pytest.raises(ValueError, match="disagree"):
            merge_tp_shards([a, b])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            merge_tp_shards([])


class TestFlatShards:
    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(1, 7))
    def test_flat_roundtrip(self, n):
        cfg = TinyLMConfig(
            n_layers=1,
            hidden_size=8,
            n_heads=2,
            ffn_hidden_size=12,
            vocab_size=10,
            max_seq_len=8,
        )
        full = TinyLM(cfg, seed=6).state_dict()
        shapes = {k: v.shape for k, v in full.items()}
        pieces = [flat_shard_params(full, r, n) for r in range(n)]
        rebuilt = gather_flat_shards(pieces, shapes)
        for name in full:
            np.testing.assert_array_equal(rebuilt[name], full[name])

    def test_shards_are_balanced(self, state):
        full, _cfg = state
        pieces = [flat_shard_params(full, r, 3) for r in range(3)]
        sizes = [shard_nbytes(p) for p in pieces]
        assert max(sizes) - min(sizes) <= len(full) * 8  # padding only

    def test_rank_out_of_range(self, state):
        full, _ = state
        with pytest.raises(ValueError):
            flat_shard_params(full, 3, 3)
