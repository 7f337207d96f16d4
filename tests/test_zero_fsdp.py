"""Tests for ZeRO/FSDP memory and communication models, and the flat workers."""

import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ClusterSpec, ParallelConfig
from repro.data.batch import DataBatch
from repro.models.tinylm import TinyLMConfig
from repro.parallel.fsdp import FsdpConfig
from repro.parallel.zero import (
    ZeroConfig,
    ZeroStage,
    zero_grad_sync_volume,
    zero_memory_per_rank,
    zero_param_gather_volume,
)
from repro.rlhf import losses as L
from repro.single_controller import SingleController, WorkerGroup, register
from repro.workers.base import FSDPWorker, ShardedModelWorker, ZeROWorker
from tests.test_workers import assert_resident_is_the_gather

P = 1_000_000


class TestZeroMemory:
    def test_stage_progression(self):
        n = 8
        mems = [
            zero_memory_per_rank(P, ZeroConfig(stage, n)) for stage in ZeroStage
        ]
        # each stage shards more: memory strictly decreases
        assert mems[0] > mems[1] > mems[2] > mems[3]

    def test_ddp_is_16_bytes_per_param(self):
        assert zero_memory_per_rank(P, ZeroConfig(ZeroStage.DDP, 4)) == 16 * P

    def test_stage3_divides_everything(self):
        mem = zero_memory_per_rank(P, ZeroConfig(ZeroStage.PARAMETERS, 8))
        assert mem == 16 * P // 8

    def test_dp_one_is_unsharded(self):
        for stage in ZeroStage:
            assert zero_memory_per_rank(P, ZeroConfig(stage, 1)) == 16 * P

    def test_invalid_dp(self):
        with pytest.raises(ValueError):
            ZeroConfig(ZeroStage.DDP, 0)


class TestZeroComm:
    def test_param_gather_only_stage3(self):
        assert zero_param_gather_volume(P, ZeroConfig(ZeroStage.GRADIENTS, 8)) == 0
        vol = zero_param_gather_volume(P, ZeroConfig(ZeroStage.PARAMETERS, 8))
        assert vol == 7 * 2 * P // 8

    def test_grad_sync_halves_with_reduce_scatter(self):
        allreduce = zero_grad_sync_volume(P, ZeroConfig(ZeroStage.OPTIMIZER, 8))
        scatter = zero_grad_sync_volume(P, ZeroConfig(ZeroStage.GRADIENTS, 8))
        assert allreduce == 2 * scatter

    def test_single_rank_no_traffic(self):
        assert zero_grad_sync_volume(P, ZeroConfig(ZeroStage.PARAMETERS, 1)) == 0


class TestFsdp:
    def test_full_shard_equals_zero3(self):
        assert FsdpConfig(8, "full").as_zero() == ZeroConfig(ZeroStage.PARAMETERS, 8)

    def test_strategies(self):
        assert zero_memory_per_rank(P, FsdpConfig(8, "no_shard").as_zero()) == 16 * P
        grad_op = zero_memory_per_rank(P, FsdpConfig(8, "grad_op").as_zero())
        assert 16 * P // 8 < grad_op < 16 * P
        assert zero_grad_sync_volume(P, FsdpConfig(8, "full").as_zero()) > 0

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            FsdpConfig(8, "magic")


class FlatLmWorker(FSDPWorker):
    """A minimal trainable worker on the flat (FSDP) layout."""

    @register(protocol="dp_proto")
    def nll(self, batch: DataBatch):
        def compute(model):
            return {
                "nll": float(-model.token_log_probs(batch["tokens"]).mean().item())
            }

        return self.replica_forward(compute)

    @register(protocol="dp_proto")
    def train_nll(self, batch: DataBatch):
        def compute(model):
            loss = -model.token_log_probs(batch["tokens"]).mean()
            return loss, {"nll": float(loss.item())}

        return self.replica_train_step(compute)


class ZeroLmWorker(ZeROWorker, FlatLmWorker):
    pass


CFG = TinyLMConfig(
    n_layers=2,
    hidden_size=16,
    n_heads=2,
    ffn_hidden_size=24,
    vocab_size=11,
    max_seq_len=16,
)


def flat_group(worker_cls, n=2):
    controller = SingleController(ClusterSpec(n_machines=1))
    group = WorkerGroup(
        worker_cls,
        controller.create_pool(n),
        parallel_config=ParallelConfig(1, 1, n),
        controller=controller,
        name="flatlm",
        worker_kwargs={"model_config": CFG, "lr": 5e-3},
    )
    return controller, group


def token_batch(n=4, seq=8, seed=0):
    rng = np.random.default_rng(seed)
    return DataBatch({"tokens": rng.integers(0, 11, size=(n, seq))})


class TestFlatWorkers:
    @pytest.mark.parametrize("worker_cls", [FlatLmWorker, ZeroLmWorker])
    def test_forward_averages_across_ranks(self, worker_cls):
        _, group = flat_group(worker_cls)
        out = group.nll(token_batch()).get()
        assert out["nll"] > 0

    def test_training_reduces_loss_and_keeps_ranks_synced(self):
        _, group = flat_group(FlatLmWorker)
        batch = token_batch(n=4)
        losses = []
        for _ in range(15):
            losses.append(group.train_nll(batch).get()["nll"])
        assert losses[-1] < 0.6 * losses[0]
        # both ranks reconstruct the same full model
        a = group.workers[0].materialize_full_state()
        b = group.workers[1].materialize_full_state()
        for name in a:
            np.testing.assert_allclose(a[name], b[name], atol=1e-12)

    def test_flat_matches_3d_dp_training(self):
        """FSDP DP training and a single-replica run see the same gradients
        when fed the same total batch: final losses should track closely."""
        _, flat = flat_group(FlatLmWorker, n=2)
        _, solo = flat_group(FlatLmWorker, n=1)
        batch = token_batch(n=4, seed=9)
        for _ in range(5):
            m_flat = flat.train_nll(batch).get()
            m_solo = solo.train_nll(batch).get()
        assert m_flat["nll"] == pytest.approx(m_solo["nll"], rel=0.15)

    def test_shards_are_balanced_across_ranks(self):
        _, group = flat_group(FlatLmWorker, n=2)
        from repro.models.sharding import shard_nbytes

        sizes = [shard_nbytes(w.shard) for w in group.workers]
        assert abs(sizes[0] - sizes[1]) < 2000


class TestFlatResidentState:
    """On the flat layouts every rank is a replica lead holding the whole
    model resident; each writes only its own shard after the shared update."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_one_set_shard_per_rank_per_update(self, monkeypatch, n):
        _, group = flat_group(FlatLmWorker, n=n)
        group.train_nll(token_batch(n=6)).get()
        writes = []
        set_shard = ShardedModelWorker.set_shard

        def counting(worker, shard):
            writes.append(worker.ctx.local_rank)
            set_shard(worker, shard)

        monkeypatch.setattr(ShardedModelWorker, "set_shard", counting)
        group.train_nll(token_batch(n=6)).get()
        assert sorted(writes) == list(range(n))

    @settings(derandomize=True, max_examples=15, deadline=None)
    @given(
        worker_cls=st.sampled_from([FlatLmWorker, ZeroLmWorker]),
        n=st.integers(1, 3),
        actions=st.lists(
            st.tuples(
                st.sampled_from(["train", "forward", "checkpoint", "set_shard"]),
                st.integers(0, 5),
            ),
            min_size=2,
            max_size=6,
        ),
    )
    def test_resident_is_the_gather_after_every_action(self, worker_cls, n, actions):
        controller, group = flat_group(worker_cls, n=n)
        with tempfile.TemporaryDirectory() as tmp:
            for step, (action, pick) in enumerate(actions):
                batch = token_batch(n=6, seed=step)
                if action == "train":
                    group.train_nll(batch).get()
                elif action == "forward":
                    group.nll(batch).get()
                elif action == "set_shard":
                    worker = group.workers[pick % n]
                    worker.set_shard({k: 0.5 * v for k, v in worker.shard.items()})
                else:
                    controller.save_checkpoint(f"{tmp}/{step}")
                    controller.load_checkpoint(f"{tmp}/{step}")
                assert_resident_is_the_gather(group)
