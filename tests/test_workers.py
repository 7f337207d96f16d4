"""Tests for the model workers: outputs, DP semantics, training updates."""

import dataclasses
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.comm import collectives
from repro.config import ClusterSpec, GenParallelConfig, ParallelConfig
from repro.data.batch import DataBatch
from repro.data.dataset import SyntheticPreferenceTask
from repro.models import autograd as ag
from repro.models.adam import Adam
from repro.models.sharding import gather_flat_shards, gather_full_params
from repro.models.tinylm import TinyLM, TinyLMConfig
from repro.single_controller import SingleController, WorkerGroup
from repro.workers import (
    ActorWorker,
    CostWorker,
    CriticWorker,
    ReferenceWorker,
    RewardFunctionWorker,
    RewardWorker,
)

LM_CFG = TinyLMConfig(
    n_layers=2,
    hidden_size=32,
    n_heads=4,
    ffn_hidden_size=48,
    vocab_size=16,
    max_seq_len=32,
)
SCALAR_CFG = dataclasses.replace(LM_CFG, output_head="scalar")


def make_group(worker_cls, parallel, gen=None, **worker_kwargs):
    controller = SingleController(ClusterSpec(n_machines=1))
    pool = controller.create_pool(parallel.world_size)
    group = WorkerGroup(
        worker_cls,
        pool,
        parallel_config=parallel,
        gen_config=gen,
        controller=controller,
        name=worker_cls.__name__.lower(),
        worker_kwargs=worker_kwargs,
    )
    return controller, group


def actor_group(parallel=ParallelConfig(1, 2, 1), gen_tp=1, gen_pp=1, **kwargs):
    gen = GenParallelConfig.derive(parallel, gen_pp, gen_tp)
    kwargs.setdefault("model_config", LM_CFG)
    kwargs.setdefault("max_new_tokens", 5)
    return make_group(ActorWorker, parallel, gen=gen, **kwargs)


def prompts(batch=4, seq=4, seed=0):
    rng = np.random.default_rng(seed)
    return DataBatch({"prompts": rng.integers(0, 16, size=(batch, seq))})


class TestActorWorker:
    def test_generate_sequences_output(self):
        _, actor = actor_group()
        out = actor.generate_sequences(prompts()).get()
        assert out["sequences"].shape == (4, 9)
        assert out["old_log_probs"].shape == (4, 5)
        assert out.meta["prompt_length"] == 4

    def test_generation_matches_unsharded_model(self):
        """Sharded generation must produce the same result as generating
        straight from the reference single-copy model."""
        from repro.models.sampler import generate

        _, actor = actor_group(parallel=ParallelConfig(1, 2, 1))
        p = prompts()
        out = actor.generate_sequences(p).get()
        # micro_dp=2: rank 0 generates rows 0-1, rank 1 generates rows 2-3,
        # each against the same full weights with its own rng stream
        ref = TinyLM(LM_CFG, seed=0)
        for lead_rank, rows in ((0, slice(0, 2)), (1, slice(2, 4))):
            rng = np.random.default_rng((0, lead_rank, 1))
            expected = generate(
                ref, p["prompts"][rows], 5, temperature=1.0, rng=rng
            )
            np.testing.assert_array_equal(
                out["sequences"][rows], expected.sequences
            )

    def test_generation_splits_across_micro_dp(self):
        _, actor = actor_group(parallel=ParallelConfig(1, 2, 1), gen_tp=1)
        # micro_dp = 2: two generation replicas each take half the batch
        out = actor.generate_sequences(prompts(batch=4)).get()
        assert out["sequences"].shape[0] == 4

    def test_greedy_generation_is_reproducible(self):
        _, actor = actor_group()
        a = actor.generate_sequences(prompts(), do_sample=False).get()
        b = actor.generate_sequences(prompts(), do_sample=False).get()
        np.testing.assert_array_equal(a["sequences"], b["sequences"])

    def test_compute_log_prob_matches_generation(self):
        _, actor = actor_group()
        out = actor.generate_sequences(prompts()).get()
        logp = actor.compute_log_prob(out).get()
        np.testing.assert_allclose(
            logp["log_probs"], out["old_log_probs"], atol=1e-9
        )

    def test_update_actor_changes_weights(self):
        _, actor = actor_group()
        before = {
            k: v.copy() for k, v in actor.workers[0].shard.items()
        }
        out = actor.generate_sequences(prompts()).get()
        out = out.union(actor.compute_log_prob(out).get())
        batch = out.union(
            DataBatch(
                {"advantages": np.ones((4, 5))},
                meta=out.meta,
            )
        )
        metrics = actor.update_actor(batch, loss_func="ppo").get()
        assert "policy_loss" in metrics
        changed = any(
            not np.array_equal(before[k], actor.workers[0].shard[k])
            for k in before
        )
        assert changed

    def test_all_ranks_stay_consistent_after_update(self):
        """After an update, re-gathered weights are identical across DP
        replicas (data parallelism really synchronised)."""
        _, actor = actor_group(parallel=ParallelConfig(1, 2, 2))
        out = actor.generate_sequences(prompts(batch=4)).get()
        out = out.union(actor.compute_log_prob(out).get())
        batch = out.union(
            DataBatch({"advantages": np.ones((4, 5))}, meta=out.meta)
        )
        actor.update_actor(batch, loss_func="ppo").get()
        replica0 = actor.workers[0].materialize_full_state()
        replica1 = actor.workers[2].materialize_full_state()
        for name in replica0:
            np.testing.assert_allclose(replica0[name], replica1[name], atol=1e-12)

    def test_unknown_loss_rejected(self):
        _, actor = actor_group()
        out = actor.generate_sequences(prompts()).get()
        batch = out.union(
            DataBatch({"advantages": np.ones((4, 5))}, meta=out.meta)
        )
        with pytest.raises(ValueError, match="unknown actor loss"):
            actor.update_actor(batch, loss_func="dpo").get()

    def test_compute_loss_pretrain(self):
        _, actor = actor_group()
        pretrain = DataBatch({"tokens": prompts(seq=8)["prompts"]})
        metrics = actor.compute_loss(pretrain).get()
        assert metrics["pretrain_loss"] > 0


class TestCriticWorker:
    def test_compute_values_shape(self):
        _, actor = actor_group()
        out = actor.generate_sequences(prompts()).get()
        _, critic = make_group(
            CriticWorker, ParallelConfig(1, 2, 1), model_config=SCALAR_CFG
        )
        values = critic.compute_values(out).get()
        assert values["values"].shape == (4, 5)

    def test_requires_scalar_head(self):
        with pytest.raises(ValueError, match="scalar"):
            make_group(CriticWorker, ParallelConfig(1, 1, 1), model_config=LM_CFG)

    def test_update_critic_reduces_value_loss(self):
        _, actor = actor_group()
        out = actor.generate_sequences(prompts()).get()
        _, critic = make_group(
            CriticWorker,
            ParallelConfig(1, 2, 1),
            model_config=SCALAR_CFG,
            lr=5e-3,
        )
        batch = out.union(critic.compute_values(out).get())
        returns = np.zeros((4, 5))
        losses = []
        for _ in range(10):
            values = critic.compute_values(batch.select(["sequences"]).union(
                DataBatch({"prompts": batch["prompts"]}, meta=batch.meta)
            )).get()
            train_batch = batch.union(
                DataBatch({"returns": returns}, meta=batch.meta)
            )
            train_batch.tensors["values"] = values["values"]
            metrics = critic.update_critic(train_batch).get()
            losses.append(metrics["value_loss"])
        assert losses[-1] < losses[0]

    def test_unknown_loss_rejected(self):
        _, critic = make_group(
            CriticWorker, ParallelConfig(1, 1, 1), model_config=SCALAR_CFG
        )
        with pytest.raises(ValueError, match="unknown critic loss"):
            critic.update_critic(prompts(), loss_func="bogus").get()


class TestScorers:
    def test_reference_log_probs(self):
        _, actor = actor_group()
        out = actor.generate_sequences(prompts()).get()
        _, ref = make_group(
            ReferenceWorker, ParallelConfig(1, 2, 1), model_config=LM_CFG
        )
        logp = ref.compute_ref_log_prob(out).get()
        assert logp["ref_log_probs"].shape == (4, 5)
        assert (logp["ref_log_probs"] <= 0).all()

    def test_reference_matches_actor_at_init(self):
        """Same seed => the reference equals the actor before any updates."""
        _, actor = actor_group(seed=0)
        out = actor.generate_sequences(prompts()).get()
        _, ref = make_group(
            ReferenceWorker, ParallelConfig(1, 2, 1), model_config=LM_CFG, seed=0
        )
        ref_logp = ref.compute_ref_log_prob(out).get()["ref_log_probs"]
        np.testing.assert_allclose(ref_logp, out["old_log_probs"], atol=1e-9)

    def test_reference_has_no_training_memory(self):
        _, ref = make_group(
            ReferenceWorker, ParallelConfig(1, 1, 1), model_config=LM_CFG
        )
        device = ref.workers[0].ctx.device
        assert device.memory.bytes_for("reference/grads") == 0
        assert device.memory.bytes_for("reference/optim") == 0

    def test_reward_scores(self):
        _, actor = actor_group()
        out = actor.generate_sequences(prompts()).get()
        _, reward = make_group(
            RewardWorker, ParallelConfig(1, 2, 1), model_config=SCALAR_CFG
        )
        scored = reward.compute_reward(out).get()
        assert scored["scores"].shape == (4,)

    def test_cost_worker_columns(self):
        _, actor = actor_group()
        out = actor.generate_sequences(prompts()).get()
        _, cost = make_group(
            CostWorker, ParallelConfig(1, 1, 1), model_config=SCALAR_CFG
        )
        scored = cost.compute_cost(out).get()
        assert scored["costs"].shape == (4,)
        assert scored["cost_values"].shape == (4, 5)

    def test_reward_function_worker(self):
        _, actor = actor_group()
        out = actor.generate_sequences(prompts()).get()
        task = SyntheticPreferenceTask(vocab_size=16, target_token=3)
        controller = SingleController(ClusterSpec(n_machines=1))
        group = WorkerGroup(
            RewardFunctionWorker,
            controller.create_pool(1),
            controller=controller,
            worker_kwargs={"reward_fn": task.reward},
        )
        scored = group.compute_reward(out).get()
        expected = task.reward(out["sequences"][:, 4:])
        np.testing.assert_allclose(scored["scores"], expected)

    def test_reward_function_shape_validated(self):
        _, actor = actor_group()
        out = actor.generate_sequences(prompts()).get()
        controller = SingleController(ClusterSpec(n_machines=1))
        group = WorkerGroup(
            RewardFunctionWorker,
            controller.create_pool(1),
            controller=controller,
            worker_kwargs={"reward_fn": lambda r: np.zeros(99)},
        )
        with pytest.raises(ValueError, match="shape"):
            group.compute_reward(out).get()


class TestPaddingIsNeverRead:
    """Post-EOS positions of an EOS-ragged batch never enter a forward:
    whatever ids sit there — other tokens, or ids past the vocabulary that
    an embedding lookup would reject — every column a worker returns for
    the real tokens, and every update, is the same."""

    P, R = 4, 6

    def batch(self, padding):
        rng = np.random.default_rng(0)
        b, p, r = 4, self.P, self.R
        sequences = rng.integers(0, 16, size=(b, p + r))
        mask = (np.arange(r) < np.array([[1], [3], [6], [2]])).astype(np.float64)
        post = np.concatenate([np.zeros((b, p), dtype=bool), mask == 0], axis=1)
        sequences[post] = padding[: post.sum()]
        columns = {
            "sequences": sequences,
            "response_mask": mask,
            "old_log_probs": rng.normal(-2.0, 0.3, size=(b, r)) * mask,
            "advantages": rng.normal(size=(b, r)) * mask,
            "values": rng.normal(size=(b, r)) * mask,
            "returns": rng.normal(size=(b, r)) * mask,
        }
        return DataBatch(columns, meta={"prompt_length": p})

    def batches(self):
        other = np.random.default_rng(1).integers(0, 16, size=64)
        return self.batch(other), self.batch(16 + np.arange(64))

    def test_scoring_columns_on_real_tokens(self):
        a, b = self.batches()
        real = a["response_mask"] > 0
        tp2 = ParallelConfig(1, 2, 1)
        reference = make_group(ReferenceWorker, tp2, model_config=LM_CFG)[1]
        critic = make_group(CriticWorker, tp2, model_config=SCALAR_CFG)[1]
        reward = make_group(RewardWorker, tp2, model_config=SCALAR_CFG)[1]
        cost = make_group(CostWorker, tp2, model_config=SCALAR_CFG)[1]
        for method, column, rows in (
            (actor_group()[1].compute_log_prob, "log_probs", real),
            (reference.compute_ref_log_prob, "ref_log_probs", real),
            (critic.compute_values, "values", real),
            (cost.compute_cost, "cost_values", real),
            (cost.compute_cost, "costs", slice(None)),
            (reward.compute_reward, "scores", slice(None)),
        ):
            got, want = method(b).get()[column], method(a).get()[column]
            assert np.array_equal(got[rows], want[rows]), column

    def test_update_gradients(self, monkeypatch):
        grads = []
        step = Adam.step

        def spy(optimizer):
            grads.append({k: g.copy() for k, g in optimizer.flat.grads.items()})
            step(optimizer)

        monkeypatch.setattr(Adam, "step", spy)
        tp2 = ParallelConfig(1, 2, 1)
        for build, update in (
            (actor_group, lambda g, batch: g.update_actor(batch)),
            (
                lambda: make_group(CriticWorker, tp2, model_config=SCALAR_CFG),
                lambda g, batch: g.update_critic(batch),
            ),
        ):
            metrics = [update(build()[1], batch).get() for batch in self.batches()]
            assert metrics[0] == metrics[1]
            first, second = grads[-2:]
            for name in first:
                assert np.array_equal(first[name], second[name]), name


class TestGroupPromptIsComputedOnce:
    """A GRPO batch repeats each prompt ``group_size`` times: a scoring
    forward embeds each prompt once and returns the columns a dense
    forward gives."""

    P, R, G = 6, 5, 4

    def batch(self, masked):
        rng = np.random.default_rng(1)
        prompts = np.repeat(rng.integers(0, 16, size=(2, self.P)), self.G, axis=0)
        sequences = np.concatenate(
            [prompts, rng.integers(0, 16, size=(2 * self.G, self.R))], axis=1
        )
        columns = {"sequences": sequences}
        if masked:
            lengths = rng.integers(1, self.R + 1, size=(2 * self.G, 1))
            columns["response_mask"] = (np.arange(self.R) < lengths).astype(np.float64)
        return DataBatch(columns, meta={"prompt_length": self.P})

    @pytest.mark.parametrize("masked", [False, True], ids=["full", "eos"])
    def test_columns_are_the_dense_forwards(self, masked, monkeypatch):
        batch = self.batch(masked)
        dense = TinyLM(LM_CFG, seed=0).token_log_probs(batch["sequences"]).data
        embedded = []
        embed = ag.embed

        def counting(*args, **kwargs):
            out = embed(*args, **kwargs)
            embedded.append(out.size // out.shape[-1])
            return out

        monkeypatch.setattr(ag, "embed", counting)
        tp2 = ParallelConfig(1, 2, 1)
        reference = make_group(ReferenceWorker, tp2, model_config=LM_CFG)[1]
        got = reference.compute_ref_log_prob(batch).get()["ref_log_probs"]
        want = dense[:, self.P - 1 :]
        real = batch["response_mask"] > 0 if masked else np.ones_like(want, bool)
        assert np.array_equal(got[real], want[real])
        # the trunk runs positions 0..L-2: 8 rows, 2 prompts of which the
        # first P-1 positions are shared; the stream fills whole 4-row tiles
        tokens = (real.sum(axis=1) + self.P - 1).sum() - 6 * (self.P - 1)
        assert embedded == [-(-tokens // 4) * 4]


class TestShardedStorage:
    def test_worker_shards_reassemble_to_init_model(self):
        _, actor = actor_group(parallel=ParallelConfig(1, 2, 2))
        cfg = actor.train_topology.config
        by_coord = {}
        for w in actor.workers:
            c = w.ctx.coords
            if c.d == 0:
                by_coord[(c.p, c.t)] = w.shard
        full = gather_full_params(by_coord, tp_size=cfg.tp, pp_size=cfg.pp)
        expected = TinyLM(LM_CFG, seed=0).state_dict()
        for name in expected:
            np.testing.assert_array_equal(full[name], expected[name])

    def test_memory_ledger_tracks_shards(self):
        _, actor = actor_group(parallel=ParallelConfig(1, 2, 1))
        for w in actor.workers:
            params = w.ctx.device.memory.bytes_for("actor/params")
            assert params > 0
            assert w.ctx.device.memory.bytes_for("actor/grads") == params
            assert w.ctx.device.memory.bytes_for("actor/optim") == 3 * params

    def test_checkpoint_roundtrip_restores_shards_and_optimizer(self, tmp_path):
        controller, actor = actor_group()
        out = actor.generate_sequences(prompts()).get()
        batch = out.union(
            DataBatch({"advantages": np.ones((4, 5))}, meta=out.meta)
        ).union(actor.compute_log_prob(out).get())
        actor.update_actor(batch, loss_func="ppo").get()
        controller.save_checkpoint(tmp_path / "ck")

        controller2, actor2 = actor_group()
        controller2.load_checkpoint(tmp_path / "ck")
        for w1, w2 in zip(actor.workers, actor2.workers):
            for name in w1.shard:
                np.testing.assert_array_equal(w1.shard[name], w2.shard[name])
        lead2 = actor2.workers[0]
        assert lead2._optimizer is not None
        assert lead2._optimizer.step_count == 1


def assert_resident_is_the_gather(group):
    """What every action must leave true of a group's replica leads.

    A lead's resident weights are a fresh gather of its peers' shards (read
    through ``materialize_full_state``, as the next call reads them); no
    rank's shard shares memory with another rank's or with a lead's buffer
    (ranks never alias, ``repro.comm.collectives``); and a forward plus a
    backward run with the resident buffer read-only — nothing writes the
    weights but ``Adam.step`` and the merge.
    """
    leads = [w for w in group.workers if w.is_replica_lead]
    for lead in leads:
        peers = lead._peers()
        if lead.layout == "flat":
            fresh = gather_flat_shards([p.shard for p in peers], lead._shapes)
        else:
            cfg = group.train_topology.config
            fresh = gather_full_params(
                {(p.ctx.coords.p, p.ctx.coords.t): p.shard for p in peers},
                tp_size=cfg.tp,
                pp_size=cfg.pp,
            )
        resident = lead.materialize_full_state()
        assert resident.keys() == fresh.keys()
        for name in fresh:
            assert np.array_equal(resident[name], fresh[name]), name
    buffers = [lead._resident.data for lead in leads]
    shards = [(w.ctx.global_rank, a) for w in group.workers for a in w.shard.values()]
    for i, (rank, a) in enumerate(shards):
        others = [b for other, b in shards[i + 1 :] if other != rank]
        assert not any(np.shares_memory(a, b) for b in others + buffers)
    for lead in leads:
        flat = lead._resident
        views = [flat.data, *flat.arrays.values()]
        for arr in views:
            arr.flags.writeable = False
        try:
            tokens = np.arange(12).reshape(2, 6) % lead.model_config.vocab_size
            if lead.model_config.output_head == "lm":
                loss = -lead._model.token_log_probs(tokens).mean()
            else:
                loss = lead._model.values(tokens).mean()
            flat.zero_grad()
            loss.backward()
        finally:
            for arr in views:
                arr.flags.writeable = True


class TestResidentStateIsTheGather:
    """Random sequences of what a job does to a trained model — updates,
    forwards, generation transitions, checkpoint save/load, an elastic
    (``allow_resize``) restore and a direct ``set_shard`` — on 3D layouts:
    after every action each lead's resident weights are the gather of the
    shards (``assert_resident_is_the_gather``)."""

    B, P, R = 4, 4, 4

    def build(self, parallel):
        groups = []
        for cls, cfg, gen in (
            (ActorWorker, LM_CFG, GenParallelConfig.derive(parallel, 1, 1)),
            (CriticWorker, SCALAR_CFG, None),
        ):
            controller = SingleController(ClusterSpec(n_machines=2))
            group = WorkerGroup(
                cls,
                controller.create_pool(parallel.world_size),
                parallel_config=parallel,
                gen_config=gen,
                controller=controller,
                name=cls.__name__.lower(),
                worker_kwargs={"model_config": cfg, "lr": 1e-2},
            )
            groups.append((controller, group))
        return groups

    def batch(self, seed):
        rng = np.random.default_rng(seed)
        b, p, r = self.B, self.P, self.R
        return DataBatch(
            {
                "sequences": rng.integers(0, 16, size=(b, p + r)),
                "old_log_probs": rng.normal(-2.0, 0.3, size=(b, r)),
                "advantages": rng.normal(size=(b, r)),
                "values": rng.normal(size=(b, r)),
                "returns": rng.normal(size=(b, r)),
            },
            meta={"prompt_length": p},
        )

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(
        tp=st.sampled_from([1, 2, 4]),
        dp=st.sampled_from([1, 2]),
        pp=st.sampled_from([1, 2]),
        actions=st.lists(
            st.tuples(
                st.sampled_from(
                    [
                        "update_actor",
                        "update_critic",
                        "compute_log_prob",
                        "generate",
                        "checkpoint",
                        "resize",
                        "set_shard",
                    ]
                ),
                st.integers(0, 15),
            ),
            min_size=2,
            max_size=6,
        ),
    )
    def test_after_every_action(self, tp, dp, pp, actions):
        parallel = ParallelConfig(pp, tp, dp)
        groups = self.build(parallel)
        (_, actor), (_, critic) = groups
        with tempfile.TemporaryDirectory() as tmp:
            for step, (action, pick) in enumerate(actions):
                batch = self.batch(step)
                if action == "update_actor":
                    actor.update_actor(batch).get()
                elif action == "update_critic":
                    critic.update_critic(batch).get()
                elif action == "compute_log_prob":
                    actor.compute_log_prob(batch).get()
                elif action == "generate":
                    actor.generate_sequences(prompts(batch=16, seed=step)).get()
                elif action == "set_shard":
                    group = (actor, critic)[pick % 2]
                    worker = group.workers[pick % len(group.workers)]
                    worker.set_shard({k: 0.5 * v for k, v in worker.shard.items()})
                else:
                    for i, (controller, _) in enumerate(groups):
                        controller.save_checkpoint(f"{tmp}/{step}-{i}")
                    if action == "resize":
                        parallel = ParallelConfig(pp, tp, 3 - parallel.dp)
                        groups = self.build(parallel)
                        (_, actor), (_, critic) = groups
                    for i, (controller, _) in enumerate(groups):
                        controller.load_checkpoint(
                            f"{tmp}/{step}-{i}", allow_resize=action == "resize"
                        )
                for _, group in groups:
                    assert_resident_is_the_gather(group)


class TestGradientSync:
    """An update all-reduces the replica leads' flat gradient buffers in one
    call, and the meter reads what one call per tensor recorded."""

    @pytest.mark.parametrize("dp", [1, 2, 3])
    def test_all_reduce_bytes_are_the_per_tensor_sum(self, monkeypatch, dp):
        calls = []
        all_reduce = collectives.all_reduce

        def counting(*args, **kwargs):
            calls.append(args[1].name)
            return all_reduce(*args, **kwargs)

        monkeypatch.setattr(collectives, "all_reduce", counting)
        controller, critic = make_group(
            CriticWorker, ParallelConfig(1, 2, dp), model_config=SCALAR_CFG
        )
        rng = np.random.default_rng(0)
        critic.update_critic(
            DataBatch(
                {
                    "sequences": rng.integers(0, 16, size=(6, 8)),
                    "values": rng.normal(size=(6, 4)),
                    "returns": rng.normal(size=(6, 4)),
                },
                meta={"prompt_length": 4},
            )
        ).get()
        sizes = [a.size for a in TinyLM(SCALAR_CFG).state_dict().values()]
        per_rank = sum(2 * (dp - 1) * 8 * size // dp for size in sizes)
        assert calls == ["critic/dp_grads"]
        assert controller.meter.snapshot()[("critic/dp_grads", "all_reduce")] == (
            per_rank * dp
        )
        if dp == 3:  # why the sync meters per tensor: floors of a sum differ
            assert per_rank != 2 * (dp - 1) * 8 * sum(sizes) // dp
