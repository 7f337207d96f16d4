"""A single-pass update trains on the graph its scoring forward built.

Under ``ppo_epochs * updates_per_epoch == 1`` the scoring call of the model
``_update`` trains first (the critic for PPO and Safe-RLHF, the actor for
GRPO and ReMax) runs its forward with a graph, each replica lead keeps it,
and that model's update backpropagates through it instead of running the
same forward again.  These tests hold the kept graph to being the fresh
forward — bit-identical runs, scoring columns untouched by the backward —
and to its lifetime: shard changes and restores drop it, a multi-pass
schedule never builds it, one role holds graphs at a time, and a fault
between the scoring call and the update recovers bit-exactly.
"""

from __future__ import annotations

import contextlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ClusterSpec
from repro.data import SyntheticPreferenceTask
from repro.data.batch import DataBatch
from repro.faults import FaultInjector, FaultPlan, WorkerLostError
from repro.models import autograd as ag
from repro.models.tinylm import TinyLM, TinyLMConfig
from repro.pipeline import AsyncPipelineDriver, PipelineConfig
from repro.rlhf.core import AlgoType
from repro.rlhf.trainers import TrainerConfig, trainer_class
from repro.runtime import SystemSpec, build_rlhf_system, train_with_recovery
from repro.single_controller.worker_group import RemoteMethod
from repro.workers import WORKER_CLASSES, CriticWorker
from repro.workers.base import ShardedModelWorker

CFG = TinyLMConfig(
    n_layers=2,
    hidden_size=32,
    n_heads=4,
    ffn_hidden_size=48,
    vocab_size=16,
    max_seq_len=32,
)
BATCH = 8
#: Where the machines are: a recovered job is re-placed onto the second.
CLUSTER = ClusterSpec(n_machines=2, gpus_per_machine=4)


class FlatCritic(CriticWorker):
    """The critic on the FSDP layout, every rank a replica lead.  (The
    actor's generation runs on the 3D layout only.)"""

    layout = "flat"


def build(algo=AlgoType.PPO, disaggregated=False, dp=1, flat=False, eos=False,
          tc=None, cluster=None):
    spec = SystemSpec(algo=algo, model_config=CFG, dp=dp, disaggregated=disaggregated)
    task = SyntheticPreferenceTask(vocab_size=CFG.vocab_size, target_token=spec.target_token)
    saved = dict(WORKER_CLASSES)
    if flat:
        WORKER_CLASSES["critic"] = FlatCritic
    try:
        return build_rlhf_system(
            algo,
            spec.plan,
            CFG,
            cluster_spec=None if cluster else CLUSTER,
            cluster=cluster,
            trainer_config=tc or TrainerConfig(kl_coef=spec.kl_coef, group_size=2),
            reward_fn=task.reward if spec.function_rewards else None,
            max_new_tokens=8,
            lr=spec.lr,
            seed=spec.seed,
            eos_token_id=1 if eos else None,
        )
    finally:
        WORKER_CLASSES.update(saved)


def dataset():
    return SystemSpec(model_config=CFG).dataset()


def train(system, iterations=2, window=0):
    if window:
        AsyncPipelineDriver(system.trainer, PipelineConfig(staleness_window=window))
    return system.trainer.train(dataset(), iterations, BATCH)


def kept_counts(system, role=None):
    """``repro_kept_graph_total`` by outcome (of ``role``, or every role)."""
    metrics = system.controller.metrics
    counts = {"used": 0.0, "dropped": 0.0}
    for labels in metrics.labelsets("repro_kept_graph_total"):
        if role in (None, labels["role"]):
            counts[labels["outcome"]] += metrics.value("repro_kept_graph_total", **labels)
    return counts


@contextlib.contextmanager
def fresh_forwards():
    """Every update runs its own forward: a kept graph is dropped first."""
    real = ShardedModelWorker.replica_train_step

    def dropping(self, loss_fn, rows=None):
        self._drop_kept_graph()
        return real(self, loss_fn, rows)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ShardedModelWorker, "replica_train_step", dropping)
        yield


@contextlib.contextmanager
def scoring_columns():
    """Yields every array a graph-keeping scoring call returned, each with
    a copy taken when it was returned."""
    returned = []
    real = ShardedModelWorker.replica_forward

    def recording(self, compute, keep_graph=False):
        out = real(self, compute, keep_graph)
        if keep_graph and isinstance(out, DataBatch):
            returned.extend((a, a.copy()) for a in out.tensors.values())
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ShardedModelWorker, "replica_forward", recording)
        yield returned


@contextlib.contextmanager
def counting_forwards():
    """Yields a one-entry list: the TinyLM forwards run so far."""
    count = [0]
    real = TinyLM._trunk

    def counted(self, *args, **kwargs):
        count[0] += 1
        return real(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(TinyLM, "_trunk", counted)
        yield count


class TestKeptGraphIsTheFreshForward:
    """Two iterations with kept graphs are the run whose updates each run
    their own forward, bit for bit — and the columns the scoring calls
    returned are intact after the updates' backwards (VJPs overwrite the
    arrays they saved: this is the guard against a column aliasing one)."""

    @settings(derandomize=True, max_examples=24, deadline=None)
    @given(
        algo=st.sampled_from(list(AlgoType)),
        disaggregated=st.booleans(),
        dp=st.sampled_from([1, 2]),
        flat=st.booleans(),
        eos=st.booleans(),
        window=st.sampled_from([0, 1]),
    )
    def test_same_run_as_fresh_forwards(self, algo, disaggregated, dp, flat, eos, window):
        # a staleness window needs a loss that corrects for it (DF108)
        window = window if trainer_class(algo).off_policy_correctable else 0
        args = (algo, disaggregated, dp, flat, eos)
        with scoring_columns() as returned:
            kept = build(*args)
            kept_history = train(kept, window=window)
        # one graph per replica lead of the model trained first, each used
        role = trainer_class(algo).trains_first
        leads = sum(w.is_replica_lead for w in kept.groups[role].workers)
        assert kept_counts(kept) == {"used": 2 * leads, "dropped": 0}
        assert returned
        for array, copy in returned:
            assert array.tobytes() == copy.tobytes()

        with fresh_forwards():
            fresh = build(*args)
            fresh_history = train(fresh, window=window)
        assert kept_counts(fresh) == {"used": 0, "dropped": 2 * leads}
        assert kept.state_digest() == fresh.state_digest()
        assert kept_history == fresh_history


class TestKeptGraphLifetime:
    def _prepared(self, system):
        """Rollout and scoring of the first batch: the critic holds a graph."""
        trainer = system.trainer
        batch = trainer.prepare(trainer.rollout(next(dataset().iter_batches(BATCH))))
        lead = system.groups["critic"].workers[0]
        assert lead._kept is not None
        return batch

    def _reference_digest(self):
        system = build()
        train(system, iterations=1)
        return system.state_digest()

    def test_set_shard_before_the_update_drops_the_graph(self):
        system = build()
        batch = self._prepared(system)
        peer = system.groups["critic"].workers[1]  # not the replica lead
        peer.set_shard(dict(peer.shard))  # same weights, a new shard version
        system.trainer.learn(batch)
        assert kept_counts(system) == {"used": 0, "dropped": 1}
        assert system.state_digest() == self._reference_digest()

    def test_checkpoint_restore_before_the_update_drops_the_graph(self, tmp_path):
        system = build()
        batch = self._prepared(system)
        system.controller.save_checkpoint(str(tmp_path / "ckpt"))
        system.controller.load_checkpoint(str(tmp_path / "ckpt"))
        assert system.groups["critic"].workers[0]._kept is None
        system.trainer.learn(batch)
        assert kept_counts(system) == {"used": 0, "dropped": 1}
        assert system.state_digest() == self._reference_digest()

    def test_update_on_other_rows_drops_the_graph(self):
        def update_on_reversed_rows(system):
            batch = self._prepared(system)
            rows = {name: column[::-1].copy() for name, column in batch.tensors.items()}
            system.groups["critic"].update_critic(DataBatch(rows, meta=batch.meta)).get()
            return system

        kept = update_on_reversed_rows(build())
        with fresh_forwards():
            fresh = update_on_reversed_rows(build())
        assert kept_counts(kept) == {"used": 0, "dropped": 1}
        assert kept.state_digest() == fresh.state_digest()

    @pytest.mark.parametrize("algo", [AlgoType.PPO, AlgoType.GRPO], ids=lambda a: a.value)
    def test_multi_pass_schedule_keeps_no_graph(self, algo):
        tc = TrainerConfig(ppo_epochs=2, group_size=2)
        with counting_forwards() as forwards:
            system = build(algo, tc=tc)
            train(system)
        with fresh_forwards(), counting_forwards() as fresh:
            train(build(algo, tc=tc))
        assert forwards[0] == fresh[0]
        assert kept_counts(system) == {"used": 0, "dropped": 0}

    def test_single_pass_saves_one_forward_per_lead_and_iteration(self):
        with counting_forwards() as forwards:
            train(build(dp=2))
        with fresh_forwards(), counting_forwards() as fresh:
            train(build(dp=2))
        assert fresh[0] - forwards[0] == 2 * 2

    @pytest.mark.parametrize("dp", [1, 2])
    @pytest.mark.parametrize("algo", list(AlgoType), ids=lambda a: a.value)
    def test_one_role_holds_graphs_at_a_time(self, algo, dp):
        """After every dispatch and at every backward, the live kept graphs
        are one role's, at most one per replica lead (at ``dp=1``, at most
        one in the process)."""
        system = build(algo, dp=dp)
        workers = [w for g in system.groups.values() for w in g.workers]
        seen = []

        def check():
            holders = [w for w in workers if getattr(w, "_kept", None) is not None]
            assert len({w.tag for w in holders}) <= 1
            assert all(w.is_replica_lead for w in holders)
            seen.append(len(holders))

        real_backward = ag.Tensor.backward
        real_execute = RemoteMethod._execute

        def checked_backward(self, grad=None):
            check()
            return real_backward(self, grad)

        def checked_execute(self, args, kwargs):
            out = real_execute(self, args, kwargs)
            check()
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ag.Tensor, "backward", checked_backward)
            mp.setattr(RemoteMethod, "_execute", checked_execute)
            train(system)
        assert max(seen) == dp  # the trained-first role's leads, between calls
        assert seen[-1] == 0

    def test_kill_between_scoring_and_update_recovers_bit_exactly(self, tmp_path):
        reference = build()
        history = train(reference, iterations=3)
        # the second iteration's update_critic: its dispatch finds machine 0
        # dead, after compute_values kept its graph there
        seqs = [r.seq for r in reference.controller.trace if r.method == "update_critic"]
        injector = FaultInjector(FaultPlan().kill_machine(0, at_step=seqs[1]))
        lost = []
        real_gate = RemoteMethod._dispatch_gate

        def gate(self, record):
            try:
                return real_gate(self, record)
            except WorkerLostError:
                lost.append((self.method_name, self.group.workers[0]._kept is not None))
                raise

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(RemoteMethod, "_dispatch_gate", gate)
            system, recovered, report = train_with_recovery(
                lambda cluster: build(cluster=cluster),
                dataset(),
                n_iterations=3,
                batch_size=BATCH,
                checkpoint_dir=str(tmp_path / "ckpt"),
                injector=injector,
            )
        assert lost == [("update_critic", True)]
        assert report.n_failures == 1
        assert recovered == history
        assert system.state_digest() == reference.state_digest()


class TestKeptGraphCounter:
    def test_async_w1_run_uses_one_graph_per_iteration(self):
        """An ``async_ppo_w1``-shaped run: the shipped PPO job on the
        disaggregated placement under a one-step staleness window."""
        system = build(disaggregated=True)
        train(system, iterations=3, window=1)
        assert kept_counts(system, "critic") == {"used": 3, "dropped": 0}
        assert kept_counts(system) == {"used": 3, "dropped": 0}
        assert system.controller.metrics.labelsets("repro_kept_graph_total") == [
            {"role": "critic", "outcome": "used"}
        ]
