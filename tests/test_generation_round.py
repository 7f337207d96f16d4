"""Figure 7 step ②, group-wide: one generation round decodes every replica's
micro-batch in one loop, and each replica gets what it would alone.

The oracle is :func:`generate` on one lead's micro-batch, with that lead's
own materialized weights and a fresh rng from its ``(seed, local_rank,
gen_calls)``; the ledger oracle is the same group with the round swapped
for one ``generate`` per micro-batch, every ledger operation of both
recorded by :func:`tests.oracles.ledger_streams`.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.workers.actor as actor_module
from repro.config import ClusterSpec, GenParallelConfig, ParallelConfig
from repro.data.batch import DataBatch
from repro.hybrid_engine.engine import HybridEngine3D
from repro.models.autograd import Tensor
from repro.models.sampler import generate
from repro.models.tinylm import TinyLM, TinyLMConfig
from repro.runtime import SystemSpec
from repro.single_controller import SingleController, WorkerGroup
from repro.workers import ActorWorker
from tests.oracles import ledger_streams

CFG = TinyLMConfig(
    n_layers=2,
    hidden_size=16,
    n_heads=4,
    ffn_hidden_size=32,
    vocab_size=12,
    max_seq_len=16,
)
N_TOKENS = 6
#: (actor tp, actor dp, generation tp): every pairing with >= 2 replicas
LAYOUTS = [
    (tp, dp, gen_tp)
    for tp in (2, 4)
    for dp in (1, 2)
    for gen_tp in (1, 2)
    if dp * tp // gen_tp >= 2
]


def actor_group(tp, dp, gen_tp, **worker_kwargs):
    parallel = ParallelConfig(pp=1, tp=tp, dp=dp)
    controller = SingleController(ClusterSpec(n_machines=1))
    return WorkerGroup(
        ActorWorker,
        controller.create_pool(parallel.world_size),
        parallel_config=parallel,
        gen_config=GenParallelConfig.derive(parallel, 1, gen_tp),
        controller=controller,
        name="actor",
        worker_kwargs=dict(
            model_config=CFG, max_new_tokens=N_TOKENS, **worker_kwargs
        ),
    )


def leads(group):
    return [w for w in group.workers if w._is_gen_replica_lead()]


def recorded_rounds(monkeypatch):
    """Every ``generate`` call the actor makes from now on: ``(micro-batches,
    settings)``."""
    calls = []

    def recorded(model, micros, **kwargs):
        calls.append((list(micros), kwargs))
        return generate(model, micros, **kwargs)

    monkeypatch.setattr(actor_module, "generate", recorded)
    return calls


def replica_weights(monkeypatch, perturb_rank=None):
    """Each lead's materialized weights, by local rank; the lead at
    ``perturb_rank`` decodes with its LM head nudged."""
    weights = {}
    materialize = HybridEngine3D.materialize_generation_replica

    def recorded(engine, worker):
        full = materialize(engine, worker)
        if worker.ctx.local_rank == perturb_rank:
            full = dict(full, **{"lm_head.weight": full["lm_head.weight"] + 1e-3})
        weights[worker.ctx.local_rank] = full
        return full

    monkeypatch.setattr(HybridEngine3D, "materialize_generation_replica", recorded)
    return weights


def ledgers(group, streams):
    return [
        (streams[w.ctx.device.memory], w.ctx.device.memory.peak_used)
        for w in group.workers
    ]


def kv_charges(stream):
    return [n for op, tag, n, _ in stream if op == "alloc" and tag == "actor/kv_cache"]


class TestARoundEqualsEachReplicaAlone:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        st.sampled_from(LAYOUTS),
        st.sampled_from([None, 0, 5]),  # EOS: off, or an id rows emit early
        st.booleans(),  # sampled or greedy
        st.sampled_from([0.6, 1.0, 1.7]),
        st.integers(1, 3),  # rows per replica
        st.integers(0, 2**16),
    )
    def test_each_lead_gets_its_own_loop(
        self, layout, eos, do_sample, temperature, rows, seed
    ):
        with pytest.MonkeyPatch.context() as mp:
            self._check(mp, layout, eos, do_sample, temperature, rows, seed)

    def test_a_replica_with_other_weights_decodes_with_its_own(self, monkeypatch):
        calls = self._check(monkeypatch, (4, 1, 1), 5, True, 1.0, 2, 3, perturb=2)
        # the perturbed lead's round is its own; the other three share one
        assert sorted(len(micros) for micros, _ in calls) == [1, 3]

    def _check(self, mp, layout, eos, do_sample, temperature, rows, seed, perturb=None):
        def each_alone(model, micros, **kwargs):
            return [generate(model, m.prompts, rng=m.rng, **kwargs) for m in micros]

        kwargs = dict(eos_token_id=eos, temperature=temperature, seed=seed % 5)
        streams = ledger_streams(mp)
        group, alone_group = actor_group(*layout, **kwargs), actor_group(*layout, **kwargs)
        n_rows = rows * len(leads(group))
        prompts = DataBatch({
            "prompts": np.random.default_rng(seed).integers(
                0, CFG.vocab_size, size=(n_rows, 3)
            )
        })
        weights = replica_weights(mp, perturb_rank=perturb)
        mp.setattr(actor_module, "generate", each_alone)
        alone_out = alone_group.generate_sequences(prompts, do_sample=do_sample).get()
        calls = recorded_rounds(mp)
        out = group.generate_sequences(prompts, do_sample=do_sample).get()

        assert sum(len(micros) for micros, _ in calls) == len(leads(group))
        rng_of = {id(m.prompts): m.rng for micros, _ in calls for m in micros}
        for lead in leads(group):
            mine = lead._stashed_output
            rng = np.random.default_rng((lead.seed, lead.ctx.local_rank, lead._gen_calls))
            model = TinyLM(
                CFG,
                params={n: Tensor(a) for n, a in weights[lead.ctx.local_rank].items()},
            )
            oracle = generate(
                model,
                mine["prompts"],
                N_TOKENS,
                temperature=temperature,
                greedy=not do_sample,
                rng=rng,
                eos_token_id=eos,
            )
            assert np.array_equal(mine["sequences"], oracle.sequences)
            assert np.array_equal(mine["old_log_probs"], oracle.response_log_probs)
            if eos is None:
                assert "response_mask" not in mine
            else:
                assert np.array_equal(mine["response_mask"], oracle.response_mask)
            round_rng = rng_of[id(mine["prompts"])]
            assert round_rng.bit_generator.state == rng.bit_generator.state
            charged = kv_charges(streams[lead.ctx.device.memory])
            assert charged == [oracle.kv_cache_bytes]
        # the whole ledger, every device's peak and the collected batch are
        # what one loop per replica gives
        assert ledgers(group, streams) == ledgers(alone_group, streams)
        for name in alone_out.keys():
            assert np.array_equal(out[name], alone_out[name]), name
        return calls


class TestAFailedRoundLeavesNothingBehind:
    def test_the_next_dispatch_decodes_only_its_own_micro_batches(self, monkeypatch):
        rounds = recorded_rounds(monkeypatch)
        streams = ledger_streams(monkeypatch)
        spec = SystemSpec(tp=4)  # four generation replicas: ranks 1, 2 are middle
        failed, clean = spec.build(), spec.build()
        prompts = DataBatch({
            "prompts": np.random.default_rng(0).integers(
                0, spec.model_config.vocab_size, size=(8, spec.prompt_length)
            )
        })
        materialize = HybridEngine3D.materialize_generation_replica

        def dies_at_rank_two(engine, worker):
            if worker.ctx.local_rank == 2:
                raise RuntimeError("injected lead failure")
            return materialize(engine, worker)

        with monkeypatch.context() as mp:
            mp.setattr(
                HybridEngine3D, "materialize_generation_replica", dies_at_rank_two
            )
            with pytest.raises(RuntimeError, match="injected"):
                failed.group("actor").generate_sequences(prompts).get()
        assert not rounds  # the failure came before any decoding
        # the clean run starts from the failed one's checkpoint state (the
        # ranks that ran counted the call), with no dispatch left half done
        for mine, theirs in zip(
            failed.group("actor").workers, clean.group("actor").workers
        ):
            theirs.load_from_checkpoint(dict(mine.state_for_checkpoint()))
        assert failed.state_digest() == clean.state_digest()

        outs, charges = [], []
        for system in (failed, clean):
            memories = [w.ctx.device.memory for w in system.group("actor").workers]
            start = [len(streams[m]) for m in memories]
            outs.append(system.group("actor").generate_sequences(prompts).get())
            charges.append([kv_charges(streams[m][s:]) for m, s in zip(memories, start)])
        assert [len(micros) for micros, _ in rounds] == [4, 4]
        assert charges[0] == charges[1] and all(len(c) == 1 for c in charges[0])
        for name in outs[1].keys():
            assert np.array_equal(outs[0][name], outs[1][name]), name
        assert failed.state_digest() == clean.state_digest()
