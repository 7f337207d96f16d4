"""``ActorWorker``: generation, log-prob, and policy-update primitives (Table 4).

``generate_sequences`` runs the full 3D-HybridEngine workflow of Figure 7,
each step group-wide: transition to the generation layout (step ①), one
KV-cached decode of every replica's micro-batch (step ②), the result
all-gather within micro-DP groups (step ③), and the transition back to the
training layout (step ④).
``update_actor`` implements the PPO / Safe-RLHF / GRPO policy losses on top
of the shared data-parallel training machinery.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

import dataclasses

from repro.comm.groups import ring_all_gather_bytes
from repro.data.batch import DataBatch
from repro.hybrid_engine.engine import HybridEngine3D
from repro.models.autograd import Tensor
from repro.models.sampler import GenerationOutput, MicroBatch, generate
from repro.models.tinylm import TinyLM
from repro.rlhf import losses as L
from repro.serving import RolloutServer, ServingConfig
from repro.single_controller.decorator import register, shape_contract
from repro.single_controller.worker import WorkerContext
from repro.models.tinylm import TinyLMConfig
from repro.workers.base import ThreeDParallelWorker


def reassemble_responses(prompts, completed, max_new_tokens, pad_token_id, masked):
    """Served completions (``request_id`` = prompt row, ``response``,
    ``log_probs``) → the sampler's fixed-width ``(sequences, log_probs,
    mask)``: ``max_new_tokens`` slots per row padded with ``pad_token_id``
    (0 when None) in the prompts' dtype; ``mask`` is None unless ``masked``.
    The SF pass runs this same function on stand-in completions."""
    batch, prompt_len = prompts.shape
    pad = np.full((batch, max_new_tokens), pad_token_id or 0, dtype=prompts.dtype)
    sequences = np.concatenate([prompts, pad], axis=1)
    log_probs = np.zeros((batch, max_new_tokens), dtype=np.float64)
    mask = np.zeros((batch, max_new_tokens), dtype=np.float64)
    for done in completed:
        i, n = done.request_id, len(done.response)
        sequences[i, prompt_len : prompt_len + n] = done.response
        log_probs[i, :n] = done.log_probs
        mask[i, :n] = 1.0
    return sequences, log_probs, mask if masked else None


def _same_bits(a: Dict[str, np.ndarray], b: Dict[str, np.ndarray]) -> bool:
    """Whether two full weight sets are equal bit for bit."""
    return a.keys() == b.keys() and all(
        a[name].dtype == b[name].dtype
        and a[name].shape == b[name].shape
        and a[name].tobytes() == b[name].tobytes()
        for name in a
    )


class ActorWorker(ThreeDParallelWorker):
    """The policy model undergoing RLHF."""

    def __init__(
        self,
        ctx: WorkerContext,
        model_config: TinyLMConfig,
        seed: int = 0,
        tag: str = "actor",
        lr: float = 1e-3,
        max_grad_norm: Optional[float] = 1.0,
        clip_ratio: float = 0.2,
        temperature: float = 1.0,
        max_new_tokens: int = 8,
        eos_token_id: Optional[int] = None,
        use_serving: bool = False,
        serving_config: Optional[ServingConfig] = None,
    ) -> None:
        super().__init__(
            ctx,
            model_config,
            seed=seed,
            tag=tag,
            lr=lr,
            max_grad_norm=max_grad_norm,
        )
        self.clip_ratio = clip_ratio
        self.temperature = temperature
        self.max_new_tokens = max_new_tokens
        #: With an EOS id, generation stops per sequence and the output
        #: batch carries a ``response_mask`` column the whole pipeline
        #: respects (losses/advantages ignore post-EOS padding).
        self.eos_token_id = eos_token_id
        #: Route generation through the continuous-batching RolloutServer
        #: (bit-exact with the sequential sampler in greedy mode).
        self.use_serving = use_serving
        self.serving_config = serving_config
        self._gen_calls = 0

    # -- engine plumbing -------------------------------------------------------------

    def _engine(self) -> HybridEngine3D:
        group = self.ctx.group
        engine = getattr(group, "hybrid_engine", None)
        if engine is None:
            engine = HybridEngine3D(group)
            group.hybrid_engine = engine
        return engine

    def _is_gen_replica_lead(self) -> bool:
        c = self.ctx.gen_coords
        return c.pg == 0 and c.tg == 0

    # -- Table 4 primitives --------------------------------------------------------------

    @register(protocol="3d_all_micro_dp")
    @shape_contract(
        inputs={"prompts": "B,P:int64"},
        outputs={
            "prompts": "B,P:int64",
            "sequences": "B,L:int64",
            "old_log_probs": "B,R",
            "?response_mask": "B,R",
        },
    )
    def generate_sequences(
        self,
        batch: DataBatch,
        do_sample: bool = True,
        max_new_tokens: Optional[int] = None,
    ) -> Optional[DataBatch]:
        """Generate responses for this rank's micro-batch of prompts.

        Returns prompt+response sequences plus the sampling log-probs (the
        behaviour policy's ``old_log_probs`` for PPO).

        Every step of Figure 7 is group-wide.  Rank 0 enters the generation
        layout (①).  Each replica lead materializes its replica, builds its
        rng from ``(seed, local_rank, gen_calls)`` and hands its micro-batch
        to the round; the last rank decodes the round (②) — one
        :func:`generate` over every micro-batch whose replica weights are
        bit-identical, each micro-batch getting exactly what it would alone
        — then all-gathers the results (③) and returns to training (④).  A
        lead's returned batch is filled by then: nothing reads it before
        the last rank has run.  Through the serving engine each lead
        serves its own micro-batch instead.
        """
        engine = self._engine()
        group = self.ctx.group
        if self.ctx.local_rank == 0:
            # a dispatch that failed part-way leaves nothing behind
            group.generation_round = []
            if engine.in_generation:
                self._release_kv_caches()
                engine.to_training()
            engine.to_generation()  # Figure 7 step 1 (group-wide)
        self._gen_calls += 1
        n_tokens = max_new_tokens or self.max_new_tokens

        if self._is_gen_replica_lead():
            full = engine.materialize_generation_replica(self)
            prompts = batch["prompts"]
            self._stashed_output = DataBatch(
                {"prompts": prompts}, meta={"prompt_length": prompts.shape[1]}
            )
            if self.use_serving:
                self._take_generation(self._serve_generate(
                    self._replica_model(full), prompts, n_tokens, do_sample
                ))
            else:
                # local_rank, not global_rank: sampling must not depend on
                # which physical devices host the pool, or recovery
                # re-placement onto survivors would diverge from the
                # uninterrupted run (§9).
                rng = np.random.default_rng(
                    (self.seed, self.ctx.local_rank, self._gen_calls)
                )
                group.generation_round.append((self, full, MicroBatch(prompts, rng)))
        result = self._stashed_output if self._is_gen_replica_lead() else None

        if self.ctx.local_rank == len(group.workers) - 1:
            self._decode_round(  # Figure 7 step 2 (group-wide)
                max_new_tokens=n_tokens,
                temperature=self.temperature,
                greedy=not do_sample,
                eos_token_id=self.eos_token_id,
            )
            self._gather_generation_results()  # Figure 7 step 3
            self._release_kv_caches()
            engine.to_training()  # Figure 7 step 4
        return result

    def _take_generation(self, out: GenerationOutput) -> None:
        """A lead's own generation: its ``kv_cache`` charge and its columns."""
        self.ctx.device.memory.alloc(f"{self.tag}/kv_cache", out.kv_cache_bytes)
        self._stashed_output["sequences"] = out.sequences
        self._stashed_output["old_log_probs"] = out.response_log_probs
        if out.response_mask is not None:
            self._stashed_output["response_mask"] = out.response_mask

    def _decode_round(self, **settings) -> None:
        """Step ②: decode the leads' micro-batches, one :func:`generate` per
        set of leads whose replica weights compare bit-identical (every
        shipped placement gives one)."""
        pending, self.ctx.group.generation_round = self.ctx.group.generation_round, []
        sets = []
        for lead, full, micro in pending:
            for weights, members in sets:
                if _same_bits(weights, full):
                    members.append((lead, micro))
                    break
            else:
                sets.append((full, [(lead, micro)]))
        for full, members in sets:
            micros = [micro for _lead, micro in members]
            outs = generate(self._replica_model(full), micros, **settings)
            for (lead, _micro), out in zip(members, outs):
                lead._take_generation(out)

    def _replica_model(self, full: Dict[str, np.ndarray]) -> TinyLM:
        return TinyLM(
            self.model_config,
            params={name: Tensor(arr) for name, arr in full.items()},
        )

    def _serve_generate(
        self,
        model: TinyLM,
        prompts: np.ndarray,
        max_new_tokens: int,
        do_sample: bool,
    ) -> GenerationOutput:
        """Serving-backed generation: route the micro-batch through a
        :class:`~repro.serving.RolloutServer` on this rank's device.

        Each prompt becomes one request; the engine decodes them with
        continuous batching and paged KV blocks charged against this
        worker's simulated device.  Results are reassembled into the same
        fixed-width :class:`GenerationOutput` the sequential sampler
        produces — in greedy mode the two are bit-exact per request.  The
        per-request rng seeds extend the worker's ``(seed, local_rank,
        gen_calls)`` discipline, so serving stays deterministic across
        recovery re-placement too.
        """
        base = self.serving_config or ServingConfig()
        config = dataclasses.replace(
            base,
            eos_token_id=self.eos_token_id,
            temperature=self.temperature,
            greedy=not do_sample,
            seed=(self.seed, self.ctx.local_rank, self._gen_calls),
        )
        server = RolloutServer(
            model,
            config,
            device=self.ctx.device,
            tracer=self.ctx.group.tracer,
            metrics=self.ctx.group.metrics,
        )
        for row in prompts:
            server.submit(row, max_new_tokens=max_new_tokens)
        report = server.drain()
        pad = (
            self.eos_token_id
            if config.pad_token_id is None
            else config.pad_token_id
        )
        sequences, log_probs, mask = reassemble_responses(
            prompts, report.completed, max_new_tokens, pad, self.eos_token_id is not None
        )
        return GenerationOutput(
            sequences=sequences,
            response_log_probs=log_probs,
            prompt_length=prompts.shape[1],
            kv_cache_bytes=report.peak_kv_bytes,
            response_mask=mask,
        )

    def _gather_generation_results(self) -> None:
        """Step ③: all-gather generated sequences within micro-DP groups."""
        gen = self.ctx.gen_topology
        assert gen is not None
        for group in gen.all_micro_dp_groups():
            leads = [
                self.ctx.peer(r)
                for r in group.ranks
                if isinstance(self.ctx.peer(r), ActorWorker)
                and self.ctx.peer(r)._is_gen_replica_lead()
            ]
            payload = sum(
                out._stashed_output.nbytes()
                for out in leads
                if out._stashed_output is not None
            )
            per_rank = ring_all_gather_bytes(payload, group.size)
            group.record_traffic("gen_results_all_gather", per_rank)

    def _release_kv_caches(self) -> None:
        """Offload the KV cache to host memory after generation (§7)."""
        for worker in self.ctx.group.workers:
            worker.ctx.device.memory.free_tag(f"{worker.tag}/kv_cache")

    # -- checkpointing (§9: "... and Random Number Generator (RNG) states to
    # ensure system-wide consistency") -----------------------------------------

    def state_for_checkpoint(self):
        state = super().state_for_checkpoint()
        # the sampling rng stream is derived from (seed, rank, call count),
        # so persisting the counter restores bit-identical generation
        state["gen_calls"] = self._gen_calls
        return state

    def load_from_checkpoint(self, state) -> None:
        self._gen_calls = int(state.pop("gen_calls", 0))
        super().load_from_checkpoint(state)

    @register(protocol="3d_proto")
    @shape_contract(
        inputs={"sequences": "B,L:int64", "?response_mask": "B,R"},
        outputs={"sequences": "B,L:int64", "log_probs": "B,R"},
    )
    def compute_log_prob(
        self, batch: DataBatch, keep_graph: bool = False
    ) -> Optional[DataBatch]:
        """Recompute response log-probs under the current policy (Table 4).
        ``keep_graph``: the next ``update_actor`` on these rows trains on
        this forward."""

        def compute(model: TinyLM):
            logp = self.response_forward(model.token_log_probs, batch, keep_graph)
            return batch.select(["sequences"]).union(
                DataBatch({"log_probs": logp.data}, meta=batch.meta)
            )

        return self.replica_forward(compute, keep_graph)

    @register(protocol="3d_proto")
    @shape_contract(inputs={"tokens": "B,T:int64"}, returns="metrics")
    def compute_loss(self, pretrain_batch: DataBatch) -> Optional[Dict[str, float]]:
        """Pretraining NLL on auxiliary data (PPO-ptx / Safe-RLHF, Table 4)."""

        def compute(model: TinyLM):
            logp = model.token_log_probs(pretrain_batch["tokens"])
            return {"pretrain_loss": float(L.pretrain_loss(logp).item())}

        return self.replica_forward(compute)

    @register(protocol="3d_proto")
    @shape_contract(inputs={"tokens": "B,T:int64"}, returns="metrics")
    def update_sft(self, batch: DataBatch) -> Optional[Dict[str, float]]:
        """Supervised fine-tuning step: next-token NLL on ``tokens``.

        The stage that precedes RLHF in the alignment pipeline (§1: LLMs are
        "trained on domain-specific datasets via supervised fine-tuning");
        reuses the same data-parallel training machinery as ``update_actor``.
        """

        def compute(model: TinyLM):
            logp = model.token_log_probs(batch["tokens"])
            loss = L.pretrain_loss(logp)
            return loss, {"sft_loss": float(loss.item())}

        return self.replica_train_step(compute)

    @register(protocol="3d_proto")
    @shape_contract(
        inputs={
            "sequences": "B,L:int64",
            "old_log_probs": "B,R",
            "advantages": "B,R",
            "?response_mask": "B,R",
            "?importance_weights": "B,R",
            "?cost_advantages": "B,R",
            "?ref_log_probs": "B,R",
        },
        returns="metrics",
    )
    def update_actor(
        self,
        batch: DataBatch,
        loss_func: str = "ppo",
        kl_coef: float = 0.04,
        lagrange_multiplier: float = 0.0,
        pretrain_batch: Optional[DataBatch] = None,
        ptx_coef: float = 0.1,
    ) -> Optional[Dict[str, float]]:
        """One policy-gradient update on this replica's chunk (Table 4).

        ``loss_func`` selects the algorithm's objective: ``"ppo"``/``"remax"``
        (clipped surrogate), ``"safe-rlhf"`` (PPO-Lagrangian, optionally with
        the pretraining auxiliary loss), or ``"grpo"`` (clip + k3 KL).

        A batch carrying an ``importance_weights`` column (attached by the
        async pipeline when experience is stale) has its advantages scaled
        by the truncated importance weights in the PPO/GRPO objectives.
        """

        def compute(model: TinyLM):
            logp = self.response_forward(model.token_log_probs, batch)
            old = batch["old_log_probs"]
            advantages = batch["advantages"]
            mask = batch["response_mask"] if "response_mask" in batch else None
            iw = (
                batch["importance_weights"]
                if "importance_weights" in batch
                else None
            )
            if loss_func in ("ppo", "remax"):
                loss, metrics = L.ppo_policy_loss(
                    logp, old, advantages, self.clip_ratio,
                    response_mask=mask,
                    importance_weights=iw,
                )
            elif loss_func == "safe-rlhf":
                loss, metrics = L.safe_rlhf_policy_loss(
                    logp,
                    old,
                    advantages,
                    batch["cost_advantages"],
                    lagrange_multiplier,
                    self.clip_ratio,
                    response_mask=mask,
                )
                if pretrain_batch is not None:
                    ptx_logp = model.token_log_probs(pretrain_batch["tokens"])
                    ptx = L.pretrain_loss(ptx_logp)
                    loss = loss + ptx_coef * ptx
                    metrics = dict(metrics)
                    metrics["pretrain_loss"] = float(ptx.item())
            elif loss_func == "grpo":
                loss, metrics = L.grpo_policy_loss(
                    logp,
                    old,
                    advantages,
                    batch["ref_log_probs"],
                    self.clip_ratio,
                    kl_coef,
                    response_mask=mask,
                    importance_weights=iw,
                )
            else:
                raise ValueError(f"unknown actor loss {loss_func!r}")
            return loss, metrics

        return self.replica_train_step(compute, batch)
