"""Sharded-model worker bases: ``3DParallelWorker``, ``FSDPWorker``, ``ZeROWorker``.

Each rank stores only its weight shard (Megatron ``(pp, tp)`` rectangles for
the 3D layout; flat ZeRO-3/FSDP slices for the DP layouts), registered in the
simulated device's memory ledger.  Compute follows a gather-compute-scatter
discipline per model replica:

* the replica *lead* rank materialises full weights by an all-gather over the
  replica's ranks (real arrays, traffic metered),
* it runs the forward/backward on the replica's batch chunk,
* for training, gradients are averaged across replicas with a real
  all-reduce, every lead applies an identical Adam step, and the updated
  weights are scattered back to the resting shards.

Data-parallel semantics (per-replica batches, gradient averaging, identical
updates) are therefore *real*; tensor/pipeline parallel arithmetic is
simulated at the storage/communication level, with its latency modelled by
:mod:`repro.perf` — the same division of labour as the paper's own
``simu``-based auto-mapping (Appendix C).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.comm import collectives
from repro.comm.groups import ProcessGroup, ring_all_gather_bytes
from repro.data.batch import DataBatch
from repro.models.adam import Adam
from repro.models.autograd import Tensor
from repro.models.sharding import (
    flat_shard_params,
    gather_flat_shards,
    gather_full_params,
    shard_nbytes,
    shard_params,
)
from repro.models.tinylm import TinyLM, TinyLMConfig
from repro.single_controller.worker import Worker, WorkerContext

#: Extra training-state bytes per parameter byte: gradient (1x) plus
#: optimizer master copy and two Adam moments (3x), mirroring mixed-precision
#: accounting where the paper stores FP32 grads/optimizer for BF16 params.
GRAD_FACTOR = 1.0
OPTIM_FACTOR = 3.0


def real_lengths(batch: DataBatch) -> Optional[np.ndarray]:
    """Real tokens of each ``sequences`` row, ``prompt_length +
    response_mask.sum(1)``: the forwards of EOS-ragged rows compute only
    those (``None`` without a mask: every row is full)."""
    if "response_mask" not in batch:
        return None
    mask = batch["response_mask"]
    return batch.meta["prompt_length"] + mask.sum(axis=1).astype(np.int64)


class ShardedModelWorker(Worker):
    """Common machinery for all parallel layouts; subclasses pick the layout."""

    #: "3d" shards by (pp, tp) with DP replicas; "flat" shards every tensor
    #: across all ranks with every rank a DP replica (FSDP / ZeRO-3).
    layout = "3d"
    #: Whether this model trains (needs gradients + optimizer memory).
    trainable = True

    def __init__(
        self,
        ctx: WorkerContext,
        model_config: TinyLMConfig,
        seed: int = 0,
        tag: str = "model",
        lr: float = 1e-3,
        max_grad_norm: Optional[float] = 1.0,
    ) -> None:
        super().__init__(ctx)
        self.model_config = model_config
        self.tag = tag
        self.seed = seed
        self.lr = lr
        self.max_grad_norm = max_grad_norm

        # identical init on every rank (same seed), then keep only our shard —
        # exactly how Megatron ranks materialise their partition
        full = TinyLM(model_config, seed=seed)
        self._shapes = {k: v.shape for k, v in full.state_dict().items()}
        self.shard = self._extract_shard(full.state_dict())
        self.ctx.device.memory.alloc(f"{tag}/params", shard_nbytes(self.shard))
        if self.trainable:
            nbytes = shard_nbytes(self.shard)
            self.ctx.device.memory.alloc(f"{tag}/grads", int(nbytes * GRAD_FACTOR))
            self.ctx.device.memory.alloc(f"{tag}/optim", int(nbytes * OPTIM_FACTOR))

        # replica-lead state
        self._optimizer: Optional[Adam] = None
        self._stashed_output: Any = None
        self._stashed_grads: Optional[Dict[str, np.ndarray]] = None
        self._stashed_state: Optional[Dict[str, np.ndarray]] = None
        self._stashed_metrics: Optional[Dict[str, float]] = None
        # Seeded by *local* rank: the worker's SPMD identity within its
        # group, not the physical device it happens to occupy — so a job
        # recovered onto surviving devices reproduces bit-exactly (§9).
        self._rng = np.random.default_rng((seed, ctx.local_rank))

    # -- layout ---------------------------------------------------------------

    def _extract_shard(self, state: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        if self.layout == "flat":
            return flat_shard_params(
                state, self.ctx.local_rank, self.ctx.train_topology.world_size
            )
        c = self.ctx.coords
        cfg = self.ctx.train_topology.config
        return shard_params(
            state,
            tp_rank=c.t,
            tp_size=cfg.tp,
            pp_rank=c.p,
            pp_size=cfg.pp,
            n_layers=self.model_config.n_layers,
        )

    def set_shard(self, shard: Dict[str, np.ndarray]) -> None:
        """Replace the resting shard (resharding push from the replica lead)."""
        self.shard = {k: np.asarray(v).copy() for k, v in shard.items()}
        self.ctx.device.memory.resize(
            f"{self.tag}/params", shard_nbytes(self.shard)
        )

    # -- replica structure ---------------------------------------------------------

    @property
    def replica_group(self) -> ProcessGroup:
        """Ranks that together hold one full model replica."""
        if self.layout == "flat":
            return ProcessGroup(
                [w.ctx.global_rank for w in self.ctx.group.workers],
                name=f"{self.tag}/flat",
                meter=self.ctx.train_topology.meter,
            )
        return self.ctx.mp_group

    @property
    def is_replica_lead(self) -> bool:
        if self.layout == "flat":
            return True
        return self.ctx.is_replica_lead

    def _lead_of_replica(self) -> "ShardedModelWorker":
        if self.layout == "flat":
            return self
        lead_rank = self.ctx.train_topology.global_rank_at(
            0, 0, self.ctx.coords.d
        )
        worker = self.ctx.peer(lead_rank)
        assert isinstance(worker, ShardedModelWorker)
        return worker

    def _replica_leads(self) -> List["ShardedModelWorker"]:
        """Lead worker of every replica, in replica order."""
        leads = []
        for worker in self.ctx.group.workers:
            assert isinstance(worker, ShardedModelWorker)
            if worker.is_replica_lead:
                leads.append(worker)
        return leads

    def _is_last_worker(self) -> bool:
        return self.ctx.local_rank == len(self.ctx.group.workers) - 1

    # -- materialisation -----------------------------------------------------------

    def materialize_full_state(self) -> Dict[str, np.ndarray]:
        """All-gather the replica's shards into a full state dict (metered)."""
        group = self.replica_group
        peers = [self.ctx.peer(r) for r in group.ranks]
        shards = [p.shard for p in peers]
        total = sum(shard_nbytes(s) for s in shards)
        per_rank = ring_all_gather_bytes(total, group.size)
        group.record_traffic("all_gather_params", per_rank)
        if self.layout == "flat":
            return gather_flat_shards(shards, self._shapes)
        cfg = self.ctx.train_topology.config
        by_coord = {}
        for peer in peers:
            c = peer.ctx.coords
            by_coord[(c.p, c.t)] = peer.shard
        return gather_full_params(by_coord, tp_size=cfg.tp, pp_size=cfg.pp)

    def _build_model(
        self, state: Dict[str, np.ndarray], requires_grad: bool
    ) -> TinyLM:
        params = {
            name: Tensor(arr.copy(), requires_grad=requires_grad)
            for name, arr in state.items()
        }
        return TinyLM(self.model_config, params=params)

    def _push_state_to_replica(self, state: Dict[str, np.ndarray]) -> None:
        """Re-shard an updated full state back to the replica's ranks."""
        group = self.replica_group
        total = sum(int(np.prod(s)) for s in self._shapes.values()) * 8
        per_rank = total // group.size if group.size > 1 else 0
        group.record_traffic("scatter_params", per_rank)
        for rank in group.ranks:
            peer = self.ctx.peer(rank)
            assert isinstance(peer, ShardedModelWorker)
            peer.set_shard(peer._extract_shard(state))

    # -- forward-style compute -------------------------------------------------------

    def replica_forward(
        self,
        compute: Callable[[TinyLM], Any],
    ) -> Any:
        """Run ``compute`` once per replica; return the result on collect ranks.

        Every rank of a replica receives the same (DP-distributed) inputs; the
        replica lead materialises the full model and computes.  Collect ranks
        (which execute after the lead, by rank ordering) fetch the stashed
        result, so whichever rank the transfer protocol collects from has it.
        """
        if self.is_replica_lead:
            model = self._build_model(self.materialize_full_state(), False)
            self._stashed_output = compute(model)
        if self.layout == "flat" or self.ctx.is_collect_rank:
            return self._lead_of_replica()._stashed_output
        return None

    # -- training compute ---------------------------------------------------------------

    def replica_train_step(
        self,
        loss_fn: Callable[[TinyLM], Tuple[Tensor, Dict[str, float]]],
    ) -> Optional[Dict[str, float]]:
        """One data-parallel training step across all replicas.

        Phase 1 (per replica lead): materialise weights, compute loss on the
        replica's chunk, backward, stash gradients.  Phase 2 (triggered by the
        group's last rank, once all leads have gradients): all-reduce
        gradients across replicas, identical Adam step on every lead, and
        scatter the updated weights back to resting shards.
        """
        if self.is_replica_lead:
            state = self.materialize_full_state()
            model = self._build_model(state, requires_grad=True)
            loss, metrics = loss_fn(model)
            loss.backward()
            self._stashed_grads = {
                name: p.grad if p.grad is not None else np.zeros_like(p.data)
                for name, p in model.params.items()
            }
            self._stashed_metrics = metrics
            self._stashed_state = state

        if self._is_last_worker():
            self._sync_and_update_all_replicas()

        if self.layout == "flat" or self.ctx.is_collect_rank:
            return self._lead_of_replica()._stashed_metrics
        return None

    def _sync_and_update_all_replicas(self) -> None:
        leads = self._replica_leads()
        if any(lead._stashed_grads is None for lead in leads):
            raise RuntimeError(
                f"{self.tag}: gradient sync triggered before all replica "
                "leads computed gradients"
            )
        meter = self.ctx.train_topology.meter
        dp_group = ProcessGroup(
            [lead.ctx.global_rank for lead in leads],
            name=f"{self.tag}/dp_grads",
            meter=meter,
        )
        # every replica lead contributes its gradients to one shared
        # all-reduce buffer; the contribution order is deterministic (leads
        # in rank order), which the access log records for race analysis
        for lead in leads:
            self.ctx.group.record_access(
                "write",
                f"gradsync[{self.tag}]",
                rank=lead.ctx.global_rank,
                ordered=True,
                note="all_reduce",
            )
        # average gradients across replicas with a real all-reduce per tensor
        names = list(leads[0]._stashed_grads)
        for name in names:
            reduced = collectives.all_reduce(
                [lead._stashed_grads[name] for lead in leads],
                dp_group,
                op="mean",
            )
            for lead, grad in zip(leads, reduced):
                lead._stashed_grads[name] = grad
        for lead in leads:
            lead._apply_update()

    def _apply_update(self) -> None:
        """Adam step on this lead's materialised state, then re-shard."""
        assert self._stashed_grads is not None
        model = self._build_model(self._stashed_state, requires_grad=True)
        for name, p in model.params.items():
            p.grad = self._stashed_grads[name]
        if self._optimizer is None:
            self._optimizer = Adam(
                model.params, lr=self.lr, max_grad_norm=self.max_grad_norm
            )
        else:
            # rebind persistent moments to the fresh Tensor objects
            self._optimizer.params = model.params
        self._optimizer.step()
        self._push_state_to_replica(model.state_dict())
        self._stashed_grads = None
        self._stashed_state = None

    # -- checkpointing ------------------------------------------------------------------

    def state_for_checkpoint(self) -> Dict[str, Any]:
        state: Dict[str, Any] = {
            f"shard::{name}": arr for name, arr in self.shard.items()
        }
        if self._optimizer is not None:
            state["optim_step"] = self._optimizer.step_count
            for name, m in self._optimizer._m.items():
                state[f"adam_m::{name}"] = m
            for name, v in self._optimizer._v.items():
                state[f"adam_v::{name}"] = v
        return state

    def load_from_checkpoint(self, state: Dict[str, Any]) -> None:
        shard = {
            name[len("shard::") :]: np.asarray(arr)
            for name, arr in state.items()
            if name.startswith("shard::")
        }
        if set(shard) != set(self.shard):
            raise ValueError(
                f"{self.tag}: checkpoint shard keys mismatch on rank "
                f"{self.ctx.global_rank}"
            )
        self.set_shard(shard)
        if "optim_step" in state:
            moments_m = {
                name[len("adam_m::") :]: np.asarray(arr)
                for name, arr in state.items()
                if name.startswith("adam_m::")
            }
            moments_v = {
                name[len("adam_v::") :]: np.asarray(arr)
                for name, arr in state.items()
                if name.startswith("adam_v::")
            }
            placeholder = {
                name: Tensor(np.zeros(self._shapes[name]), requires_grad=True)
                for name in self._shapes
            }
            self._optimizer = Adam(
                placeholder, lr=self.lr, max_grad_norm=self.max_grad_norm
            )
            self._optimizer.step_count = int(state["optim_step"])
            self._optimizer._m = moments_m
            self._optimizer._v = moments_v


class ThreeDParallelWorker(ShardedModelWorker):
    """The paper's ``3DParallelWorker`` base class (§4.1)."""

    layout = "3d"


class FSDPWorker(ShardedModelWorker):
    """Fully-sharded data parallel base class (§4.1)."""

    layout = "flat"


class ZeROWorker(ShardedModelWorker):
    """ZeRO-3 data parallel base class (§4.1).

    Functionally identical to FSDP full-shard; kept distinct so placement and
    baseline models can select it by name, and so the analytical layer can
    attach ZeRO-specific communication costs.
    """

    layout = "flat"
