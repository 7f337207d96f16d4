"""Sharded-model worker bases: ``3DParallelWorker``, ``FSDPWorker``, ``ZeROWorker``.

Each rank stores only its weight shard (Megatron ``(pp, tp)`` rectangles for
the 3D layout; flat ZeRO-3/FSDP slices for the DP layouts), registered in the
simulated device's memory ledger.  Compute follows a gather-compute-scatter
discipline per model replica:

* the replica *lead* rank materialises full weights by an all-gather over the
  replica's ranks (real arrays, traffic metered) into one flat buffer it
  keeps resident between calls, merging again only after a shard changed,
* it runs the forward/backward on the replica's batch chunk, gradients
  accumulating into a second flat buffer,
* for training, those buffers are averaged across replicas with one real
  all-reduce, every lead applies an identical in-place Adam step, and the
  updated weights are scattered back to the resting shards — after which the
  lead's buffer is the merge of the new shards, so the next call gathers
  nothing,
* a scoring call asked to (``keep_graph``: the model trains next, once per
  batch) runs its forward with a graph the lead keeps, and the update that
  follows on the same rows at the same weights backpropagates through it
  instead of running that forward again.  Any other forward or update on
  the lead, or a shard changing, drops it first: a lead holds at most one,
  and only across calls that build none.

Data-parallel semantics (per-replica batches, gradient averaging, identical
updates) are therefore *real*; tensor/pipeline parallel arithmetic is
simulated at the storage/communication level, with its latency modelled by
:mod:`repro.perf` — the same division of labour as the paper's own
``simu``-based auto-mapping (Appendix C).
"""

from __future__ import annotations

import contextlib
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.comm import collectives
from repro.comm.groups import ProcessGroup, ring_all_gather_bytes
from repro.data.batch import DataBatch
from repro.models.adam import Adam, FlatParams
from repro.models.autograd import Tensor, no_grad
from repro.models.sharding import (
    flat_shard_params,
    gather_flat_shards,
    gather_full_params,
    pp_stage_of,
    shard_nbytes,
    shard_params,
)
from repro.models.tinylm import Layout, TinyLM, TinyLMConfig
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


def _rows_key(batch: DataBatch) -> Tuple[Any, ...]:
    """All a response forward reads of ``batch``: at equal weights, equal
    keys compute equal outputs."""
    sequences, lengths = batch["sequences"], real_lengths(batch)
    return (
        sequences.shape,
        sequences.tobytes(),
        None if lengths is None else lengths.tobytes(),
        batch.meta["prompt_length"],
    )


class _KeptGraph(NamedTuple):
    """A scoring forward's output, graph attached, that a replica lead keeps
    for its next update: that update's forward on the rows ``key`` names at
    the shard versions ``versions``."""

    key: Tuple[Any, ...]
    versions: Tuple[int, ...]
    output: Tensor


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
        full = TinyLM(model_config, seed=seed).state_dict()
        self._shapes = {k: v.shape for k, v in full.items()}
        self.shard = {k: v.copy() for k, v in self._extract_shard(full).items()}
        #: Bumped by every :meth:`set_shard`, the only writer of ``shard``: a
        #: lead's resident weights are the merge of its peers' shards at the
        #: versions it last merged.
        self.shard_version = 0
        self._shard_bytes = shard_nbytes(self.shard)
        self.ctx.device.memory.alloc(f"{tag}/params", self._shard_bytes)
        if self.trainable:
            nbytes = self._shard_bytes
            self.ctx.device.memory.alloc(f"{tag}/grads", int(nbytes * GRAD_FACTOR))
            self.ctx.device.memory.alloc(f"{tag}/optim", int(nbytes * OPTIM_FACTOR))

        # replica-lead state: the resident full weights (and gradients), the
        # model over them, and the peers' shard versions they merge
        self._resident: Optional[FlatParams] = None
        self._model: Optional[TinyLM] = None
        self._merged: Optional[Tuple[int, ...]] = None
        self._optimizer: Optional[Adam] = None
        self._grads_ready = False
        self._kept: Optional[_KeptGraph] = None
        self._stashed_output: Any = None
        self._stashed_metrics: Optional[Dict[str, float]] = None
        # Seeded by *local* rank: the worker's SPMD identity within its
        # group, not the physical device it happens to occupy — so a job
        # recovered onto surviving devices reproduces bit-exactly (§9).
        self._rng = np.random.default_rng((seed, ctx.local_rank))

    # -- layout ---------------------------------------------------------------

    def _extract_shard(self, state: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """This rank's shard of a full state, as views of it."""
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
        """Replace the resting shard (resharding push from the replica lead,
        or a checkpoint): copied once, so no rank's shard aliases another's
        or a lead's resident weights."""
        self._drop_kept_graph()
        self.shard = {k: np.asarray(v).copy() for k, v in shard.items()}
        self.shard_version += 1
        self._shard_bytes = shard_nbytes(self.shard)
        self.ctx.device.memory.resize(f"{self.tag}/params", self._shard_bytes)

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

    def _peers(self) -> List["ShardedModelWorker"]:
        """The ranks of this rank's replica, in group order."""
        return [self.ctx.peer(r) for r in self.replica_group.ranks]

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
        """The replica's full weights, resident on this rank between calls.

        The all-gather of the replica's shards is metered on every call, but
        the arrays are merged again only when a peer's shard changed since
        the last merge (its ``shard_version``).  Returns views of the
        resident buffer, by name.
        """
        group = self.replica_group
        peers = self._peers()
        total = sum(peer._shard_bytes for peer in peers)
        group.record_traffic(
            "all_gather_params", ring_all_gather_bytes(total, group.size)
        )
        resident = self._lead_state()
        versions = self._shard_versions()
        if versions != self._merged:
            self._merge_full_state(peers)
            self._merged = versions
        return resident.arrays

    def _shard_versions(self) -> Tuple[int, ...]:
        return tuple(peer.shard_version for peer in self._peers())

    def _merge_full_state(self, peers: List["ShardedModelWorker"]) -> None:
        """Gather ``peers``' shards into the resident weights."""
        out = self._resident.arrays
        if self.layout == "flat":
            gather_flat_shards([peer.shard for peer in peers], self._shapes, out)
            return
        cfg = self.ctx.train_topology.config
        by_coord = {
            (peer.ctx.coords.p, peer.ctx.coords.t): peer.shard for peer in peers
        }
        gather_full_params(by_coord, tp_size=cfg.tp, pp_size=cfg.pp, out=out)

    def _lead_state(self) -> FlatParams:
        """The resident weights, laid out in the order a gather produces the
        parameters (pipeline stage after stage) — the order every optimizer
        loop and its global-norm sum run in."""
        if self._resident is None:
            names = list(self._shapes)
            if self.layout != "flat":
                pp = self.ctx.train_topology.config.pp
                n_layers = self.model_config.n_layers
                names.sort(key=lambda name: pp_stage_of(name, n_layers, pp))
            self._resident = FlatParams({name: self._shapes[name] for name in names})
            self._model = TinyLM(self.model_config, params=self._resident.params)
        return self._resident

    def _adam(self) -> Adam:
        if self._optimizer is None:
            self._optimizer = Adam(
                self._lead_state(), lr=self.lr, max_grad_norm=self.max_grad_norm
            )
        return self._optimizer

    def _push_state_to_replica(self) -> None:
        """Re-shard the updated resident weights to the ranks this lead
        owns: its replica's (3D), or only its own — on the flat layout every
        rank is a lead that took the same step."""
        group = self.replica_group
        per_rank = self._resident.data.nbytes // group.size if group.size > 1 else 0
        group.record_traffic("scatter_params", per_rank)
        for peer in [self] if self.layout == "flat" else self._peers():
            peer.set_shard(peer._extract_shard(self._resident.arrays))

    # -- forward-style compute -------------------------------------------------------

    def replica_forward(
        self,
        compute: Callable[[TinyLM], Any],
        keep_graph: bool = False,
    ) -> Any:
        """Run ``compute`` once per replica; return the result on collect ranks.

        Every rank of a replica receives the same (DP-distributed) inputs; the
        replica lead drops a kept graph, materialises the full model and
        computes: without a graph, unless ``keep_graph`` (``compute`` then
        keeps its :meth:`response_forward`).  Collect ranks (which execute
        after the lead, by rank ordering) fetch the stashed result, so
        whichever rank the transfer protocol collects from has it.
        """
        if self.is_replica_lead:
            self._drop_kept_graph()
            self.materialize_full_state()
            with contextlib.nullcontext() if keep_graph else no_grad():
                self._stashed_output = compute(self._model)
        if self.layout == "flat" or self.ctx.is_collect_rank:
            return self._lead_of_replica()._stashed_output
        return None

    def response_forward(
        self,
        head: Callable[..., Tensor],
        batch: DataBatch,
        keep: bool = False,
    ) -> Tensor:
        """``head`` — the resident model's ``values`` or ``token_log_probs``
        — at the response positions of ``batch``'s rows.

        In an update, the output a scoring call kept when
        :meth:`replica_train_step` found it built on these rows at these
        weights; else the forward, run now.  ``keep`` (a scoring call under
        ``keep_graph``): that output, graph attached, is kept for the update.
        """
        kept, self._kept = self._kept, None
        if kept is not None:
            self._count_kept_graph("used")
            return kept.output
        layout = Layout(real_lengths(batch), batch.meta["prompt_length"])
        output = head(batch["sequences"], layout)
        if keep:
            self._kept = _KeptGraph(_rows_key(batch), self._merged, output)
        return output

    def _drop_kept_graph(self, rows: Optional[DataBatch] = None) -> None:
        """Drop the kept graph unless it was built on ``rows`` at the shard
        versions the replica holds now."""
        kept = self._kept
        if kept is None or (
            rows is not None
            and kept.versions == self._shard_versions()
            and kept.key == _rows_key(rows)
        ):
            return
        self._kept = None
        self._count_kept_graph("dropped")

    def _count_kept_graph(self, outcome: str) -> None:
        self.ctx.group.metrics.counter(
            "repro_kept_graph_total",
            "Scoring-forward graphs kept for an update: used by it, or dropped",
            role=self.tag,
            outcome=outcome,
        ).inc()

    # -- training compute ---------------------------------------------------------------

    def replica_train_step(
        self,
        loss_fn: Callable[[TinyLM], Tuple[Tensor, Dict[str, float]]],
        rows: Optional[DataBatch] = None,
    ) -> Optional[Dict[str, float]]:
        """One data-parallel training step across all replicas.

        Phase 1 (per replica lead): drop a kept graph not built on ``rows``
        (the batch whose :meth:`response_forward` ``loss_fn`` takes) at the
        current weights, materialise weights, compute loss on the replica's
        chunk — through the kept graph when there is one — and backward into
        the zeroed flat gradient buffer.
        Phase 2 (triggered by the group's last rank, once all leads have
        gradients): all-reduce the buffers across replicas, identical Adam
        step on every lead, and scatter the updated weights back to resting
        shards.
        """
        if self.is_replica_lead:
            self._drop_kept_graph(rows)
            self.materialize_full_state()
            self._resident.zero_grad()
            loss, metrics = loss_fn(self._model)
            loss.backward()
            self._stashed_metrics = metrics
            self._grads_ready = True

        if self._is_last_worker():
            self._sync_and_update_all_replicas()

        if self.layout == "flat" or self.ctx.is_collect_rank:
            return self._lead_of_replica()._stashed_metrics
        return None

    def _sync_and_update_all_replicas(self) -> None:
        leads = self._replica_leads()
        if not all(lead._grads_ready for lead in leads):
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
        # average gradients across replicas: one in-place all-reduce of the
        # flat buffers, metered per tensor
        grads = [lead._resident.grad for lead in leads]
        collectives.all_reduce(
            grads, dp_group, op="mean", out=grads, buckets=leads[0]._resident.sizes
        )
        for lead in leads:
            lead._adam().step()
            lead._push_state_to_replica()
            lead._grads_ready = False
        # every shard now holds its part of the identical update: each
        # lead's resident weights are the merge of its peers' new shards
        for lead in leads:
            lead._merged = tuple(peer.shard_version for peer in lead._peers())

    # -- checkpointing ------------------------------------------------------------------

    def state_for_checkpoint(self) -> Dict[str, Any]:
        state: Dict[str, Any] = {
            f"shard::{name}": arr for name, arr in self.shard.items()
        }
        if self._optimizer is not None:
            state.update(self._optimizer.state_for_checkpoint())
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
            self._adam().load_from_checkpoint(state)


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
