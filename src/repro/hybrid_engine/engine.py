"""Functional 3D-HybridEngine: real shard movement between train and gen layouts.

Operates on a :class:`~repro.single_controller.worker_group.WorkerGroup` of
:class:`~repro.workers.base.ShardedModelWorker` ranks that has a generation
topology installed.  The paper's two systems differ in one decision (§5.3,
Figure 8) — which ranks gather together, :func:`gather_group`:

* **HYBRIDFLOW**: a rank's micro-DP group holds exactly the training tiles
  of its generation shard, so one all-gather within it suffices and the
  rank's own training shard is reused in place (zero redundancy).
* **VANILLA** (HybridFlow-V): micro-DP peers hold the *same* target shard
  but different source tiles, so the whole training model-parallel group is
  gathered and the generation shard sliced out — the peak-memory ``M`` and
  redundant storage of Table 2.

Everything else exists once: :func:`plan_transition` states the gather,
:meth:`HybridEngine3D.to_generation` interprets that plan over real numpy
arrays, :class:`~repro.analysis.ShardingVerifier` proves the object the
engine executes, and every cost (metered traffic, ledger charges, peak,
redundancy) is read off the executed plan and the arrays it moved.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.comm.groups import ProcessGroup, ring_all_gather_bytes
from repro.config import GenParallelConfig, ParallelConfig
from repro.models.sharding import (
    gather_full_params,
    merge_tp_shards,
    param_partition,
    shard_nbytes,
)
from repro.parallel.sharding import WeightShard, generation_shard, training_shard
from repro.parallel.topology import GenGroupingMode, GenTopology, ParallelTopology


@dataclasses.dataclass(frozen=True)
class GatherTile:
    """One tile shipped during a transition: a rectangle from a source rank."""

    source_rank: int
    shard: WeightShard


@dataclasses.dataclass(frozen=True)
class RankTransitionPlan:
    """What one rank gathers to move from its training to its gen layout.

    ``reused`` is the rank's own resting training shard (kept in place);
    ``tiles`` are the rectangles it receives from peers; together they must
    cover ``target``.  ``group_ranks`` is the collective group the gather
    runs in.
    """

    rank: int
    target: WeightShard
    reused: WeightShard
    tiles: tuple  # of GatherTile
    group_ranks: tuple  # of int


@dataclasses.dataclass(frozen=True)
class TransitionPlan:
    """The full train->generation all-gather plan, one entry per rank.

    :meth:`HybridEngine3D.to_generation` executes it and the
    :class:`~repro.analysis.ShardingVerifier` proves coverage and
    zero-redundancy (§5.3, Eq. 1–2) of the same object.
    """

    mode: GenGroupingMode
    by_rank: Dict[int, RankTransitionPlan]


def gather_group(gen: GenTopology, rank: int) -> ProcessGroup:
    """The group ``rank`` all-gathers in — the one decision §5.3 varies.

    :func:`plan_transition` reads its ranks, the executor meters on it.
    """
    if gen.mode is GenGroupingMode.HYBRIDFLOW:
        return gen.micro_dp_group(rank)
    return gen.train.mp_group(rank)


def plan_transition(gen: GenTopology) -> TransitionPlan:
    """The gather plan a topology pair implies: every rank keeps its training
    shard and receives that of every other member of its :func:`gather_group`."""
    train = gen.train
    return plan_for_geometry(
        gen.mode, gen.config, train.config, tuple(train.global_ranks)
    )


@functools.lru_cache(maxsize=None)
def plan_for_geometry(
    mode: GenGroupingMode,
    gen_config: GenParallelConfig,
    train_config: ParallelConfig,
    ranks: Tuple[int, ...],
) -> TransitionPlan:
    """:func:`plan_transition` as a pure function of the geometry it reads.

    Memoized on that key (``cache_info()``/``cache_clear()``): the engine
    plans on every ``to_generation``, the publisher on every publication.
    Controllers with equal geometry share the plan, so it is derived on a
    meter-less scratch topology and holds no live group.
    """
    train = ParallelTopology(train_config, ranks)
    gen = GenTopology(train, gen_config, mode)
    by_rank: Dict[int, RankTransitionPlan] = {}
    for rank in ranks:
        group_ranks = tuple(gather_group(gen, rank).ranks)
        by_rank[rank] = RankTransitionPlan(
            rank=rank,
            target=generation_shard(gen, rank),
            reused=training_shard(train, rank),
            tiles=tuple(
                GatherTile(peer, training_shard(train, peer))
                for peer in group_ranks
                if peer != rank
            ),
            group_ranks=group_ranks,
        )
    return TransitionPlan(mode=mode, by_rank=by_rank)


def gather_bytes_per_rank(
    plan: TransitionPlan, shards: Mapping[int, Mapping[str, np.ndarray]]
) -> Dict[int, int]:
    """Ring all-gather bytes each rank moves when ``plan`` is executed.

    ``shards`` maps a global rank to its resting training shard.  A rank's
    gather runs over ``group_ranks`` and its payload is the rank's own shard
    plus the source shard of every tile.
    """
    sizes = {rank: shard_nbytes(shard) for rank, shard in shards.items()}
    return {
        rank: ring_all_gather_bytes(
            sizes[rank] + sum(sizes[t.source_rank] for t in rank_plan.tiles),
            len(rank_plan.group_ranks),
        )
        for rank, rank_plan in plan.by_rank.items()
    }


@dataclasses.dataclass
class TransitionReport:
    """Observed per-rank costs of one train->generation transition."""

    comm_bytes_per_rank: Dict[int, int]
    peak_param_bytes_per_rank: Dict[int, int]
    redundant_bytes_per_rank: Dict[int, int]

    @property
    def max_comm_bytes(self) -> int:
        return max(self.comm_bytes_per_rank.values())

    @property
    def max_peak_bytes(self) -> int:
        return max(self.peak_param_bytes_per_rank.values())

    @property
    def total_redundant_bytes(self) -> int:
        return sum(self.redundant_bytes_per_rank.values())


class HybridEngine3D:
    """Drives the §5.2 workflow over a worker group's real shards."""

    def __init__(self, group) -> None:
        if group.gen_topology is None:
            raise ValueError(
                f"worker group {group.name!r} has no generation topology; "
                "pass gen_config when building the group"
            )
        self.group = group
        self.in_generation = False
        self.last_report: Optional[TransitionReport] = None

    @property
    def gen_topology(self) -> GenTopology:
        return self.group.gen_topology

    def plan_transition(self) -> TransitionPlan:
        """The gather plan :meth:`to_generation` executes."""
        return plan_transition(self.gen_topology)

    def _note_transition(self, direction: str, comm_bytes: int) -> None:
        pool = self.group.resource_pool
        self.group.tracer.instant(
            f"{self.group.name}.{direction}",
            category="transition",
            pool=pool.name,
            ranks=tuple(pool.global_ranks),
            payload_bytes=comm_bytes,
            direction=direction,
            mode=self.gen_topology.mode.name,
        )
        metrics = self.group.metrics
        metrics.counter(
            "repro_transitions_total",
            "HybridEngine train<->generation layout transitions",
            direction=direction,
        ).inc()
        metrics.counter(
            "repro_transition_bytes_total",
            "Bytes moved by HybridEngine transitions",
        ).inc(comm_bytes)

    # -- transition: training -> generation (steps 1-2 of Figure 7) ----------------

    def to_generation(self) -> TransitionReport:
        """Execute :meth:`plan_transition` on every rank; returns observed costs."""
        if self.in_generation:
            raise RuntimeError("engine is already in the generation layout")
        gen = self.gen_topology
        plan = self.plan_transition()
        shards = {w.ctx.global_rank: w.shard for w in self.group.workers}
        comm = gather_bytes_per_rank(plan, shards)
        peak: Dict[int, int] = {}
        redundant: Dict[int, int] = {}

        for worker in self.group.workers:
            rank = worker.ctx.global_rank
            rank_plan = plan.by_rank[rank]
            target = rank_plan.target
            memory = worker.ctx.device.memory
            gather_group(gen, rank).record_traffic(
                "hybrid_engine_all_gather", comm[rank]
            )
            gathered = (GatherTile(rank, rank_plan.reused), *rank_plan.tiles)
            held = sorted(
                (tile for tile in gathered if target.contains(tile.shard)),
                key=lambda tile: (tile.shard.layers.start, tile.shard.tensor.start),
            )
            gen_shard = merge_tp_shards([shards[t.source_rank] for t in held])
            train_bytes = shard_nbytes(worker.shard)
            peak[rank] = gen_bytes = shard_nbytes(gen_shard)
            if len(held) < len(gathered):
                # pieces gathered beyond the target: the replica is assembled
                # beside the resting shard before the target is sliced out of
                # it (Table 2's peak M) — a transient buffer in the ledger
                peak[rank] = 8 * sum(int(np.prod(s)) for s in worker._shapes.values())
                tmp_tag = f"{worker.tag}/transition_gather"
                memory.alloc(tmp_tag, peak[rank] - train_bytes)
                memory.free_tag(tmp_tag)
            # resting bytes the generation shard keeps in place: a replicated
            # parameter when the generation shard holds it too, a partitioned
            # one iff its training interval lies inside the target's; the
            # rest of the resting shard is duplicate storage
            inside = target.tensor.contains(rank_plan.reused.tensor)
            kept = sum(
                arr.nbytes
                for name, arr in worker.shard.items()
                if name in gen_shard and (inside or param_partition(name) is None)
            )
            redundant[rank] = train_bytes - kept
            worker.gen_shard = gen_shard
            memory.alloc(f"{worker.tag}/gen_params_extra", gen_bytes - kept)
        self.in_generation = True
        self.last_report = TransitionReport(comm, peak, redundant)
        self._note_transition("to_generation", sum(comm.values()))
        return self.last_report

    # -- generation-side helpers -----------------------------------------------------

    def materialize_generation_replica(self, worker) -> Dict[str, np.ndarray]:
        """Full weights of a rank's generation replica, from gen shards.

        Gathers across the generation model-parallel ranks (all ``(p_g,t_g)``
        with this rank's ``(d_g, d)``); used by the actor to run generation
        compute for its micro-batch.
        """
        if not self.in_generation:
            raise RuntimeError("not in the generation layout")
        gen = self.gen_topology
        my = gen.coords(worker.ctx.global_rank)
        members = []
        for g in self.group.train_topology.global_ranks:
            c = gen.coords(g)
            if c.dg == my.dg and c.d == my.d:
                members.append(worker.ctx.peer(g))
        by_coord = {}
        for m in members:
            c = gen.coords(m.ctx.global_rank)
            by_coord[(c.pg, c.tg)] = m.gen_shard
        return gather_full_params(
            by_coord, tp_size=gen.config.tp, pp_size=gen.config.pp
        )

    # -- transition: generation -> training (step 4 of Figure 7) ------------------------

    def to_training(self) -> None:
        """Drop generation-only buffers; training shards remain authoritative."""
        if not self.in_generation:
            raise RuntimeError("engine is not in the generation layout")
        for worker in self.group.workers:
            if hasattr(worker, "gen_shard"):
                del worker.gen_shard
            worker.ctx.device.memory.free_tag(f"{worker.tag}/gen_params_extra")
        self.in_generation = False
        self._note_transition("to_training", 0)
