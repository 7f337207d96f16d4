"""Functional 3D-HybridEngine: real shard movement between train and gen layouts.

Operates on a :class:`~repro.single_controller.worker_group.WorkerGroup` of
:class:`~repro.workers.base.ShardedModelWorker` ranks that has a generation
topology installed.  ``to_generation`` builds every rank's *generation shard*
from the resting training shards:

* **HYBRIDFLOW grouping** (§5.3): the members of a rank's micro-DP group hold
  exactly the training tiles that make up its generation shard, so one
  all-gather within the micro-DP group suffices; the rank's own training
  shard is reused in place (zero redundancy).
* **VANILLA grouping** (HybridFlow-V): micro-DP peers hold the *same* target
  shard but different source tiles, so the full model must be gathered
  within the training model-parallel group and then sliced — the peak-memory
  ``M`` and redundant storage of Table 2.

All movement is in real numpy arrays with traffic metered, and the device
memory ledger reflects the generation-only buffers, so the Table 2 algebra is
verified against observed bytes, not re-derived.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

import numpy as np

from repro.models.sharding import (
    gather_full_params,
    param_partition,
    shard_nbytes,
    shard_params,
)
from repro.parallel.sharding import WeightShard, generation_shard, training_shard
from repro.parallel.topology import GenGroupingMode, GenTopology


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

    This is the *declarative* form of what :meth:`HybridEngine3D.to_generation`
    executes — produced independently from the topology geometry so the
    :class:`~repro.analysis.ShardingVerifier` can prove coverage and
    zero-redundancy (§5.3, Eq. 1–2) without running the engine.
    """

    mode: GenGroupingMode
    by_rank: Dict[int, RankTransitionPlan]


# plan_transition is a pure function of the topology *geometry* — grouping
# mode, training/generation parallel configs, and the rank list — so plans
# are memoized on that key.  Every PPO iteration replans the same pair of
# layouts twice (train->gen and back); with the cache only the first
# iteration pays the per-rank shard/tile derivation.
_PLAN_CACHE: Dict[tuple, TransitionPlan] = {}
_PLAN_CACHE_STATS = {"hits": 0, "misses": 0}


def plan_cache_stats() -> Dict[str, int]:
    """Hit/miss/size counters of the transition-plan memo (for the bench)."""
    return {**_PLAN_CACHE_STATS, "size": len(_PLAN_CACHE)}


def clear_plan_cache() -> None:
    """Drop memoized transition plans (tests and benchmarks)."""
    _PLAN_CACHE.clear()
    _PLAN_CACHE_STATS["hits"] = 0
    _PLAN_CACHE_STATS["misses"] = 0


def plan_transition(gen: GenTopology) -> TransitionPlan:
    """Derive the per-rank gather plan a topology pair implies.

    * HYBRIDFLOW: each rank gathers exactly its micro-DP peers' training
      shards — those tile its generation shard with its own shard reused in
      place (the zero-redundancy grouping of Figure 8b).
    * VANILLA: each rank gathers every training model-parallel peer's shard
      (the full replica) and slices its generation shard out, as
      ``_gather_vanilla`` does.

    The result is memoized: ``TransitionPlan`` is frozen, so callers across
    topologies with identical geometry share one instance.
    """
    train = gen.train
    cache_key = (
        gen.mode,
        gen.config,
        train.config,
        tuple(train.global_ranks),
    )
    cached = _PLAN_CACHE.get(cache_key)
    if cached is not None:
        _PLAN_CACHE_STATS["hits"] += 1
        return cached
    _PLAN_CACHE_STATS["misses"] += 1
    by_rank: Dict[int, RankTransitionPlan] = {}
    for rank in train.global_ranks:
        if gen.mode is GenGroupingMode.HYBRIDFLOW:
            group = gen.micro_dp_group(rank)
        else:
            group = train.mp_group(rank)
        tiles = tuple(
            GatherTile(peer, training_shard(train, peer))
            for peer in group.ranks
            if peer != rank
        )
        by_rank[rank] = RankTransitionPlan(
            rank=rank,
            target=generation_shard(gen, rank),
            reused=training_shard(train, rank),
            tiles=tiles,
            group_ranks=tuple(group.ranks),
        )
    plan = TransitionPlan(mode=gen.mode, by_rank=by_rank)
    _PLAN_CACHE[cache_key] = plan
    return plan


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
        """The declarative gather plan this engine will execute."""
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
        """Build generation shards on every rank; returns observed costs."""
        if self.in_generation:
            raise RuntimeError("engine is already in the generation layout")
        gen = self.gen_topology
        mode = gen.mode
        comm: Dict[int, int] = {}
        peak: Dict[int, int] = {}
        redundant: Dict[int, int] = {}

        for worker in self.group.workers:
            rank = worker.ctx.global_rank
            train_bytes = shard_nbytes(worker.shard)
            if mode is GenGroupingMode.HYBRIDFLOW:
                gen_shard, moved = self._gather_micro_dp(worker)
                # training shard is contained in the generation shard: reuse
                extra = shard_nbytes(gen_shard) - train_bytes
                redundant[rank] = 0
                peak[rank] = shard_nbytes(gen_shard)
            else:
                # vanilla aggregates the full model before slicing (Table 2):
                # account the transient gather buffer in the device ledger
                full_bytes = self._full_model_bytes()
                tmp_tag = f"{worker.tag}/transition_gather"
                worker.ctx.device.memory.alloc(tmp_tag, full_bytes - train_bytes)
                gen_shard, moved, extra, dup = self._gather_vanilla(worker)
                worker.ctx.device.memory.free_tag(tmp_tag)
                redundant[rank] = dup
                peak[rank] = full_bytes
            comm[rank] = moved
            worker.gen_shard = gen_shard
            worker.ctx.device.memory.alloc(
                f"{worker.tag}/gen_params_extra", max(extra, 0)
            )
        self.in_generation = True
        self.last_report = TransitionReport(comm, peak, redundant)
        self._note_transition("to_generation", sum(comm.values()))
        return self.last_report

    def _full_model_bytes(self) -> int:
        worker = self.group.workers[0]
        return sum(
            int(np.prod(shape)) * 8 for shape in worker._shapes.values()
        )

    def _gather_micro_dp(self, worker):
        """HYBRIDFLOW path: all-gather training tiles within the micro-DP group."""
        gen = self.gen_topology
        group = gen.micro_dp_group(worker.ctx.global_rank)
        members = [worker.ctx.peer(r) for r in group.ranks]
        total = sum(shard_nbytes(m.shard) for m in members)
        moved = (group.size - 1) * total // group.size if group.size > 1 else 0
        group.record_traffic("hybrid_engine_all_gather", moved)

        # merge member training shards: same layer params concat on TP axis,
        # members ordered by training tensor rank
        members_sorted = sorted(members, key=lambda m: (m.ctx.coords.p, m.ctx.coords.t))
        merged: Dict[str, List[np.ndarray]] = {}
        order: Dict[str, List[int]] = {}
        for member in members_sorted:
            t_rank = member.ctx.coords.t
            for name, arr in member.shard.items():
                merged.setdefault(name, []).append(arr)
                order.setdefault(name, []).append(t_rank)
        gen_shard: Dict[str, np.ndarray] = {}
        for name, pieces in merged.items():
            axis = param_partition(name)
            if axis is None or len(pieces) == 1:
                gen_shard[name] = pieces[0].copy()
            else:
                ranked = [p for _, p in sorted(zip(order[name], pieces))]
                gen_shard[name] = np.concatenate(ranked, axis=axis)
        return gen_shard, moved

    def _gather_vanilla(self, worker):
        """VANILLA path: gather the full model in the MP group, then slice."""
        topo = self.group.train_topology
        cfg = topo.config
        gen = self.gen_topology
        mp_group = topo.mp_group(worker.ctx.global_rank)
        members = [worker.ctx.peer(r) for r in mp_group.ranks]
        total = sum(shard_nbytes(m.shard) for m in members)
        moved = (
            (mp_group.size - 1) * total // mp_group.size
            if mp_group.size > 1
            else 0
        )
        mp_group.record_traffic("hybrid_engine_all_gather", moved)
        by_coord = {
            (m.ctx.coords.p, m.ctx.coords.t): m.shard for m in members
        }
        full = gather_full_params(by_coord, tp_size=cfg.tp, pp_size=cfg.pp)
        c = gen.coords(worker.ctx.global_rank)
        gen_shard = shard_params(
            full,
            tp_rank=c.tg,
            tp_size=gen.config.tp,
            pp_rank=c.pg,
            pp_size=gen.config.pp,
            n_layers=worker.model_config.n_layers,
        )
        # overlap between the rank's training shard and its new gen shard:
        # bytes it can reuse; the rest of the training shard is duplicate
        overlap = 0
        for name, arr in worker.shard.items():
            if name in gen_shard:
                gen_arr = gen_shard[name]
                axis = param_partition(name)
                if axis is None:
                    overlap += arr.nbytes
                else:
                    # training slice [t/tp] overlaps gen slice [tg/tg_size]?
                    t_lo = worker.ctx.coords.t / cfg.tp
                    t_hi = (worker.ctx.coords.t + 1) / cfg.tp
                    g_lo = c.tg / gen.config.tp
                    g_hi = (c.tg + 1) / gen.config.tp
                    frac = max(0.0, min(t_hi, g_hi) - max(t_lo, g_lo)) * cfg.tp
                    overlap += int(arr.nbytes * frac)
        train_bytes = shard_nbytes(worker.shard)
        duplicate = train_bytes - overlap
        extra = shard_nbytes(gen_shard) - overlap
        return gen_shard, moved, extra, duplicate

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
