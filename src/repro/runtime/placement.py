"""Placement plans: which models share which GPU pools (§2.3, §8.3).

A :class:`PlacementPlan` names a set of resource pools (with GPU counts) and
assigns each model a pool plus its parallelism strategy.  The canonical plans
of the paper's evaluation — *colocate* (DeepSpeed-Chat), *standalone*
(OpenRLHF), *split* (NeMo-Aligner) — are all groupings of roles onto pools
(:meth:`PlacementPlan.grouped`), and the auto-mapping algorithm (§6) emits
the same structure.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import GenParallelConfig, ParallelConfig


@dataclasses.dataclass
class ModelAssignment:
    """One model's pool and parallelism choice."""

    pool: str
    parallel: ParallelConfig
    gen_parallel: Optional[GenParallelConfig] = None

    def __post_init__(self) -> None:
        if self.gen_parallel is not None:
            mp = self.parallel.model_parallel_size
            gen_mp = self.gen_parallel.model_parallel_size
            if gen_mp * self.gen_parallel.micro_dp != mp:
                raise ValueError(
                    f"generation groups {self.gen_parallel} inconsistent with "
                    f"training {self.parallel}"
                )


@dataclasses.dataclass
class PlacementPlan:
    """Pools plus per-model assignments for one RLHF dataflow."""

    pools: Dict[str, int]
    assignments: Dict[str, ModelAssignment]

    def __post_init__(self) -> None:
        for model, assignment in self.assignments.items():
            if assignment.pool not in self.pools:
                raise ValueError(
                    f"model {model!r} assigned to unknown pool "
                    f"{assignment.pool!r}"
                )
            n = self.pools[assignment.pool]
            if assignment.parallel.world_size != n:
                raise ValueError(
                    f"model {model!r}: parallel config {assignment.parallel} "
                    f"needs {assignment.parallel.world_size} GPUs but pool "
                    f"{assignment.pool!r} has {n}"
                )

    @property
    def total_gpus(self) -> int:
        return sum(self.pools.values())

    def models(self) -> List[str]:
        return list(self.assignments)

    def colocated_models(self, pool: str) -> List[str]:
        return [m for m, a in self.assignments.items() if a.pool == pool]

    def pool_of(self, model: str) -> str:
        return self.assignments[model].pool

    @classmethod
    def grouped(
        cls,
        groups: Dict[str, Tuple[ParallelConfig, Sequence[str]]],
        gen_parallel: Optional[GenParallelConfig] = None,
    ) -> "PlacementPlan":
        """A plan from ``{pool: (parallel, roles)}``.

        Each pool has ``parallel.world_size`` GPUs and hosts ``roles``, all
        under that strategy; the actor generates under ``gen_parallel``.
        §8.3's shapes are one literal each: *colocate* is a single group,
        *standalone* one group per model, *split* actor+reference vs
        critic+reward.
        """
        return cls(
            pools={pool: par.world_size for pool, (par, _) in groups.items()},
            assignments={
                role: ModelAssignment(
                    pool, par, gen_parallel if role == "actor" else None
                )
                for pool, (par, roles) in groups.items()
                for role in roles
            },
        )
