"""Tenant job description: what one RLHF job in the fleet looks like.

A :class:`JobSpec` is the scheduler-facing contract of a job: its priority,
its iteration budget, its *elastic range* of data-parallel widths, and — as
a :class:`~repro.runtime.SystemSpec` at any admissible width — how to build
a fresh :class:`~repro.runtime.builder.RlhfSystem` for it.  The build is
deterministic in (spec, width), which is what makes checkpoint/evict/resize/
resume bit-exact.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from repro.config import ClusterSpec
from repro.data.dataset import PromptDataset
from repro.models.tinylm import TinyLMConfig
from repro.rlhf.core import AlgoType
from repro.runtime.builder import RlhfSystem, SystemSpec

#: Algorithms whose model set (actor/critic/reference + function reward) the
#: default job shape can build; SAFE_RLHF needs a cost model pool.
SUPPORTED_ALGOS = (AlgoType.PPO, AlgoType.REMAX, AlgoType.GRPO)


@dataclasses.dataclass
class JobSpec:
    """One tenant RLHF job submitted to the fleet.

    The scheduling fields are documented here; ``tp`` … ``model_config``
    are :class:`~repro.runtime.SystemSpec`'s, with its defaults.

    Attributes:
        name: Unique job name (also its checkpoint subdirectory).
        priority: Larger = more important; preemption only ever evicts a
            strictly lower-priority victim.
        n_iterations: PPO iterations to run to completion.
        batch_size: Global batch per iteration; every admissible DP width
            must divide it (asserted at construction).
        checkpoint_every: Save an atomic checkpoint after every N completed
            iterations.
        tp: Tensor-parallel width (fixed — only DP is elastic).
        preferred_dp: DP width the job wants when capacity allows.
        min_dp: Narrowest DP width the job accepts when degraded.
        arrival_tick: Fleet tick at which the job becomes schedulable.
        algo: RLHF algorithm variant (see :data:`SUPPORTED_ALGOS`).
    """

    name: str
    priority: int = 0
    n_iterations: int = 4
    batch_size: int = 8
    checkpoint_every: int = 1
    tp: int = SystemSpec.tp
    preferred_dp: int = 1
    min_dp: int = 1
    arrival_tick: int = 0
    seed: int = SystemSpec.seed
    lr: float = SystemSpec.lr
    kl_coef: float = SystemSpec.kl_coef
    max_new_tokens: int = SystemSpec.max_new_tokens
    target_token: int = SystemSpec.target_token
    dataset_seed: int = SystemSpec.dataset_seed
    n_prompts: int = SystemSpec.n_prompts
    prompt_length: int = SystemSpec.prompt_length
    algo: AlgoType = SystemSpec.algo
    model_config: Optional[TinyLMConfig] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a job needs a non-empty name")
        if self.n_iterations < 1:
            raise ValueError(f"n_iterations must be >= 1, got {self.n_iterations}")
        if self.checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every}"
            )
        if self.min_dp < 1 or self.preferred_dp < self.min_dp:
            raise ValueError(
                f"need 1 <= min_dp <= preferred_dp, got "
                f"{self.min_dp}..{self.preferred_dp}"
            )
        self.algo = AlgoType(self.algo)
        if self.algo not in SUPPORTED_ALGOS:
            raise ValueError(
                f"fleet jobs support {[a.value for a in SUPPORTED_ALGOS]}, "
                f"got {self.algo.value}"
            )
        if self.model_config is None:
            self.model_config = SystemSpec.model_config
        if not self.candidate_dps():
            raise ValueError(
                f"job {self.name!r} has no admissible DP width: none of "
                f"{self.min_dp}..{self.preferred_dp} divides "
                f"batch_size={self.batch_size}"
            )

    # -- elastic geometry --------------------------------------------------------------

    def candidate_dps(self) -> List[int]:
        """Admissible DP widths, widest (most preferred) first.

        Widths that do not divide ``batch_size`` are skipped: DP replicas
        each take an equal batch slice, so an indivisible width would change
        the per-replica batch shape and break bit-exact resume.
        """
        return [
            dp
            for dp in range(self.preferred_dp, self.min_dp - 1, -1)
            if self.batch_size % dp == 0
        ]

    def gpus_at(self, dp: int) -> int:
        """GPU demand at width ``dp``: the model pool plus one reward GPU."""
        return self.tp * dp + 1

    @property
    def min_gpus(self) -> int:
        return self.gpus_at(self.candidate_dps()[-1])

    # -- construction ------------------------------------------------------------------

    def system_at(self, dp: int) -> SystemSpec:
        """The job as a buildable system at DP width ``dp``."""
        own = vars(self)
        shared = [f.name for f in dataclasses.fields(SystemSpec) if f.name in own]
        return SystemSpec(dp=dp, **{name: own[name] for name in shared})

    def dataset(self) -> PromptDataset:
        """A fresh, deterministic prompt stream (same bytes every call)."""
        return self.system_at(self.preferred_dp).dataset()

    def build(
        self,
        cluster=None,
        dp: Optional[int] = None,
        cluster_spec: Optional[ClusterSpec] = None,
    ) -> RlhfSystem:
        """Build this job's system at width ``dp`` (default: preferred).

        Pass the fleet's shared ``cluster`` to allocate out of it, or a
        ``cluster_spec`` to materialise a private cluster (reference runs in
        tests).  Deterministic in (spec, dp): two builds at the same width
        start bit-identical.
        """
        dp = self.preferred_dp if dp is None else dp
        if dp not in self.candidate_dps():
            raise ValueError(
                f"job {self.name!r} cannot run at dp={dp}; admissible "
                f"widths are {self.candidate_dps()}"
            )
        return self.system_at(dp).build(cluster=cluster, cluster_spec=cluster_spec)
