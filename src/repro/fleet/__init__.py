"""Multi-tenant fleet scheduling over one shared simulated cluster.

HybridFlow maps one RLHF dataflow onto one cluster; this package layers the
ROADMAP's production story on top: several concurrent jobs (each a full
single-controller :class:`~repro.runtime.builder.RlhfSystem`) gang-scheduled
onto one :class:`~repro.cluster.SimCluster`, surviving device/machine/rack
loss *across* tenants.

* :class:`JobSpec` — one tenant job: priority, iteration budget, and an
  elastic DP range, plus a deterministic build at any admissible width.
* :class:`FleetScheduler` — tick-driven gang scheduler: priority/aging
  admission, checkpoint-and-evict preemption, and fault-driven rebalancing
  (elastic resize onto survivors + bit-exact checkpoint resume).
* :class:`FleetReport` / :class:`JobReport` — per-job MTTR, goodput, lost
  work, preemption/resize counts, and Jain-fairness across the fleet; the
  ``BENCH_fleet.json`` record and :func:`compare_fleet_records`, its gate.
"""

from repro.fleet.job import JobSpec
from repro.fleet.report import (
    FleetReport,
    JobReport,
    compare_fleet_records,
    jain_fairness,
)
from repro.fleet.scheduler import FleetScheduler, JobState

__all__ = [
    "FleetReport",
    "FleetScheduler",
    "JobReport",
    "JobSpec",
    "JobState",
    "compare_fleet_records",
    "jain_fairness",
]
