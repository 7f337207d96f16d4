"""Fleet accounting: per-job recovery/goodput rows and fleet-wide fairness.

Everything is measured on the simulated clocks the rest of the repo uses:
per-job *useful* time is the simulated seconds that job spent on iterations
whose work survived (its :class:`~repro.runtime.RecoveryReport`'s
``iteration_times``, truncated by every rollback), and goodput is useful time over the job's wall time inside the fleet —
queue waits, repairs, and re-runs all erode it.  Fairness is Jain's index
over per-job goodput.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List


def jain_fairness(values: List[float]) -> float:
    """Jain's fairness index ``(Σx)² / (n·Σx²)`` — 1.0 means perfectly even.

    Defined for non-negative allocations; an empty or all-zero list counts
    as perfectly fair (nothing is being divided unevenly).
    """
    if not values:
        return 1.0
    if any(v < 0 for v in values):
        raise ValueError(f"fairness is defined over non-negative values: {values}")
    total = sum(values)
    squares = sum(v * v for v in values)
    if not squares:  # all-zero allocations: nothing divided unevenly
        return 1.0
    return (total * total) / (len(values) * squares)


@dataclasses.dataclass
class JobReport:
    """Final accounting of one tenant job."""

    name: str
    priority: int
    state: str  # "completed" | "failed" | "pending" | "running"
    dp: int  # DP width at the end (post any resizes)
    iterations: int
    preemptions: int
    resizes: int
    failures: int  # worker-loss events this job survived (or not)
    lost_iterations: int
    wait_ticks: int  # ticks spent schedulable-but-not-running
    downtime: float  # simulated repair seconds (reinit + restore)
    useful_time: float  # simulated seconds of surviving iteration work
    checkpoint_time: float  # simulated seconds writing checkpoints
    total_time: float  # submission -> completion on the fleet clock
    detail: str = ""  # failure reason, if any

    @property
    def mttr(self) -> float:
        """Mean simulated time to repair one of this job's failures."""
        if not self.failures:
            return 0.0
        return self.downtime / self.failures

    @property
    def goodput(self) -> float:
        """Fraction of the job's fleet wall time spent on surviving work."""
        if self.total_time <= 0:
            return 0.0
        return self.useful_time / self.total_time

    def to_dict(self) -> Dict[str, Any]:
        d = dataclasses.asdict(self)
        d["mttr"] = self.mttr
        d["goodput"] = self.goodput
        return d


@dataclasses.dataclass
class FleetReport:
    """What one fleet run did, job by job."""

    jobs: List[JobReport]
    makespan: float  # fleet clock at the end of the run
    ticks: int
    devices_killed: int
    #: ``AnalysisReport`` finding counts by family (empty = clean) when the
    #: scheduler ran the DF/TA/SH/RC check gate over each completed job.
    analysis_findings: Dict[str, int] = dataclasses.field(default_factory=dict)
    checks_run: bool = False

    @property
    def all_completed(self) -> bool:
        return bool(self.jobs) and all(j.state == "completed" for j in self.jobs)

    @property
    def preemptions(self) -> int:
        return sum(j.preemptions for j in self.jobs)

    @property
    def resizes(self) -> int:
        return sum(j.resizes for j in self.jobs)

    @property
    def failures(self) -> int:
        return sum(j.failures for j in self.jobs)

    @property
    def fairness(self) -> float:
        """Jain's index over per-job goodput (completed jobs only)."""
        return jain_fairness(
            [j.goodput for j in self.jobs if j.state == "completed"]
        )

    @property
    def mttr(self) -> float:
        """Fleet-wide mean repair time across every job failure."""
        failures = self.failures
        if not failures:
            return 0.0
        return sum(j.downtime for j in self.jobs) / failures

    def job(self, name: str) -> JobReport:
        for j in self.jobs:
            if j.name == name:
                return j
        raise KeyError(f"no job named {name!r} in this report")

    def problems(self) -> List[str]:
        """Why this run does not pass (empty = it does): the verdict
        ``repro fleet`` exits on and :meth:`bench_record` stores as ``ok``."""
        problems = []
        if not self.all_completed:
            problems.append("not every job completed")
        if not all(j.goodput > 0 for j in self.jobs):
            problems.append("a job finished with zero goodput")
        if self.analysis_findings:
            problems.append("analysis gate found issues")
        return problems

    def bench_record(self, cluster_gpus: int, metrics_series: int) -> Dict[str, Any]:
        """The ``BENCH_fleet.json`` record (``repro fleet --bench-out``);
        :func:`compare_fleet_records` is its gate."""
        goodputs = {j.name: j.goodput for j in self.jobs}
        return {
            "benchmark": "fleet_chaos_smoke",
            "jobs": len(self.jobs),
            "cluster_gpus": cluster_gpus,
            "devices_killed": self.devices_killed,
            "goodput_per_job": goodputs,
            "goodput_mean": sum(goodputs.values()) / len(goodputs),
            "mttr": self.mttr,
            "fairness": self.fairness,
            "preemptions": self.preemptions,
            "resizes": self.resizes,
            "failures": self.failures,
            "makespan": self.makespan,
            "ticks": self.ticks,
            "all_completed": self.all_completed,
            "analysis_findings": dict(self.analysis_findings),
            "metrics_series": metrics_series,
            "ok": not self.problems(),
        }

    def to_dict(self) -> Dict[str, Any]:
        return {
            "jobs": [j.to_dict() for j in self.jobs],
            "makespan": self.makespan,
            "ticks": self.ticks,
            "devices_killed": self.devices_killed,
            "preemptions": self.preemptions,
            "resizes": self.resizes,
            "failures": self.failures,
            "mttr": self.mttr,
            "fairness": self.fairness,
            "all_completed": self.all_completed,
            "analysis_findings": dict(self.analysis_findings),
            "checks_run": self.checks_run,
        }

    def summary_lines(self) -> List[str]:
        lines = [
            f"fleet: {len(self.jobs)} job(s) over {self.ticks} tick(s), "
            f"makespan {self.makespan:.2f}s, {self.devices_killed} device(s) "
            f"killed, {self.preemptions} preemption(s), "
            f"{self.resizes} resize(s)"
        ]
        for j in sorted(self.jobs, key=lambda j: j.name):
            extras = []
            if j.failures:
                extras.append(f"{j.failures} failure(s), MTTR {j.mttr:.2f}s")
            if j.lost_iterations:
                extras.append(f"lost {j.lost_iterations} iter(s)")
            if j.preemptions:
                extras.append(f"preempted x{j.preemptions}")
            if j.resizes:
                extras.append(f"resized x{j.resizes} (dp={j.dp})")
            if j.detail:
                extras.append(j.detail)
            suffix = f" [{'; '.join(extras)}]" if extras else ""
            lines.append(
                f"  {j.name}: {j.state}, {j.iterations} iter(s), "
                f"goodput {j.goodput:.3f}{suffix}"
            )
        lines.append(f"  fairness (Jain over goodput): {self.fairness:.3f}")
        if self.checks_run:
            if self.analysis_findings:
                counts = ", ".join(
                    f"{fam}={n}" for fam, n in sorted(self.analysis_findings.items())
                )
                lines.append(f"  analysis gate: FINDINGS {counts}")
            else:
                lines.append("  analysis gate: clean (DF/TA/SH/RC)")
        return lines


def compare_fleet_records(
    current: Dict[str, Any], baseline: Dict[str, Any]
) -> List[str]:
    """Trajectory check for :meth:`FleetReport.bench_record` records.

    The fleet record mixes structural facts (job/cluster shape, kill
    count) with outcome flags; only those are compared — goodput magnitudes
    are host-speed-free but schedule-derived, so they are required positive
    rather than equal.
    """
    problems: List[str] = []
    for field in ("benchmark", "jobs", "cluster_gpus", "devices_killed"):
        if current.get(field) != baseline.get(field):
            problems.append(
                f"{field}: {current.get(field)!r} != baseline "
                f"{baseline.get(field)!r} — re-baseline the fleet record"
            )
    for flag in ("all_completed", "ok"):
        if not current.get(flag):
            problems.append(f"{flag} is false in the current fleet run")
    if not current.get("goodput_mean", 0) > 0:
        problems.append("goodput_mean is not positive in the current fleet run")
    findings = current.get("analysis_findings") or {}
    if any(findings.values()):
        problems.append(f"fleet analysis gate found issues: {findings}")
    return problems
