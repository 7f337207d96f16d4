"""Multi-tenant fleet scheduling: several RLHF jobs, one shared cluster.

HybridFlow maps one RLHF dataflow onto one cluster; ``repro.fleet`` layers
the production story on top: several concurrent tenant jobs — each a full
single-controller :class:`~repro.runtime.builder.RlhfSystem` — are
gang-scheduled onto one shared simulated cluster and survive machine loss
*across* tenants.  This example walks three scenarios:

1. A clean run: three tenants share 12 GPUs, everyone completes, Jain
   fairness over per-job goodput is reported.
2. A correlated double-machine kill: the elastic tenant is evicted, resized
   to a narrower data-parallel width on the survivors, restored from its
   atomic checkpoint, and resumes bit-exact; a fixed-width tenant degrades
   gracefully (requeues with aging) until capacity frees up.
3. Priority preemption: a high-priority job arrives into a full cluster, a
   low-priority victim is checkpointed-and-evicted, and later resumes from
   its own checkpoint with no lost iterations.

Run:  python examples/fleet_scheduling.py
"""

import tempfile

from repro.config import ClusterSpec
from repro.faults import FaultPlan
from repro.fleet import FleetScheduler, JobSpec


def run_fleet(title, cluster_spec, jobs, fault_plan=None):
    print(f"\n=== {title} ===")
    with tempfile.TemporaryDirectory() as ckpt_root:
        report = FleetScheduler(
            cluster_spec,
            jobs,
            checkpoint_root=ckpt_root,
            fault_plan=fault_plan,
            run_checks=True,
        ).run()
    for line in report.summary_lines():
        print(line)
    # the verdict `repro fleet` exits on: everyone completed with positive
    # goodput and the DF/TA/SH/RC gate over each finished job is clean
    assert not report.problems(), report.problems()
    return report


def main() -> None:
    cluster = ClusterSpec(n_machines=3, gpus_per_machine=4)  # 12 GPUs

    # -- 1. clean multi-tenant run ---------------------------------------------------
    tenants = [
        JobSpec(name="alpha", preferred_dp=2, min_dp=1, n_iterations=4, seed=7),
        JobSpec(name="beta", n_iterations=3, seed=11),
        JobSpec(name="gamma", n_iterations=3, seed=13),
    ]
    run_fleet("three tenants, no faults", cluster, tenants)

    # -- 2. correlated machine kill: resize + graceful degradation -------------------
    # Machines 0 and 2 die in the same tick (a correlated failure: think one
    # power feed).  Only machine 1's four GPUs survive, so alpha — admitted
    # wide at dp=2 — can only be readmitted narrow, at dp=1, restored from
    # its latest atomic checkpoint.
    report = run_fleet(
        "correlated double-machine kill at tick 2",
        cluster,
        tenants,
        fault_plan=FaultPlan().kill_machines([0, 2], at_step=2),
    )
    alpha = report.job("alpha")
    assert alpha.resizes >= 1 and alpha.dp == 1
    print(
        f"  -> alpha survived {alpha.failures} failure(s) "
        f"(MTTR {alpha.mttr:.2f}s), finished at dp={alpha.dp}"
    )

    # -- 3. priority preemption ------------------------------------------------------
    # Two low-priority tenants fill a 2-machine cluster; a high-priority job
    # arrives one tick later and does not fit, so the weakest running victim
    # is checkpointed and evicted, then resumes after the VIP finishes.
    small = ClusterSpec(n_machines=2, gpus_per_machine=4)  # 8 GPUs
    report = run_fleet(
        "high-priority arrival preempts a low-priority tenant",
        small,
        [
            JobSpec(name="low-a", priority=0, preferred_dp=2, n_iterations=4, seed=7),
            JobSpec(name="low-b", priority=0, n_iterations=4, seed=11),
            JobSpec(
                name="high",
                priority=10,
                n_iterations=3,
                seed=13,
                arrival_tick=1,
            ),
        ],
    )
    assert report.preemptions >= 1
    victim = max(report.jobs, key=lambda j: j.preemptions)
    print(
        f"  -> {victim.name} was preempted x{victim.preemptions} and still "
        f"completed {victim.iterations} iteration(s) "
        f"({victim.lost_iterations} lost)"
    )


if __name__ == "__main__":
    main()
