"""One-step-off RLHF: rollout t+1 overlaps training of t (repro.pipeline).

The synchronous PPO loop serializes generation -> scoring -> update, so the
actor's devices idle while the scorer pool runs and vice versa.  The
:class:`repro.pipeline.AsyncPipelineDriver` relaxes the dataflow by a
bounded staleness window *W*: while the trainer consumes iteration *t*, the
rollout engine already generates *t+1* on the last *published* policy.
Every sequence carries its behaviour policy's version tag, and stale
batches are corrected with truncated importance weights inside the PPO
loss.

:func:`repro.pipeline.overlap_study` — the function behind ``repro pipeline``
and the ``async_ppo_overlap`` bench pin — runs the shipped PPO job three
times on the disaggregated placement (actor alone; critic, reference and
reward on a scorer pool).  Four guarantees, narrated below:

1. ``staleness_window=0`` is **bit-exact** with the synchronous trainer —
   it is the trainer's own loop, never looking ahead.
2. ``staleness_window=1`` collapses the generation<->training bubble on the
   modeled timeline.
3. The overlapped schedule is **provably race-free**: weight publication
   uses double-buffered version snapshots, and the vector-clock race
   detector (RC5xx) passes over the exported trace.
4. A ``W=1`` job supervised by :func:`repro.runtime.train_with_recovery`
   loses a device between a rollout and its learn, restores the last
   checkpoint with a rollout still in flight, and finishes bit-exact with
   the fault-free ``W=1`` run.

Run:  python examples/async_pipeline.py
      python examples/async_pipeline.py --staleness 2 --trace async.json
"""

import argparse
import tempfile

from repro.config import ClusterSpec
from repro.faults import FaultInjector, FaultPlan
from repro.pipeline import AsyncPipelineDriver, PipelineConfig, overlap_study
from repro.runtime import SystemSpec, train_with_recovery

# the job overlap_study runs: the shipped PPO job, disaggregated, on 4 GPUs
JOB = SystemSpec(disaggregated=True)
CLUSTER = ClusterSpec(n_machines=1, gpus_per_machine=4)


def build_w1(cluster=None):
    """The W=1 job as a supervisor builds it: a driver wraps the trainer."""
    system = JOB.build(cluster, CLUSTER)
    AsyncPipelineDriver(system.trainer, PipelineConfig(staleness_window=1))
    return system


def supervised_recovery(n_iterations: int, batch_size: int) -> None:
    print("stage 4: W=1 under train_with_recovery, a device lost mid-overlap")
    reference = build_w1()
    reference.trainer.train(JOB.dataset(), n_iterations, batch_size)
    # kill an actor GPU right after the last rollout: the next actor call is
    # the previous iteration's learn, with that rollout still in flight
    last_rollout = [
        r.seq for r in reference.controller.trace
        if r.method == "generate_sequences"
    ][-1]
    injector = FaultInjector(FaultPlan().kill_device(0, at_step=last_rollout + 1))
    with tempfile.TemporaryDirectory() as ckpt_dir:
        system, history, report = train_with_recovery(
            build_w1, JOB.dataset(), n_iterations, batch_size, ckpt_dir,
            checkpoint_every=1, injector=injector,
        )
    for line in report.summary_lines():
        print("  " + line)
    assert report.n_failures == 1, "the device loss was not detected"
    assert history == reference.trainer.history, "recovered history diverged!"
    assert system.state_digest() == reference.state_digest(), "state diverged!"
    print(
        f"  recovered run == fault-free W=1 run (history, state digest), "
        f"max staleness {system.trainer.pipeline.max_staleness_seen}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--staleness", type=int, default=1, help="staleness window W"
    )
    parser.add_argument("--iterations", type=int, default=4)
    parser.add_argument("--batch", type=int, default=4)
    parser.add_argument(
        "--stream",
        action="store_true",
        help="score with the frozen models at rollout time (same numerics)",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write a Chrome trace and run the RC5xx race detector on it",
    )
    parser.add_argument(
        "--metrics",
        default=None,
        metavar="PATH",
        help="write the run's metrics as Prometheus text",
    )
    args = parser.parse_args(argv)

    study = overlap_study(
        args.iterations,
        args.batch,
        PipelineConfig(
            staleness_window=args.staleness, stream_scoring=args.stream
        ),
    )
    print(f"stage 1: synchronous PPO, {args.iterations} iterations")
    print(f"  modeled makespan {study.sync_makespan:.1f}s")

    print("stage 2: async driver with an EMPTY window (W=0)")
    if not study.bit_exact:
        print("  BIT-EXACTNESS VIOLATED — the relaxation leaked into W=0")
        return 1
    print("  bit-exact with the synchronous trainer (weights + optimizer)")

    print(f"stage 3: one-step-off overlap (W={args.staleness})")
    report, timeline = study.report, study.timeline
    print(
        f"  max staleness seen {report['max_staleness_seen']} "
        f"(window {report['staleness_window']}), buffer peak "
        f"{report['buffer_peak_occupancy']}/{report['buffer_capacity']}"
    )
    print(
        f"  {report['publications']} weight publications, "
        f"{report['published_bytes']} bytes via the train->gen plan"
    )
    if args.staleness > 0:
        history = study.system.trainer.history
        stale = [h for h in history if "pipeline/staleness" in h]
        print(
            f"  {len(stale)}/{len(history)} iterations trained on stale "
            "experience (importance-weight corrected)"
        )
    print(
        f"  modeled makespan {timeline.makespan:.1f}s "
        f"(speedup {study.speedup:.3f}x over synchronous)"
    )
    for pool in timeline.pools():
        print(
            f"    pool {pool:8s} idle "
            f"{timeline.idle_fraction(pool) * 100:5.1f}%"
        )

    exit_code = 0
    controller = study.system.controller
    if args.trace:
        from repro.analysis import system_audit
        from repro.observability import write_chrome_trace

        out = write_chrome_trace(
            args.trace, timeline=timeline, spans=controller.tracer.spans
        )
        print(f"  wrote Chrome trace to {out} (load in chrome://tracing)")
        audit, races = system_audit(study.system)
        for line in audit.summary_lines():
            print(f"  {line}")
        if races:
            print(f"  RACE DETECTED: {len(races)} RC5xx finding(s)")
            exit_code = 1
        else:
            print("  race detector: the overlapped schedule is clean")
    if args.metrics:
        from repro.observability import collect_system_metrics, write_prometheus

        collect_system_metrics(controller)
        out = write_prometheus(args.metrics, controller.metrics)
        print(f"  wrote Prometheus metrics to {out}")
    supervised_recovery(args.iterations, args.batch)
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
