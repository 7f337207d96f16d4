"""Command-line interface: argument parsing, dispatch and printing.

Each subcommand parses its flags, builds the configs it runs, calls the
function that does the work — the analytic models of
``repro.perf``/``repro.mapping``, or a self-verifying flow beside its
subsystem (``runtime.train_with_recovery``, ``pipeline.overlap_study``,
``serving.RolloutServer``, ``fleet.FleetScheduler``, ``analysis``) — and
prints what came back.  ``python -m repro.cli --help`` lists the
subcommands; ``<subcommand> --help`` its flags.

A bound is declared once, on the setting it bounds: a flag that feeds a
config field takes the bound in that field's metadata (``_arg``'s
``bound=(Config, "field")``), a flag no config holds declares its own.
``main`` holds every flag to its bound, then runs the subcommand's set-up,
which builds its configs; a value out of bound, or a ``ValueError`` from
that set-up, exits 2 with one line on stderr naming the flag, before
anything runs or prints.  A run that fails or fails its own check exits 1.

Examples::

    python -m repro.cli throughput --model llama-7b --machines 2
    python -m repro.cli map --model llama-70b --machines 16 --algo ppo
    python -m repro.cli transition --model llama-13b --tp 8 --dp 2 --gen-tp 2
    python -m repro.cli sweep-gen --model llama-13b
    python -m repro.cli map-hetero --zone a100:A100-80GB:1 --zone h100:H100-80GB:1
    python -m repro.cli faults --kill-machine 0 --at-step 30 --iterations 6
    python -m repro.cli faults --kill-device 1 --trace run.json --metrics run.prom
    python -m repro.cli serve --requests 16 --slots 4 --blocks 12
    python -m repro.cli fleet --jobs 3 --kill-machine 0 --kill-machine 2
    python -m repro.cli pipeline --staleness 1 --iterations 3 --trace async.json
    python -m repro.cli check --strict --models
    python -m repro.cli bench --check
"""

from __future__ import annotations

import argparse
import shlex
import sys
from typing import Any, Dict, List, Optional

from repro.analysis.modelcheck import ModelChecker
from repro.baselines import ALL_SYSTEMS
from repro.baselines.common import InfeasibleScenario
from repro.config import (
    GPU_SPECS,
    MODEL_SPECS,
    BoundError,
    ClusterSpec,
    GenParallelConfig,
    ParallelConfig,
    RlhfWorkload,
    check_bound,
    field_bounds,
)
from repro.faults.plan import FaultEvent
from repro.faults.policy import RetryPolicy
from repro.fleet.job import JobSpec
from repro.hybrid_engine.overhead import EngineKind, transition_overhead
from repro.mapping import ClusterZone, map_dataflow
from repro.perf.generation import generation_latency
from repro.perf.transition import transition_time
from repro.pipeline.config import PipelineConfig
from repro.rlhf.core import AlgoType
from repro.runtime.builder import required_models
from repro.serving.server import ServingConfig


class _Parser(argparse.ArgumentParser):
    """A flag value argparse cannot read is one stderr line naming the flag,
    as an out-of-bound value is; any other parse error keeps the usage."""

    def error(self, message: str):
        flag, _, reason = message.partition(": ")
        if flag.startswith("argument ") and reason.startswith("invalid ") and " value: " in reason:
            self.exit(2, f"{flag[len('argument '):]}: {reason}\n")
        super().error(message)


class UsageError(Exception):
    """Arguments no run could honour: ``main`` exits 2."""


class RunFailed(Exception):
    """A run that died or failed its own check: ``main`` exits 1."""


def _require_index(flag: str, value: int, n: int, unit: str) -> None:
    if not 0 <= value < n:
        raise UsageError(f"{flag} {value} out of range for {n} {unit}")


def _require_fits(args: argparse.Namespace, cluster: ClusterSpec, gpus: int, what: str) -> None:
    """``what`` takes ``gpus`` GPUs: more than the cluster has is a usage
    error, found before anything runs."""
    if gpus > cluster.n_gpus:
        raise UsageError(
            f"{what} but --machines {args.machines} x --gpus-per-machine "
            f"{args.gpus_per_machine} give {cluster.n_gpus}"
        )


def _write_json(path: str, doc: Any, context: str):
    """Write ``doc`` through the ``json_safe`` sanitizer (a raw ``json.dumps``
    could leak numpy scalars into the file)."""
    import json
    import pathlib

    from repro.serialization import json_safe

    out = pathlib.Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(json_safe(doc, context), indent=2) + "\n")
    return out


def _arg(parser: argparse.ArgumentParser, flag: str, bound=None, **kwargs) -> None:
    """``add_argument`` with the flag's bound, which ``main`` checks before the
    subcommand runs: ``(Config, "field")`` takes the bound that field
    declares, a dict (``{"ge": 0}``) is the bound of a flag no config holds."""
    action = parser.add_argument(flag, **kwargs)
    action.setting = None
    if isinstance(bound, tuple):
        config, action.setting = bound
        bound = field_bounds(config)[action.setting][0]
    action.bound = bound


#: Flags several subcommands take, declared once; a subcommand may give its
#: own default and help.
_SHARED: Dict[str, Dict[str, Any]] = {
    "--machines": dict(type=int, bound=(ClusterSpec, "n_machines"), help="simulated machines"),
    "--gpus-per-machine": dict(type=int, default=4, bound=(ClusterSpec, "gpus_per_machine"),
                               help="GPUs per simulated machine"),
    "--iterations": dict(type=int, bound=(JobSpec, "n_iterations"), help="PPO iterations"),
    "--ckpt-every": dict(type=int, default=1, bound=(JobSpec, "checkpoint_every"),
                         help="checkpoint interval in iterations"),
    "--batch": dict(type=int, bound=(RlhfWorkload, "global_batch_size"),
                    help="global prompt batch size"),
    "--seed": dict(type=int, default=0, bound=(RetryPolicy, "seed")),
}


def _shared(parser: argparse.ArgumentParser, flag: str, **own: Any) -> None:
    _arg(parser, flag, **{**_SHARED[flag], **own})


def _common_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", default="llama-7b", choices=sorted(MODEL_SPECS),
                        help="Llama-class model size for every role")
    _shared(parser, "--machines", default=2,
            help="number of 8-GPU machines in the simulated cluster")
    parser.add_argument("--algo", default="ppo", choices=[a.value for a in AlgoType],
                        help="RLHF algorithm (dataflow variant)")
    _shared(parser, "--batch", default=1024)
    _arg(parser, "--prompt-length", type=int, default=1024,
         bound=(RlhfWorkload, "prompt_length"), help="prompt tokens")
    _arg(parser, "--response-length", type=int, default=1024,
         bound=(RlhfWorkload, "response_length"), help="response tokens")


def _parallel_args(parser: argparse.ArgumentParser) -> None:
    """The training ``p-t-d`` of ``transition`` and ``sweep-gen``."""
    for flag, default in (("--pp", 1), ("--tp", 8), ("--dp", 2)):
        _arg(parser, flag, type=int, default=default, bound=(ParallelConfig, flag[2:]))


def _analytic(args: argparse.Namespace):
    """Set-up of the analytic subcommands: ``(algo, model specs by role,
    cluster, workload)``."""
    algo = AlgoType(args.algo)
    specs = {role: MODEL_SPECS[args.model] for role in required_models(algo)}
    workload = RlhfWorkload(
        prompt_length=args.prompt_length,
        response_length=args.response_length,
        global_batch_size=args.batch,
    )
    return algo, specs, ClusterSpec(n_machines=args.machines), workload


def cmd_throughput(args: argparse.Namespace, built) -> int:
    algo, specs, cluster, wl = built
    print(
        f"{algo.value} / {args.model} on {cluster.n_gpus} GPUs "
        f"(batch {wl.global_batch_size}, {wl.prompt_length}/{wl.response_length} tokens)"
    )
    results = {}
    for system, estimate_fn in ALL_SYSTEMS.items():
        try:
            est = estimate_fn(algo, specs, cluster, wl)
            results[system] = est
            b = est.breakdown
            print(
                f"  {system:15s} {est.throughput(wl):>10,.0f} tok/s  "
                f"(iter {b.total:7.1f}s: gen {b.generation:.1f} / "
                f"prep {b.preparation:.1f} / train {b.training:.1f} / "
                f"transition {b.transition:.2f})"
            )
        except InfeasibleScenario as exc:
            print(f"  {system:15s} {'OOM':>10}  ({exc})")
    if "HybridFlow" in results:
        hf = results["HybridFlow"].throughput(wl)
        for system, est in results.items():
            if system != "HybridFlow":
                print(f"  speedup vs {system}: {hf / est.throughput(wl):.2f}x")
    return 0


def _map(algo, specs, cluster, wl):
    """``map_dataflow``; a search that finds no feasible mapping fails the run."""
    try:
        return map_dataflow(algo, specs, cluster, wl)
    except InfeasibleScenario as exc:
        raise RunFailed(str(exc)) from None


def cmd_map(args: argparse.Namespace, built) -> int:
    algo, specs, cluster, wl = built
    result = _map(algo, specs, cluster, wl)
    print(f"best mapping for {algo.value} / {args.model} on {cluster.n_gpus} GPUs:")
    print(f"  {result.describe()}")
    for model, choice in result.strategies.items():
        gen = (
            f", generation tp={choice.gen_tp} pp={choice.gen_pp}"
            if choice.gen_tp
            else ""
        )
        print(f"    {model:9s} {choice.parallel}{gen}")
    b = result.breakdown
    print(
        f"  iteration {b.total:.1f}s "
        f"(gen {b.generation:.1f} / prep {b.preparation:.1f} / "
        f"train {b.training:.1f} / transition {b.transition:.2f})"
    )
    print(f"  throughput {b.throughput(wl):,.0f} tokens/sec")
    return 0


def _transition(args: argparse.Namespace):
    train = ParallelConfig(pp=args.pp, tp=args.tp, dp=args.dp)
    gen = GenParallelConfig.derive(train, args.gen_pp, args.gen_tp)
    return ClusterSpec(n_machines=args.machines), train, gen


def cmd_transition(args: argparse.Namespace, built) -> int:
    spec = MODEL_SPECS[args.model]
    cluster, train, gen = built
    print(
        f"{args.model}: training {train} -> generation "
        f"{args.gen_pp}-{args.gen_tp} (micro-DP {gen.micro_dp})"
    )
    model_bytes = spec.param_bytes()
    for kind in EngineKind:
        if kind is EngineKind.DS_CHAT:
            t = transition_time(
                kind,
                spec,
                cluster,
                ParallelConfig(1, 1, train.world_size),
                GenParallelConfig(1, 1, 1),
            )
            o = transition_overhead(
                kind, ParallelConfig(1, 1, train.world_size), GenParallelConfig(1, 1, 1)
            )
        else:
            t = transition_time(kind, spec, cluster, train, gen)
            o = transition_overhead(kind, train, gen)
        print(
            f"  {kind.value:13s} time={t:8.3f}s  "
            f"comm={o.comm_bytes(model_bytes) / 1e9:7.2f} GB/GPU  "
            f"peak={o.peak_memory_bytes(model_bytes) / 1e9:6.2f} GB  "
            f"redundant={o.redundancy_bytes(model_bytes) / 1e9:5.2f} GB"
        )
    return 0


def cmd_sweep_gen(args: argparse.Namespace, built) -> int:
    spec = MODEL_SPECS[args.model]
    _, _, cluster, wl = built
    train = ParallelConfig(pp=args.pp, tp=args.tp, dp=args.dp)
    print(
        f"{args.model} generation sweep on {cluster.n_gpus} GPUs "
        f"(training {train}, reserved {args.reserved_gb} GB/GPU)"
    )
    best: Optional[tuple] = None
    # the powers of two up to t that divide the training MP size (§5.1)
    for tg in (2**i for i in range(train.tp.bit_length())):
        if train.model_parallel_size % tg:
            continue
        gen = GenParallelConfig.derive(train, 1, tg)
        est = generation_latency(
            spec,
            cluster,
            tg,
            1,
            n_replicas=train.dp * gen.micro_dp,
            workload=wl,
            reserved_bytes=args.reserved_gb * 1e9,
        )
        trans = transition_time(EngineKind.HYBRIDFLOW, spec, cluster, train, gen)
        total = est.total + trans
        print(
            f"  t_g={tg}: generation {est.total:8.1f}s + transition "
            f"{trans:6.3f}s = {total:8.1f}s "
            f"(waves={est.n_waves}, concurrent={est.concurrent_sequences})"
        )
        if best is None or total < best[1]:
            best = (tg, total)
    assert best is not None
    print(f"  -> best generation TP size: t_g={best[0]}")
    return 0


def _zones(args: argparse.Namespace) -> List[ClusterZone]:
    zones: List[ClusterZone] = []
    for entry in args.zones or ["a100:A100-80GB:1", "h100:H100-80GB:1"]:
        try:
            name, gpu_name, machines = entry.split(":")
            zone = ClusterZone(
                name, ClusterSpec(n_machines=int(machines), gpu=GPU_SPECS[gpu_name])
            )
        except BoundError as exc:
            raise UsageError(
                f"bad --zone {entry!r}; MACHINES {exc.requirement}, got {exc.value}"
            ) from None
        except (ValueError, KeyError):
            raise UsageError(
                f"bad --zone {entry!r}; expected NAME:GPU:MACHINES with GPU "
                f"in {sorted(GPU_SPECS)}"
            ) from None
        if any(z.name == name for z in zones):
            raise UsageError(f"bad --zone {entry!r}; zone {name!r} is named twice")
        zones.append(zone)
    return zones


def cmd_map_hetero(args: argparse.Namespace, built) -> int:
    algo, specs, _, wl, zones = built
    result = _map(algo, specs, zones, wl)
    total = sum(z.n_gpus for z in zones)
    print(
        f"best heterogeneous mapping for {algo.value} / {args.model} over "
        f"{total} GPUs in {len(zones)} zones:"
    )
    print(f"  {result.describe()}")
    for model, choice in result.strategies.items():
        print(
            f"    {model:9s} {choice.parallel} on zone "
            f"{result.zone_of(model)}"
        )
    b = result.breakdown
    print(f"  iteration {b.total:.1f}s, throughput {b.throughput(wl):,.0f} tok/s")
    return 0


def _shipped_job_faults(args: argparse.Namespace):
    """``(cluster spec, injector, retry policy)``: where the shipped job runs,
    the faults ``args`` schedule against it, and how it retries — the job's
    placement fits the cluster before anything runs."""
    from repro.faults import FaultInjector, FaultPlan
    from repro.runtime import SystemSpec

    spec = ClusterSpec(
        n_machines=args.machines, gpus_per_machine=args.gpus_per_machine
    )
    placement = SystemSpec().plan
    placed = ", ".join(f"{pool} {n}" for pool, n in placement.pools.items())
    _require_fits(
        args,
        spec,
        placement.total_gpus,
        f"the shipped job places {placement.total_gpus} GPUs ({placed})",
    )
    plan = FaultPlan()
    if args.kill_machine is not None:
        _require_index(
            "--kill-machine", args.kill_machine, spec.n_machines, "machine(s)"
        )
        plan.kill_machine(args.kill_machine, at_step=args.at_step)
    if args.kill_device is not None:
        _require_index("--kill-device", args.kill_device, spec.n_gpus, "GPU(s)")
        plan.kill_device(args.kill_device, at_step=args.at_step)
    if args.transients:
        plan.transient(at_step=args.at_step, count=args.transients)
    return spec, FaultInjector(plan), RetryPolicy(seed=args.seed)


def _train_shipped_job(args: argparse.Namespace, cluster_spec, injector, retry_policy):
    """The shipped PPO job under automatic recovery (§9), batch 8.

    Returns ``train_with_recovery``'s ``(system, history, report)``.
    """
    import tempfile

    from repro.runtime import SystemSpec, train_with_recovery

    job = SystemSpec()
    with tempfile.TemporaryDirectory() as ckpt_dir:
        try:
            return train_with_recovery(
                lambda cluster: job.build(cluster, cluster_spec),
                job.dataset(),
                n_iterations=args.iterations,
                batch_size=8,
                checkpoint_dir=ckpt_dir,
                checkpoint_every=args.ckpt_every,
                injector=injector,
                retry_policy=retry_policy,
            )
        except (RuntimeError, ValueError) as exc:  # worker lost, cluster exhausted
            raise RunFailed(f"unrecoverable failure: {exc}") from exc


def cmd_faults(args: argparse.Namespace, built) -> int:
    from repro.perf import measured_interval_study

    spec, injector, _ = built
    print(
        f"fault-injected PPO on {spec.n_gpus} simulated GPUs "
        f"({args.iterations} iterations, checkpoint every {args.ckpt_every}, "
        f"{len(injector.plan)} scheduled fault(s))"
    )
    system, history, report = _train_shipped_job(args, *built)
    if injector.pending_events:
        unfired = ", ".join(
            f"{event.kind.value} at step {event.at_step}"
            for event in injector.pending_events
        )
        raise RunFailed(
            f"scheduled fault(s) never fired: {unfired}; the run's last "
            f"dispatch was seq {system.controller.next_seq - 1} (lower "
            "--at-step or raise --iterations)"
        )
    print("  rewards:", [round(h["score_mean"], 3) for h in history])
    for line in report.summary_lines():
        print(line)
    print(
        f"  injector: {injector.stats.devices_killed} device(s) killed, "
        f"{injector.stats.transients_injected} transient(s), "
        f"{injector.stats.retries_observed} retry(ies)"
    )
    if args.trace:
        _export_checked_trace(system.controller, args.trace)
    if args.metrics:
        from repro.observability import collect_system_metrics, write_prometheus

        registry = collect_system_metrics(system.controller)
        out = write_prometheus(args.metrics, registry)
        print(f"  metrics: wrote {len(registry)} series to {out}")

    interval, interval_iters, curve = measured_interval_study(report, args.mtbf)
    print(f"\nanalytic model (MTBF {args.mtbf:.0f}s):")
    print(
        f"  Young optimal interval: {interval:.1f}s of work "
        f"(~{interval_iters:.1f} iterations)"
    )
    print("  goodput vs checkpoint interval:")
    for k, goodput in curve:
        print(f"    every {k:3d} iter(s): {goodput:.4f}")
    return 0


def _export_checked_trace(controller, path: str) -> None:
    """Write the run's Chrome trace to ``path``, then read the per-pool
    busy/idle fractions back out of it and hold them to the ``Timeline``."""
    from repro.observability import (
        chrome_trace,
        pool_fractions_from_trace,
        write_chrome_trace,
    )
    from repro.runtime.timeline import build_timeline, planned_durations

    timeline = build_timeline(controller.trace, planned_durations(controller))
    spans = controller.tracer.spans
    doc = chrome_trace(timeline=timeline, spans=spans)
    out = write_chrome_trace(path, timeline=timeline, spans=spans)
    categories = ", ".join(
        f"{k}={v}" for k, v in controller.tracer.counts_by_category().items()
    )
    print(
        f"  trace: wrote {len(doc['traceEvents'])} events to {out} "
        f"({len(spans)} spans: {categories})"
    )
    fractions = pool_fractions_from_trace(doc)
    ok = True
    print("  per-pool busy/idle (exported trace vs Timeline):")
    for pool in timeline.pools():
        expected_busy = timeline.busy_time(pool)
        expected_idle = timeline.idle_fraction(pool)
        got = fractions.get(pool, {"busy": -1.0, "idle_fraction": -1.0})
        match = (
            abs(got["busy"] - expected_busy) < 1e-6
            and abs(got["idle_fraction"] - expected_idle) < 1e-6
        )
        ok = ok and match
        print(
            f"    {pool:8s} busy {got['busy']:8.2f}s vs {expected_busy:8.2f}s, "
            f"idle {got['idle_fraction'] * 100:5.1f}% vs "
            f"{expected_idle * 100:5.1f}% "
            f"[{'ok' if match else 'MISMATCH'}]"
        )
    if not ok:
        raise RunFailed("trace does not match timeline accounting")


def _serve(args: argparse.Namespace):
    """The engine with every request submitted."""
    # Functional-path imports stay local so the analytic subcommands keep
    # their fast import time.
    import dataclasses

    import numpy as np

    from repro.models.tinylm import TinyLM
    from repro.runtime import TINY_LM
    from repro.serving import RolloutServer, sample_response_lengths

    rng = np.random.default_rng(args.seed)
    cfg = dataclasses.replace(
        TINY_LM, max_seq_len=args.prompt_length + args.max_response
    )
    lengths = sample_response_lengths(
        args.requests, args.mean_response, args.max_response, rng
    )
    serving = ServingConfig(
        max_slots=args.slots,
        block_size=args.block_size,
        n_blocks=args.blocks,
        eos_token_id=args.eos,
        greedy=args.eos is None,
        slo_ttft=args.slo_ttft,
        slo_latency=args.slo_latency,
        seed=args.seed,
    )
    server = RolloutServer(TinyLM(cfg, seed=args.seed), serving)
    arrival = 0.0
    for i in range(args.requests):
        if args.arrival_rate > 0:
            arrival += (
                float(rng.exponential(1.0 / args.arrival_rate)) * serving.step_time
            )
        server.submit(
            rng.integers(0, cfg.vocab_size, size=args.prompt_length),
            # with EOS the response length is sampled by the model itself;
            # without, each request greedily runs to its target length
            max_new_tokens=(
                args.max_response if args.eos is not None else int(lengths[i])
            ),
            priority=int(rng.integers(0, args.priority_levels)),
            arrival_time=arrival if args.arrival_rate > 0 else 0.0,
        )
    return server


def cmd_serve(args: argparse.Namespace, server) -> int:
    from repro.serving import static_wave_steps

    report = server.drain()
    print(
        f"continuous-batching rollout serving: {args.requests} requests on "
        f"{args.slots} slots, {server.kv.n_blocks} KV blocks of "
        f"{args.block_size} tokens"
    )
    for line in report.summary_lines():
        print(f"  {line}")

    static_steps = static_wave_steps(
        [r.response_length for r in report.completed], args.slots
    )
    print(
        f"  static wave batching : {static_steps} steps for the same "
        f"responses ({static_steps / max(report.n_steps, 1):.2f}x the "
        f"engine's {report.n_steps})"
    )
    return 0


def _fleet(args: argparse.Namespace):
    """``(cluster spec, jobs, fault plan)``: every job's narrowest gang fits
    the cluster, and every kill lands on it."""
    from repro.faults import FaultPlan

    spec = ClusterSpec(
        n_machines=args.machines, gpus_per_machine=args.gpus_per_machine
    )
    # Job 0 is elastic (prefers DP=2, accepts DP=1); the rest are fixed-width
    # DP=1 tenants.  Seeds differ so the tenants are distinct models.
    jobs = [
        JobSpec(
            name=f"job{i}",
            priority=0,
            n_iterations=args.iterations,
            checkpoint_every=args.ckpt_every,
            tp=2,
            preferred_dp=2 if i == 0 else 1,
            min_dp=1,
            seed=7 + 2 * i,
        )
        for i in range(args.jobs)
    ]
    for job in jobs:
        _require_fits(
            args,
            spec,
            job.min_gpus,
            f"{job.name} needs {job.min_gpus} GPUs at its narrowest "
            f"(dp={job.candidate_dps()[-1]})",
        )
    plan = FaultPlan()
    for machine in args.kill_machines or ():
        _require_index("--kill-machine", machine, spec.n_machines, "machine(s)")
        plan.kill_machine(machine, at_step=args.at_tick)
    if args.kill_rack is not None:
        _require_index(
            "--kill-rack",
            args.kill_rack,
            spec.n_racks(args.machines_per_rack),
            "rack(s)",
        )
        plan.kill_rack(
            args.kill_rack,
            at_step=args.at_tick,
            machines_per_rack=args.machines_per_rack,
        )
    return spec, jobs, plan


def cmd_fleet(args: argparse.Namespace, built) -> int:
    """Multi-tenant fleet run: N jobs, one shared cluster, injected kills."""
    import tempfile

    from repro.fleet import FleetScheduler
    from repro.observability import collect_fleet_metrics

    spec, jobs, plan = built
    demand = " + ".join(str(j.gpus_at(j.preferred_dp)) for j in jobs)
    print(
        f"fleet: {args.jobs} tenant job(s) (GPU demand {demand}) on "
        f"{spec.n_gpus} shared GPUs, {len(plan)} scheduled kill(s) at "
        f"tick {args.at_tick}"
    )
    with tempfile.TemporaryDirectory() as ckpt_root:
        scheduler = FleetScheduler(
            spec,
            jobs,
            checkpoint_root=ckpt_root,
            fault_plan=plan,
            preemption=not args.no_preemption,
            run_checks=not args.no_checks,
        )
        report = scheduler.run()
        registry = collect_fleet_metrics(scheduler)
    for line in report.summary_lines():
        print(line)
    if args.bench_out:
        out = _write_json(
            args.bench_out,
            report.bench_record(spec.n_gpus, len(registry)),
            "fleet",
        )
        print(f"  wrote benchmark record to {out}")
    problems = report.problems()
    if problems:
        raise RunFailed(f"fleet run FAILED: {'; '.join(problems)}")
    return 0


def _example_plan_reports():
    """DataflowChecker reports for the configurations the repo ships.

    Two plans are checked: the tiny functional PPO placement every
    faults/trace/metrics subcommand runs (function reward on a 1-GPU pool),
    and a full-scale llama-7b colocated placement with the memory projection
    enabled (App. C) — the same shape §8's evaluation clusters use — plus
    the shipped async-pipeline config (repro pipeline / async_ppo_overlap
    bench): DF108 soundness of the bounded-staleness relaxation.
    """
    from repro.analysis import DataflowChecker
    from repro.pipeline import PipelineConfig
    from repro.rlhf.trainers import TrainerConfig
    from repro.runtime import SystemSpec, shipped_placements

    tiny = SystemSpec()
    plans = shipped_placements()
    full = DataflowChecker(
        model_specs={
            role: MODEL_SPECS["llama-7b"] for role in required_models(AlgoType.PPO)
        },
        workload=RlhfWorkload(),
        cluster_spec=ClusterSpec(n_machines=2),
    )
    plain = DataflowChecker()
    return [
        plain.check_plan(
            tiny.algo, plans["tiny-ppo"], function_rewards=tiny.function_rewards
        ),
        full.check_plan(AlgoType.PPO, plans["llama-7b-colocate"]),
        plain.check_pipeline(
            PipelineConfig(staleness_window=1), TrainerConfig(), AlgoType.PPO
        ),
    ]


def _sharding_reports():
    """ShardingVerifier reports for the configurations the repo ships.

    Proves the resharding geometry for the tiny functional placement and
    the llama-7b colocated placement in both grouping modes, and checks
    the ZeRO-3 / FSDP configs the baselines assume against the memory
    projection.
    """
    from repro.analysis import ShardingVerifier
    from repro.parallel.fsdp import FsdpConfig
    from repro.parallel.topology import (
        GenGroupingMode,
        GenTopology,
        ParallelTopology,
    )
    from repro.parallel.zero import ZeroConfig, ZeroStage
    from repro.runtime import shipped_placements

    verifier = ShardingVerifier()
    reports = []
    for name, plan in shipped_placements().items():
        actor = plan.assignments["actor"]
        topo = ParallelTopology(actor.parallel, name=name)
        report = verifier.verify_topology(topo)
        for mode in (GenGroupingMode.HYBRIDFLOW, GenGroupingMode.VANILLA):
            verifier.verify_transition(
                GenTopology(topo, actor.gen_parallel, mode), report=report
            )
        reports.append(report)

    spec = MODEL_SPECS["llama-7b"]
    cluster = ClusterSpec(n_machines=2)
    report = verifier.verify_zero(
        ZeroConfig(ZeroStage.PARAMETERS, dp=cluster.n_gpus),
        spec.n_params(),
        cluster.n_gpus,
        capacity_bytes=cluster.gpu.memory_bytes,
        location="zero[llama-7b]",
    )
    verifier.verify_fsdp(
        FsdpConfig(dp=cluster.n_gpus, strategy="full"),
        spec.n_params(),
        cluster.n_gpus,
        capacity_bytes=cluster.gpu.memory_bytes,
        report=report,
        location="fsdp[llama-7b]",
    )
    reports.append(report)
    return reports


def cmd_check(args: argparse.Namespace, checker: ModelChecker) -> int:
    """``repro check``: lint + dataflow + sharding + trace + races + shapes
    (+ models)."""
    import json

    from repro.analysis import (
        AnalysisReport,
        RaceDetector,
        RepoLint,
        TraceAuditor,
    )
    from repro.serialization import json_safe

    as_json = args.format == "json"
    out = sys.stderr if as_json else sys.stdout
    skip = set(args.skip or ())
    combined = AnalysisReport("repro check")
    if "lint" not in skip:
        lint = RepoLint().lint_paths(args.paths)
        combined.merge(lint)
    if "dataflow" not in skip:
        for report in _example_plan_reports():
            combined.merge(report)
    if "sharding" not in skip:
        for report in _sharding_reports():
            combined.merge(report)
    trace_doc = None
    if "trace" not in skip or "races" not in skip:
        import pathlib

        golden = pathlib.Path(args.trace_file)
        if golden.exists():
            trace_doc = json.loads(golden.read_text())
        else:
            print(f"note: no trace file at {golden}, audit skipped", file=out)
    if "trace" not in skip and trace_doc is not None:
        combined.merge(TraceAuditor().audit_chrome_trace(trace_doc))
    if "races" not in skip and trace_doc is not None:
        combined.merge(RaceDetector().detect_chrome_trace(trace_doc))
    if "shapes" not in skip:
        from repro.analysis import shipped_graph_reports

        for _name, report in shipped_graph_reports(batch=args.batch):
            combined.merge(report)
    if args.models:
        import dataclasses

        combined.merge(checker.check_shipped())
        if args.mc_report:
            doc = {
                "max_depth": args.mc_depth,
                "max_states": args.mc_states,
                "models": [
                    dataclasses.asdict(result) for result in checker.last_results
                ],
            }
            _write_json(args.mc_report, doc, "mc_report")
            print(f"model-check report written to {args.mc_report}", file=out)
    for line in combined.summary_lines():
        print(line, file=out)
    if as_json:
        # machine-readable report on stdout; human summary went to stderr
        print(json.dumps(json_safe(combined.to_dict(), "check"), indent=2))
    if not combined.ok(strict=args.strict):
        families = " ".join(
            f"{family}={n}" for family, n in combined.family_counts().items()
        )
        raise RunFailed(
            f"repro check FAILED [{families}]"
            + (" (strict: warnings are failures)" if args.strict else "")
        )
    print("repro check passed", file=out)
    return 0


def _pipeline(args: argparse.Namespace) -> PipelineConfig:
    from repro.pipeline.driver import check_overlap_study

    check_overlap_study(args.iterations, args.batch)
    return PipelineConfig(staleness_window=args.staleness, stream_scoring=args.stream)


def cmd_pipeline(args: argparse.Namespace, config: PipelineConfig) -> int:
    """The ``repro pipeline`` gate: one-step-off overlap with proofs attached.

    :func:`repro.pipeline.overlap_study` runs the staleness=0 self-check —
    the async driver with an empty window must land bit-for-bit on the
    synchronous trainer's weights — and the requested window.  With
    ``--trace`` the overlapped schedule is exported and put through the
    trace auditor and the vector-clock race detector; any RC5xx finding
    fails the command.
    """
    from repro.pipeline import overlap_study

    study = overlap_study(args.iterations, args.batch, config)
    if not study.bit_exact:
        raise RunFailed(
            "staleness=0 self-check FAILED: async driver diverged from the "
            "synchronous trainer"
        )
    print(
        f"staleness=0 self-check: bit-exact with synchronous run_step "
        f"over {args.iterations} iterations"
    )
    report, timeline = study.report, study.timeline
    print(
        f"async pipeline: staleness_window={report['staleness_window']} "
        f"max_staleness_seen={report['max_staleness_seen']} "
        f"buffer_peak={report['buffer_peak_occupancy']}/"
        f"{report['buffer_capacity']}"
    )
    print(
        f"  weight publications: {report['publications']} "
        f"({report['published_bytes']} bytes via the train->gen plan)"
    )
    print(
        f"  modeled makespan: sync {study.sync_makespan:.1f}s -> overlapped "
        f"{timeline.makespan:.1f}s (speedup {study.speedup:.3f}x)"
    )
    for pool in timeline.pools():
        print(
            f"  pool {pool:8s} idle "
            f"{timeline.idle_fraction(pool) * 100:5.1f}%"
        )

    if args.trace:
        from repro.analysis import system_audit
        from repro.observability import write_chrome_trace

        out = write_chrome_trace(
            args.trace,
            timeline=timeline,
            spans=study.system.controller.tracer.spans,
        )
        print(f"  wrote Chrome trace to {out}")
        audit, races = system_audit(study.system)
        for line in audit.summary_lines():
            print(f"  {line}")
        if races:
            raise RunFailed(
                f"RACE DETECTED on overlapped schedule: {len(races)} "
                "RC5xx finding(s)"
            )
        print("  race detector: overlapped schedule is clean")
    return 0


def cmd_bench(args: argparse.Namespace, _) -> int:
    """Perf trajectory gate: run pinned workloads, compare vs the baseline."""
    import json
    import pathlib

    from repro.fleet.report import compare_fleet_records
    from repro.perf.bench import (
        WORKLOADS,
        compare_records,
        run_bench,
        summary_lines,
    )

    baseline_path = pathlib.Path(args.baseline)

    def fail_on(problems: List[str], header: str) -> None:
        if problems:
            raise RunFailed("\n".join([header, *(f"  - {p}" for p in problems)]))

    if args.current is not None:
        # compare-only mode: gate a record produced elsewhere (e.g. the CI
        # fleet run) against its committed baseline — nothing is executed
        current = json.loads(pathlib.Path(args.current).read_text())
        if not baseline_path.exists():
            raise UsageError(f"no baseline at {baseline_path}")
        compare = compare_fleet_records if args.fleet else compare_records
        fail_on(
            compare(current, json.loads(baseline_path.read_text())),
            f"bench comparison vs {baseline_path} FAILED:",
        )
        print(f"bench comparison vs {baseline_path} passed")
        return 0

    unknown = [n for n in args.workload or () if n not in WORKLOADS]
    if unknown:
        raise UsageError(
            f"unknown workload(s) {unknown}; have {sorted(WORKLOADS)}"
        )
    record = run_bench(args.workload or None)
    for line in summary_lines(record):
        print(line)
    if args.out:
        print(f"wrote bench record to {_write_json(args.out, record, 'bench')}")
    if args.update:
        out = _write_json(baseline_path, record, "bench")
        print(f"wrote bench record to {out}")
        return 0
    if args.check:
        if not baseline_path.exists():
            raise UsageError(
                f"no baseline at {baseline_path} — create one with "
                "'repro bench --update'"
            )
        fail_on(
            compare_records(record, json.loads(baseline_path.read_text())),
            f"bench regression vs {baseline_path}:",
        )
        print(f"bench check vs {baseline_path} passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro.perf.bench import WORKLOADS

    parser = _Parser(
        prog="repro.cli", description="HybridFlow reproduction: analytical tools"
    )
    parser.set_defaults(setup=lambda args: None)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("throughput", help="compare systems on one scenario")
    _common_args(p)
    p.set_defaults(setup=_analytic, fn=cmd_throughput)

    p = sub.add_parser("map", help="run the auto device-mapping algorithm")
    _common_args(p)
    p.set_defaults(setup=_analytic, fn=cmd_map)

    p = sub.add_parser("transition", help="Table 2 overheads + transition time")
    _common_args(p)
    _parallel_args(p)
    _arg(p, "--gen-tp", type=int, default=2, bound=(GenParallelConfig, "tp"))
    _arg(p, "--gen-pp", type=int, default=1, bound=(GenParallelConfig, "pp"))
    p.set_defaults(setup=_transition, fn=cmd_transition)

    p = sub.add_parser("sweep-gen", help="Figure 15 generation-TP sweep")
    _common_args(p)
    _parallel_args(p)
    _arg(p, "--reserved-gb", type=float, default=17.0, bound={"ge": 0})
    p.set_defaults(setup=_analytic, fn=cmd_sweep_gen)

    p = sub.add_parser(
        "map-hetero", help="device mapping over heterogeneous zones (the §6 extension)"
    )
    _common_args(p)
    p.add_argument(
        "--zone",
        action="append",
        dest="zones",
        metavar="NAME:GPU:MACHINES",
        help=(
            "a homogeneous zone, e.g. 'fast:H100-80GB:1'; repeatable "
            f"(GPUs: {', '.join(sorted(GPU_SPECS))})"
        ),
    )
    p.set_defaults(setup=lambda args: (*_analytic(args), _zones(args)), fn=cmd_map_hetero)

    p = sub.add_parser(
        "faults", help="fault-injected functional run with automatic recovery (§9)"
    )
    _shared(p, "--machines", default=2)
    _shared(
        p,
        "--gpus-per-machine",
        help="GPUs per simulated machine (spare capacity hosts re-placement)",
    )
    _shared(p, "--iterations", default=6)
    _shared(p, "--ckpt-every")
    p.add_argument(
        "--kill-machine", type=int, metavar="M", help="kill machine M (all its GPUs) at --at-step"
    )
    p.add_argument("--kill-device", type=int, metavar="RANK", help="kill one GPU at --at-step")
    _arg(p, "--transients", type=int, default=0, metavar="N", bound={"ge": 0},
         help="inject N consecutive transient RPC failures at --at-step")
    _arg(p, "--at-step", type=int, default=30, bound=(FaultEvent, "at_step"),
         help="trace sequence number at which scheduled faults arm")
    _shared(p, "--seed", help="retry-backoff jitter seed")
    _arg(p, "--mtbf", type=float, default=3600.0, bound={"gt": 0},
         help="assumed mean time between failures for the analytic model (s)")
    p.add_argument(
        "--trace",
        metavar="OUT",
        help=(
            "write the run's Chrome trace and check its per-pool busy/idle "
            "against the Timeline accounting"
        ),
    )
    p.add_argument("--metrics", metavar="OUT", help="write the run's metrics as Prometheus text")
    p.set_defaults(setup=_shipped_job_faults, fn=cmd_faults)

    p = sub.add_parser("serve", help="functional continuous-batching rollout serving demo")
    # the request shape is bounded where it is used: --requests,
    # --mean-response and --max-response by sample_response_lengths,
    # --prompt-length by RolloutServer.submit
    p.add_argument("--requests", type=int, default=16, help="request count")
    p.add_argument("--prompt-length", type=int, default=4, help="prompt tokens")
    p.add_argument("--mean-response", type=int, default=8, help="mean response length")
    p.add_argument("--max-response", type=int, default=24, help="response length cap")
    _arg(p, "--slots", type=int, default=4, bound=(ServingConfig, "max_slots"),
         help="decode slots")
    _arg(p, "--block-size", type=int, default=8, bound=(ServingConfig, "block_size"),
         help="tokens per KV block")
    _arg(
        p,
        "--blocks",
        type=int,
        bound=(ServingConfig, "n_blocks"),
        help=(
            "total KV blocks (default: enough for --slots full-length "
            "sequences; small values force preempt-and-recompute)"
        ),
    )
    p.add_argument(
        "--eos",
        type=int,
        metavar="TOKEN",
        help=(
            "sample with this EOS token id (default: greedy decode to each "
            "request's target length)"
        ),
    )
    _arg(p, "--arrival-rate", type=float, default=0.0, bound={"ge": 0},
         help="mean Poisson arrivals per decode step (0 = all at once)")
    _arg(p, "--priority-levels", type=int, default=1, bound={"ge": 1},
         help="draw request priorities uniformly from [0, N)")
    _arg(p, "--slo-ttft", type=float, bound=(ServingConfig, "slo_ttft"),
         help="TTFT SLO (sim seconds)")
    _arg(p, "--slo-latency", type=float, bound=(ServingConfig, "slo_latency"),
         help="end-to-end latency SLO (sim seconds)")
    _shared(p, "--seed", help="workload + model seed")
    p.set_defaults(setup=_serve, fn=cmd_serve)

    p = sub.add_parser(
        "fleet",
        help=(
            "multi-tenant fleet run: gang-schedule N tiny RLHF jobs onto "
            "one shared cluster under injected machine/rack kills"
        ),
    )
    _arg(p, "--jobs", type=int, default=3, bound={"ge": 1}, help="tenant job count")
    _shared(p, "--machines", default=3)
    _shared(p, "--gpus-per-machine")
    _shared(p, "--iterations", default=4, help="PPO iterations per job")
    _shared(p, "--ckpt-every")
    p.add_argument(
        "--kill-machine",
        action="append",
        dest="kill_machines",
        type=int,
        metavar="M",
        help="kill machine M at --at-tick; repeat for a correlated multi-machine failure",
    )
    p.add_argument(
        "--kill-rack", type=int, metavar="R", help="kill every machine in rack R at --at-tick"
    )
    _arg(p, "--machines-per-rack", type=int, default=2,
         bound=(FaultEvent, "machines_per_rack"), help="rack width for --kill-rack")
    _arg(p, "--at-tick", type=int, default=2, bound=(FaultEvent, "at_step"),
         help="scheduler tick at which the kills land")
    p.add_argument(
        "--no-preemption", action="store_true", help="disable checkpoint-and-evict preemption"
    )
    p.add_argument(
        "--no-checks",
        action="store_true",
        help="skip the DF/TA/SH/RC analysis gate over completed jobs",
    )
    p.add_argument(
        "--bench-out",
        metavar="FILE",
        help="write a JSON benchmark record (goodput, MTTR, fairness)",
    )
    p.set_defaults(setup=_fleet, fn=cmd_fleet)

    p = sub.add_parser(
        "check",
        help=(
            "repro check gate: RepoLint over the tree, DataflowChecker over "
            "the shipped example plans, ShardingVerifier over the shipped "
            "topologies, TraceAuditor + RaceDetector over the golden trace, "
            "the SF7xx shape/dtype flow pass over the shipped graphs, and "
            "(with --models) the MC6xx model checker"
        ),
    )
    p.add_argument(
        "paths", nargs="*", default=["src"], help="files or directories to lint (default: src)"
    )
    p.add_argument("--strict", action="store_true", help="treat warnings as failures (CI mode)")
    p.add_argument(
        "--skip",
        action="append",
        choices=("lint", "dataflow", "sharding", "trace", "races", "shapes"),
        metavar="PASS",
        help="skip one of the passes; repeatable",
    )
    _shared(p, "--batch", default=8, help="global batch the shapes pass runs the shipped graphs at")
    p.add_argument(
        "--trace-file",
        default="tests/golden/chrome_trace.json",
        help="Chrome trace JSON to audit",
    )
    p.add_argument(
        "--models",
        action="store_true",
        help=(
            "also run the MC6xx bounded model checker over the real async "
            "pipeline, serving drain and fleet scheduler"
        ),
    )
    _arg(p, "--mc-depth", type=int, default=400, bound=(ModelChecker, "max_depth"),
         help="model checker: maximum schedule length explored")
    _arg(p, "--mc-states", type=int, default=60_000, bound=(ModelChecker, "max_states"),
         help="model checker: distinct-state budget per model")
    p.add_argument(
        "--mc-report",
        metavar="PATH",
        help="write the model-check coverage/counterexample report (JSON) to PATH",
    )
    p.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help=(
            "report format: json puts the machine-readable report on stdout "
            "and the human summary on stderr"
        ),
    )
    p.set_defaults(
        setup=lambda args: ModelChecker(max_depth=args.mc_depth, max_states=args.mc_states),
        fn=cmd_check,
    )

    p = sub.add_parser(
        "bench",
        help=(
            f"perf trajectory gate: run the pinned workloads "
            f"({', '.join(WORKLOADS)}) and compare against the committed "
            "BENCH_perf.json baseline"
        ),
    )
    p.add_argument(
        "--check",
        action="store_true",
        help="fail (exit 1) on regression beyond tolerance vs the baseline",
    )
    p.add_argument(
        "--update",
        action="store_true",
        help="re-baseline: overwrite the baseline file with this run",
    )
    p.add_argument(
        "--baseline",
        default="BENCH_perf.json",
        help="committed baseline record (default: BENCH_perf.json)",
    )
    p.add_argument("--out", help="also write this run's record to a file")
    p.add_argument(
        "--workload",
        action="append",
        metavar="NAME",
        help="run only the named workload; repeatable (default: all)",
    )
    p.add_argument(
        "--current",
        help=(
            "compare-only: gate an existing record file against the "
            "baseline without running workloads"
        ),
    )
    p.add_argument(
        "--fleet",
        action="store_true",
        help=(
            "with --current: records are 'repro fleet --bench-out' output, "
            "compared with the fleet policy (structure + outcome flags)"
        ),
    )
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser(
        "pipeline",
        help=(
            "async one-step-off RLHF pipeline: staleness=0 bit-exactness "
            "self-check, then the overlapped run with optional trace + "
            "race-detector gate"
        ),
    )
    _arg(p, "--staleness", type=int, default=1, bound=(PipelineConfig, "staleness_window"),
         help="staleness window W (0 = synchronous; default 1)")
    _shared(p, "--iterations", default=3, help="PPO iterations to run")
    _shared(p, "--batch", default=4, help="prompts per iteration")
    p.add_argument(
        "--stream",
        action="store_true",
        help="stream frozen-model scoring at rollout time (numerics-neutral)",
    )
    p.add_argument(
        "--trace",
        metavar="PATH",
        help=(
            "write a Chrome trace of the overlapped run and gate it through "
            "the trace auditor + vector-clock race detector"
        ),
    )
    p.set_defaults(setup=_pipeline, fn=cmd_pipeline)
    return parser


def subcommands(parser: argparse.ArgumentParser) -> Dict[str, argparse.ArgumentParser]:
    """The subcommand parsers of :func:`build_parser`'s parser, by name."""
    return next(
        a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )


def check_flags(command: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Hold each bounded flag of ``command`` to its bound."""
    for action in command._actions:
        bound = getattr(action, "bound", None)
        value = None if bound is None else getattr(args, action.dest)
        if value is None:
            continue
        try:
            check_bound(action.dest, value, bound)
        except BoundError as exc:
            setting = f" ({action.setting})" if action.setting else ""
            raise UsageError(
                f"{action.option_strings[0]} {exc.requirement}, got {value}{setting}"
            ) from None


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        check_flags(subcommands(parser)[args.command], args)
        try:
            built = args.setup(args)
        except ValueError as exc:  # the settings, together, build nothing
            raise UsageError(f"{shlex.join(argv)}: {exc}") from None
        return args.fn(args, built)
    except (UsageError, RunFailed) as exc:
        print(exc, file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 1


if __name__ == "__main__":
    sys.exit(main())
