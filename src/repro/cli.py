"""Command-line interface for the analytical tools.

Five subcommands, mirroring the evaluation's workflows:

* ``throughput`` — compare HybridFlow and the baselines on one scenario
  (one row of Figures 9-11).
* ``map`` — run the auto device-mapping algorithm (§6) and print the chosen
  placement, parallel strategies, and iteration breakdown.
* ``transition`` — Table 2's overhead algebra plus estimated transition
  time for a given actor configuration.
* ``sweep-gen`` — Figure 15's generation-TP sweep for one model.
* ``map-hetero`` — device mapping over heterogeneous zones (the extension
  §6 sketches).
* ``faults`` — run a tiny functional PPO job under injected failures with
  automatic recovery (§9) and report MTTR plus the checkpoint-interval
  goodput trade-off.
* ``trace`` — run the tiny functional PPO job (optionally fault-injected)
  and export a Chrome ``trace_event`` JSON with one track per pool
  (Figure 3) plus the runtime-span track, verifying the exported busy/idle
  fractions against the in-memory timeline accounting.
* ``metrics`` — same run, dumped as Prometheus text exposition.
* ``fleet`` — gang-schedule several tenant RLHF jobs onto one shared
  simulated cluster under injected machine/rack kills, with elastic
  resizing, checkpoint-and-evict preemption, and per-job MTTR/goodput/
  fairness accounting (``repro.fleet``).
* ``serve`` — run the functional continuous-batching rollout server
  (paged KV blocks, priority scheduling, preempt-and-recompute) on a
  synthetic request stream, report latency/SLO statistics, and cross-check
  the measured schedule against the analytic model of
  ``repro.perf.continuous_batching``.

Examples::

    python -m repro.cli throughput --model llama-7b --machines 2
    python -m repro.cli map --model llama-70b --machines 16 --algo ppo
    python -m repro.cli transition --model llama-13b --tp 8 --dp 2 --gen-tp 2
    python -m repro.cli sweep-gen --model llama-13b
    python -m repro.cli map-hetero --zone a100:A100-80GB:1 --zone h100:H100-80GB:1
    python -m repro.cli faults --kill-machine 0 --at-step 30 --iterations 6
    python -m repro.cli trace --out run.json --kill-device 1 --at-step 30
    python -m repro.cli metrics --out metrics.prom
    python -m repro.cli serve --requests 16 --slots 4 --blocks 12
    python -m repro.cli fleet --jobs 3 --kill-machine 0 --kill-machine 2
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.baselines import ALL_SYSTEMS
from repro.baselines.common import InfeasibleScenario
from repro.config import (
    GPU_SPECS,
    MODEL_SPECS,
    ClusterSpec,
    GenParallelConfig,
    ParallelConfig,
    RlhfWorkload,
)
from repro.hybrid_engine.overhead import EngineKind, transition_overhead
from repro.mapping import map_dataflow
from repro.perf.generation import generation_latency
from repro.perf.transition import transition_time
from repro.rlhf.core import AlgoType

_MODELS_BY_ALGO = {
    AlgoType.PPO: ("actor", "critic", "reference", "reward"),
    AlgoType.REMAX: ("actor", "reference", "reward"),
    AlgoType.SAFE_RLHF: ("actor", "critic", "reference", "reward", "cost"),
    AlgoType.GRPO: ("actor", "reference", "reward"),
}


def _common_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--model",
        default="llama-7b",
        choices=sorted(MODEL_SPECS),
        help="Llama-class model size for every role",
    )
    parser.add_argument(
        "--machines",
        type=int,
        default=2,
        help="number of 8-GPU machines in the simulated cluster",
    )
    parser.add_argument(
        "--algo",
        default="ppo",
        choices=[a.value for a in AlgoType],
        help="RLHF algorithm (dataflow variant)",
    )
    parser.add_argument(
        "--batch", type=int, default=1024, help="global prompt batch size"
    )
    parser.add_argument(
        "--prompt-length", type=int, default=1024, help="prompt tokens"
    )
    parser.add_argument(
        "--response-length", type=int, default=1024, help="response tokens"
    )


def _workload(args: argparse.Namespace) -> RlhfWorkload:
    return RlhfWorkload(
        prompt_length=args.prompt_length,
        response_length=args.response_length,
        global_batch_size=args.batch,
    )


def _specs(args: argparse.Namespace):
    algo = AlgoType(args.algo)
    return algo, {
        role: MODEL_SPECS[args.model] for role in _MODELS_BY_ALGO[algo]
    }


def cmd_throughput(args: argparse.Namespace) -> int:
    algo, specs = _specs(args)
    cluster = ClusterSpec(n_machines=args.machines)
    wl = _workload(args)
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


def cmd_map(args: argparse.Namespace) -> int:
    algo, specs = _specs(args)
    cluster = ClusterSpec(n_machines=args.machines)
    wl = _workload(args)
    result = map_dataflow(algo, specs, cluster, wl)
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


def cmd_transition(args: argparse.Namespace) -> int:
    spec = MODEL_SPECS[args.model]
    cluster = ClusterSpec(n_machines=args.machines)
    train = ParallelConfig(pp=args.pp, tp=args.tp, dp=args.dp)
    gen = GenParallelConfig.derive(train, args.gen_pp, args.gen_tp)
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


def cmd_sweep_gen(args: argparse.Namespace) -> int:
    spec = MODEL_SPECS[args.model]
    cluster = ClusterSpec(n_machines=args.machines)
    wl = _workload(args)
    train = ParallelConfig(pp=args.pp, tp=args.tp, dp=args.dp)
    print(
        f"{args.model} generation sweep on {cluster.n_gpus} GPUs "
        f"(training {train}, reserved {args.reserved_gb} GB/GPU)"
    )
    best: Optional[tuple] = None
    tg = 1
    while tg <= train.tp:
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
        tg *= 2
    assert best is not None
    print(f"  -> best generation TP size: t_g={best[0]}")
    return 0


def cmd_map_hetero(args: argparse.Namespace) -> int:
    from repro.mapping.heterogeneous import (
        ClusterZone,
        map_dataflow_heterogeneous,
    )

    algo, specs = _specs(args)
    wl = _workload(args)
    zone_args = args.zones or ["a100:A100-80GB:1", "h100:H100-80GB:1"]
    zones = []
    for entry in zone_args:
        try:
            name, gpu_name, machines = entry.split(":")
            gpu = GPU_SPECS[gpu_name]
        except (ValueError, KeyError):
            print(
                f"bad --zone {entry!r}; expected NAME:GPU:MACHINES with GPU "
                f"in {sorted(GPU_SPECS)}",
                file=sys.stderr,
            )
            return 2
        zones.append(
            ClusterZone(name, ClusterSpec(n_machines=int(machines), gpu=gpu))
        )
    result = map_dataflow_heterogeneous(algo, specs, zones, wl)
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


def cmd_faults(args: argparse.Namespace) -> int:
    # Functional-path imports stay local so the analytic subcommands keep
    # their fast import time.
    import tempfile

    from repro.config import GenParallelConfig as GenPC
    from repro.data import PromptDataset, SyntheticPreferenceTask
    from repro.faults import FaultInjector, FaultPlan, RetryPolicy
    from repro.models.tinylm import TinyLMConfig
    from repro.perf import goodput_vs_interval, optimal_checkpoint_interval
    from repro.rlhf.trainers import TrainerConfig
    from repro.runtime import (
        ModelAssignment,
        PlacementPlan,
        build_rlhf_system,
        train_with_recovery,
    )

    cfg = TinyLMConfig(
        n_layers=2,
        hidden_size=32,
        n_heads=4,
        ffn_hidden_size=48,
        vocab_size=16,
        max_seq_len=32,
    )
    task = SyntheticPreferenceTask(vocab_size=16, target_token=7)
    par = ParallelConfig(pp=1, tp=2, dp=1)
    spec = ClusterSpec(
        n_machines=args.machines, gpus_per_machine=args.gpus_per_machine
    )

    def build(cluster=None):
        plan = PlacementPlan(
            pools={"main": 2, "r": 1},
            assignments={
                "actor": ModelAssignment("main", par, GenPC.derive(par, 1, 1)),
                "critic": ModelAssignment("main", par),
                "reference": ModelAssignment("main", par),
                "reward": ModelAssignment("r", ParallelConfig(1, 1, 1)),
            },
        )
        return build_rlhf_system(
            AlgoType.PPO,
            plan,
            cfg,
            cluster_spec=spec,
            trainer_config=TrainerConfig(kl_coef=0.01, seed=7),
            reward_fn=task.reward,
            max_new_tokens=6,
            lr=5e-3,
            seed=7,
            cluster=cluster,
        )

    fault_plan = FaultPlan()
    if args.kill_machine is not None:
        if not 0 <= args.kill_machine < spec.n_machines:
            print(
                f"--kill-machine {args.kill_machine} out of range for "
                f"{spec.n_machines} machine(s)",
                file=sys.stderr,
            )
            return 2
        fault_plan.kill_machine(args.kill_machine, at_step=args.at_step)
    if args.kill_device is not None:
        if not 0 <= args.kill_device < spec.n_gpus:
            print(
                f"--kill-device {args.kill_device} out of range for "
                f"{spec.n_gpus} GPU(s)",
                file=sys.stderr,
            )
            return 2
        fault_plan.kill_device(args.kill_device, at_step=args.at_step)
    if args.transients:
        fault_plan.transient(at_step=args.at_step, count=args.transients)
    injector = FaultInjector(fault_plan)

    print(
        f"fault-injected PPO on {spec.n_gpus} simulated GPUs "
        f"({args.iterations} iterations, checkpoint every {args.ckpt_every}, "
        f"{len(fault_plan)} scheduled fault(s))"
    )
    dataset = PromptDataset(n_prompts=128, prompt_length=4, vocab_size=16, seed=1)
    with tempfile.TemporaryDirectory() as ckpt_dir:
        try:
            system, history, report = train_with_recovery(
                build,
                dataset,
                n_iterations=args.iterations,
                batch_size=8,
                checkpoint_dir=ckpt_dir,
                checkpoint_every=args.ckpt_every,
                injector=injector,
                retry_policy=RetryPolicy(seed=args.seed),
            )
        except (RuntimeError, ValueError) as exc:  # worker lost, exhausted, bad args
            print(f"unrecoverable failure: {exc}", file=sys.stderr)
            return 1
    print("  rewards:", [round(h["score_mean"], 3) for h in history])
    for line in report.summary_lines():
        print(line)
    print(
        f"  injector: {injector.stats.devices_killed} device(s) killed, "
        f"{injector.stats.transients_injected} transient(s), "
        f"{injector.stats.retries_observed} retry(ies)"
    )

    overhead = report.checkpoint_time + report.total_downtime
    useful = max(report.total_time - overhead, 1e-9)
    iter_time = useful / max(len(history) + report.total_lost_iterations, 1)
    ckpt_time = report.checkpoint_time / max(report.checkpoints_saved, 1)
    restore = (
        report.events[0].restore_time if report.events else ckpt_time * 2.0
    )
    reinit = report.events[0].reinit_time if report.events else 2.0
    print(f"\nanalytic model (MTBF {args.mtbf:.0f}s):")
    interval = optimal_checkpoint_interval(max(ckpt_time, 1e-9), args.mtbf)
    print(
        f"  Young optimal interval: {interval:.1f}s of work "
        f"(~{interval / iter_time:.1f} iterations)"
    )
    print("  goodput vs checkpoint interval:")
    for k, goodput in goodput_vs_interval(
        iter_time, ckpt_time, restore, reinit, args.mtbf
    ):
        print(f"    every {k:3d} iter(s): {goodput:.4f}")
    return 0


def _run_tiny_ppo(args: argparse.Namespace):
    """The tiny functional PPO job the observability subcommands profile.

    Mirrors ``cmd_faults``'s system (2-layer TinyLM, pools main=2/r=1) with
    an optional single device kill, so traces and metrics can be inspected
    both for clean runs and across a fault-and-recovery cycle.

    Returns ``(system, history, report)``.
    """
    import tempfile

    from repro.config import GenParallelConfig as GenPC
    from repro.data import PromptDataset, SyntheticPreferenceTask
    from repro.faults import FaultInjector, FaultPlan, RetryPolicy
    from repro.models.tinylm import TinyLMConfig
    from repro.rlhf.trainers import TrainerConfig
    from repro.runtime import (
        ModelAssignment,
        PlacementPlan,
        build_rlhf_system,
        train_with_recovery,
    )

    cfg = TinyLMConfig(
        n_layers=2,
        hidden_size=32,
        n_heads=4,
        ffn_hidden_size=48,
        vocab_size=16,
        max_seq_len=32,
    )
    task = SyntheticPreferenceTask(vocab_size=16, target_token=7)
    par = ParallelConfig(pp=1, tp=2, dp=1)
    spec = ClusterSpec(
        n_machines=args.machines, gpus_per_machine=args.gpus_per_machine
    )

    def build(cluster=None):
        plan = PlacementPlan(
            pools={"main": 2, "r": 1},
            assignments={
                "actor": ModelAssignment("main", par, GenPC.derive(par, 1, 1)),
                "critic": ModelAssignment("main", par),
                "reference": ModelAssignment("main", par),
                "reward": ModelAssignment("r", ParallelConfig(1, 1, 1)),
            },
        )
        return build_rlhf_system(
            AlgoType.PPO,
            plan,
            cfg,
            cluster_spec=spec,
            trainer_config=TrainerConfig(kl_coef=0.01, seed=7),
            reward_fn=task.reward,
            max_new_tokens=6,
            lr=5e-3,
            seed=7,
            cluster=cluster,
        )

    fault_plan = FaultPlan()
    if args.kill_device is not None:
        if not 0 <= args.kill_device < spec.n_gpus:
            raise ValueError(
                f"--kill-device {args.kill_device} out of range for "
                f"{spec.n_gpus} GPU(s)"
            )
        fault_plan.kill_device(args.kill_device, at_step=args.at_step)
    injector = FaultInjector(fault_plan) if len(fault_plan) else None

    dataset = PromptDataset(n_prompts=128, prompt_length=4, vocab_size=16, seed=1)
    with tempfile.TemporaryDirectory() as ckpt_dir:
        system, history, report = train_with_recovery(
            build,
            dataset,
            n_iterations=args.iterations,
            batch_size=8,
            checkpoint_dir=ckpt_dir,
            checkpoint_every=args.ckpt_every,
            injector=injector,
            retry_policy=RetryPolicy(seed=args.seed),
        )
    return system, history, report


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.observability import (
        chrome_trace,
        pool_fractions_from_trace,
        write_chrome_trace,
    )
    from repro.runtime.timeline import build_timeline

    try:
        system, history, report = _run_tiny_ppo(args)
    except (RuntimeError, ValueError) as exc:
        print(f"unrecoverable failure: {exc}", file=sys.stderr)
        return 1
    controller = system.controller
    timeline = build_timeline(controller)
    doc = chrome_trace(timeline=timeline, spans=controller.tracer.spans)
    if args.out:
        # the exporter serializes through the json_safe sanitizer; a raw
        # json.dumps here could leak numpy scalars into the trace file
        out = write_chrome_trace(
            args.out, timeline=timeline, spans=controller.tracer.spans
        )
        print(f"wrote {len(doc['traceEvents'])} trace events to {out}")
    print(
        f"{len(controller.tracer.spans)} spans "
        f"({', '.join(f'{k}={v}' for k, v in controller.tracer.counts_by_category().items())})"
    )
    if report.n_failures:
        print(
            f"run recovered from {report.n_failures} failure(s); trace spans "
            "the faulted run, the recovery phases, and the resumed run"
        )

    # verify the exported file against the in-memory Timeline accounting
    fractions = pool_fractions_from_trace(doc)
    ok = True
    print("per-pool busy/idle (exported trace vs Timeline):")
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
            f"  {pool:8s} busy {got['busy']:8.2f}s vs {expected_busy:8.2f}s, "
            f"idle {got['idle_fraction'] * 100:5.1f}% vs "
            f"{expected_idle * 100:5.1f}% "
            f"[{'ok' if match else 'MISMATCH'}]"
        )
    if not ok:
        print("trace does not match timeline accounting", file=sys.stderr)
        return 1
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    from repro.observability import collect_system_metrics

    try:
        system, history, report = _run_tiny_ppo(args)
    except (RuntimeError, ValueError) as exc:
        print(f"unrecoverable failure: {exc}", file=sys.stderr)
        return 1
    registry = collect_system_metrics(system.controller)
    text = registry.render_prometheus()
    if args.out:
        import pathlib

        out = pathlib.Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text)
        print(f"wrote {len(registry)} series to {out}", file=sys.stderr)
    else:
        print(text, end="")
    return 0


def _observability_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--machines", type=int, default=2, help="simulated machines")
    p.add_argument(
        "--gpus-per-machine",
        type=int,
        default=4,
        help="GPUs per simulated machine (spare capacity hosts re-placement)",
    )
    p.add_argument("--iterations", type=int, default=3, help="PPO iterations")
    p.add_argument(
        "--ckpt-every", type=int, default=1, help="checkpoint interval"
    )
    p.add_argument(
        "--kill-device",
        type=int,
        default=None,
        metavar="RANK",
        help="kill one GPU at --at-step (exercise the recovery path)",
    )
    p.add_argument(
        "--at-step",
        type=int,
        default=30,
        help="trace sequence number at which the kill arms",
    )
    p.add_argument("--seed", type=int, default=0, help="retry-backoff jitter seed")
    p.add_argument("--out", default=None, help="output file path")


def cmd_serve(args: argparse.Namespace) -> int:
    # Functional-path imports stay local so the analytic subcommands keep
    # their fast import time.
    import numpy as np

    from repro.models.tinylm import TinyLM, TinyLMConfig
    from repro.perf.continuous_batching import (
        continuous_schedule_stats,
        sample_response_lengths,
        static_schedule_stats,
    )
    from repro.serving import RolloutServer, ServingConfig

    if args.priority_levels < 1:
        print("--priority-levels must be >= 1", file=sys.stderr)
        return 2
    rng = np.random.default_rng(args.seed)
    cfg = TinyLMConfig(
        n_layers=2,
        hidden_size=32,
        n_heads=4,
        ffn_hidden_size=48,
        vocab_size=16,
        max_seq_len=args.prompt_length + args.max_response,
    )
    model = TinyLM(cfg, seed=args.seed)
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
    server = RolloutServer(model, serving)
    arrival = 0.0
    for i in range(args.requests):
        if args.arrival_rate > 0:
            arrival += (
                float(rng.exponential(1.0 / args.arrival_rate))
                * serving.step_time
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
    report = server.drain()
    print(
        f"continuous-batching rollout serving: {args.requests} requests on "
        f"{args.slots} slots, {server.kv.n_blocks} KV blocks of "
        f"{args.block_size} tokens"
    )
    for line in report.summary_lines():
        print(f"  {line}")

    realised = [r.response_length for r in report.completed]
    static_steps, _ = static_schedule_stats(realised, args.slots)
    print(
        f"  static wave batching : {static_steps} steps for the same "
        f"responses ({static_steps / max(report.n_steps, 1):.2f}x the "
        f"engine's {report.n_steps})"
    )

    # On a matched workload (all requests at t=0, one priority class, no
    # preemption) the engine must replay the analytic Orca schedule exactly.
    if (
        args.arrival_rate == 0
        and args.priority_levels == 1
        and report.n_preemptions == 0
    ):
        n_steps, util = continuous_schedule_stats(realised, args.slots)
        ok = (
            n_steps == report.n_steps
            and abs(util - report.slot_utilisation) < 1e-9
        )
        print(
            f"  analytic cross-check : engine {report.n_steps} steps / "
            f"{report.slot_utilisation:.3f} util vs model {n_steps} / "
            f"{util:.3f} [{'ok' if ok else 'MISMATCH'}]"
        )
        if not ok:
            print(
                "engine disagrees with repro.perf.continuous_batching",
                file=sys.stderr,
            )
            return 1
    return 0


def cmd_fleet(args: argparse.Namespace) -> int:
    """Multi-tenant fleet run: N jobs, one shared cluster, injected kills."""
    import json
    import tempfile

    from repro.faults import FaultPlan
    from repro.fleet import FleetScheduler, JobSpec
    from repro.observability import collect_fleet_metrics
    from repro.serialization import json_safe

    if args.jobs < 1:
        print("--jobs must be >= 1", file=sys.stderr)
        return 2
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
    demand = " + ".join(str(j.gpus_at(j.preferred_dp)) for j in jobs)

    plan = FaultPlan()
    for machine in args.kill_machines or ():
        if not 0 <= machine < spec.n_machines:
            print(
                f"--kill-machine {machine} out of range for "
                f"{spec.n_machines} machine(s)",
                file=sys.stderr,
            )
            return 2
        plan.kill_machine(machine, at_step=args.at_tick)
    if args.kill_rack is not None:
        n_racks = max(1, spec.n_machines // args.machines_per_rack)
        if not 0 <= args.kill_rack < n_racks:
            print(
                f"--kill-rack {args.kill_rack} out of range for "
                f"{n_racks} rack(s)",
                file=sys.stderr,
            )
            return 2
        plan.kill_rack(
            args.kill_rack,
            at_step=args.at_tick,
            machines_per_rack=args.machines_per_rack,
        )

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

    gate_clean = not report.checks_run or not report.analysis_findings
    goodputs = {j.name: j.goodput for j in report.jobs}
    ok = (
        report.all_completed
        and all(g > 0 for g in goodputs.values())
        and gate_clean
    )
    if args.bench_out:
        import pathlib

        bench = {
            "benchmark": "fleet_chaos_smoke",
            "jobs": args.jobs,
            "cluster_gpus": spec.n_gpus,
            "devices_killed": report.devices_killed,
            "goodput_per_job": goodputs,
            "goodput_mean": sum(goodputs.values()) / len(goodputs),
            "mttr": report.mttr,
            "fairness": report.fairness,
            "preemptions": report.preemptions,
            "resizes": report.resizes,
            "failures": report.failures,
            "makespan": report.makespan,
            "ticks": report.ticks,
            "all_completed": report.all_completed,
            "analysis_findings": dict(report.analysis_findings),
            "metrics_series": len(registry),
            "ok": ok,
        }
        out = pathlib.Path(args.bench_out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(json_safe(bench, "fleet"), indent=2) + "\n")
        print(f"  wrote benchmark record to {out}")
    if not ok:
        reasons = []
        if not report.all_completed:
            reasons.append("not every job completed")
        if not all(g > 0 for g in goodputs.values()):
            reasons.append("a job finished with zero goodput")
        if not gate_clean:
            reasons.append("analysis gate found issues")
        print(f"fleet run FAILED: {'; '.join(reasons)}", file=sys.stderr)
        return 1
    return 0


def _example_plan_reports(batch: int):
    """DataflowChecker reports for the configurations the repo ships.

    Two plans are checked: the tiny functional PPO placement every
    faults/trace/metrics subcommand runs (function reward on a 1-GPU pool),
    and a full-scale llama-7b colocated placement with the memory projection
    enabled (App. C) — the same shape §8's evaluation clusters use.
    """
    from repro.analysis import DataflowChecker
    from repro.config import GenParallelConfig as GenPC
    from repro.runtime import ModelAssignment, PlacementPlan

    reports = []
    tiny_par = ParallelConfig(pp=1, tp=2, dp=1)
    tiny_plan = PlacementPlan(
        pools={"main": 2, "r": 1},
        assignments={
            "actor": ModelAssignment("main", tiny_par, GenPC.derive(tiny_par, 1, 1)),
            "critic": ModelAssignment("main", tiny_par),
            "reference": ModelAssignment("main", tiny_par),
            "reward": ModelAssignment("r", ParallelConfig(1, 1, 1)),
        },
    )
    checker = DataflowChecker(global_batch_size=batch)
    report = checker.check_plan(
        AlgoType.PPO, tiny_plan, function_rewards=("reward",)
    )
    report.name = "dataflow[tiny-ppo]"
    reports.append(report)

    full_par = ParallelConfig(pp=1, tp=8, dp=2)
    full_plan = PlacementPlan(
        pools={"all": 16},
        assignments={
            "actor": ModelAssignment("all", full_par, GenPC.derive(full_par, 1, 2)),
            "critic": ModelAssignment("all", full_par),
            "reference": ModelAssignment("all", full_par),
            "reward": ModelAssignment("all", full_par),
        },
    )
    checker = DataflowChecker(
        global_batch_size=1024,
        model_specs={
            role: MODEL_SPECS["llama-7b"]
            for role in ("actor", "critic", "reference", "reward")
        },
        workload=RlhfWorkload(),
        cluster_spec=ClusterSpec(n_machines=2),
    )
    report = checker.check_plan(AlgoType.PPO, full_plan)
    report.name = "dataflow[llama-7b-colocate]"
    reports.append(report)

    # the shipped async-pipeline config (repro pipeline / async_ppo_overlap
    # bench): DF108 soundness of the bounded-staleness relaxation
    from repro.pipeline import PipelineConfig
    from repro.rlhf.trainers import TrainerConfig

    report = DataflowChecker(global_batch_size=batch).check_pipeline(
        PipelineConfig(staleness_window=1), TrainerConfig(), AlgoType.PPO
    )
    report.name = "dataflow[async-pipeline]"
    reports.append(report)
    return reports


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

    verifier = ShardingVerifier()
    reports = []
    for name, par, gen_pp, gen_tp in (
        ("tiny-ppo", ParallelConfig(pp=1, tp=2, dp=1), 1, 1),
        ("llama-7b-colocate", ParallelConfig(pp=1, tp=8, dp=2), 1, 2),
    ):
        topo = ParallelTopology(par, name=name)
        report = verifier.verify_topology(topo)
        for mode in (GenGroupingMode.HYBRIDFLOW, GenGroupingMode.VANILLA):
            gen = GenTopology(
                topo, GenParallelConfig.derive(par, gen_pp, gen_tp), mode
            )
            verifier.verify_transition(gen, report=report)
        report.name = f"sharding[{name}]"
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
    report.name = "sharding[zero/fsdp]"
    reports.append(report)
    return reports


def cmd_check(args: argparse.Namespace) -> int:
    """``repro check``: lint + dataflow + trace + sharding + races
    (+ models, + shapes)."""
    import json

    from repro.analysis import (
        AnalysisReport,
        RaceDetector,
        RepoLint,
        TraceAuditor,
    )
    from repro.serialization import json_safe

    as_json = args.json or args.format == "json"
    out = sys.stderr if as_json else sys.stdout
    skip = set(args.skip or ())
    combined = AnalysisReport("repro check")
    if "lint" not in skip:
        lint = RepoLint().lint_paths(args.paths)
        combined.merge(lint)
    if "dataflow" not in skip:
        for report in _example_plan_reports(args.batch):
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
    if args.shapes:
        from repro.analysis import shipped_graph_reports

        for _name, report in shipped_graph_reports(batch=args.batch):
            combined.merge(report)
    if args.models:
        import dataclasses
        import pathlib

        from repro.analysis import ModelChecker

        checker = ModelChecker(
            max_depth=args.mc_depth, max_states=args.mc_states
        )
        combined.merge(checker.check_shipped())
        if args.mc_report:
            doc = {
                "max_depth": args.mc_depth,
                "max_states": args.mc_states,
                "models": [
                    {
                        "model": result.model,
                        "states": result.states,
                        "transitions": result.transitions,
                        "truncated": result.truncated,
                        "counterexamples": [
                            dataclasses.asdict(ce)
                            for ce in result.counterexamples
                        ],
                    }
                    for result in checker.last_results
                ],
            }
            pathlib.Path(args.mc_report).write_text(
                json.dumps(json_safe(doc, "mc_report"), indent=2) + "\n"
            )
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
        print(
            f"repro check FAILED [{families}]"
            + (" (strict: warnings are failures)" if args.strict else ""),
            file=sys.stderr,
        )
        return 1
    print("repro check passed", file=out)
    return 0


def cmd_pipeline(args: argparse.Namespace) -> int:
    """The ``repro pipeline`` gate: one-step-off overlap with proofs attached.

    Always runs the staleness=0 self-check first — the async driver with an
    empty window must land bit-for-bit on the synchronous trainer's weights —
    then runs the requested window and reports the overlap.  With ``--trace``
    the overlapped schedule is exported and put through the trace auditor and
    the vector-clock race detector; any RC5xx finding fails the command.
    """
    from repro.data import PromptDataset
    from repro.perf.bench import _build_disaggregated_ppo, _system_states_equal
    from repro.pipeline import AsyncPipelineDriver, PipelineConfig
    from repro.runtime.timeline import build_timeline

    def dataset() -> PromptDataset:
        return PromptDataset(
            n_prompts=64, prompt_length=4, vocab_size=16, seed=1
        )

    n, bs = args.iterations, args.batch
    pipeline_config = PipelineConfig(
        staleness_window=args.staleness, stream_scoring=args.stream
    )
    try:
        pipeline_config.validate()
    except ValueError as exc:
        print(f"bad pipeline config: {exc}", file=sys.stderr)
        return 2

    sync_sys = _build_disaggregated_ppo()
    sync_sys.trainer.train(dataset(), n_iterations=n, batch_size=bs)
    sync_makespan = build_timeline(sync_sys.controller).makespan

    # structural guarantee first: an empty window IS the synchronous loop
    exact_sys = _build_disaggregated_ppo()
    AsyncPipelineDriver(
        exact_sys.trainer, PipelineConfig(staleness_window=0)
    ).train(dataset(), n_iterations=n, batch_size=bs)
    if not _system_states_equal(sync_sys, exact_sys):
        print(
            "staleness=0 self-check FAILED: async driver diverged from the "
            "synchronous trainer",
            file=sys.stderr,
        )
        return 1
    print(
        f"staleness=0 self-check: bit-exact with synchronous run_step "
        f"over {n} iterations"
    )

    async_sys = _build_disaggregated_ppo()
    driver = AsyncPipelineDriver(async_sys.trainer, pipeline_config)
    driver.train(dataset(), n_iterations=n, batch_size=bs)
    timeline = build_timeline(async_sys.controller)
    report = driver.report()
    speedup = sync_makespan / max(timeline.makespan, 1e-9)
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
        f"  modeled makespan: sync {sync_makespan:.1f}s -> overlapped "
        f"{timeline.makespan:.1f}s (speedup {speedup:.3f}x)"
    )
    for pool in timeline.pools():
        print(
            f"  pool {pool:8s} idle "
            f"{timeline.idle_fraction(pool) * 100:5.1f}%"
        )

    if args.trace:
        from repro.analysis import RaceDetector, TraceAuditor
        from repro.observability import write_chrome_trace

        out = write_chrome_trace(
            args.trace,
            timeline=timeline,
            spans=async_sys.controller.tracer.spans,
        )
        print(f"  wrote Chrome trace to {out}")
        audit = TraceAuditor().audit_system(async_sys)
        RaceDetector().detect_system(async_sys, report=audit)
        for line in audit.summary_lines():
            print(f"  {line}")
        races = [f for f in audit.findings if f.rule.startswith("RC")]
        if races:
            print(
                f"RACE DETECTED on overlapped schedule: {len(races)} "
                "RC5xx finding(s)",
                file=sys.stderr,
            )
            return 1
        print("  race detector: overlapped schedule is clean")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    """Perf trajectory gate: run pinned workloads, compare vs the baseline."""
    import json
    import pathlib

    from repro.perf.bench import (
        WORKLOADS,
        compare_fleet_records,
        compare_records,
        run_bench,
        summary_lines,
    )
    from repro.serialization import json_safe

    baseline_path = pathlib.Path(args.baseline)

    if args.current is not None:
        # compare-only mode: gate a record produced elsewhere (e.g. the CI
        # fleet run) against its committed baseline — nothing is executed
        current = json.loads(pathlib.Path(args.current).read_text())
        if not baseline_path.exists():
            print(f"no baseline at {baseline_path}", file=sys.stderr)
            return 2
        baseline = json.loads(baseline_path.read_text())
        compare = compare_fleet_records if args.fleet else compare_records
        problems = compare(current, baseline)
        if problems:
            print(
                f"bench comparison vs {baseline_path} FAILED:", file=sys.stderr
            )
            for problem in problems:
                print(f"  - {problem}", file=sys.stderr)
            return 1
        print(f"bench comparison vs {baseline_path} passed")
        return 0

    names = args.workload or None
    if names:
        unknown = [n for n in names if n not in WORKLOADS]
        if unknown:
            print(
                f"unknown workload(s) {unknown}; have {sorted(WORKLOADS)}",
                file=sys.stderr,
            )
            return 2
    record = run_bench(names)
    for line in summary_lines(record):
        print(line)

    def write(path: pathlib.Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(json_safe(record, "bench"), indent=2) + "\n"
        )
        print(f"wrote bench record to {path}")

    if args.out:
        write(pathlib.Path(args.out))
    if args.update:
        write(baseline_path)
        return 0
    if args.check:
        if not baseline_path.exists():
            print(
                f"no baseline at {baseline_path} — create one with "
                "'repro bench --update'",
                file=sys.stderr,
            )
            return 2
        baseline = json.loads(baseline_path.read_text())
        problems = compare_records(record, baseline)
        if problems:
            print(
                f"bench regression vs {baseline_path}:", file=sys.stderr
            )
            for problem in problems:
                print(f"  - {problem}", file=sys.stderr)
            return 1
        print(f"bench check vs {baseline_path} passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="HybridFlow reproduction: analytical tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("throughput", help="compare systems on one scenario")
    _common_args(p)
    p.set_defaults(fn=cmd_throughput)

    p = sub.add_parser("map", help="run the auto device-mapping algorithm")
    _common_args(p)
    p.set_defaults(fn=cmd_map)

    p = sub.add_parser("transition", help="Table 2 overheads + transition time")
    _common_args(p)
    p.add_argument("--pp", type=int, default=1)
    p.add_argument("--tp", type=int, default=8)
    p.add_argument("--dp", type=int, default=2)
    p.add_argument("--gen-tp", type=int, default=2)
    p.add_argument("--gen-pp", type=int, default=1)
    p.set_defaults(fn=cmd_transition)

    p = sub.add_parser("sweep-gen", help="Figure 15 generation-TP sweep")
    _common_args(p)
    p.add_argument("--pp", type=int, default=1)
    p.add_argument("--tp", type=int, default=8)
    p.add_argument("--dp", type=int, default=2)
    p.add_argument("--reserved-gb", type=float, default=17.0)
    p.set_defaults(fn=cmd_sweep_gen)

    p = sub.add_parser(
        "map-hetero",
        help="device mapping over heterogeneous zones (the §6 extension)",
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
    p.set_defaults(fn=cmd_map_hetero)

    p = sub.add_parser(
        "faults",
        help="fault-injected functional run with automatic recovery (§9)",
    )
    p.add_argument(
        "--machines", type=int, default=2, help="simulated machines"
    )
    p.add_argument(
        "--gpus-per-machine",
        type=int,
        default=4,
        help="GPUs per simulated machine (spare capacity hosts re-placement)",
    )
    p.add_argument("--iterations", type=int, default=6, help="PPO iterations")
    p.add_argument(
        "--ckpt-every",
        type=int,
        default=1,
        help="checkpoint interval in iterations",
    )
    p.add_argument(
        "--kill-machine",
        type=int,
        default=None,
        metavar="M",
        help="kill machine M (all its GPUs) at --at-step",
    )
    p.add_argument(
        "--kill-device",
        type=int,
        default=None,
        metavar="RANK",
        help="kill one GPU at --at-step",
    )
    p.add_argument(
        "--transients",
        type=int,
        default=0,
        metavar="N",
        help="inject N consecutive transient RPC failures at --at-step",
    )
    p.add_argument(
        "--at-step",
        type=int,
        default=30,
        help="trace sequence number at which scheduled faults arm",
    )
    p.add_argument(
        "--seed", type=int, default=0, help="retry-backoff jitter seed"
    )
    p.add_argument(
        "--mtbf",
        type=float,
        default=3600.0,
        help="assumed mean time between failures for the analytic model (s)",
    )
    p.set_defaults(fn=cmd_faults)

    p = sub.add_parser(
        "trace",
        help="export a Chrome trace_event JSON of the tiny functional run",
    )
    _observability_args(p)
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser(
        "metrics",
        help="dump the tiny functional run's metrics as Prometheus text",
    )
    _observability_args(p)
    p.set_defaults(fn=cmd_metrics)

    p = sub.add_parser(
        "serve",
        help="functional continuous-batching rollout serving demo",
    )
    p.add_argument("--requests", type=int, default=16, help="request count")
    p.add_argument("--prompt-length", type=int, default=4, help="prompt tokens")
    p.add_argument(
        "--mean-response", type=int, default=8, help="mean response length"
    )
    p.add_argument(
        "--max-response", type=int, default=24, help="response length cap"
    )
    p.add_argument("--slots", type=int, default=4, help="decode slots")
    p.add_argument(
        "--block-size", type=int, default=8, help="tokens per KV block"
    )
    p.add_argument(
        "--blocks",
        type=int,
        default=None,
        help=(
            "total KV blocks (default: enough for --slots full-length "
            "sequences; small values force preempt-and-recompute)"
        ),
    )
    p.add_argument(
        "--eos",
        type=int,
        default=None,
        metavar="TOKEN",
        help=(
            "sample with this EOS token id (default: greedy decode to each "
            "request's target length, enabling the analytic cross-check)"
        ),
    )
    p.add_argument(
        "--arrival-rate",
        type=float,
        default=0.0,
        help="mean Poisson arrivals per decode step (0 = all at once)",
    )
    p.add_argument(
        "--priority-levels",
        type=int,
        default=1,
        help="draw request priorities uniformly from [0, N)",
    )
    p.add_argument(
        "--slo-ttft", type=float, default=None, help="TTFT SLO (sim seconds)"
    )
    p.add_argument(
        "--slo-latency",
        type=float,
        default=None,
        help="end-to-end latency SLO (sim seconds)",
    )
    p.add_argument("--seed", type=int, default=0, help="workload + model seed")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "fleet",
        help=(
            "multi-tenant fleet run: gang-schedule N tiny RLHF jobs onto "
            "one shared cluster under injected machine/rack kills"
        ),
    )
    p.add_argument("--jobs", type=int, default=3, help="tenant job count")
    p.add_argument(
        "--machines", type=int, default=3, help="simulated machines"
    )
    p.add_argument(
        "--gpus-per-machine",
        type=int,
        default=4,
        help="GPUs per simulated machine",
    )
    p.add_argument(
        "--iterations", type=int, default=4, help="PPO iterations per job"
    )
    p.add_argument(
        "--ckpt-every",
        type=int,
        default=1,
        help="checkpoint interval in iterations",
    )
    p.add_argument(
        "--kill-machine",
        action="append",
        dest="kill_machines",
        type=int,
        metavar="M",
        help=(
            "kill machine M at --at-tick; repeat for a correlated "
            "multi-machine failure"
        ),
    )
    p.add_argument(
        "--kill-rack",
        type=int,
        default=None,
        metavar="R",
        help="kill every machine in rack R at --at-tick",
    )
    p.add_argument(
        "--machines-per-rack",
        type=int,
        default=2,
        help="rack width for --kill-rack",
    )
    p.add_argument(
        "--at-tick",
        type=int,
        default=2,
        help="scheduler tick at which the kills land",
    )
    p.add_argument(
        "--no-preemption",
        action="store_true",
        help="disable checkpoint-and-evict preemption",
    )
    p.add_argument(
        "--no-checks",
        action="store_true",
        help="skip the DF/TA/SH/RC analysis gate over completed jobs",
    )
    p.add_argument(
        "--bench-out",
        default=None,
        metavar="FILE",
        help="write a JSON benchmark record (goodput, MTTR, fairness)",
    )
    p.set_defaults(fn=cmd_fleet)

    p = sub.add_parser(
        "check",
        help=(
            "repro check gate: RepoLint over the tree, DataflowChecker over "
            "the shipped example plans, ShardingVerifier over the shipped "
            "topologies, TraceAuditor + RaceDetector over the golden trace, "
            "(with --models) the MC6xx protocol model checker, and (with "
            "--shapes) the SF7xx symbolic shape/dtype flow pass"
        ),
    )
    p.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    p.add_argument(
        "--strict",
        action="store_true",
        help="treat warnings as failures (CI mode)",
    )
    p.add_argument(
        "--skip",
        action="append",
        choices=("lint", "dataflow", "sharding", "trace", "races"),
        metavar="PASS",
        help="skip one of the passes; repeatable",
    )
    p.add_argument(
        "--batch",
        type=int,
        default=8,
        help="global batch size assumed for the tiny example plan",
    )
    p.add_argument(
        "--trace-file",
        default="tests/golden/chrome_trace.json",
        help="Chrome trace JSON to audit",
    )
    p.add_argument(
        "--models",
        action="store_true",
        help=(
            "also run the MC6xx bounded model checker over the shipped "
            "protocol models (async pipeline, drain hand-off, fleet gangs)"
        ),
    )
    p.add_argument(
        "--shapes",
        action="store_true",
        help=(
            "also run the SF7xx symbolic shape/dtype flow pass over the "
            "shipped algorithm graphs (PPO, GRPO, serving-backed PPO, "
            "async pipeline, train→gen transition)"
        ),
    )
    p.add_argument(
        "--mc-depth",
        type=int,
        default=400,
        help="model checker: maximum schedule length explored",
    )
    p.add_argument(
        "--mc-states",
        type=int,
        default=60_000,
        help="model checker: distinct-state budget per model",
    )
    p.add_argument(
        "--mc-report",
        metavar="PATH",
        help=(
            "write the model-check coverage/counterexample report "
            "(JSON) to PATH"
        ),
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
    p.add_argument(
        "--json",
        action="store_true",
        help="alias for --format json",
    )
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser(
        "bench",
        help=(
            "perf trajectory gate: run the pinned workloads (sequential "
            "generate, serving drain, PPO iteration, train->gen transition) "
            "and compare against the committed BENCH_perf.json baseline"
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
    p.add_argument(
        "--out",
        default=None,
        help="also write this run's record to a file",
    )
    p.add_argument(
        "--workload",
        action="append",
        metavar="NAME",
        help="run only the named workload; repeatable (default: all)",
    )
    p.add_argument(
        "--current",
        default=None,
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
    p.add_argument(
        "--staleness",
        type=int,
        default=1,
        help="staleness window W (0 = synchronous; default 1)",
    )
    p.add_argument(
        "--iterations", type=int, default=3, help="PPO iterations to run"
    )
    p.add_argument(
        "--batch", type=int, default=4, help="prompts per iteration"
    )
    p.add_argument(
        "--stream",
        action="store_true",
        help="stream frozen-model scoring at rollout time (numerics-neutral)",
    )
    p.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help=(
            "write a Chrome trace of the overlapped run and gate it through "
            "the trace auditor + vector-clock race detector"
        ),
    )
    p.set_defaults(fn=cmd_pipeline)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
