"""Pinned perf workloads and the committed-baseline gate (``repro bench``).

HybridFlow's headline claim is throughput (§6: 1.5–20× over baselines), so
the reproduction keeps a *measured* perf trajectory instead of an asserted
one: ``repro bench`` runs the pinned workloads below, writes a
``BENCH_perf.json`` record, and CI compares every run against the committed
baseline — a regression beyond tolerance fails the build.

Comparison policy (the part that makes the gate portable):

* ``exact`` metrics are **structure-derived** integers/booleans — token
  counts with EOS disabled, schedule steps, dispatch-call counts, metered
  collective bytes (a function of array shapes), cache hit counts.  They
  must match the baseline bit-for-bit on any platform; none of them depends
  on float arithmetic or the sampled token stream, so they are stable
  across Python/numpy versions — except ``grpo_eos_iteration``'s two token
  counts and its prefix hits, which follow where sampling emitted EOS (a
  sampler or model change that moves them is a re-baseline, said so).
* ``min`` metrics carry their own absolute floor (host-speed-free ratios
  and counts: the modeled async overlap speedup, process-group cache
  hits).  The floor is part of the pinned record.
* ``info`` metrics are recorded for the trajectory but never compared.

Workload *pins* (model sizes, batch shapes, seeds) are compared exactly;
changing a pin requires an explicit re-baseline (``repro bench --update``),
so the committed numbers always describe the committed workloads.

No metric here reads a clock: speed is measured by ``bench/`` (see
``bench/README.md``), in calibrated units and against the parent commit;
this suite is the structural gate — counts that move only when the amount
of work does.
"""

from __future__ import annotations

import contextlib
import resource
import tracemalloc
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

SCHEMA = 1
SUITE = "repro.perf.bench"


def _metric(kind: str, value: Any, **extra: Any) -> Dict[str, Any]:
    if kind not in ("exact", "min", "info"):
        raise ValueError(f"unknown metric kind {kind!r}")
    return {"kind": kind, "value": value, **extra}


def _minor_faults() -> int:
    """Page faults this process has taken without I/O: pages touched for
    the first time.  The builder keeps the heap (``runtime.builder.keep_heap``),
    so they count heap growth, not memory returned and faulted in again."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


# -- workloads -----------------------------------------------------------------------


def _model_config(pins: Dict[str, Any]):
    """The TinyLM architecture among a workload's pins."""
    from repro.models.tinylm import TinyLMConfig

    fields = TinyLMConfig.__dataclass_fields__
    return TinyLMConfig(**{k: v for k, v in pins.items() if k in fields})


def _model_and_prompts(pins: Dict[str, Any], n_prompts: int):
    """That TinyLM and ``n_prompts`` prompts, both from the pinned seed."""
    from repro.models.tinylm import TinyLM

    model = TinyLM(_model_config(pins), seed=pins["seed"])
    prompts = np.random.default_rng(pins["seed"]).integers(
        0, model.config.vocab_size, size=(n_prompts, pins["prompt_length"])
    )
    return model, prompts


def bench_sequential_generate() -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Auto-regressive ``generate``: the static-batching decode loop."""
    from repro.models.sampler import generate

    pins = {
        "n_layers": 2,
        "hidden_size": 32,
        "n_heads": 4,
        "ffn_hidden_size": 48,
        "vocab_size": 32,
        "max_seq_len": 64,
        "batch": 8,
        "prompt_length": 4,
        "max_new_tokens": 16,
        "seed": 0,
    }
    model, prompts = _model_and_prompts(pins, pins["batch"])
    out = generate(
        model,
        prompts,
        max_new_tokens=pins["max_new_tokens"],
        rng=np.random.default_rng(pins["seed"]),
    )
    # no EOS: every slot fills
    return pins, {"tokens": _metric("exact", out.response_log_probs.size)}


@contextlib.contextmanager
def _counted_cores() -> Iterator[List[int]]:
    """Count attention cores while the block runs: each ``ag.attention`` call
    (looked up on the module at each call) runs one, counted here, in the
    harness."""
    from repro.models import autograd as ag

    cores, attention = [0], ag.attention

    def counted(*args: Any, **kwargs: Any) -> Any:
        cores[0] += 1
        return attention(*args, **kwargs)

    ag.attention = counted
    try:
        yield cores
    finally:
        ag.attention = attention


@contextlib.contextmanager
def _counted_gathers() -> Iterator[List[int]]:
    """Count forwards that bind the KV store by gathering its rows while the
    block runs (none when every cohort's slots are one run), counted here, in
    the harness."""
    from repro.models.tinylm import KVStore

    gathers, at = [0], KVStore.at

    def bound(store: KVStore, *args: Any, **kwargs: Any) -> KVStore:
        view = at(store, *args, **kwargs)
        gathers[0] += view.run is None
        return view

    KVStore.at = bound
    try:
        yield gathers
    finally:
        KVStore.at = at


def bench_serving_drain() -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Continuous-batching drain through ``RolloutServer``."""
    from repro.serving import RolloutServer, ServingConfig

    pins = {
        "n_layers": 2,
        "hidden_size": 32,
        "n_heads": 4,
        "ffn_hidden_size": 48,
        "vocab_size": 32,
        "max_seq_len": 64,
        "n_requests": 12,
        "prompt_length": 4,
        "min_new_tokens": 4,
        "max_new_tokens": 16,
        "max_slots": 4,
        "seed": 0,
    }
    model, prompts = _model_and_prompts(pins, pins["n_requests"])
    # no EOS, but budgets differ per request: slots refill at different
    # steps, so the runners of a step hold different KV lengths — and still
    # share one forward (admissions, a whole prompt each, take their own)
    budgets = np.random.default_rng(pins["seed"]).integers(
        pins["min_new_tokens"],
        pins["max_new_tokens"] + 1,
        size=pins["n_requests"],
    )
    server = RolloutServer(
        model,
        ServingConfig(max_slots=pins["max_slots"], seed=pins["seed"]),
    )
    for prompt, budget in zip(prompts, budgets):
        server.submit(prompt, max_new_tokens=int(budget))
    with _counted_gathers() as gathers, _counted_cores() as cores:
        report = server.drain()

    metrics = {
        "n_steps": _metric("exact", report.n_steps),
        "forwards": _metric("exact", report.n_forwards),
        "total_tokens": _metric("exact", report.total_tokens),
        "n_preemptions": _metric("exact", report.n_preemptions),
        # one core per decode forward and layer, whatever each row cached
        "attention_cores": _metric("exact", cores[0]),
        # held slots are 0..n-1: each cohort binds the store as views
        "kv_gathers": _metric("exact", gathers[0]),
    }
    return pins, metrics


def bench_ppo_iteration() -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """One full PPO iteration through the single-controller dispatch path."""
    from repro.comm import collectives
    from repro.config import ClusterSpec
    from repro.models.autograd import Tensor
    from repro.models.tinylm import KVStore, TinyLM
    from repro.runtime.builder import SystemSpec
    from repro.workers.base import ShardedModelWorker

    spec = SystemSpec()
    pins = {
        "algo": spec.algo.value,
        "n_iterations": 1,
        "batch_size": 8,
        "max_new_tokens": spec.max_new_tokens,
        "prompt_length": spec.prompt_length,
        "seed": spec.seed,
    }
    system = spec.build(
        cluster_spec=ClusterSpec(n_machines=1, gpus_per_machine=4)
    )

    # every tape node is one ``Tensor._from_op`` call (looked up on the class
    # at each call), every gradient sync one ``collectives.all_reduce`` and
    # every re-merge of a lead's resident weights one ``_merge_full_state``
    # (both looked up at each call too), every cached forward binds its
    # ``KVStore`` once (``KVStore.at``), and a forward's ``_trunk`` returns
    # the final-normed stream of the tokens its last layer's MLP ran on:
    # counted here, in the harness, not in the program
    counts = {
        "nodes": 0,
        "all_reduce": 0,
        "merges": 0,
        "decode_forwards": 0,
        "last_layer_tokens": 0,
    }
    from_op = Tensor.__dict__["_from_op"]
    all_reduce = collectives.all_reduce
    merge = ShardedModelWorker._merge_full_state
    bind = KVStore.at
    trunk = TinyLM._trunk

    def last_layer(*args: Any, **kwargs: Any) -> Any:
        x, tail = trunk(*args, **kwargs)
        counts["last_layer_tokens"] += x.data.size // x.shape[-1]
        return x, tail

    def counted(key: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    Tensor._from_op = classmethod(counted("nodes", from_op.__func__))
    collectives.all_reduce = counted("all_reduce", all_reduce)
    ShardedModelWorker._merge_full_state = counted("merges", merge)
    KVStore.at = counted("decode_forwards", bind)
    TinyLM._trunk = last_layer
    tracemalloc.start()
    try:
        system.trainer.train(
            spec.dataset(),
            n_iterations=pins["n_iterations"],
            batch_size=pins["batch_size"],
        )
        peak_bytes = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        Tensor._from_op = from_op
        collectives.all_reduce = all_reduce
        ShardedModelWorker._merge_full_state = merge
        KVStore.at = bind
        TinyLM._trunk = trunk
    dispatch_calls = int(
        system.controller.metrics.total("repro_dispatch_calls_total")
    )
    simulated_seconds = float(system.controller.clock.now)
    # the first iteration's faults are first-touch growth; a second, warm
    # one shows whether freed memory is faulted back in
    faults = _minor_faults()
    system.trainer.train(spec.dataset(), n_iterations=1, batch_size=pins["batch_size"])
    faults = _minor_faults() - faults

    metrics = {
        # the dataflow's structure: how many remote calls one iteration
        # dispatches is a property of the algorithm graph, not the floats
        "dispatch_calls": _metric("exact", dispatch_calls),
        "iterations": _metric("exact", pins["n_iterations"]),
        # the engine's structure: tape nodes built by one iteration's
        # forwards and losses (the fused TinyLM primitives are one each)
        "autograd_nodes": _metric("exact", counts["nodes"]),
        # the training state's structure: one flat gradient all-reduce per
        # update, and a lead re-merges its resident weights only when a
        # shard changed under it (its first call)
        "grad_allreduce_calls": _metric("exact", counts["all_reduce"]),
        "full_state_merges": _metric("exact", counts["merges"]),
        # the rollout's structure: a generation round decodes every
        # replica's micro-batch in one loop, one cached forward per step
        "decode_forwards": _metric("exact", counts["decode_forwards"]),
        # the forwards' structure: the scoring and training forwards run
        # their last layer at the response positions only
        "last_layer_tokens": _metric("exact", counts["last_layer_tokens"]),
        "train_peak_bytes": _metric("info", peak_bytes),
        "minor_faults": _metric("info", faults),
        "simulated_seconds": _metric("info", simulated_seconds),
    }
    return pins, metrics


def bench_grpo_eos_iteration() -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """One GRPO iteration served by ``RolloutServer`` with an EOS id: the
    scoring and training forwards compute only the real tokens of its
    ragged rows."""
    from repro.config import ClusterSpec
    from repro.data import SyntheticPreferenceTask
    from repro.models import autograd as ag
    from repro.models.tinylm import TinyLM
    from repro.rlhf.core import AlgoType
    from repro.rlhf.trainers import TrainerConfig
    from repro.runtime.builder import SystemSpec, build_rlhf_system

    spec = SystemSpec(algo=AlgoType.GRPO)
    pins = {
        "algo": spec.algo.value,
        "group_size": 4,
        "batch_size": 4,
        "prompt_length": spec.prompt_length,
        "max_new_tokens": 8,
        "eos_token_id": 1,
        "serving": True,
        "seed": spec.seed,
    }
    system = build_rlhf_system(
        spec.algo,
        spec.plan,
        spec.model_config,
        cluster_spec=ClusterSpec(n_machines=1, gpus_per_machine=4),
        trainer_config=TrainerConfig(group_size=pins["group_size"], seed=spec.seed),
        reward_fn=SyntheticPreferenceTask(
            vocab_size=spec.model_config.vocab_size, target_token=spec.target_token
        ).reward,
        max_new_tokens=pins["max_new_tokens"],
        seed=spec.seed,
        eos_token_id=pins["eos_token_id"],
        use_serving=pins["serving"],
    )

    # positions entering TinyLM forwards: the grid each forward is handed,
    # and the tokens its stream embeds (counted here, in the harness)
    padded = computed = 0
    embed, trunk = ag.embed, TinyLM._trunk

    def embedding(*args: Any, **kwargs: Any) -> Any:
        nonlocal computed
        out = embed(*args, **kwargs)
        computed += out.size // out.shape[-1]
        return out

    def gridded(model: TinyLM, token_ids: Any, *args: Any, **kwargs: Any) -> Any:
        nonlocal padded
        padded += np.size(token_ids)
        return trunk(model, token_ids, *args, **kwargs)

    ag.embed, TinyLM._trunk = embedding, gridded
    try:
        with _counted_gathers() as gathers, _counted_cores() as cores:
            faults = _minor_faults()
            system.trainer.train(spec.dataset(), 1, pins["batch_size"])
            faults = _minor_faults() - faults
    finally:
        ag.embed, TinyLM._trunk = embed, trunk
    served = system.controller.metrics.total("repro_serving_tokens_total")
    hits = system.controller.metrics.total("repro_serving_prefix_hits_total")

    metrics = {
        # each group's prompt enters the scoring and training forwards once
        "forward_tokens": _metric("exact", computed),
        "padded_forward_tokens": _metric("info", padded),
        # one attention core per layer of every forward, ragged rows or not
        "attention_cores": _metric("exact", cores[0]),
        "response_tokens": _metric("exact", int(served)),
        # admissions that reused a group-mate's prompt prefill
        "prefix_hits": _metric("exact", int(hits)),
        # the prefilling admissions hold one run of slots, the reusers
        # after them: every forward binds the store as views
        "kv_gathers": _metric("exact", gathers[0]),
        "minor_faults": _metric("info", faults),
    }
    return pins, metrics


def bench_train_gen_transition() -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Two 3D-HybridEngine transition cycles, plan/group caches observed."""
    from repro.config import ClusterSpec, GenParallelConfig, ParallelConfig
    from repro.hybrid_engine import HybridEngine3D, plan_for_geometry
    from repro.single_controller import SingleController, WorkerGroup
    from repro.workers import ActorWorker

    pins = {
        "n_layers": 4,
        "hidden_size": 32,
        "n_heads": 4,
        "ffn_hidden_size": 48,
        "vocab_size": 16,
        "max_seq_len": 32,
        "pp": 1,
        "tp": 4,
        "dp": 2,
        "gen_tp": 2,
        "gen_pp": 1,
        "cycles": 2,
    }
    cfg = _model_config(pins)
    parallel = ParallelConfig(pp=pins["pp"], tp=pins["tp"], dp=pins["dp"])
    controller = SingleController(ClusterSpec(n_machines=2))
    pool = controller.create_pool(parallel.world_size)
    group = WorkerGroup(
        ActorWorker,
        pool,
        parallel_config=parallel,
        gen_config=GenParallelConfig.derive(parallel, pins["gen_pp"], pins["gen_tp"]),
        controller=controller,
        name="actor",
        worker_kwargs={"model_config": cfg},
    )
    engine = HybridEngine3D(group)

    plan_for_geometry.cache_clear()
    for _ in range(pins["cycles"]):
        engine.to_generation()
        engine.to_training()
    plan_stats = plan_for_geometry.cache_info()
    group_stats = group.gen_topology.group_cache.stats()
    comm_bytes = int(controller.meter.total_bytes())

    metrics = {
        # collective bytes are a function of shard shapes — Table 2 algebra,
        # identical on every platform
        "comm_bytes": _metric("exact", comm_bytes),
        "plan_cache_hits": _metric("exact", plan_stats.hits),
        "plan_cache_misses": _metric("exact", plan_stats.misses),
        "group_cache_hits_min": _metric(
            "min", group_stats["hits"], floor=1
        ),
        "group_cache_size": _metric("info", group_stats["size"]),
    }
    return pins, metrics


def bench_async_ppo_overlap() -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """:func:`repro.pipeline.overlap_study` at W=1, pinned.

    The overlap win is measured on the modeled execution timeline
    (simulated seconds, deterministic on every host); the floor pins the
    bubble collapse so it can never silently regress.
    """
    from repro.pipeline import PipelineConfig, overlap_study

    pins = {
        "algo": "ppo",
        "n_iterations": 4,
        "batch_size": 4,
        "prompt_length": 4,
        "max_new_tokens": 6,
        "staleness_window": 1,
        "seed": 7,
        "placement": "actor@actor[2gpu,tp2] critic+reference+reward@scorer",
    }
    study = overlap_study(
        pins["n_iterations"],
        pins["batch_size"],
        PipelineConfig(staleness_window=pins["staleness_window"]),
    )
    report = study.report

    metrics = {
        # schedule structure: staleness tags, buffer pressure, publication
        # bytes are functions of the dataflow and shard shapes, not floats
        "staleness0_bit_exact": _metric("exact", study.bit_exact),
        "max_staleness": _metric("exact", report["max_staleness_seen"]),
        "buffer_peak_occupancy": _metric(
            "exact", report["buffer_peak_occupancy"]
        ),
        "publications": _metric("exact", report["publications"]),
        "published_bytes": _metric("exact", report["published_bytes"]),
        "overlap_speedup": _metric("min", study.speedup, floor=1.1),
        "sync_makespan": _metric("info", float(study.sync_makespan)),
        "async_makespan": _metric("info", float(study.timeline.makespan)),
    }
    return pins, metrics


def bench_shape_check() -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """The SF7xx shape-flow pass (one probe run) over every shipped graph.

    Zero findings on the shipped graphs is pinned as an exact metric — the
    clean-run guarantee the seeded-mutant tests depend on — beside how many
    graphs and facts the pass covered.
    """
    from repro.analysis import shipped_graph_reports

    pins = {"batch": 8}

    reports = shipped_graph_reports(batch=pins["batch"])
    findings = sum(len(report.findings) for _name, report in reports)
    checked = sum(
        sum(report.checked.values()) for _name, report in reports
    )
    metrics = {
        "findings": _metric("exact", findings),
        "graphs": _metric("exact", len(reports)),
        "facts_checked": _metric("exact", checked),
    }
    return pins, metrics


def bench_src_lines() -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Lines of ``*.py`` under each top-level ``repro.*`` package or module.

    Not a timing: the trajectory of size, kept beside the trajectory of
    speed so a diet (or a binge) shows up in the same committed record.
    """
    import pathlib

    import repro

    pins = {"files": "*.py", "unit": "newline-terminated lines"}
    root = pathlib.Path(repro.__file__).parent
    lines: Dict[str, int] = {}
    for path in sorted(root.rglob("*.py")):
        top = path.relative_to(root).parts[0].removesuffix(".py")
        with path.open("rb") as handle:
            lines[top] = lines.get(top, 0) + sum(1 for _ in handle)
    metrics = {name: _metric("info", count) for name, count in lines.items()}
    metrics["total"] = _metric("info", sum(lines.values()))
    return pins, metrics


WORKLOADS: Dict[str, Callable[[], Tuple[Dict[str, Any], Dict[str, Any]]]] = {
    "sequential_generate": bench_sequential_generate,
    "serving_drain": bench_serving_drain,
    "ppo_iteration": bench_ppo_iteration,
    "grpo_eos_iteration": bench_grpo_eos_iteration,
    "train_gen_transition": bench_train_gen_transition,
    "async_ppo_overlap": bench_async_ppo_overlap,
    "shape_check": bench_shape_check,
    "src_lines": bench_src_lines,
}


def run_bench(names: Optional[List[str]] = None) -> Dict[str, Any]:
    """Run the pinned workloads; returns the ``BENCH_perf.json`` record."""
    if names is None:
        names = list(WORKLOADS)
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        raise ValueError(
            f"unknown workload(s) {unknown}; have {sorted(WORKLOADS)}"
        )
    record: Dict[str, Any] = {
        "schema": SCHEMA,
        "suite": SUITE,
        "workloads": {},
    }
    for name in names:
        pins, metrics = WORKLOADS[name]()
        record["workloads"][name] = {"pins": pins, "metrics": metrics}
    return record


# -- comparison ----------------------------------------------------------------------


def _check_min_metrics(record: Dict[str, Any]) -> List[str]:
    """Floor violations of a record's own ``min`` metrics (self-contained)."""
    problems = []
    for wname, workload in record.get("workloads", {}).items():
        for mname, metric in workload.get("metrics", {}).items():
            if metric.get("kind") != "min":
                continue
            floor = metric.get("floor")
            value = metric.get("value")
            if floor is None:
                problems.append(f"{wname}.{mname}: min metric has no floor")
            elif value < floor:
                problems.append(
                    f"{wname}.{mname}: {value:.3f} below its pinned floor "
                    f"{floor}"
                )
    return problems


def compare_records(
    current: Dict[str, Any], baseline: Dict[str, Any]
) -> List[str]:
    """Regressions of ``current`` against the committed ``baseline``.

    Returns human-readable problem strings; empty means the gate passes.
    Pin or workload-set drift is reported as a problem too — the fix is an
    explicit re-baseline, never a silent one.
    """
    problems: List[str] = []
    if current.get("suite") != baseline.get("suite") or current.get(
        "schema"
    ) != baseline.get("schema"):
        problems.append(
            f"record identity mismatch: current "
            f"({current.get('suite')}, schema {current.get('schema')}) vs "
            f"baseline ({baseline.get('suite')}, schema {baseline.get('schema')})"
        )
        return problems
    cur_wl = current.get("workloads", {})
    base_wl = baseline.get("workloads", {})
    for name in sorted(set(base_wl) - set(cur_wl)):
        problems.append(f"workload {name!r} in baseline but not in this run")
    for name in sorted(set(cur_wl) - set(base_wl)):
        problems.append(
            f"workload {name!r} not in baseline — re-baseline with "
            "'repro bench --update'"
        )
    problems.extend(_check_min_metrics(current))
    for name in sorted(set(cur_wl) & set(base_wl)):
        cur, base = cur_wl[name], base_wl[name]
        if cur.get("pins") != base.get("pins"):
            problems.append(
                f"{name}: workload pins changed — re-baseline with "
                f"'repro bench --update' (current {cur.get('pins')} vs "
                f"baseline {base.get('pins')})"
            )
            continue
        cur_m, base_m = cur.get("metrics", {}), base.get("metrics", {})
        for mname in sorted(set(base_m) | set(cur_m)):
            if mname not in cur_m or mname not in base_m:
                problems.append(
                    f"{name}.{mname}: present in only one record — re-baseline"
                )
                continue
            cm, bm = cur_m[mname], base_m[mname]
            if cm.get("kind") != bm.get("kind"):
                problems.append(
                    f"{name}.{mname}: metric kind changed "
                    f"({bm.get('kind')} -> {cm.get('kind')}) — re-baseline"
                )
                continue
            kind = cm.get("kind")
            if kind == "exact" and cm["value"] != bm["value"]:
                problems.append(
                    f"{name}.{mname}: {cm['value']!r} != baseline "
                    f"{bm['value']!r}"
                )
            elif kind == "min" and cm.get("floor") != bm.get("floor"):
                problems.append(
                    f"{name}.{mname}: pinned floor changed "
                    f"({bm.get('floor')} -> {cm.get('floor')}) — re-baseline"
                )
    return problems


def summary_lines(record: Dict[str, Any]) -> List[str]:
    """Human-readable rendering of a bench record."""
    lines: List[str] = []
    for name, workload in record.get("workloads", {}).items():
        lines.append(f"{name}:")
        for mname, metric in workload.get("metrics", {}).items():
            value = metric["value"]
            if isinstance(value, float):
                shown = f"{value:.4f}"
            else:
                shown = repr(value)
            suffix = ""
            if metric["kind"] == "min":
                suffix = f" (floor {metric.get('floor')})"
            lines.append(f"  {mname:24s} [{metric['kind']}] {shown}{suffix}")
    return lines
