"""One measured pass over one workload: untraced (end-to-end) or traced.

Closed loop, one client, one thread: the single controller issues the next
call only when the previous one returned.  The calibration kernel runs
before every timed step, outside the timed region; a step's cost in ``ck``
is its seconds divided by the mean of the kernel runs on either side of it.
Checks, digests and span bookkeeping also sit between steps, untimed.
"""

from __future__ import annotations

import gc
import json
import pathlib
import resource
import statistics
import sys
import time
import traceback
from typing import Any, Callable, Dict, List, Optional

from bench import check, spans
from bench.calibrate import calibration_seconds
from bench.workloads import Job, Workload

#: Builds per run whose median is ``setup_s``; the last one is measured.
SETUP_REPS = 3
WARMUP_STEPS = 2
#: A run never times fewer steps than this, however short ``--seconds`` is.
MIN_STEPS = 3
#: Exact counts and kept raw spans cover the first this-many timed steps, so
#: they do not depend on how many steps the machine fits into ``--seconds``.
COUNT_STEPS = 10
#: The comparison digest is taken after warm-up plus this many timed steps.
DIGEST_AFTER = 2
#: Share of a traced run's ``--seconds`` spent on its untraced reference.
REFERENCE_SHARE = 0.25


class Tally:
    """Steps attempted and failed across a pass, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def step(self, job: Job, tracer: Optional[spans.Tracer] = None):
        """Run and check one step; ``(seconds, tokens)`` or None if it raised."""
        before = check.snapshot(job)
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if tracer is None:
                job.step()
            else:
                with tracer.span(spans.ROOT):
                    job.step()
        except Exception as exc:  # the run must end with a report, not a crash
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            self.problems.append(f"step raised {type(exc).__name__}: {exc}")
            return None
        seconds = time.perf_counter() - t0
        after = check.snapshot(job)
        problems = check.check_step(job, before, after)
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return seconds, check.step_tokens(job, before, after)

    def require(self, ok: bool, problem: str) -> None:
        """A run-level check: it fails the run without belonging to a step."""
        if not ok:
            self.problems.append(problem)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


class SetupFailed(RuntimeError):
    """A step raised before any step was timed; there is nothing to report."""


def set_up(workload: Workload, seed: int, tally: Tally, tracer=None):
    """Build + dataset + warm-up steps; returns ``(job, seconds)``."""
    t0 = time.perf_counter()
    job = Job(workload, seed)
    seconds = time.perf_counter() - t0
    for _ in range(WARMUP_STEPS):
        result = tally.step(job, tracer)
        if result is None:
            raise SetupFailed(tally.problems[-1])
        seconds += result[0]
    return job, seconds


class Timed:
    """Per-step seconds, calibration and tokens of one timed region."""

    def __init__(self) -> None:
        self.step_s: List[float] = []
        self.calib_s: List[float] = []
        self.tokens: List[int] = []
        self.gc_gen2 = 0
        self.digest: Optional[str] = None

    @property
    def ck_s(self) -> List[float]:
        """Seconds per ``ck`` at each step: mean of the adjacent kernel runs."""
        c = self.calib_s
        return [(c[i] + c[i + 1]) / 2 for i in range(len(self.step_s))]

    @property
    def step_ck(self) -> List[float]:
        return [s / ck for s, ck in zip(self.step_s, self.ck_s)]


def timed_steps(
    tally: Tally,
    job: Job,
    seconds: float,
    steps: Optional[int],
    tracer: Optional[spans.Tracer] = None,
    after_step: Optional[Callable[[int], None]] = None,
) -> Timed:
    """Time steps for ``seconds`` (or exactly ``steps`` when given)."""
    out = Timed()
    gc.collect()
    gen2 = gc.get_stats()[2]["collections"]
    out.calib_s.append(calibration_seconds())
    started = time.perf_counter()
    while True:
        n = len(out.step_s)
        if steps is not None:
            if n >= steps:
                break
        elif n >= MIN_STEPS and time.perf_counter() - started >= seconds:
            break
        if tracer is not None:
            tracer.step_id = n
        result = tally.step(job, tracer)
        if result is None:
            break
        out.step_s.append(result[0])
        out.tokens.append(result[1])
        if n + 1 == DIGEST_AFTER:
            out.digest = job.state_digest()
        if after_step is not None:
            after_step(n)
        out.calib_s.append(calibration_seconds())
    if not out.step_s:
        raise SetupFailed(tally.problems[-1])
    out.gc_gen2 = gc.get_stats()[2]["collections"] - gen2
    return out


def _p75(values: List[float]) -> float:
    return statistics.quantiles(values, n=4)[2] if len(values) > 1 else values[0]


def _host_metrics(timed: Timed) -> Dict[str, float]:
    return {
        "host.step_ck_p75": _p75(timed.step_ck),
        "host.step_s_p50": statistics.median(timed.step_s),
        "host.calib_s_p50": statistics.median(timed.calib_s),
        "host.gc_gen2": timed.gc_gen2,
    }


def _record(
    workload: Workload, job: Job, tally: Tally, timed: Timed, **extra: Any
) -> Dict[str, Any]:
    return {
        "workload": workload.name,
        "n_steps": len(timed.step_s),
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "fail_share": tally.failed / tally.attempted,
        "problems": tally.problems,
        "digest": timed.digest,
        "policy_losses": check.policy_losses(job),
        **extra,
    }


def run_untraced(workload: Workload, seed: int, seconds: float, steps: Optional[int]):
    """The end-to-end pass: wrappers never installed."""
    tally = Tally()
    setups: List[float] = []
    warm_digests = set()
    job = None
    for _ in range(SETUP_REPS):
        job = None  # one system alive at a time, as in a real run
        gc.collect()
        job, setup_s = set_up(workload, seed, tally)
        setups.append(setup_s)
        warm_digests.add(job.state_digest())
    tally.require(
        len(warm_digests) == 1, "set-up is not deterministic: digests differ"
    )
    timed = timed_steps(tally, job, seconds, steps)
    metrics = {
        "setup_s": statistics.median(setups),
        "step_ck_p50": statistics.median(timed.step_ck),
        "tokens_per_ck": sum(timed.tokens) / sum(timed.step_ck),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return _record(
        workload, job, tally, timed, metrics=metrics, info=_host_metrics(timed)
    )


def run_traced(
    workload: Workload,
    seed: int,
    seconds: float,
    steps: Optional[int],
    trace_path: pathlib.Path,
):
    """The per-layer pass: untraced reference, counted pass, traced run."""
    tally = Tally()

    # 1. the same job untraced, for the overhead ratio and the digests
    ref_job, _ = set_up(workload, seed, tally)
    ref_warm_digest = ref_job.state_digest()
    reference = timed_steps(tally, ref_job, seconds * REFERENCE_SHARE, steps)
    del ref_job
    gc.collect()

    # 2. graph nodes per step, counted over the warm-up steps — never timed
    with spans.count_graph_nodes() as nodes:
        set_up(workload, seed, tally)
    gc.collect()

    # 3. the traced run
    tracer = spans.Tracer()
    mask = {"sum": 0.0, "size": 0}
    long_responses: List[int] = []

    def on_dispatch(remote_method: Any, args: tuple) -> None:
        if remote_method.method_name != "update_actor" or tracer.step_id >= COUNT_STEPS:
            return
        batch = args[0]
        size = batch["old_log_probs"].size
        mask["size"] += size
        mask["sum"] += (
            float(batch["response_mask"].sum()) if "response_mask" in batch else size
        )

    def on_serving_step(finished: Any) -> None:
        long_responses.extend(
            done.response_length
            for done in finished
            if done.response_length > workload.max_new_tokens
        )

    tracer.on_dispatch = on_dispatch
    tracer.on_serving_step = on_serving_step
    per_step: List[Dict[str, Dict[str, float]]] = []
    kept: List[List[spans.Span]] = []  # raw spans of the count window
    window: Dict[str, Dict[str, float]] = {}

    def after_step(n: int) -> None:
        step_spans = tracer.take_spans()
        per_step.append(spans.aggregate(step_spans))
        if n < COUNT_STEPS:
            kept.append(step_spans)
            window["end"] = check.snapshot(job)

    with tracer:
        job, _ = set_up(workload, seed, tally, tracer)
        tracer.take_spans()
        mask["sum"], mask["size"] = 0.0, 0
        warm_digest = job.state_digest()
        window["start"] = check.snapshot(job)
        timed = timed_steps(
            tally, job, seconds * (1 - REFERENCE_SHARE), steps, tracer, after_step
        )

    tally.require(
        warm_digest == ref_warm_digest and timed.digest == reference.digest,
        "wrappers perturbed the arithmetic: traced and untraced digests differ",
    )
    tally.require(
        not long_responses,
        f"served responses longer than max_new_tokens: {long_responses[:5]}",
    )
    metrics = _layer_metrics(tracer, per_step, timed)
    metrics.update(_count_metrics(workload, window, kept, mask, tally))
    metrics["models.autograd.nodes"] = (
        None if nodes.calls is None else nodes.calls / WARMUP_STEPS
    )
    metrics.update(_host_metrics(timed))
    # same seed, same trajectory: step i of both runs did the same work
    metrics["trace.overhead_ratio"] = statistics.median(
        t / r for t, r in zip(timed.step_ck, reference.step_ck)
    )
    metrics["trace.unresolved_targets"] = len(tracer.unresolved) + int(
        nodes.calls is None
    )
    _write_trace(trace_path, workload, kept)
    return _record(
        workload,
        job,
        tally,
        timed,
        metrics=metrics,
        info={"unresolved": tracer.unresolved},
    )


def _layer_metrics(
    tracer: spans.Tracer,
    per_step: List[Dict[str, Dict[str, float]]],
    timed: Timed,
) -> Dict[str, Optional[float]]:
    """Median per-step self (and stage-inclusive) time in ck, calls per step."""
    unresolved = set(tracer.unresolved)
    if "models.fwd" in unresolved:
        unresolved.update(spans.FWD_SPANS)
    empty = {"self_s": 0.0, "incl_s": 0.0, "calls": 0}
    counted = per_step[:COUNT_STEPS]
    out: Dict[str, Optional[float]] = {}
    for name in spans.span_names():
        fields = [("self_ck", "self_s"), ("calls", "calls")]
        if name in spans.STAGES:
            fields.append(("incl_ck", "incl_s"))
        for metric, key in fields:
            if name in unresolved:
                out[f"{name}.{metric}"] = None
            elif key == "calls":
                out[f"{name}.{metric}"] = statistics.fmean(
                    agg.get(name, empty)["calls"] for agg in counted
                )
            else:
                out[f"{name}.{metric}"] = statistics.median(
                    agg.get(name, empty)[key] / ck
                    for agg, ck in zip(per_step, timed.ck_s)
                )
    return out


def _count_metrics(
    workload: Workload,
    window: Dict[str, Dict[str, float]],
    kept: List[List[spans.Span]],
    mask: Dict[str, float],
    tally: Tally,
) -> Dict[str, float]:
    """Exact counts per step over the count window."""
    start, end, steps = window["start"], window["end"], len(kept)

    def per_step_delta(key: str) -> float:
        return (end[key] - start[key]) / steps

    serving_steps = sum(
        1 for step in kept for span in step if span[0] == "serving.server.step"
    )
    fwd_in_serving = sum(
        spans.children_named(step, "models.fwd.decode", "serving.server.step")
        for step in kept
    )
    produced = end["response_tokens"] - start["response_tokens"]
    serving_tokens = produced if serving_steps else 0
    # what update_actor saw, once per PPO epoch, is what generation produced
    seen = mask["sum"] / workload.trainer.ppo_epochs
    tally.require(
        seen == produced,
        f"update_actor saw {seen} real response tokens, generation made {produced}",
    )
    max_slots = workload.serving.max_slots if workload.serving else 0
    return {
        "single_controller.dispatch.count": per_step_delta("dispatches"),
        "comm.bytes": per_step_delta("comm_bytes"),
        "hybrid_engine.transition_bytes": per_step_delta("transition_bytes"),
        "hybrid_engine.published_bytes": per_step_delta("published_bytes"),
        "serving.steps": serving_steps / steps,
        "serving.fwd_calls_per_step": (
            fwd_in_serving / serving_steps if serving_steps else 0.0
        ),
        "serving.tokens": serving_tokens / steps,
        "serving.kv_blocks_peak": end["kv_blocks_peak"],
        "serving.slot_utilisation": (
            serving_tokens / (serving_steps * max_slots) if serving_steps else 0.0
        ),
        "rlhf.pad_share": 1.0 - mask["sum"] / mask["size"],
        "pipeline.max_staleness": end["max_staleness"],
        "pipeline.buffer_peak": end["buffer_peak"],
        "controller.sim_seconds": per_step_delta("sim_seconds"),
    }


def _write_trace(
    path: pathlib.Path, workload: Workload, kept: List[List[spans.Span]]
) -> None:
    """Spans of the count window as one flat list (parents re-indexed)."""
    origin = kept[0][0][1]
    flat = []
    for step_spans in kept:
        base = len(flat)
        for name, start, end, parent, step in step_spans:
            flat.append(
                {
                    "name": name,
                    "start": start - origin,
                    "end": end - origin,
                    "parent": base + parent if parent >= 0 else -1,
                    "step": step,
                }
            )
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"workload": workload.name, "unit": "s", "spans": flat}, fh)
