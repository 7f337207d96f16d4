"""Names, units and directions of every metric the benchmark reports.

``BENCHMARK.json`` repeats these lists for the driver; a test keeps the two
in step.  The interaction table — which layer metric should move which
end-to-end metric on which workload — is in ``bench/README.md``.
"""

from __future__ import annotations

from typing import List, Tuple

from bench.spans import STAGES, span_names

# (name, unit, better, bound): bound is the relative worsening of the median
# that counts as a regression.  Evidence for each is bench/AA_baseline.txt,
# read in bench/README.md under "Steadiness and the bounds".
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("step_ck_p50", "ck", "lower", 0.25),
    ("tokens_per_ck", "tokens/ck", "higher", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.10),
]

# Exact counts: per step over the first COUNT_STEPS timed steps, read from
# the program's public registry or at the wrapped boundaries.
COUNTS: List[Tuple[str, str, str]] = [
    ("single_controller.dispatch.count", "count", "lower"),
    ("comm.bytes", "bytes", "lower"),
    ("hybrid_engine.transition_bytes", "bytes", "lower"),
    ("hybrid_engine.published_bytes", "bytes", "lower"),
    ("serving.steps", "count", "lower"),
    ("serving.fwd_calls_per_step", "ratio", "lower"),
    ("serving.tokens", "count", "higher"),
    ("serving.kv_blocks_peak", "count", "lower"),
    ("serving.slot_utilisation", "ratio", "higher"),
    ("rlhf.pad_share", "ratio", "lower"),
    ("pipeline.max_staleness", "count", "lower"),
    ("pipeline.buffer_peak", "count", "lower"),
    ("controller.sim_seconds", "s", "lower"),
    ("models.autograd.nodes", "count", "lower"),
]

RUN_LEVEL: List[Tuple[str, str, str]] = [
    ("host.step_ck_p75", "ck", "lower"),
    ("host.step_s_p50", "s", "lower"),
    ("host.calib_s_p50", "s", "lower"),
    ("host.gc_gen2", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.unresolved_targets", "count", "lower"),
]


def per_layer() -> List[Tuple[str, str, str]]:
    """Every per-layer metric: span times and calls, counts, run-level."""
    out: List[Tuple[str, str, str]] = []
    for span in span_names():
        out.append((f"{span}.self_ck", "ck", "lower"))
        out.append((f"{span}.calls", "count", "lower"))
        if span in STAGES:
            out.append((f"{span}.incl_ck", "ck", "lower"))
    return out + COUNTS + RUN_LEVEL
