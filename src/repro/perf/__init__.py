"""Analytical performance models for Llama-scale RLHF on the simulated cluster.

This is the reproduction's counterpart of the paper's ``simu`` module
(Appendix C): "three simulators for training, inference, and generation
workloads, all are analytical models following previous research [42, 84,
92]. The training and inference workload is compute-bound while the
generation workload is memory-bound."

The same latency primitives power the auto-mapping algorithm (§6), the
baseline system models (§2.4 / Table 1), and every end-to-end figure.
"""

from repro.perf.bench import compare_records, run_bench
from repro.perf.memory import MemoryModel, StageMemory
from repro.perf.compute import inference_latency, training_latency
from repro.perf.generation import GenerationEstimate, generation_latency
from repro.perf.transition import transition_time
from repro.perf.iteration import (
    GenerationPlan,
    IterationBreakdown,
    ModelExecution,
    call_latency,
    estimate_iteration,
)
from repro.perf.pipeline import (
    bubble_fraction,
    bubble_multiplier,
    gpipe_schedule,
)
from repro.perf.recovery import (
    expected_goodput,
    goodput_vs_interval,
    mean_time_to_recover,
    measured_interval_study,
    optimal_checkpoint_interval,
)

__all__ = [
    "GenerationEstimate",
    "GenerationPlan",
    "IterationBreakdown",
    "ModelExecution",
    "bubble_fraction",
    "bubble_multiplier",
    "call_latency",
    "compare_records",
    "run_bench",
    "gpipe_schedule",
    "MemoryModel",
    "StageMemory",
    "estimate_iteration",
    "expected_goodput",
    "generation_latency",
    "goodput_vs_interval",
    "inference_latency",
    "mean_time_to_recover",
    "measured_interval_study",
    "optimal_checkpoint_interval",
    "training_latency",
    "transition_time",
]
