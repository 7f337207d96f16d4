"""Rollout serving: paged KV blocks + continuous batching over TinyLM (§2.3).

An engine that actually decodes requests with iteration-level scheduling,
paged KV-cache block management charged to simulated device memory, priority
queues with aging, preempt-and-recompute under block pressure, and
per-request TTFT/TPOT/latency/SLO accounting.  Over the :class:`LengthPlan`
stand-in model it drains planned response lengths: the Orca schedule the
§8.1 continuous-batching ablation prices.
"""

from repro.serving.paged_kv import (
    BlockExhausted,
    PagedKVCache,
    kv_bytes_per_token,
)
from repro.serving.request import CompletedRequest, Request, RequestState
from repro.serving.scheduler import ContinuousBatchScheduler, SchedulerConfig
from repro.serving.server import (
    LengthPlan,
    RolloutServer,
    ServingConfig,
    ServingReport,
    sample_response_lengths,
    serve_length_plan,
    static_wave_steps,
)

__all__ = [
    "BlockExhausted",
    "CompletedRequest",
    "ContinuousBatchScheduler",
    "LengthPlan",
    "PagedKVCache",
    "Request",
    "RequestState",
    "RolloutServer",
    "SchedulerConfig",
    "ServingConfig",
    "ServingReport",
    "kv_bytes_per_token",
    "sample_response_lengths",
    "serve_length_plan",
    "static_wave_steps",
]
