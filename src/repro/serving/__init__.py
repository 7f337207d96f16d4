"""Rollout serving: paged KV blocks + continuous batching over TinyLM (§2.3).

The functional counterpart of :mod:`repro.perf.continuous_batching` — an
engine that actually decodes requests with iteration-level scheduling,
paged KV-cache block management charged to simulated device memory, priority
queues with aging, preempt-and-recompute under block pressure, and
per-request TTFT/TPOT/latency/SLO accounting.
"""

from repro.serving.paged_kv import (
    BlockExhausted,
    PagedKVCache,
    kv_bytes_per_token,
)
from repro.serving.request import CompletedRequest, Request, RequestState
from repro.serving.scheduler import ContinuousBatchScheduler, SchedulerConfig
from repro.serving.server import RolloutServer, ServingConfig, ServingReport

__all__ = [
    "BlockExhausted",
    "CompletedRequest",
    "ContinuousBatchScheduler",
    "PagedKVCache",
    "Request",
    "RequestState",
    "RolloutServer",
    "SchedulerConfig",
    "ServingConfig",
    "ServingReport",
    "kv_bytes_per_token",
]
