"""Request lifecycle state for the rollout serving engine.

A request moves ``QUEUED -> RUNNING -> FINISHED``, possibly detouring
through ``PREEMPTED`` (blocks reclaimed, KV slot given up, re-queued for
recompute) any number of times.  Sampled tokens survive preemption — the
recompute prefill replays ``prompt + generated`` so the sequence resumes
exactly where it stopped, and because the per-request rng draws once per
emitted token, even *sampled* decoding is bit-identical with and without
preemption.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import List, Optional

import numpy as np


class RequestState(enum.Enum):
    QUEUED = "queued"
    RUNNING = "running"
    PREEMPTED = "preempted"
    FINISHED = "finished"


@dataclasses.dataclass
class Request:
    """One in-flight generation request and its accounting."""

    request_id: int
    prompt: np.ndarray
    max_new_tokens: int
    priority: int = 0
    arrival_time: float = 0.0
    state: RequestState = RequestState.QUEUED
    generated: List[int] = dataclasses.field(default_factory=list)
    log_probs: List[float] = dataclasses.field(default_factory=list)
    #: Per-request sampling stream, independent of scheduling order.
    rng: Optional[np.random.Generator] = dataclasses.field(
        default=None, repr=False
    )
    #: Row of the server's ``KVStore`` while running; ``None`` when
    #: queued/preempted/finished.
    slot: Optional[int] = None
    #: Token positions currently cached (<= seq_len; the newest sampled
    #: token is only cached by the *next* forward).
    kv_len: int = 0
    #: Last-position logits of the prompt prefill whose K/V this request's
    #: slot holds (its own, or another request's it reused); ``None`` once a
    #: recompute replaced them.  A fresh request with the same prompt reuses
    #: both instead of prefilling.
    prompt_logits: Optional[np.ndarray] = dataclasses.field(
        default=None, repr=False
    )
    #: Scheduler steps spent eligible-but-waiting (drives priority aging).
    wait_steps: int = 0
    n_preemptions: int = 0
    #: Tokens whose KV had to be recomputed after preemption.
    recomputed_tokens: int = 0
    first_token_time: Optional[float] = None
    finish_time: Optional[float] = None
    finish_reason: Optional[str] = None  # "eos" | "length"

    @property
    def prompt_length(self) -> int:
        return int(self.prompt.shape[0])

    @property
    def seq_len(self) -> int:
        return self.prompt_length + len(self.generated)

    @property
    def prompt_key(self) -> bytes:
        """Equal for requests with equal prompts (a GRPO group)."""
        return self.prompt.tobytes()

    @property
    def fresh(self) -> bool:
        """Never admitted: its first prefill is exactly its prompt."""
        return not self.generated and self.kv_len == 0

    def uncached_tokens(self) -> List[int]:
        """Token ids past ``kv_len`` — what the next forward must feed: the
        whole context after admission or preemption, else the newest token."""
        if self.kv_len >= self.prompt_length:
            return self.generated[self.kv_len - self.prompt_length :]
        return self.prompt[self.kv_len :].tolist() + self.generated

    def effective_priority(self, aging: float) -> float:
        """Submitted priority plus aging credit — what the scheduler ranks.

        With ``aging > 0`` every waiting request's rank rises without bound,
        so any fixed-priority stream eventually yields: starvation-freedom.
        """
        return self.priority + aging * self.wait_steps


@dataclasses.dataclass(frozen=True)
class CompletedRequest:
    """Immutable per-request record the server reports after completion."""

    request_id: int
    prompt_length: int
    response: np.ndarray
    log_probs: np.ndarray
    finish_reason: str
    priority: int
    arrival_time: float
    first_token_time: float
    finish_time: float
    n_preemptions: int
    recomputed_tokens: int

    @property
    def response_length(self) -> int:
        return int(self.response.shape[0])

    @property
    def ttft(self) -> float:
        """Time to first token (queueing + prefill + first decode step)."""
        return self.first_token_time - self.arrival_time

    @property
    def latency(self) -> float:
        return self.finish_time - self.arrival_time

    @property
    def tpot(self) -> float:
        """Mean time per output token after the first."""
        if self.response_length <= 1:
            return 0.0
        return (self.finish_time - self.first_token_time) / (
            self.response_length - 1
        )

    @classmethod
    def from_request(cls, req: Request) -> "CompletedRequest":
        if req.finish_reason is None or req.finish_time is None:
            raise ValueError(f"request {req.request_id} has not finished")
        return cls(
            request_id=req.request_id,
            prompt_length=req.prompt_length,
            response=np.asarray(req.generated, dtype=np.int64),
            log_probs=np.asarray(req.log_probs, dtype=np.float64),
            finish_reason=req.finish_reason,
            priority=req.priority,
            arrival_time=req.arrival_time,
            first_token_time=float(req.first_token_time),
            finish_time=float(req.finish_time),
            n_preemptions=req.n_preemptions,
            recomputed_tokens=req.recomputed_tokens,
        )
