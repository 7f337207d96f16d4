"""``RolloutServer``: a continuous-batching generation front end over TinyLM.

The serving engine the generation stage of §2.3 assumes, made functional:
requests arrive (possibly bursty, possibly prioritised), the scheduler
refills decode slots every step, the paged block manager charges simulated
device memory, and each occupied slot emits exactly one token per step.
Run over :class:`LengthPlan`, a stand-in model whose responses are planned
lengths, a drain *is* the Orca schedule of those lengths: the §8.1
continuous-batching ablation reads it there.

Every step runs one ``model.forward`` per *feed length*: all one-token
decodes share a forward whatever their KV lengths, and admissions or
post-preemption recomputes take one per distinct context length.  Keys and
values live in one slot-resident :class:`repro.models.tinylm.KVStore`,
written in place; a request holds a slot of it, and the forward carries each
row's cached length: one attention core serves every row, at one canonical
key width.  Because a sequence's cached forward is the same bits at any such
width and beside any rows, and every request samples from its own rng,
serving output is bit-exact with :func:`repro.models.sampler.generate` run
on each request alone — the property the actor's serving-backed path relies
on (and tests assert).

Latency accounting: the simulated clock advances ``step_time`` per decode
step; TTFT/TPOT/latency and SLO attainment are computed per request from
arrival/first-token/finish stamps.
"""

from __future__ import annotations

import dataclasses
import types
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cluster.device import SimDevice
from repro.config import bounded, check_bounds
from repro.models.autograd import Tensor, no_grad
from repro.models.sampler import decode_step
from repro.models.tinylm import KVStore, TinyLM
from repro.observability.metrics import NULL_METRICS, MetricsRegistry
from repro.observability.spans import NULL_TRACER, SpanTracer
from repro.serving.paged_kv import PagedKVCache
from repro.serving.request import CompletedRequest, Request, RequestState
from repro.serving.scheduler import ContinuousBatchScheduler


@dataclasses.dataclass(frozen=True)
class ServingConfig:
    """Engine-level serving parameters."""

    #: Decode slots per step (the engine's max batch size).
    max_slots: int = bounded(8, ge=1)
    block_size: int = bounded(16, ge=1)
    #: Total KV blocks; ``None`` derives from device free memory (capped at
    #: what ``max_slots`` full-length sequences could ever use).
    n_blocks: Optional[int] = bounded(None, ge=1)
    eos_token_id: Optional[int] = None
    pad_token_id: Optional[int] = None
    temperature: float = 1.0
    greedy: bool = False
    #: Simulated wall-clock seconds per decode step; at 0 the simulated
    #: clock would stand still.
    step_time: float = bounded(0.01, gt=0)
    #: SLO thresholds (simulated seconds); ``None`` disables that term, and
    #: at 0 no request could meet it.
    slo_ttft: Optional[float] = bounded(None, gt=0)
    slo_latency: Optional[float] = bounded(None, gt=0)
    #: Priority gained per eligible-but-waiting step; > 0 => starvation-free
    #: (below 0 waiting would lower a request's rank).
    aging: float = bounded(0.05, ge=0)
    #: Seed material for per-request rngs (int or tuple; request id appended).
    seed: Union[int, Tuple[int, ...]] = bounded(0, ge=0)
    #: Fraction of device free memory the KV pool may claim when deriving.
    memory_fraction: float = 0.9

    def __post_init__(self) -> None:
        check_bounds(self)
        # else the first step prefills and only then fails to sample
        if self.temperature <= 0 and not self.greedy:
            raise ValueError(
                f"temperature must be > 0 unless greedy, got {self.temperature}"
            )


@dataclasses.dataclass
class ServingReport:
    """Aggregate outcome of a serving run (``drain`` or ``report``)."""

    completed: List[CompletedRequest]
    n_steps: int
    #: ``model.forward`` calls over those steps (1 per step is the ideal).
    n_forwards: int
    total_tokens: int
    slot_utilisation: float
    n_preemptions: int
    recomputed_tokens: int
    kv_blocks_total: int
    peak_kv_blocks: int
    peak_kv_bytes: int
    slo_ttft: Optional[float] = None
    slo_latency: Optional[float] = None
    #: Admissions that reused another request's prompt prefill, and the
    #: prompt tokens they therefore never fed.
    prefix_hits: int = 0
    reused_prompt_tokens: int = 0

    # -- latency aggregates ----------------------------------------------------------
    #
    # Aggregates over an *empty* sample are ``None``, never 0.0: an empty
    # drain reporting p95 TTFT of 0 would be indistinguishable from a
    # perfect run.  ``summary_lines`` renders missing aggregates as "n/a".

    def _percentile(self, values: List[float], q: float) -> Optional[float]:
        return float(np.percentile(values, q)) if values else None

    @property
    def ttfts(self) -> List[float]:
        return [r.ttft for r in self.completed]

    @property
    def latencies(self) -> List[float]:
        return [r.latency for r in self.completed]

    @property
    def tpots(self) -> List[float]:
        return [r.tpot for r in self.completed if r.response_length > 1]

    def mean_ttft(self) -> Optional[float]:
        return float(np.mean(self.ttfts)) if self.completed else None

    def p95_ttft(self) -> Optional[float]:
        return self._percentile(self.ttfts, 95)

    def mean_tpot(self) -> Optional[float]:
        return float(np.mean(self.tpots)) if self.tpots else None

    def mean_latency(self) -> Optional[float]:
        return float(np.mean(self.latencies)) if self.completed else None

    def p95_latency(self) -> Optional[float]:
        return self._percentile(self.latencies, 95)

    def slo_attainment(self) -> Optional[float]:
        """Fraction of requests inside every configured SLO (None = no SLOs)."""
        if not self.completed or (
            self.slo_ttft is None and self.slo_latency is None
        ):
            return None
        ok = 0
        for r in self.completed:
            if self.slo_ttft is not None and r.ttft > self.slo_ttft:
                continue
            if self.slo_latency is not None and r.latency > self.slo_latency:
                continue
            ok += 1
        return ok / len(self.completed)

    def finish_reasons(self) -> Dict[str, int]:
        reasons: Dict[str, int] = {}
        for r in self.completed:
            reasons[r.finish_reason] = reasons.get(r.finish_reason, 0) + 1
        return reasons

    @staticmethod
    def _fmt_seconds(*values: Optional[float]) -> str:
        text = " / ".join("n/a" if v is None else f"{v:.4f}" for v in values)
        return text if None in values else f"{text} s"

    def summary_lines(self) -> List[str]:
        reasons = ", ".join(
            f"{k}={v}" for k, v in sorted(self.finish_reasons().items())
        )
        lines = [
            f"requests completed   : {len(self.completed)} ({reasons})",
            f"decode steps         : {self.n_steps}",
            f"model forwards       : {self.n_forwards}",
            f"tokens generated     : {self.total_tokens}",
            f"slot utilisation     : {self.slot_utilisation:.3f}",
            f"preemptions          : {self.n_preemptions} "
            f"({self.recomputed_tokens} tokens recomputed)",
            f"prompt prefix reuse  : {self.prefix_hits} admissions "
            f"({self.reused_prompt_tokens} prompt tokens not prefilled)",
            f"peak KV blocks       : {self.peak_kv_blocks}/{self.kv_blocks_total} "
            f"({self.peak_kv_bytes} bytes)",
            f"TTFT mean / p95      : "
            f"{self._fmt_seconds(self.mean_ttft(), self.p95_ttft())}",
            f"TPOT mean            : {self._fmt_seconds(self.mean_tpot())}",
            f"latency mean / p95   : "
            f"{self._fmt_seconds(self.mean_latency(), self.p95_latency())}",
        ]
        attainment = self.slo_attainment()
        if attainment is not None:
            slos = []
            if self.slo_ttft is not None:
                slos.append(f"ttft<={self.slo_ttft:g}s")
            if self.slo_latency is not None:
                slos.append(f"latency<={self.slo_latency:g}s")
            lines.append(
                f"SLO attainment       : {attainment:.1%} ({', '.join(slos)})"
            )
        return lines

    def to_dict(self) -> Dict[str, Any]:
        return {
            "n_requests": len(self.completed),
            "n_steps": self.n_steps,
            "n_forwards": self.n_forwards,
            "total_tokens": self.total_tokens,
            "slot_utilisation": self.slot_utilisation,
            "n_preemptions": self.n_preemptions,
            "recomputed_tokens": self.recomputed_tokens,
            "prefix_hits": self.prefix_hits,
            "reused_prompt_tokens": self.reused_prompt_tokens,
            "peak_kv_blocks": self.peak_kv_blocks,
            "kv_blocks_total": self.kv_blocks_total,
            "mean_ttft": self.mean_ttft(),
            "p95_ttft": self.p95_ttft(),
            "mean_tpot": self.mean_tpot(),
            "mean_latency": self.mean_latency(),
            "p95_latency": self.p95_latency(),
            "slo_attainment": self.slo_attainment(),
            "finish_reasons": self.finish_reasons(),
        }


class RolloutServer:
    """Submit/step/drain serving interface over one TinyLM replica."""

    def __init__(
        self,
        model: TinyLM,
        config: Optional[ServingConfig] = None,
        device: Optional[SimDevice] = None,
        tracer: SpanTracer = NULL_TRACER,
        metrics: MetricsRegistry = NULL_METRICS,
    ) -> None:
        if model.config.output_head != "lm":
            raise ValueError("serving requires an LM head")
        self.model = model
        self.config = config or ServingConfig()
        self.device = device
        self.tracer = tracer
        self.metrics = metrics
        if self.config.eos_token_id is not None and not (
            0 <= self.config.eos_token_id < model.config.vocab_size
        ):
            raise ValueError(
                f"eos_token_id {self.config.eos_token_id} outside vocab "
                f"[0, {model.config.vocab_size})"
            )
        self.kv = PagedKVCache(
            model.config,
            block_size=self.config.block_size,
            n_blocks=self._resolve_n_blocks(model, device),
            device=device,
        )
        self.store = KVStore(model.config, self.config.max_slots)
        self.scheduler = ContinuousBatchScheduler(self.config, self.kv)
        seed = self.config.seed
        self._seed: Tuple[int, ...] = (
            (seed,) if isinstance(seed, int) else tuple(seed)
        )
        self.now = 0.0
        self._next_id = 0
        self._completed: List[CompletedRequest] = []
        self._steps = 0
        self._forwards = 0
        self._occupied_slot_steps = 0
        self._tokens = 0
        self._prefix_hits = 0
        self._reused_prompt_tokens = 0

    def _resolve_n_blocks(
        self, model: TinyLM, device: Optional[SimDevice]
    ) -> int:
        cfg = self.config
        if cfg.n_blocks is not None:
            return cfg.n_blocks
        # never need more than max_slots full-length sequences
        per_seq = -(-model.config.max_seq_len // cfg.block_size)
        cap = cfg.max_slots * per_seq
        if device is None:
            return cap
        from repro.serving.paged_kv import kv_bytes_per_token

        bytes_per_block = kv_bytes_per_token(model.config) * cfg.block_size
        affordable = int(
            device.memory.free * cfg.memory_fraction
        ) // bytes_per_block
        return max(1, min(cap, affordable))

    # -- submission ------------------------------------------------------------------

    def submit(
        self,
        prompt: np.ndarray,
        max_new_tokens: int,
        priority: int = 0,
        arrival_time: Optional[float] = None,
    ) -> int:
        """Enqueue one generation request; returns its request id."""
        prompt = np.asarray(prompt, dtype=np.int64)
        if prompt.ndim != 1 or prompt.shape[0] < 1:
            raise ValueError(f"prompt must be non-empty 1-D, got {prompt.shape}")
        if max_new_tokens < 1:
            raise ValueError(
                f"max_new_tokens must be >= 1, got {max_new_tokens}"
            )
        max_len = prompt.shape[0] + max_new_tokens
        if max_len > self.model.config.max_seq_len:
            raise ValueError(
                f"prompt + max_new_tokens = {max_len} exceeds max_seq_len "
                f"{self.model.config.max_seq_len}"
            )
        if self.kv.blocks_needed(max_len) > self.kv.n_blocks:
            raise ValueError(
                f"request needs {self.kv.blocks_needed(max_len)} KV blocks "
                f"at full length but the pool only has {self.kv.n_blocks}; "
                "preemption could never make it fit"
            )
        request_id = self._next_id
        self._next_id += 1
        req = Request(
            request_id=request_id,
            prompt=prompt,
            max_new_tokens=max_new_tokens,
            priority=priority,
            arrival_time=self.now if arrival_time is None else arrival_time,
            rng=np.random.default_rng(self._seed + (request_id,)),
        )
        self.scheduler.add(req)
        self.metrics.counter(
            "repro_serving_requests_submitted_total",
            "Requests submitted to the rollout server",
        ).inc()
        return request_id

    # -- stepping --------------------------------------------------------------------

    @property
    def pending(self) -> int:
        """Requests not yet finished (queued + running + preempted)."""
        return len(self.scheduler.waiting) + len(self.scheduler.running)

    def step(self) -> List[CompletedRequest]:
        """One engine iteration: refill slots, emit one token per slot.

        Every occupied slot emits exactly one token (admitted requests
        prefill and sample their first token in the same step): Orca's step
        accounting.  First the runners move into the low slots (each one
        past them takes the lowest hole, its cached K/V with it) and
        admission hands out the next ones (those that prefill first, those
        reusing a group-mate's prefill after them), so the held slots are
        ``0..n-1`` and a cohort of resident decoders, or of prefilling
        admissions, is one run of slots that binds the store as views.  Runners are walked in rank
        order to reserve the block their next token needs; a reservation
        evicts only runners ranked after the requester — ones the walk has
        not reached — so whatever already joined a cohort keeps its blocks
        and its slot.  Then each cohort — the runners feeding the same
        number of tokens — takes one forward.  A fresh request whose prompt another runner
        prefills this step, or holds from its own prompt prefill, takes no
        part in it: it copies that runner's prompt K/V into its slot and
        samples from the same logits, so a GRPO group prefills its prompt
        once.  Per-request rngs make the emitted tokens independent of
        cohorting and reuse.  Returns the requests that finished this step.
        """
        step_end = self.now + self.config.step_time
        with self.tracer.span(
            f"serving.step[{self._steps}]", category="serving"
        ) as span:
            for req, left in self.scheduler.compact():
                self.store.copy_prefix(left, req.slot, req.kv_len)
            self.scheduler.schedule(self.now)
            preempted_before = self.scheduler.n_preemptions
            cohorts: Dict[int, List[Request]] = {}
            # request id -> the runner whose prompt prefill it reuses
            reuses: Dict[int, Request] = {}
            prefilling: Dict[bytes, Request] = {}
            for req in sorted(
                self.scheduler.running, key=self.scheduler.rank_key
            ):
                if req.state is not RequestState.RUNNING:
                    continue  # evicted by a better-ranked runner in this walk
                # a resident runner needs a block for its next token; with
                # nothing cached (admission, recompute) schedule() reserved
                # the context
                if req.kv_len and not self.scheduler.ensure_decode_blocks(req):
                    continue
                if req.fresh:
                    source = prefilling.get(req.prompt_key) or self._prompt_holder(req)
                    if source is None:
                        prefilling[req.prompt_key] = req
                    else:
                        reuses[req.request_id] = source
                cohorts.setdefault(req.seq_len - req.kv_len, []).append(req)
            # the fresh requests that prefill take the lowest of the fresh
            # slots (by prompt length: by cohort) and the reusers the rest,
            # so a cohort's prefills are one run of slots: a relabelling, as
            # no fresh request holds K/V yet
            fresh = [r for cohort in cohorts.values() for r in cohort if r.fresh]
            for req, slot in zip(
                sorted(
                    fresh, key=lambda r: (r.request_id in reuses, r.prompt_length, r.slot)
                ),
                sorted(r.slot for r in fresh),
            ):
                req.slot = slot
            # request id -> (slot, runner) of the prompt prefill it reuses
            sources = {rid: (src.slot, src) for rid, src in reuses.items()}
            finished_now: List[CompletedRequest] = []
            produced = forwards = 0
            for cohort in cohorts.values():
                tokens, logps, ran = self._forward_cohort(cohort, sources)
                forwards += ran
                for req, token, logp in zip(
                    cohort, tokens.tolist(), logps.tolist()
                ):
                    req.generated.append(token)
                    req.log_probs.append(logp)
                    produced += 1
                    if req.first_token_time is None:
                        req.first_token_time = step_end
                    if token == self.config.eos_token_id:
                        finished_now.append(self._finish(req, step_end, "eos"))
                    elif len(req.generated) >= req.max_new_tokens:
                        finished_now.append(
                            self._finish(req, step_end, "length")
                        )
            self._steps += 1
            self._forwards += forwards
            self._occupied_slot_steps += produced
            self._tokens += produced
            reused = sum(source.prompt_length for _, source in sources.values())
            self._prefix_hits += len(sources)
            self._reused_prompt_tokens += reused
            self.now = step_end
            if produced:
                self.metrics.counter(
                    "repro_serving_tokens_total",
                    "Tokens generated by the rollout server",
                ).inc(produced)
                self.metrics.counter(
                    "repro_serving_forwards_total",
                    "Model forwards run by the rollout server",
                ).inc(forwards)
            if sources:
                self.metrics.counter(
                    "repro_serving_prefix_hits_total",
                    "Admissions that reused another request's prompt prefill",
                ).inc(len(sources))
            # counted here, not in report(): the registry may outlive (and
            # be shared by) many servers
            self.metrics.counter(
                "repro_serving_preemptions_total",
                "Sequences preempted under block pressure",
            ).inc(self.scheduler.n_preemptions - preempted_before)
            span.attrs.update(active=produced, finished=len(finished_now))
        return finished_now

    def _prompt_holder(self, req: Request) -> Optional[Request]:
        """A runner whose slot holds ``req``'s prompt as a prompt prefill
        computed it, and that prefill's last logits; ``None`` if none does."""
        for other in self.scheduler.running:
            if (
                other.prompt_logits is not None
                and other.kv_len >= other.prompt_length
                and other.prompt_key == req.prompt_key
            ):
                return other
        return None

    def _forward_cohort(
        self, cohort: List[Request], sources: Dict[int, Tuple[int, Request]]
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        """One forward for requests that feed the same number of tokens.

        Rows concatenate without padding — hence the cohort key — and may
        have cached different lengths: the model runs once over the tokens
        each request has not cached yet, writing their K/V into each
        request's slot of the store behind what it holds.  A request in
        ``sources`` is not fed: it copies its source's prompt K/V and
        logits.  Returns the sampled token and its log-prob per request, in
        cohort order, and the number of forwards run (0 or 1).
        """
        # in slot order: rows whose slots are one run read the store through
        # views, and a row's bits do not depend on its place in the forward
        computed = sorted(
            (r for r in cohort if r.request_id not in sources), key=lambda r: r.slot
        )
        logits: Dict[int, np.ndarray] = {}
        if computed:
            feed = np.array([r.uncached_tokens() for r in computed])
            with no_grad():
                out = self.model.forward(
                    feed,
                    cache=self.store.rows([r.slot for r in computed]),
                    pos_offset=np.array([r.kv_len for r in computed]),
                )
            for req, row in zip(computed, out.data[:, -1, :]):
                if req.fresh:
                    req.prompt_logits = row.copy()
                elif req.kv_len == 0:
                    # a recompute's prompt K/V is the prefill's sum in
                    # another order: not reusable bit for bit
                    req.prompt_logits = None
                req.kv_len = req.seq_len
                logits[req.request_id] = row
        for req in cohort:
            if req.request_id in sources:
                slot, source = sources[req.request_id]
                self.store.copy_prefix(slot, req.slot, req.prompt_length)
                req.prompt_logits = logits[req.request_id] = source.prompt_logits
                req.kv_len = req.seq_len
        uniforms = (
            None
            if self.config.greedy
            else np.array([r.rng.random() for r in cohort])
        )
        tokens, logps = decode_step(
            np.array([logits[r.request_id] for r in cohort]),
            uniforms,
            self.config.temperature,
        )
        return tokens, logps, int(bool(computed))

    def _finish(
        self, req: Request, at_time: float, reason: str
    ) -> CompletedRequest:
        req.finish_reason = reason
        req.finish_time = at_time
        self.scheduler.finish(req)
        done = CompletedRequest.from_request(req)
        self._completed.append(done)
        self.metrics.counter(
            "repro_serving_requests_total",
            "Requests completed by the rollout server",
            reason=reason,
        ).inc()
        self.metrics.histogram(
            "repro_serving_ttft_seconds",
            "Simulated time to first token",
        ).observe(done.ttft)
        self.metrics.histogram(
            "repro_serving_latency_seconds",
            "Simulated request latency",
        ).observe(done.latency)
        self.tracer.instant(
            f"serving.request[{req.request_id}]",
            category="serving",
            reason=reason,
            response_length=done.response_length,
            preemptions=done.n_preemptions,
        )
        return done

    def drain(
        self,
        max_steps: int = 1_000_000,
        on_finish: Optional[Callable[[CompletedRequest], None]] = None,
    ) -> ServingReport:
        """Step until every submitted request has finished; report.

        ``max_steps`` bounds the steps *this drain* takes (a reused server's
        earlier steps do not count against it).

        ``on_finish`` is invoked once per completed request, in completion
        order, the moment its decode step finishes — the streamed hand-off
        primitive the async RLHF pipeline builds on: downstream scoring
        (reward / reference log-probs) can start on early finishers while
        later requests are still decoding, instead of waiting for the whole
        batch boundary.
        """
        started = self._steps
        while self.pending:
            if self._steps - started >= max_steps:
                raise RuntimeError(
                    f"serving did not drain within {max_steps} steps "
                    f"({self.pending} requests pending)"
                )
            self._hand_off(self.step(), on_finish)
        return self.report()

    @staticmethod
    def _hand_off(
        finished: List[CompletedRequest],
        on_finish: Optional[Callable[[CompletedRequest], None]],
    ) -> None:
        """Stream a step's finishers to ``on_finish``, in completion order."""
        if on_finish is not None:
            for done in finished:
                on_finish(done)

    # -- reporting -------------------------------------------------------------------

    def report(self) -> ServingReport:
        denominator = self._steps * self.config.max_slots or 1
        report = ServingReport(
            completed=sorted(self._completed, key=lambda r: r.request_id),
            n_steps=self._steps,
            n_forwards=self._forwards,
            total_tokens=self._tokens,
            slot_utilisation=self._occupied_slot_steps / denominator,
            n_preemptions=self.scheduler.n_preemptions,
            recomputed_tokens=sum(
                r.recomputed_tokens for r in self._completed
            ),
            kv_blocks_total=self.kv.n_blocks,
            peak_kv_blocks=self.kv.peak_blocks_in_use,
            peak_kv_bytes=self.kv.peak_bytes_in_use(),
            slo_ttft=self.config.slo_ttft,
            slo_latency=self.config.slo_latency,
            prefix_hits=self._prefix_hits,
            reused_prompt_tokens=self._reused_prompt_tokens,
        )
        self.metrics.gauge(
            "repro_serving_slot_utilisation",
            "Mean fraction of decode slots occupied",
        ).set(report.slot_utilisation)
        self.metrics.gauge(
            "repro_serving_kv_blocks_peak",
            "Peak KV blocks in use",
        ).set_max(report.peak_kv_blocks)
        return report


# -- planned response lengths ----------------------------------------------------------


def sample_response_lengths(
    n_requests: int,
    mean_length: int,
    max_length: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Geometric-ish response lengths clipped to ``max_length`` (real RLHF
    generation lengths are highly skewed)."""
    if n_requests < 1 or mean_length < 1 or max_length < mean_length:
        raise ValueError(
            f"bad request shape: n={n_requests}, mean={mean_length}, "
            f"max={max_length}"
        )
    lengths = rng.geometric(1.0 / mean_length, size=n_requests)
    return np.clip(lengths, 1, max_length).astype(np.int64)


def static_wave_steps(lengths: Sequence[int], capacity: int) -> int:
    """Decode steps of static wave batching: each wave of ``capacity``
    requests, in order, runs until its longest member finishes."""
    return int(sum(max(lengths[i : i + capacity]) for i in range(0, len(lengths), capacity)))


class LengthPlan:
    """Stand-in model: fed token ``x`` it predicts ``x - 1``, and EOS is 0.

    Served greedily with ``eos_token_id=0``, a request prompted ``[L]``
    emits exactly ``L`` tokens, so draining planned response lengths runs
    the engine's own schedule of them, at any length (a TinyLM caps
    ``max_seq_len`` at ``MAX_KEY_WIDTH``).  It writes no keys or values:
    nothing reads them.
    """

    def __init__(self, max_length: int) -> None:
        # what the engine reads of a model config, at one layer of width 1
        self.config = types.SimpleNamespace(
            output_head="lm",
            vocab_size=max_length + 1,
            max_seq_len=max_length + 1,
            n_layers=1,
            hidden_size=1,
            n_heads=1,
            head_dim=1,
        )

    def forward(self, token_ids: np.ndarray, cache=None, pos_offset=0) -> Tensor:
        """Last-position logits ``(rows, 1, vocab)``, one-hot at ``x - 1``."""
        last = np.asarray(token_ids, dtype=np.int64)[:, -1]
        logits = np.zeros((len(last), 1, self.config.vocab_size), dtype=np.float64)
        logits[np.arange(len(last)), 0, last - 1] = 1.0
        return Tensor(logits)


def serve_length_plan(lengths: Sequence[int], max_slots: int) -> ServingReport:
    """Drain requests of planned response ``lengths``, all queued at t=0 in
    that order, through ``max_slots`` slots of a :class:`LengthPlan` server.

    One step is one simulated second, so a request ran steps
    ``first_token_time - 1`` up to ``first_token_time - 1 +
    response_length``.
    """
    longest = int(max(lengths))
    server = RolloutServer(
        LengthPlan(longest),
        ServingConfig(max_slots=max_slots, eos_token_id=0, greedy=True, step_time=1.0),
    )
    for length in lengths:
        server.submit(np.array([length]), max_new_tokens=longest)
    return server.drain()
