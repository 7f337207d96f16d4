"""Iteration-level (continuous-batching) scheduler over paged KV blocks.

Orca [83] moved scheduling from request granularity to *iteration*
granularity: after every decode step, finished sequences leave the batch and
queued requests take their slots immediately, instead of idling until the
wave's longest member completes.  This scheduler implements that discipline
plus the two policies a real rollout server needs on top:

* **Priority with aging** — requests are ranked by ``priority + aging *
  wait_steps`` (ties broken by arrival, then id).  Any positive aging rate
  makes the rank of a waiting request grow without bound, so a low-priority
  request can be overtaken only finitely often: no starvation.
* **Preempt-and-recompute** — when the block pool cannot cover a running
  sequence's next token, the lowest-ranked runner is evicted (the
  requester itself when nothing ranks below it — never a better-ranked
  one): its blocks return to the pool, its slot of the KV store is given
  up (nothing to clear: positions past a row's length are never read), and
  it re-queues keeping its sampled tokens.  On re-admission a single
  prefill over ``prompt + generated`` rebuilds the cache — vLLM's
  recomputation recovery, which trades FLOPs for never swapping KV
  off-device.

Admission is head-of-line: if the highest-ranked eligible request does not
fit the free blocks, nothing behind it is admitted this step.  Skipping
ahead to smaller requests would starve long prompts under memory pressure —
exactly the failure mode the aging term exists to rule out.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Tuple

from repro.serving.paged_kv import PagedKVCache
from repro.serving.request import Request, RequestState

if TYPE_CHECKING:
    from repro.serving.server import ServingConfig


class ContinuousBatchScheduler:
    """Slot refill, priority ranking, and block-pressure preemption.

    Reads two fields of the server's :class:`ServingConfig`: ``max_slots``
    (decode slots per step) and ``aging`` (priority gained per waiting step).
    """

    def __init__(self, config: ServingConfig, kv: PagedKVCache) -> None:
        self.config = config
        self.kv = kv
        self.waiting: List[Request] = []
        self.running: List[Request] = []
        # pop() hands out low slots first, like the block pool
        self._free_slots: List[int] = list(range(config.max_slots - 1, -1, -1))
        self.n_admissions = 0
        self.n_preemptions = 0

    # -- ranking ---------------------------------------------------------------------

    def rank_key(self, req: Request) -> Tuple[float, float, int]:
        """Sort key: best-ranked first (highest effective priority)."""
        return (
            -req.effective_priority(self.config.aging),
            req.arrival_time,
            req.request_id,
        )

    # -- admission -------------------------------------------------------------------

    def add(self, req: Request) -> None:
        req.state = RequestState.QUEUED
        self.waiting.append(req)

    def schedule(self, now: float) -> List[Request]:
        """Refill free slots from the queue; returns newly admitted requests.

        An admitted request gets a slot of the KV store and blocks reserved
        for its full current context (``prompt + generated``) — what the
        prefill this step will cache.  A fresh request shares the full
        blocks of its prompt with the runners of the same prompt (a GRPO
        group), as the server shares the prompt's prefill.  Requests not
        yet arrived are ignored; the rest accrue one waiting step each.
        """
        admitted: List[Request] = []
        while len(self.running) < self.config.max_slots:
            eligible = [r for r in self.waiting if r.arrival_time <= now]
            if not eligible:
                break
            head = min(eligible, key=self.rank_key)
            prefix = (head.prompt_key, head.prompt_length) if head.fresh else None
            if not self.kv.can_reserve(head.request_id, head.seq_len, prefix):
                break  # head-of-line: wait for blocks rather than starve it
            self.kv.reserve(head.request_id, head.seq_len, prefix)
            self.waiting.remove(head)
            head.state = RequestState.RUNNING
            head.slot = self._free_slots.pop()
            self.running.append(head)
            admitted.append(head)
            self.n_admissions += 1
        for req in self.waiting:
            if req.arrival_time <= now:
                req.wait_steps += 1
        return admitted

    def compact(self) -> List[Tuple[Request, int]]:
        """Move the runners into slots ``0..n-1`` (``n`` runners): each one
        in a slot at or past ``n`` takes the lowest hole.  Admission then
        hands out ``n``, ``n + 1``, ... in order.  Returns each moved runner
        with the slot it left; its cached K/V is the caller's to move."""
        n = len(self.running)
        holes = sorted(slot for slot in self._free_slots if slot < n)
        moved = sorted(((r, r.slot) for r in self.running if r.slot >= n), key=lambda m: m[1])
        for (req, _), hole in zip(moved, holes):
            req.slot = hole
        self._free_slots = list(range(self.config.max_slots - 1, n - 1, -1))
        return moved

    # -- block pressure --------------------------------------------------------------

    def ensure_decode_blocks(self, req: Request) -> bool:
        """Reserve KV space for ``req``'s next token, evicting if needed.

        Each victim is the worst-ranked runner.  While that is not ``req``
        it ranks strictly after ``req`` — so a caller walking runners in
        rank order never loses one it has already passed.  When it is
        ``req``, ``req`` yields: it is preempted itself and ``False`` is
        returned (the caller skips it this step).  A lone runner always
        fits — the server validates at submit time that any single request
        fits the whole pool — so the loop terminates.
        """
        target = req.kv_len + 1
        while not self.kv.can_reserve(req.request_id, target):
            victim = max(self.running, key=self.rank_key)
            self.preempt(victim)
            if victim is req:
                return False
        self.kv.reserve(req.request_id, target)
        return True

    def preempt(self, victim: Request) -> None:
        """Evict a runner: blocks and slot back, KV dropped, re-queued."""
        self._vacate(victim)
        victim.recomputed_tokens += victim.kv_len
        victim.kv_len = 0
        victim.state = RequestState.PREEMPTED
        victim.n_preemptions += 1
        self.running.remove(victim)
        self.waiting.append(victim)
        self.n_preemptions += 1

    # -- completion ------------------------------------------------------------------

    def finish(self, req: Request) -> None:
        """Release a finished runner's blocks and free its slot."""
        self._vacate(req)
        req.state = RequestState.FINISHED
        self.running.remove(req)

    def _vacate(self, req: Request) -> None:
        self.kv.release(req.request_id)
        self._free_slots.append(req.slot)
        req.slot = None

    # -- invariants (asserted by tests) ----------------------------------------------

    def check_invariants(self) -> None:
        """Raise ``AssertionError`` if the block accounting drifted."""
        self.kv.check_invariants()
        assert self.kv.blocks_in_use <= self.kv.n_blocks
        assert len(self.running) <= self.config.max_slots
        held_slots = sorted(req.slot for req in self.running)
        assert sorted(held_slots + self._free_slots) == list(
            range(self.config.max_slots)
        ), f"slots {held_slots} held, {self._free_slots} free"
        for req in self.running:
            held = len(self.kv.block_table(req.request_id))
            assert held == self.kv.blocks_needed(req.kv_len), (
                f"request {req.request_id}: holds {held} blocks for "
                f"kv_len {req.kv_len}"
            )
        for req in self.waiting:
            assert not self.kv.block_table(req.request_id), (
                f"queued request {req.request_id} still holds blocks"
            )
            assert req.slot is None, (
                f"queued request {req.request_id} still holds slot {req.slot}"
            )
