"""The rollout server's streaming drain, explored on its real objects.

:class:`ServingHarness` builds a real :class:`~repro.serving.RolloutServer`
over the :class:`~repro.serving.LengthPlan` stand-in model (a request
prompted ``[..., L]`` emits ``L - 1, ..., 0`` and stops at EOS 0), with few
slots and few KV blocks, so admission, preemption and recompute, prompt
groups sharing a prefill and slot compaction all run.  Its moves: the
client submits the next planned request, or the engine takes one step of
:meth:`~repro.serving.RolloutServer.drain` — ``step()``, then its finishers
handed to ``on_finish``.  The checker explores every arrival order.

Invariants: every request reaches ``on_finish`` exactly once, in completion
order, with its whole planned response (MC609); the scheduler's slot and
block accounting holds (``check_invariants``; MC607).
"""

from __future__ import annotations

import types
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.protocols.core import Harness, Mutant, Step, Violations
from repro.serving import LengthPlan, RolloutServer, ServingConfig


class ServingHarness(Harness):
    """Requests ``(prompt, priority)`` submitted in order to a server of
    ``slots`` decode slots and ``blocks`` KV blocks of ``block_size``."""

    def __init__(
        self,
        requests: Sequence[Tuple[Tuple[int, ...], int]],
        slots: int,
        blocks: int,
        block_size: int = 1,
        mutant: Optional[Mutant] = None,
    ) -> None:
        super().__init__(mutant)
        self.requests = tuple((tuple(prompt), priority) for prompt, priority in requests)
        self.slots, self.blocks, self.block_size = slots, blocks, block_size
        spec = ",".join(
            "".join(map(str, prompt)) + (f"p{priority}" if priority else "")
            for prompt, priority in self.requests
        )
        self.name = self._named(f"drain-handoff[{spec};s{slots},b{blocks}x{block_size}]")

    def build(self) -> Any:
        longest = max(len(prompt) + prompt[-1] for prompt, _ in self.requests)
        server = RolloutServer(
            LengthPlan(longest),
            ServingConfig(
                max_slots=self.slots,
                block_size=self.block_size,
                n_blocks=self.blocks,
                eos_token_id=0,
                greedy=True,
                step_time=1.0,
            ),
        )
        return types.SimpleNamespace(server=server, submitted=0, delivered=[])

    def shared(self, world: Any) -> List[Any]:
        server = world.server
        live = server.scheduler.waiting + server.scheduler.running
        # greedy decoding draws nothing from a request's rng
        return (
            [server.model, server.config, server.tracer, server.metrics]
            + [r.rng for r in live]
            + [r.prompt for r in live]
            + server._completed
        )

    def candidates(self, world: Any) -> List[Tuple[str, str]]:
        moves = []
        if world.submitted < len(self.requests):
            moves.append((f"submit[{world.submitted}]", "client"))
        if world.server.pending:
            moves.append((f"step[{world.server._steps}]", "engine"))
        return moves

    def perform(self, world: Any, move: str) -> Step:
        server = world.server
        if move.startswith("submit"):
            prompt, priority = self.requests[world.submitted]
            server.submit(np.array(prompt), max_new_tokens=prompt[-1], priority=priority)
            world.submitted += 1
            token = f"request[{world.submitted - 1}]"
            return Step(writes=(token,), ctrl_reads=("submitted",), releases=(token,))
        scheduler = server.scheduler
        queued = tuple(f"request[{r.request_id}]" for r in scheduler.waiting)
        emitted = {r.request_id: len(r.generated) for r in scheduler.waiting + scheduler.running}
        completed, delivered = len(server._completed), len(world.delivered)
        viol: Violations = ()
        try:
            server._hand_off(server.step(), world.delivered.append)
            scheduler.check_invariants()
        except AssertionError as err:
            viol = (("MC607", f"slot or KV-block accounting broke: {err}"),)
        except Exception as err:  # the engine cannot go on
            viol = (("MC601", f"step raised {type(err).__name__}: {err}"),)
        finished = [c.request_id for c in server._completed[completed:]]
        handed = [c.request_id for c in world.delivered[delivered:]]
        for done in world.delivered[delivered:]:
            prompt, _ = self.requests[done.request_id]
            if tuple(done.response.tolist()) != tuple(range(prompt[-1] - 1, -1, -1)) and not viol:
                viol = (("MC609", f"request {done.request_id} handed off with "
                         f"{done.response.tolist()}, not its whole planned response"),)
        if handed != finished and not viol:
            viol = (("MC609", f"requests {handed} handed to on_finish, but {finished} "
                     "finished, in that order"),)
        grown = [r.request_id for r in scheduler.running if len(r.generated) > emitted[r.request_id]]
        return Step(
            reads=queued + tuple(f"result[{r}]" for r in handed),
            writes=tuple(f"result[{r}]" for r in grown + finished),
            ctrl_reads=("submitted", "queue", "running", "requests", "slots", "kv"),
            syncs=queued,
            viol=viol,
        )

    def fingerprint(self, world: Any) -> Dict[str, Hashable]:
        server = world.server
        scheduler, kv = server.scheduler, server.kv
        return {
            "submitted": world.submitted,
            "clock": server.now,
            "queue": tuple(r.request_id for r in scheduler.waiting),
            "running": tuple(r.request_id for r in scheduler.running),
            "requests": tuple(
                (r.request_id, r.state.value, r.slot, r.kv_len, tuple(r.generated),
                 r.wait_steps, r.prompt_logits is None, r.arrival_time)
                for r in scheduler.waiting + scheduler.running
            ),
            "slots": tuple(scheduler._free_slots),
            "kv": (
                tuple(kv._free),
                tuple(sorted((k, tuple(v)) for k, v in kv._tables.items())),
                tuple(sorted((k, tuple(v)) for k, v in kv._prefixes.items())),
            ),
            "completed": tuple(c.request_id for c in server._completed),
            "delivered": tuple(c.request_id for c in world.delivered),
        }

    def terminal(self, world: Any) -> bool:
        return world.submitted == len(self.requests) and not world.server.pending

    def leftovers(self, world: Any) -> Violations:
        handed = {c.request_id for c in world.delivered}
        return tuple(
            ("MC609", f"request {c.request_id} finished but never reached on_finish")
            for c in world.server._completed
            if c.request_id not in handed
        )


def _hand_off_reversed(finished, on_finish) -> None:
    """``RolloutServer._hand_off`` with completion order dropped."""
    for done in reversed(finished):
        on_finish(done)


def mutants() -> Dict[str, ServingHarness]:
    """Rule -> a harness with the one real function whose guard it needs
    replaced."""
    return {
        "MC609": ServingHarness(
            (((2,), 0), ((2,), 0)), slots=2, blocks=6,
            mutant=Mutant(RolloutServer, "_hand_off", staticmethod(_hand_off_reversed)),
        ),
    }


__all__ = ["ServingHarness", "mutants"]
