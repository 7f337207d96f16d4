"""MC6xx — bounded model checking of the shipped concurrent components.

The RC5xx race detector and TA2xx trace auditor are *dynamic*: they audit
the one schedule an execution happened to take.  The components those
schedules come from — the one-step-off async pipeline, the serving drain,
the fleet gang scheduler — make choices (run ahead or train, when requests
arrive, when a device dies, which job steps first), and their bugs live in
the schedules that did *not* run.  This pass explores all of them, at small
scope, on the real objects: each component is driven by a harness
(:mod:`repro.analysis.protocols`) that builds it with stand-ins for the
numerics and offers the moves its own code allows, and a stateless
depth-first checker enumerates every schedule up to a depth/state budget,
pruning provably-equivalent orders with sleep-set partial-order reduction.

Checked invariants (the MC6xx catalog, see :data:`MC_RULES`):

============  =======================================================
``MC601``     no reachable non-quiescent state where the component
              cannot move: nothing enabled, or the move raises
``MC602``     livelock freedom — no schedule returns to an earlier
              state without making progress
``MC603``     the staleness bound ``W`` is never exceeded
``MC604``     no experience batch is lost, overwritten, or left
              buffered
``MC606``     every published weight version is consumable — an
              acquire never returns a version older than the staged one
``MC607``     no device, decode slot or KV block is held twice — a
              device belongs to at most one running gang
``MC608``     preemption never loses work — a preempted job resumes at
              its preemption point
``MC609``     streaming hand-off — ``on_finish`` fires exactly once per
              request, with its whole response, in completion order
============  =======================================================

``MC605`` (a weight buffer written while readable) is retired: the
:class:`~repro.hybrid_engine.WeightPublisher` holds version numbers, not
buffers — each version is its own resource — so there is nothing a publish
could tear.

A violation is reported as a ``Finding`` carrying a *minimal*
counterexample schedule (breadth-first shortened after the DFS finds a
witness).  A counterexample is debugged where it was found:
:meth:`~repro.analysis.protocols.core.Harness.run_schedule` re-runs it on
fresh real objects, and the final state's ``viol`` names the rule.  The
RC5xx and TA2xx passes audit only what really ran (a live system, an
exported trace); each protocol fact is checked in one family.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.analysis.protocols.core import Harness, independent
from repro.analysis.report import ERROR, AnalysisReport
from repro.config import bounded, check_bounds

#: rule -> (title, fix hint attached to every finding of that rule)
MC_RULES: Dict[str, Tuple[str, str]] = {
    "MC601": (
        "component stuck",
        "re-run the schedule with Harness.run_schedule() and inspect "
        "which guard starves the component, or which call raised",
    ),
    "MC602": (
        "protocol livelock",
        "the schedule returns to an earlier state without progress; "
        "break the cycle with a strict priority or progress measure",
    ),
    "MC603": (
        "staleness bound exceeded",
        "publish every new policy version: the run-ahead bound counts "
        "from the trainer's step, so a lost publication lets batches go "
        "stale",
    ),
    "MC604": (
        "experience batch lost or double-handled",
        "keep the run-ahead bound inside the buffer's capacity and pop "
        "each iteration exactly once",
    ),
    "MC606": (
        "published weight version lost",
        "acquire must flip to the staged version before decoding starts",
    ),
    "MC607": (
        "resource held twice",
        "grant a gang only devices that are alive AND free; return every "
        "slot and KV block a request held",
    ),
    "MC608": (
        "preempted work lost",
        "checkpoint the victim synchronously inside the preemption, "
        "before its devices are handed to the waiter",
    ),
    "MC609": (
        "streaming hand-off violated",
        "hand each step's finishers to on_finish in completion order, "
        "once each, after their final decode step",
    ),
}


@dataclasses.dataclass(frozen=True)
class Counterexample:
    """A schedule (action-name sequence) driving a model into a violation."""

    rule: str
    message: str
    schedule: Tuple[str, ...]
    model: str

    def render(self) -> str:
        return " -> ".join(self.schedule)


@dataclasses.dataclass
class ModelCheckResult:
    """Everything one bounded exploration of one model produced."""

    model: str
    states: int = 0
    transitions: int = 0
    truncated: bool = False
    counterexamples: List[Counterexample] = dataclasses.field(
        default_factory=list
    )

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def by_rule(self) -> Dict[str, Counterexample]:
        return {ce.rule: ce for ce in self.counterexamples}


class _Frame:
    """One explicit DFS stack entry (the checker never recurses)."""

    __slots__ = ("state", "enabled", "idx", "sleep", "done")

    def __init__(self, state: Any, enabled: List[Any], sleep: set) -> None:
        self.state = state
        self.enabled = enabled
        self.idx = 0
        self.sleep = sleep
        self.done: List[Any] = []


@dataclasses.dataclass(eq=False)
class ModelChecker:
    """Bounded stateless explorer with sleep-set partial-order reduction.

    ``max_depth`` bounds schedule length, ``max_states`` bounds distinct
    states per model (exceeding either sets ``truncated`` instead of
    failing; each must be >= 1, or nothing is explored).  ``reduce=False``
    disables the sleep-set pruning (useful to validate the reduction
    itself); ``shrink=False`` keeps the first DFS witness instead of
    breadth-first minimising it.

    A violating state is a frontier: its rules are recorded (first
    witness per rule, later minimised) and it is not expanded further, so
    one seeded fault reports exactly one rule instead of a cascade.
    """

    max_depth: int = bounded(400, ge=1)
    max_states: int = bounded(60_000, ge=1)
    reduce: bool = True
    shrink: bool = True

    def __post_init__(self) -> None:
        check_bounds(self)

    # -- single-model exploration ------------------------------------------------------

    def check_model(self, model: Harness) -> ModelCheckResult:
        result = ModelCheckResult(model=model.name)
        found: Dict[str, Counterexample] = {}

        def record(rule: str, message: str, schedule: List[str]) -> None:
            if rule not in found:
                found[rule] = Counterexample(
                    rule, message, tuple(schedule), model.name
                )

        init = model.initial_state()
        seen = {init}
        # state -> sleep sets it was expanded under; re-expansion is only
        # skipped when a recorded sleep set is a subset of the current one
        # (everything outside the current sleep set was already explored).
        expanded: Dict[Any, List[FrozenSet[Any]]] = {}
        on_path = {init}

        init_viols = model.state_violations(init)
        for rule, message in init_viols:
            record(rule, message, [])
        if not init_viols:
            enabled = model.enabled(init)
            if not enabled:
                if model.is_terminal(init):
                    for rule, message in model.final_violations(init):
                        record(rule, message, [])
                else:
                    record(rule="MC601", message=self._deadlock_message(
                        model, init), schedule=[])
            else:
                expanded[init] = [frozenset()]
                stack = [_Frame(init, enabled, set())]
                path: List[str] = []
                while stack:
                    frame = stack[-1]
                    if len(seen) >= self.max_states:
                        result.truncated = True
                        break
                    if frame.idx >= len(frame.enabled):
                        stack.pop()
                        on_path.discard(frame.state)
                        if path:
                            path.pop()
                        continue
                    action = frame.enabled[frame.idx]
                    frame.idx += 1
                    if action in frame.sleep:
                        continue
                    child = model.apply(frame.state, action)
                    result.transitions += 1
                    child_sleep = {
                        b
                        for b in frame.sleep.union(frame.done)
                        if independent(action, b)
                    }
                    frame.done.append(action)
                    path.append(action.name)
                    seen.add(child)
                    viols = model.state_violations(child)
                    if viols:
                        for rule, message in viols:
                            record(rule, message, path)
                        path.pop()
                        continue
                    if child in on_path:
                        record(
                            rule="MC602",
                            message=(
                                "livelock: the schedule revisits an "
                                "earlier state without progress"
                            ),
                            schedule=path,
                        )
                        path.pop()
                        continue
                    child_enabled = model.enabled(child)
                    if not child_enabled:
                        if model.is_terminal(child):
                            for rule, message in model.final_violations(
                                child
                            ):
                                record(rule, message, path)
                        else:
                            record(
                                rule="MC601",
                                message=self._deadlock_message(
                                    model, child
                                ),
                                schedule=path,
                            )
                        path.pop()
                        continue
                    if len(path) >= self.max_depth:
                        result.truncated = True
                        path.pop()
                        continue
                    sleep_key = frozenset(child_sleep)
                    recorded = expanded.get(child)
                    if (
                        self.reduce
                        and recorded is not None
                        and any(z <= sleep_key for z in recorded)
                    ):
                        path.pop()
                        continue
                    expanded.setdefault(child, []).append(sleep_key)
                    stack.append(_Frame(child, child_enabled, child_sleep))
                    on_path.add(child)

        result.states = len(seen)
        for rule, ce in sorted(found.items()):
            if self.shrink and rule != "MC602" and ce.schedule:
                shorter = self._shrink(model, rule, len(ce.schedule))
                if shorter is not None:
                    ce = shorter
            result.counterexamples.append(ce)
        return result

    @staticmethod
    def _deadlock_message(model: Harness, state: Any) -> str:
        return (
            "stuck: no move is enabled but the component has not "
            "finished — its guards starve every thread"
        )

    def _shrink(
        self, model: Harness, rule: str, bound: int
    ) -> Optional[Counterexample]:
        """Breadth-first search for the shortest schedule exhibiting
        ``rule``, bounded by the DFS witness length (no reduction — BFS
        must stay complete to be minimal)."""
        init = model.initial_state()
        queue = deque([(init, ())])
        seen = {init}
        expansions = 0
        while queue:
            state, sched = queue.popleft()
            if len(sched) >= bound:
                continue
            for action in model.enabled(state):
                expansions += 1
                if expansions > self.max_states:
                    return None
                child = model.apply(state, action)
                csched = sched + (action.name,)
                viols = model.state_violations(child)
                for r, message in viols:
                    if r == rule:
                        return Counterexample(
                            rule, message, csched, model.name
                        )
                if viols:
                    continue
                enabled = model.enabled(child)
                if not enabled:
                    if model.is_terminal(child):
                        for r, message in model.final_violations(child):
                            if r == rule:
                                return Counterexample(
                                    rule, message, csched, model.name
                                )
                    elif rule == "MC601":
                        return Counterexample(
                            rule,
                            self._deadlock_message(model, child),
                            csched,
                            model.name,
                        )
                    continue
                if child not in seen and len(csched) < bound:
                    seen.add(child)
                    queue.append((child, csched))
        return None

    # -- report-level entry points -----------------------------------------------------

    def check_all(
        self,
        models: Iterable[Harness],
        report: Optional[AnalysisReport] = None,
    ) -> AnalysisReport:
        """Check every model, folding violations into an AnalysisReport.

        Results (including counterexample schedules and coverage
        counters) are kept on ``self.last_results`` for callers that
        need more than findings — the CLI's MC report artifact and the
        golden tests read them from there.
        """
        report = report or AnalysisReport("modelcheck")
        self.last_results: List[ModelCheckResult] = []
        for model in models:
            result = self.check_model(model)
            self.last_results.append(result)
            report.note_checked("mc_models")
            report.note_checked("mc_states", result.states)
            report.note_checked("mc_transitions", result.transitions)
            if result.truncated:
                report.note_checked("mc_truncated")
            for ce in result.counterexamples:
                title, hint = MC_RULES.get(ce.rule, ("", ""))
                schedule = ce.render() or "<initial state>"
                report.add(
                    rule=ce.rule,
                    severity=ERROR,
                    message=f"{ce.message} [schedule: {schedule}]",
                    location=f"model:{ce.model}",
                    hint=hint,
                )
        return report

    def check_shipped(
        self, report: Optional[AnalysisReport] = None
    ) -> AnalysisReport:
        return self.check_all(shipped_models(), report=report)


def shipped_models() -> Tuple[Harness, ...]:
    """The intact suite `repro check --models` gates on.

    The pipeline at staleness windows 0-4 (W=0 is the synchronous loop,
    W>=2 deep run-ahead); the server under slot and KV-block pressure, with
    prompt groups, priorities, preemption and recompute; fleets covering
    preemption, faults mid-gang, elastic widths, checkpoint rollback, the
    failure limit and give-up.  The union explores over ten thousand
    distinct states within the CI budget.
    """
    from repro.analysis.protocols.fleet_harness import FleetHarness, job
    from repro.analysis.protocols.pipeline_harness import PipelineHarness
    from repro.analysis.protocols.serving_harness import ServingHarness

    return (
        PipelineHarness(n_iterations=4, window=0),
        PipelineHarness(n_iterations=5, window=1),
        PipelineHarness(n_iterations=6, window=2),
        PipelineHarness(n_iterations=10, window=3),
        PipelineHarness(n_iterations=12, window=4),
        ServingHarness(
            (((2,), 0), ((2,), 0), ((1,), 1), ((3,), 0), ((2,), 2)), slots=2, blocks=4
        ),
        ServingHarness(
            (((3,), 0), ((3,), 0), ((1, 2), 2), ((3,), 0), ((2,), 1), ((1, 3), 0)),
            slots=3,
            blocks=6,
        ),
        FleetHarness(
            (
                job("a", 3, (1, 2), 2, arrival=1),
                job("b", 2, (1, 2), 2, checkpoint_every=2),
                job("c", 1, (1, 1), 3),
                job("d", 1, (1, 2), 2),
            ),
            gpus=6,
            kills=(4,),
        ),
        FleetHarness((job("a", 1, (2, 2), 2), job("b", 1, (2, 2), 1)), gpus=4),
        FleetHarness(
            (job("a", 1, (1, 3), 2, checkpoint_every=2), job("b", 2, (2, 2), 2)),
            gpus=4,
            kills=(0, 2),
            max_failures=1,
        ),
        FleetHarness(
            (
                job("a", 2, (1, 3), 3, checkpoint_every=2),
                job("b", 1, (1, 2), 2),
                job("c", 3, (1, 1), 1, arrival=1),
            ),
            gpus=5,
            kills=(1, 3),
        ),
    )


__all__ = [
    "Counterexample",
    "MC_RULES",
    "ModelChecker",
    "ModelCheckResult",
    "shipped_models",
]
