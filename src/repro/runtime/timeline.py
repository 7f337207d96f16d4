"""Simulated-time execution timelines from a controller trace (Figure 3).

The single controller records every remote call with its dataflow
dependencies (via future provenance).  This module replays that trace under
the paper's asynchronous-execution semantics (§4.1): a call starts as soon
as (a) its input futures' producers have finished and (b) its pool is free —
models on disjoint pools overlap, colocated models time-share.

The result is the per-pool Gantt chart of Figure 3, with the idle-time
accounting behind the paper's placement observations ("actor and critic ...
incurring 1/3 of their GPU time being idle, during other RLHF stages").
It is the one scheduler model: the cost model prices an iteration by
replaying its algorithm's dataflow graph here
(:func:`repro.perf.iteration.estimate_iteration`).  It holds no durations
of its own: a controller's trace replays under that controller's one
duration model, ``build_timeline(controller.trace,
controller.planned_duration)``.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.single_controller.controller import ExecutionRecord

DurationFn = Callable[[ExecutionRecord], float]


def _marker(index: int) -> str:
    """Unique legend marker for the ``index``-th event of a pool.

    ``A``..``Z`` for the first 26 events, then ``A1``..``Z1``, ``A2``..;
    unlike the old ``index % 26`` scheme, two events never share a marker.
    """
    letter = chr(ord("A") + index % 26)
    cycle = index // 26
    return letter if cycle == 0 else f"{letter}{cycle}"


@dataclasses.dataclass(frozen=True)
class TimelineEvent:
    """One scheduled call."""

    seq: int
    name: str  # "group.method"
    pool: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclasses.dataclass
class Timeline:
    """A full schedule plus per-pool utilisation accounting."""

    events: List[TimelineEvent]

    @property
    def makespan(self) -> float:
        return max((e.end for e in self.events), default=0.0)

    def pools(self) -> List[str]:
        return sorted({e.pool for e in self.events})

    def events_on(self, pool: str) -> List[TimelineEvent]:
        return [e for e in self.events if e.pool == pool]

    def busy_time(self, pool: str) -> float:
        return sum(e.duration for e in self.events_on(pool))

    def idle_fraction(
        self, pool: str, within: Optional[Tuple[float, float]] = None
    ) -> float:
        """Fraction of a window this pool spends idle (Figure 3).

        Args:
            within: ``(start, end)`` window to account against, consistent
                with :meth:`busy_during`.  Defaults to the whole makespan —
                but note that charges a pool whose work ends early with idle
                time for the tail of the run; pass the window of interest
                (e.g. :meth:`active_window`) to scope the accounting.
        """
        start, end = within if within is not None else (0.0, self.makespan)
        span = end - start
        if span <= 0:
            return 0.0
        return 1.0 - self.busy_during(pool, start, end) / span

    def active_window(self, pool: str) -> Tuple[float, float]:
        """``(first event start, last event end)`` of a pool; (0, 0) if none."""
        events = self.events_on(pool)
        if not events:
            return (0.0, 0.0)
        return (min(e.start for e in events), max(e.end for e in events))

    def busy_during(self, pool: str, start: float, end: float) -> float:
        """Busy time of ``pool`` within the window ``[start, end)``."""
        total = 0.0
        for e in self.events_on(pool):
            total += max(0.0, min(e.end, end) - max(e.start, start))
        return total

    def render_ascii(self, width: int = 72, max_legend: int = 48) -> str:
        """A Gantt chart like the execution drawings of Table 1/Figure 3.

        Each pool row reports idle both over the full makespan and within
        the pool's own active window (``win``); the legend uses unique
        markers (``A..Z, A1..``) and is capped at ``max_legend`` entries
        with an explicit "... N more" line.
        """
        span = self.makespan
        if span == 0:
            return "(empty timeline)"
        pools = self.pools()
        label_width = max(len(p) for p in pools) + 1
        lines = [
            f"{'pool'.ljust(label_width)}|{'time -> (makespan %.2f)' % span}"
        ]
        for pool in pools:
            row = [" "] * width
            for index, event in enumerate(self.events_on(pool)):
                lo = int(event.start / span * (width - 1))
                hi = max(lo + 1, int(event.end / span * (width - 1)))
                marker = _marker(index)
                # write as much of the marker as fits this event's cells so
                # wide events show their full (unambiguous) label
                for offset, x in enumerate(range(lo, min(hi, width))):
                    row[x] = marker[offset] if offset < len(marker) else marker[0]
            idle = (
                f" idle={self.idle_fraction(pool) * 100:.0f}%"
                f" (win {self.idle_fraction(pool, self.active_window(pool)) * 100:.0f}%)"
            )
            lines.append(f"{pool.ljust(label_width)}|{''.join(row)}{idle}")
        entries = [
            f"  {pool}/{_marker(index)}: {event.name}"
            for pool in pools
            for index, event in enumerate(self.events_on(pool))
        ]
        legend = entries[:max_legend]
        if len(entries) > max_legend:
            legend.append(f"  ... {len(entries) - max_legend} more event(s)")
        return "\n".join(lines + ["legend:"] + legend)


def build_timeline(
    trace: Sequence[ExecutionRecord], duration_fn: DurationFn
) -> Timeline:
    """Schedule a trace under asynchronous dataflow semantics.

    Records are taken in trace order; each starts when its ``deps`` have
    finished and its pool is free, and runs ``duration_fn(record)``
    simulated seconds — a controller's ``planned_duration`` (its table
    default, or :func:`repro.runtime.projection.perf_duration_fn`'s
    :mod:`repro.perf` latency models once installed there).
    """
    pool_free: Dict[str, float] = {}
    end_by_seq: Dict[int, float] = {}
    events: List[TimelineEvent] = []
    for record in trace:
        ready = max(
            (end_by_seq.get(d, 0.0) for d in record.deps), default=0.0
        )
        start = max(ready, pool_free.get(record.pool, 0.0))
        end = start + duration_fn(record)
        pool_free[record.pool] = end
        end_by_seq[record.seq] = end
        events.append(
            TimelineEvent(
                seq=record.seq,
                name=f"{record.group}.{record.method}",
                pool=record.pool,
                start=start,
                end=end,
            )
        )
    return Timeline(events=events)
