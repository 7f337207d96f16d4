"""Structured span tracing on the simulated clock.

A :class:`Span` is one timed unit of runtime work — a controller dispatch, a
transfer-protocol reshard, a HybridEngine train<->generation transition, a
checkpoint write, a fault-recovery phase.  Spans carry simulated-clock
start/end times, the resource pool and device ranks they ran on, payload
bytes, and two kinds of structure:

* **parent linkage** — the span that was open on the tracer's stack when
  this one began (dispatch inside an iteration, a checkpoint write inside a
  recovery restore), giving the nesting Chrome's trace viewer renders; and
* **dataflow links** — the span ids of the dispatches whose output futures
  fed this call, derived from future provenance (the same lineage the
  timeline scheduler replays), exported as Chrome flow arrows.

The tracer survives controller rebuilds: a supervised job owns one
:class:`SpanTracer` and the clock it reads, and every controller the job
builds adopts both, so one trace spans the faulted run, the recovery
phases, and the resumed run.
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import Any, Dict, Iterator, List, Optional, Tuple


@dataclasses.dataclass(slots=True)
class Span:
    """One timed unit of work on the simulated clock."""

    span_id: int
    name: str
    category: str
    start: float
    end: Optional[float] = None
    parent_id: Optional[int] = None
    pool: Optional[str] = None
    ranks: Tuple[int, ...] = ()
    payload_bytes: int = 0
    #: Span ids of the dispatches whose outputs fed this span (dataflow).
    links: Tuple[int, ...] = ()
    attrs: Dict[str, Any] = dataclasses.field(default_factory=dict)

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        if self.end is None:
            return 0.0
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        return {
            "span_id": self.span_id,
            "name": self.name,
            "category": self.category,
            "start": self.start,
            "end": self.end,
            "parent_id": self.parent_id,
            "pool": self.pool,
            "ranks": list(self.ranks),
            "payload_bytes": self.payload_bytes,
            "links": list(self.links),
            "attrs": dict(self.attrs),
        }


class SpanTracer:
    """Collects spans against a simulated clock, with a parent stack.

    Args:
        clock: Anything with a ``now`` attribute (the controller's
            :class:`~repro.faults.SimClock`); ``None`` pins every span at 0.
    """

    def __init__(self, clock: Optional[Any] = None) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._next_id = 0
        self._span_by_seq: Dict[int, int] = {}

    # -- time ------------------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.clock.now if self.clock is not None else 0.0

    # -- span lifecycle ----------------------------------------------------------------

    def begin(
        self,
        name: str,
        category: str = "span",
        pool: Optional[str] = None,
        ranks: Tuple[int, ...] = (),
        payload_bytes: int = 0,
        links: Tuple[int, ...] = (),
        **attrs: Any,
    ) -> Span:
        """Open a span; its parent is whatever span is currently open."""
        span = Span(
            span_id=self._next_id,
            name=name,
            category=category,
            start=self.now,
            parent_id=self._stack[-1].span_id if self._stack else None,
            pool=pool,
            ranks=tuple(ranks),
            payload_bytes=payload_bytes,
            links=tuple(links),
            attrs=dict(attrs),
        )
        self._next_id += 1
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(
        self, span: Span, payload_bytes: Optional[int] = None, **attrs: Any
    ) -> Span:
        """Close a span at the current clock time (idempotent)."""
        if payload_bytes is not None:
            span.payload_bytes = payload_bytes
        span.attrs.update(attrs)
        if not span.finished:
            span.end = self.now
        # tolerate out-of-order closes (error paths): pop through the span
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
        return span

    @contextlib.contextmanager
    def span(self, name: str, category: str = "span", **kwargs: Any) -> Iterator[Span]:
        """Context-managed span; marks ``status=error`` on exceptions."""
        opened = self.begin(name, category=category, **kwargs)
        try:
            yield opened
        except BaseException as exc:
            opened.attrs.setdefault("status", "error")
            opened.attrs.setdefault("error", type(exc).__name__)
            raise
        finally:
            self.end(opened)

    def instant(
        self, name: str, category: str = "span", **kwargs: Any
    ) -> Span:
        """A zero-duration span at the current clock time (not pushed)."""
        span = self.begin(name, category=category, **kwargs)
        return self.end(span)

    # -- dataflow provenance -----------------------------------------------------------

    def register_seq(self, seq: Optional[int], span: Span) -> None:
        """Associate a controller trace sequence number with its span."""
        if seq is not None:
            self._span_by_seq[seq] = span.span_id
            span.attrs.setdefault("seq", seq)

    def span_id_for_seq(self, seq: int) -> Optional[int]:
        return self._span_by_seq.get(seq)

    def links_for(self, deps: Tuple[int, ...]) -> Tuple[int, ...]:
        """Span ids of the dispatches that produced the given trace seqs."""
        return tuple(
            self._span_by_seq[d] for d in deps if d in self._span_by_seq
        )

    # -- queries -----------------------------------------------------------------------

    def by_category(self, category: str) -> List[Span]:
        return [s for s in self.spans if s.category == category]

    def counts_by_category(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for span in self.spans:
            counts[span.category] = counts.get(span.category, 0) + 1
        return dict(sorted(counts.items()))

    def __len__(self) -> int:
        return len(self.spans)

    def __repr__(self) -> str:
        return f"SpanTracer({len(self.spans)} spans, {len(self._stack)} open)"


class _NullTracer(SpanTracer):
    """The tracer of a component nobody observes: same interface, no record.

    ``begin`` hands back a throwaway :class:`Span` (so call sites may still
    set attributes on it) that is never stored, pushed or linked; ``end``,
    ``span()`` and ``instant()`` are inherited and only ever touch that
    throwaway — so an exception inside a ``with NULL_TRACER.span(...)``
    block propagates exactly as under a real tracer.
    """

    def begin(self, name: str, category: str = "span", **kwargs: Any) -> Span:
        return Span(span_id=-1, name=name, category=category, start=0.0)

    def register_seq(self, seq: Optional[int], span: Span) -> None:
        pass


#: What ``group.tracer`` resolves to without a controller, and the default
#: of every component that takes an optional tracer.
NULL_TRACER = _NullTracer()
