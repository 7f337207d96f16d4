"""Shared-state access log for the vector-clock race detector.

The simulated runtime executes strictly sequentially, so it can never
*exhibit* a data race — but a plan that only works because the simulator
serialises everything would corrupt state on a real cluster.  To catch that
class of bug statically, the controller records every read/write of shared
state (checkpoint files, worker-group merge buffers, published weight
versions) together with enough ordering context for
:class:`repro.analysis.races.RaceDetector` to rebuild the *intended*
happens-before relation and flag conflicting accesses it does not order.

Each :class:`AccessEvent` is stamped with the dispatch it occurred inside
(``seq``; ``None`` for controller-context code such as group construction or
coordinated checkpoints) and the number of dispatches completed when it was
recorded (``after_seq``).  ``ordered`` marks accesses whose relative order
within one dispatch is deterministic by construction (e.g. a collect that
walks ranks in a fixed order); unordered same-dispatch writes from different
ranks are exactly the ``merge_outputs`` hazard.
"""

from __future__ import annotations

import dataclasses
import sys
from typing import List, Optional

READ = "read"
WRITE = "write"

#: Rank id used for accesses performed by the controller itself.
CONTROLLER_RANK = -1


@dataclasses.dataclass(frozen=True, slots=True)
class AccessEvent:
    """One read or write of a named shared resource."""

    kind: str  # READ or WRITE
    resource: str  # e.g. "merge[actor.generate_sequences]", "checkpoint:/tmp/ckpt"
    rank: int  # global device rank, or CONTROLLER_RANK
    seq: Optional[int]  # dispatch seq this happened inside; None = controller
    after_seq: int  # dispatches completed when the event was recorded
    ordered: bool = True  # deterministically ordered within its dispatch
    note: str = ""

    def __post_init__(self) -> None:
        if self.kind not in (READ, WRITE):
            raise ValueError(f"access kind must be read/write, got {self.kind!r}")


class AccessLog:
    """Append-only list of :class:`AccessEvent`, one per controller."""

    def __init__(self) -> None:
        self.events: List[AccessEvent] = []

    def record(
        self,
        kind: str,
        resource: str,
        rank: int,
        seq: Optional[int],
        after_seq: int,
        ordered: bool = True,
        note: str = "",
    ) -> AccessEvent:
        event = AccessEvent(
            kind=kind,
            resource=sys.intern(resource),  # few distinct names: one str each
            rank=rank,
            seq=seq,
            after_seq=after_seq,
            ordered=ordered,
            note=note,
        )
        self.events.append(event)
        return event

    def clear(self) -> None:
        self.events.clear()

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)
