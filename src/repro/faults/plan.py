"""Deterministic fault plans: what fails, when, and how.

A :class:`FaultPlan` is an ordered list of :class:`FaultEvent` keyed by the
controller's *trace sequence number* — the same global ordering the execution
trace and timeline use — so a plan is reproducible regardless of wall-clock
speed.  Plans can be written by hand (chained ``kill_machine`` /
``transient`` / ``straggler`` calls) or generated pseudo-randomly from a
seed with :meth:`FaultPlan.random` for soak-style testing.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import List, Optional, Sequence

import numpy as np

from repro.config import ClusterSpec, bounded, check_bounds


class FaultKind(str, enum.Enum):
    """The failure modes the simulated cluster can express."""

    DEVICE_LOSS = "device_loss"  # one GPU dies permanently
    MACHINE_LOSS = "machine_loss"  # a whole machine (all its GPUs) dies
    RACK_LOSS = "rack_loss"  # a rack (several adjacent machines) dies at once
    TRANSIENT_RPC = "transient_rpc"  # a retryable controller->group RPC failure
    STRAGGLER = "straggler"  # one rank becomes persistently slow


@dataclasses.dataclass(frozen=True)
class FaultEvent:
    """One scheduled failure.

    Attributes:
        kind: Which failure mode fires.
        at_step: Trace sequence number at which the event arms; it takes
            effect on the first remote call at or after this step.
        rank: Target global device rank (``DEVICE_LOSS`` / ``STRAGGLER``).
        machine: Target machine index (``MACHINE_LOSS``).
        rack: Target rack index (``RACK_LOSS``).  A rack is a contiguous
            block of ``machines_per_rack`` machines — a correlated failure
            domain (shared power/top-of-rack switch) that takes several
            machines down in the same tick.
        machines_per_rack: Machines per rack for ``RACK_LOSS`` events.
        group: Restrict ``TRANSIENT_RPC`` to calls of this worker group
            (``None`` = any group).
        pool: Restrict ``TRANSIENT_RPC`` to groups on this pool.
        count: Number of consecutive calls a ``TRANSIENT_RPC`` event fails.
        slow_factor: Latency multiplier a ``STRAGGLER`` applies to its rank.
    """

    kind: FaultKind
    at_step: int = bounded(ge=0)
    rank: Optional[int] = None
    machine: Optional[int] = None
    rack: Optional[int] = None
    machines_per_rack: int = bounded(2, ge=1)
    group: Optional[str] = None
    pool: Optional[str] = None
    count: int = bounded(1, ge=1)
    slow_factor: float = 1.0

    def __post_init__(self) -> None:
        check_bounds(self)
        if self.kind is FaultKind.DEVICE_LOSS and self.rank is None:
            raise ValueError("DEVICE_LOSS needs a target rank")
        if self.kind is FaultKind.MACHINE_LOSS and self.machine is None:
            raise ValueError("MACHINE_LOSS needs a target machine")
        if self.kind is FaultKind.RACK_LOSS and self.rack is None:
            raise ValueError("RACK_LOSS needs a target rack")
        if self.kind is FaultKind.STRAGGLER:
            if self.rank is None:
                raise ValueError("STRAGGLER needs a target rank")
            if self.slow_factor <= 1.0:
                raise ValueError(
                    f"a straggler must be slower than 1.0x, got {self.slow_factor}"
                )


@dataclasses.dataclass
class FaultPlan:
    """An ordered, deterministic schedule of failures for one run."""

    events: List[FaultEvent] = dataclasses.field(default_factory=list)

    def __post_init__(self) -> None:
        self.events = sorted(self.events, key=lambda e: e.at_step)

    # -- fluent constructors ---------------------------------------------------------

    def kill_device(self, rank: int, at_step: int) -> "FaultPlan":
        return self._add(
            FaultEvent(FaultKind.DEVICE_LOSS, at_step=at_step, rank=rank)
        )

    def kill_machine(self, machine: int, at_step: int) -> "FaultPlan":
        return self._add(
            FaultEvent(FaultKind.MACHINE_LOSS, at_step=at_step, machine=machine)
        )

    def kill_machines(self, machines: Sequence[int], at_step: int) -> "FaultPlan":
        """Correlated loss: several whole machines die in the same tick."""
        for machine in machines:
            self.kill_machine(machine, at_step=at_step)
        return self

    def kill_rack(
        self, rack: int, at_step: int, machines_per_rack: int = 2
    ) -> "FaultPlan":
        """Correlated loss of one failure domain: a contiguous machine block."""
        return self._add(
            FaultEvent(
                FaultKind.RACK_LOSS,
                at_step=at_step,
                rack=rack,
                machines_per_rack=machines_per_rack,
            )
        )

    def transient(
        self,
        at_step: int,
        count: int = 1,
        group: Optional[str] = None,
        pool: Optional[str] = None,
    ) -> "FaultPlan":
        return self._add(
            FaultEvent(
                FaultKind.TRANSIENT_RPC,
                at_step=at_step,
                count=count,
                group=group,
                pool=pool,
            )
        )

    def straggler(
        self, rank: int, at_step: int, slow_factor: float = 4.0
    ) -> "FaultPlan":
        return self._add(
            FaultEvent(
                FaultKind.STRAGGLER,
                at_step=at_step,
                rank=rank,
                slow_factor=slow_factor,
            )
        )

    def _add(self, event: FaultEvent) -> "FaultPlan":
        self.events.append(event)
        self.events.sort(key=lambda e: e.at_step)
        return self

    # -- generation ------------------------------------------------------------------

    @classmethod
    def random(
        cls,
        seed: int,
        n_events: int,
        max_step: int,
        n_ranks: int,
        n_machines: int = 1,
        machines_per_rack: int = 2,
        kinds: Sequence[FaultKind] = (
            FaultKind.TRANSIENT_RPC,
            FaultKind.STRAGGLER,
            FaultKind.DEVICE_LOSS,
        ),
    ) -> "FaultPlan":
        """A reproducible pseudo-random plan — same seed, same failures."""
        if n_events < 0 or max_step < 1 or n_ranks < 1:
            raise ValueError("need n_events >= 0, max_step >= 1, n_ranks >= 1")
        rng = np.random.default_rng(seed)
        n_racks = ClusterSpec(n_machines=n_machines).n_racks(machines_per_rack)
        events: List[FaultEvent] = []
        for _ in range(n_events):
            kind = kinds[int(rng.integers(len(kinds)))]
            step = int(rng.integers(max_step))
            if kind is FaultKind.DEVICE_LOSS:
                events.append(
                    FaultEvent(kind, step, rank=int(rng.integers(n_ranks)))
                )
            elif kind is FaultKind.MACHINE_LOSS:
                events.append(
                    FaultEvent(kind, step, machine=int(rng.integers(n_machines)))
                )
            elif kind is FaultKind.RACK_LOSS:
                events.append(
                    FaultEvent(
                        kind,
                        step,
                        rack=int(rng.integers(n_racks)),
                        machines_per_rack=machines_per_rack,
                    )
                )
            elif kind is FaultKind.STRAGGLER:
                events.append(
                    FaultEvent(
                        kind,
                        step,
                        rank=int(rng.integers(n_ranks)),
                        slow_factor=float(2.0 + 6.0 * rng.random()),
                    )
                )
            else:
                events.append(
                    FaultEvent(kind, step, count=int(rng.integers(1, 4)))
                )
        return cls(events=events)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)
