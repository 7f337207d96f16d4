"""``FaultInjector``: deterministic fault delivery against a controller's trace.

The injector is attached to a :class:`~repro.single_controller.SingleController`
(``controller.attach_fault_injector``) and consulted by every remote call
before it executes.  Events arm at trace sequence numbers, so delivery is
bit-reproducible; device/machine kills mutate the *cluster* (devices stay
dead across controller rebuilds, which is what recovery re-placement runs
against), while transient and straggler effects live in the injector and
survive re-binding to the controller a recovery builds.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from repro.faults.errors import TransientRpcError, WorkerLostError
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan


@dataclasses.dataclass
class FaultStats:
    """Counters the tests and the recovery report read back."""

    events_armed: int = 0
    transients_injected: int = 0
    retries_observed: int = 0
    devices_killed: int = 0
    detections: int = 0


class _ActiveTransient:
    """A transient event with its remaining failure budget."""

    def __init__(self, event: FaultEvent) -> None:
        self.event = event
        self.remaining = event.count

    def matches(self, group_name: str, pool_name: str) -> bool:
        if self.event.group is not None and self.event.group != group_name:
            return False
        if self.event.pool is not None and self.event.pool != pool_name:
            return False
        return True


class FaultInjector:
    """Delivers a :class:`FaultPlan` into a running single-controller job."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._pending: List[FaultEvent] = sorted(
            plan.events, key=lambda e: e.at_step
        )
        self._transients: List[_ActiveTransient] = []
        #: Per-rank latency multipliers of armed stragglers.
        self.straggle: Dict[int, float] = {}
        self.stats = FaultStats()
        self.controller = None

    # -- wiring ----------------------------------------------------------------------

    def bind(self, controller) -> None:
        """Attach to a controller (re-bound by recovery after a rebuild)."""
        self.controller = controller

    @property
    def pending_events(self) -> Tuple[FaultEvent, ...]:
        return tuple(self._pending)

    # -- the per-call gate -----------------------------------------------------------

    def pre_call(self, group, method: str, seq: int) -> None:
        """Arm due events, then fail this call if a fault applies.

        Raises:
            WorkerLostError: a device in the group's pool is dead.
            TransientRpcError: an armed transient fault consumed this call.
        """
        if self.controller is None:
            raise RuntimeError("FaultInjector used before bind()")
        self._arm_due(seq)
        cluster = self.controller.cluster
        pool = group.resource_pool
        dead = [r for r in pool.global_ranks if not cluster.device(r).alive]
        if dead:
            self.stats.detections += 1
            raise WorkerLostError(
                f"{group.name}.{method}: rank(s) {dead} of pool "
                f"{pool.name!r} are dead (detected at trace step {seq})",
                group=group.name,
                pool=pool.name,
                dead_ranks=tuple(dead),
                step=seq,
                cause="device loss",
            )
        for transient in self._transients:
            if transient.remaining > 0 and transient.matches(
                group.name, pool.name
            ):
                transient.remaining -= 1
                self.stats.transients_injected += 1
                self.controller.metrics.counter(
                    "repro_transients_injected_total",
                    "Transient RPC faults delivered by the injector",
                    group=group.name,
                ).inc()
                raise TransientRpcError(
                    f"injected transient RPC failure on {group.name}.{method} "
                    f"(trace step {seq})",
                    group=group.name,
                    method=method,
                )

    def note_retry(self) -> None:
        self.stats.retries_observed += 1

    # -- durations / stragglers --------------------------------------------------------

    def call_duration(self, group, record) -> float:
        """Simulated duration of the call ``record`` on ``group``: the
        controller's planned duration, inflated by the pool's slowest rank."""
        base = self.controller.planned_duration(record)
        factor = max(
            (self.straggle.get(r, 1.0) for r in group.resource_pool.global_ranks),
            default=1.0,
        )
        return base * factor

    def straggler_ranks(self, group) -> Tuple[int, ...]:
        return tuple(
            r
            for r in group.resource_pool.global_ranks
            if self.straggle.get(r, 1.0) > 1.0
        )

    # -- event activation --------------------------------------------------------------

    def _arm_due(self, seq: int) -> None:
        while self._pending and self._pending[0].at_step <= seq:
            event = self._pending.pop(0)
            self.stats.events_armed += 1
            if event.kind in KILL_KINDS:
                died = apply_kill(
                    self.controller.cluster, event, self.controller.clock.now
                )
                self.stats.devices_killed += len(died)
                if died:
                    self.controller.metrics.counter(
                        "repro_devices_killed_total",
                        "Devices killed by injected faults",
                    ).inc(len(died))
            elif event.kind is FaultKind.TRANSIENT_RPC:
                self._transients.append(_ActiveTransient(event))
            elif event.kind is FaultKind.STRAGGLER:
                self.straggle[event.rank] = max(
                    self.straggle.get(event.rank, 1.0), event.slow_factor
                )

    def __repr__(self) -> str:
        return (
            f"FaultInjector({len(self._pending)} pending of "
            f"{len(self.plan)} events)"
        )


#: Kill kinds a fleet-level chaos plan may carry (capacity faults only).
KILL_KINDS = frozenset(
    {FaultKind.DEVICE_LOSS, FaultKind.MACHINE_LOSS, FaultKind.RACK_LOSS}
)


def apply_kill(cluster, event: FaultEvent, at_time: Optional[float]) -> List[int]:
    """Kill what one :data:`KILL_KINDS` event names; returns the ranks that
    died now (an already-dead device does not die twice)."""
    if event.kind is FaultKind.MACHINE_LOSS:
        return cluster.fail_machine(event.machine, at_time=at_time)
    if event.kind is FaultKind.RACK_LOSS:
        return cluster.fail_rack(
            event.rack, event.machines_per_rack, at_time=at_time
        )
    if not cluster.device(event.rank).alive:
        return []
    cluster.fail_device(event.rank, at_time=at_time)
    return [event.rank]


class ClusterFaultDriver:
    """Fleet-scoped fault delivery: kills devices in a shared cluster directly.

    A :class:`FaultInjector` keys events by *one controller's* trace steps,
    which has no meaning when several tenant jobs (each with its own
    controller and trace) share a cluster.  The driver instead keys the same
    :class:`FaultPlan` events by **fleet scheduler tick** and mutates the
    shared :class:`~repro.cluster.SimCluster` between ticks; each job then
    *detects* the loss on its next remote call through its own (possibly
    empty-plan) injector — detection-on-contact, exactly like single-job
    faults.

    Only capacity faults (device / machine / rack kills) are meaningful
    fleet-wide; transient and straggler events belong in a per-job plan and
    are rejected loudly.
    """

    def __init__(self, plan: FaultPlan) -> None:
        bad = [e.kind.value for e in plan if e.kind not in KILL_KINDS]
        if bad:
            raise ValueError(
                f"a fleet fault plan may only contain kill events "
                f"(device/machine/rack loss); got {sorted(set(bad))} — "
                f"put transient/straggler events in a per-job plan instead"
            )
        self.plan = plan
        self._pending: List[FaultEvent] = sorted(
            plan.events, key=lambda e: e.at_step
        )
        self.devices_killed = 0

    @property
    def pending_events(self) -> Tuple[FaultEvent, ...]:
        return tuple(self._pending)

    def apply_due(
        self, cluster, tick: int, at_time: Optional[float] = None
    ) -> List[int]:
        """Apply every event due at or before ``tick``; returns ranks killed now."""
        died: List[int] = []
        while self._pending and self._pending[0].at_step <= tick:
            died.extend(apply_kill(cluster, self._pending.pop(0), at_time))
        self.devices_killed += len(died)
        return died

    def __repr__(self) -> str:
        return (
            f"ClusterFaultDriver({len(self._pending)} pending of "
            f"{len(self.plan)} events)"
        )
