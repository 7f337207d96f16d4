"""A single simulated accelerator with explicit memory accounting.

Out-of-memory behaviour drives several of the paper's design decisions
(colocated models execute sequentially to avoid OOM, §2.3; the auto-mapping
algorithm's ``get_min_alloc`` rejects allocations that would OOM, §6), so the
simulated device tracks every named allocation and raises
:class:`OutOfDeviceMemory` exactly when capacity would be exceeded.
"""

from __future__ import annotations

import dataclasses
import sys
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.config import GpuSpec


@dataclasses.dataclass(frozen=True, slots=True)
class LedgerEvent:
    """One memory-ledger operation, kept for the post-run TraceAuditor.

    ``nbytes`` is the bytes the operation moved (requested for ``alloc`` /
    ``resize``, released for ``free`` / ``clear``); ``balance`` is what the
    tag holds afterwards.  A ``free`` with ``nbytes == 0`` on a tag whose
    previous event was also a ``free`` is a double free; a negative
    ``balance`` can only come from a corrupted event stream — both are
    findings of :class:`~repro.analysis.TraceAuditor`.
    """

    op: str  # "alloc" | "free" | "resize" | "clear"
    tag: str
    nbytes: int
    balance: int


class OutOfDeviceMemory(RuntimeError):
    """Raised when an allocation would exceed a device's memory capacity."""

    def __init__(self, device: "SimDevice", tag: str, requested: int) -> None:
        self.device = device
        self.tag = tag
        self.requested = requested
        super().__init__(
            f"OOM on {device!r}: requested {requested} bytes for {tag!r}, "
            f"free {device.memory.free} of {device.memory.capacity}"
        )


class DeviceMemory:
    """Named-allocation memory tracker for one device.

    Allocations are keyed by a string tag (e.g. ``"actor/params"``) so tests
    can assert exactly which buffers exist — the zero-redundancy claim of the
    3D-HybridEngine (Table 2) is checked through this ledger.
    """

    def __init__(self, capacity: int, device: "SimDevice") -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._device = device
        self._allocations: Dict[str, int] = {}
        self.peak_used = 0
        #: Every ledger operation in order, for the TraceAuditor.
        self.events: List[LedgerEvent] = []
        #: Tags that ever held bytes on this device — distinguishes a benign
        #: free of a tag this rank never allocated (e.g. broadcast teardown)
        #: from a genuine double free.
        self.ever_allocated: Set[str] = set()
        #: Optional ``recorder(op, tag)`` callback, wired by the controller
        #: that owns this device's pool so every ledger mutation also lands
        #: in the shared-state access log (race detection, RC5xx).
        self.recorder: Optional[Callable[[str, str], None]] = None

    def _log(self, op: str, tag: str, nbytes: int, balance: int) -> None:
        # the same few tags recur every iteration: keep one str of each
        self.events.append(LedgerEvent(op, sys.intern(tag), nbytes, balance))
        if self.recorder is not None:
            self.recorder(op, tag)

    @property
    def used(self) -> int:
        return sum(self._allocations.values())

    @property
    def free(self) -> int:
        return self.capacity - self.used

    def alloc(self, tag: str, nbytes: int) -> None:
        """Allocate ``nbytes`` under ``tag``; adds to any existing allocation."""
        if nbytes < 0:
            raise ValueError(f"cannot allocate negative bytes: {nbytes}")
        if nbytes > self.free:
            raise OutOfDeviceMemory(self._device, tag, nbytes)
        self._allocations[tag] = self._allocations.get(tag, 0) + nbytes
        self.peak_used = max(self.peak_used, self.used)
        if nbytes > 0:
            self.ever_allocated.add(tag)
        self._log("alloc", tag, nbytes, self._allocations[tag])

    def free_tag(self, tag: str) -> int:
        """Release everything under ``tag``; returns the bytes released."""
        released = self._allocations.pop(tag, 0)
        self._log("free", tag, released, 0)
        return released

    def resize(self, tag: str, nbytes: int) -> None:
        """Set the allocation under ``tag`` to exactly ``nbytes``."""
        if nbytes < 0:
            raise ValueError(f"cannot resize to negative bytes: {nbytes}")
        current = self._allocations.get(tag, 0)
        if nbytes - current > self.free:
            raise OutOfDeviceMemory(self._device, tag, nbytes - current)
        if nbytes == 0:
            self._allocations.pop(tag, None)
        else:
            self._allocations[tag] = nbytes
            self.ever_allocated.add(tag)
        self.peak_used = max(self.peak_used, self.used)
        self._log("resize", tag, nbytes, nbytes)

    def bytes_for(self, tag: str) -> int:
        return self._allocations.get(tag, 0)

    def tags(self) -> Iterator[Tuple[str, int]]:
        return iter(sorted(self._allocations.items()))

    def reset_peak(self) -> None:
        self.peak_used = self.used

    def clear(self) -> None:
        """Drop every allocation (device failed or its workers were torn down).

        ``peak_used`` is kept — it is a historical high-water mark."""
        for tag, nbytes in sorted(self._allocations.items()):
            self._log("clear", tag, nbytes, 0)
        self._allocations.clear()

    def __repr__(self) -> str:
        return (
            f"DeviceMemory(used={self.used}, free={self.free}, "
            f"capacity={self.capacity})"
        )


class SimDevice:
    """One simulated GPU: identity, machine locality, memory ledger."""

    def __init__(self, global_rank: int, machine: int, spec: GpuSpec) -> None:
        self.global_rank = global_rank
        self.machine = machine
        self.spec = spec
        self.memory = DeviceMemory(spec.memory_bytes, self)
        #: Accumulated simulated busy time (seconds), used for utilisation
        #: reports in the runtime layer.
        self.busy_time = 0.0
        #: False once the device has been killed by fault injection; dead
        #: devices are never allocatable again and their memory is gone.
        self.alive = True
        #: Simulated time of death, when a clock was available.
        self.failed_at: "float | None" = None

    def occupy(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"negative busy time: {seconds}")
        self.busy_time += seconds

    def fail(self, at_time: "float | None" = None) -> None:
        """Kill the device: contents lost, permanently unallocatable."""
        self.alive = False
        self.failed_at = at_time
        self.memory.clear()

    def __repr__(self) -> str:
        state = "" if self.alive else ", DEAD"
        return f"SimDevice(rank={self.global_rank}, machine={self.machine}{state})"
