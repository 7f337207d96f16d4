"""A single simulated accelerator with explicit memory accounting.

Out-of-memory behaviour drives several of the paper's design decisions
(colocated models execute sequentially to avoid OOM, §2.3; the auto-mapping
algorithm's ``get_min_alloc`` rejects allocations that would OOM, §6), so the
simulated device tracks every named allocation and raises
:class:`OutOfDeviceMemory` exactly when capacity would be exceeded.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Set, Tuple

from repro.config import GpuSpec


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
        #: Tags that ever held bytes on this device — distinguishes a benign
        #: free of a tag this rank never allocated (e.g. broadcast teardown)
        #: from a genuine double free.
        self.ever_allocated: Set[str] = set()
        #: Tags whose last ledger operation was a free.
        self._freed: Set[str] = set()
        #: Each free of an allocated tag already freed with no allocation in
        #: between, in order — ``TA204`` of the TraceAuditor.
        self.double_frees: List[str] = []

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
        self._freed.discard(tag)

    def free_tag(self, tag: str) -> int:
        """Release everything under ``tag``; returns the bytes released."""
        released = self._allocations.pop(tag, 0)
        if tag in self._freed and tag in self.ever_allocated:
            self.double_frees.append(tag)
        self._freed.add(tag)
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
        self._freed.discard(tag)

    def bytes_for(self, tag: str) -> int:
        return self._allocations.get(tag, 0)

    def tags(self) -> Iterator[Tuple[str, int]]:
        return iter(sorted(self._allocations.items()))

    def reset_peak(self) -> None:
        self.peak_used = self.used

    def clear(self) -> None:
        """Drop every allocation (device failed or its workers were torn down).

        ``peak_used`` is kept — it is a historical high-water mark."""
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
