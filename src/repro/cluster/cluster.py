"""The simulated cluster: a set of :class:`SimDevice` plus allocation logic.

A :class:`SimCluster` materialises a :class:`~repro.config.ClusterSpec` into
device objects and hands out contiguous :class:`DeviceSet` slices, mirroring
how HybridFlow's ``ResourcePool`` virtualises GPUs (§4.1).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.cluster.device import SimDevice
from repro.config import ClusterSpec


class DeviceSet:
    """An ordered set of devices allocated to one colocated model group."""

    def __init__(self, devices: Sequence[SimDevice], cluster: "SimCluster") -> None:
        if not devices:
            raise ValueError("a DeviceSet needs at least one device")
        ranks = [d.global_rank for d in devices]
        if len(set(ranks)) != len(ranks):
            raise ValueError(f"duplicate device ranks in set: {ranks}")
        self.devices: List[SimDevice] = list(devices)
        self.cluster = cluster

    @property
    def size(self) -> int:
        return len(self.devices)

    @property
    def global_ranks(self) -> List[int]:
        return [d.global_rank for d in self.devices]

    def device(self, local_rank: int) -> SimDevice:
        return self.devices[local_rank]

    def overlaps(self, other: "DeviceSet") -> bool:
        return bool(set(self.global_ranks) & set(other.global_ranks))

    def spans_machines(self) -> int:
        """Number of distinct machines this set touches."""
        return len({d.machine for d in self.devices})

    def min_free_memory(self) -> int:
        return min(d.memory.free for d in self.devices)

    def __iter__(self):
        return iter(self.devices)

    def __len__(self) -> int:
        return len(self.devices)

    def __repr__(self) -> str:
        return f"DeviceSet(ranks={self.global_ranks})"


class SimCluster:
    """All devices of a simulated cluster, with slice-based allocation.

    Allocation is deliberately simple — contiguous rank ranges — because the
    paper assumes homogeneous GPUs and non-overlapping ``ResourcePool``
    instances (§4.1: "We assume no overlap between different ResourcePool
    instances").
    """

    def __init__(self, spec: ClusterSpec) -> None:
        self.spec = spec
        self.devices: List[SimDevice] = [
            SimDevice(rank, spec.machine_of(rank), spec.gpu)
            for rank in range(spec.n_gpus)
        ]
        self._free = set(range(spec.n_gpus))

    @property
    def n_gpus(self) -> int:
        return self.spec.n_gpus

    @property
    def n_alive(self) -> int:
        return sum(1 for d in self.devices if d.alive)

    def device(self, rank: int) -> SimDevice:
        return self.devices[rank]

    def alive_devices(self) -> List[SimDevice]:
        return [d for d in self.devices if d.alive]

    def allocatable_ranks(self) -> List[int]:
        """Free *and* alive ranks, in rank order."""
        return [
            r for r in range(self.n_gpus) if r in self._free and self.devices[r].alive
        ]

    def allocate(self, n_gpus: int) -> DeviceSet:
        """Allocate ``n_gpus`` free, alive devices — contiguous when possible.

        First-fit over contiguous rank spans (the paper assumes homogeneous
        GPUs, so span choice is immaterial to cost); after failures have
        punched holes in the rank space, falls back to the first ``n_gpus``
        allocatable ranks in order.  Raises ``RuntimeError`` when the cluster
        is exhausted; callers (the mapping algorithm) are expected to have
        validated total demand.
        """
        if n_gpus <= 0:
            raise ValueError(f"must allocate a positive GPU count, got {n_gpus}")
        available = self.allocatable_ranks()
        if n_gpus > len(available):
            raise RuntimeError(
                f"cluster exhausted: want {n_gpus} GPUs, "
                f"{len(available)} allocatable of {self.n_gpus}"
            )
        chosen: List[int] = []
        run: List[int] = []
        for rank in range(self.n_gpus):
            if rank in self._free and self.devices[rank].alive:
                run.append(rank)
                if len(run) == n_gpus:
                    chosen = run
                    break
            else:
                run = []
        if not chosen:  # no contiguous span survives; take the first free ranks
            chosen = available[:n_gpus]
        self._free.difference_update(chosen)
        return DeviceSet([self.devices[r] for r in chosen], self)

    def release(self, devices: DeviceSet, clear_memory: bool = True) -> None:
        """Return a set's devices to the free pool (recovery teardown).

        The workers that owned these devices are gone, so by default their
        memory ledgers are wiped; dead devices stay unallocatable.
        """
        for device in devices:
            if clear_memory:
                device.memory.clear()
            self._free.add(device.global_rank)

    def device_set(self, ranks: Iterable[int]) -> DeviceSet:
        """Build a DeviceSet from explicit global ranks (no bookkeeping)."""
        return DeviceSet([self.devices[r] for r in ranks], self)

    def release_all(self) -> None:
        """Forget all allocations (devices keep their memory ledgers)."""
        self._free = set(range(self.n_gpus))

    # -- failure injection (repro.faults) ----------------------------------------------

    def fail_device(self, rank: int, at_time: Optional[float] = None) -> SimDevice:
        """Kill one device; its memory is lost and it never allocates again."""
        device = self.devices[rank]
        device.fail(at_time)
        return device

    def fail_machine(self, machine: int, at_time: Optional[float] = None) -> List[int]:
        """Kill every device on ``machine``; returns the ranks that died now."""
        if not 0 <= machine < self.spec.n_machines:
            raise ValueError(
                f"machine {machine} out of range for {self.spec.n_machines}"
            )
        died = []
        for device in self.devices:
            if device.machine == machine and device.alive:
                device.fail(at_time)
                died.append(device.global_rank)
        return died

    def fail_rack(
        self,
        rack: int,
        machines_per_rack: int = 2,
        at_time: Optional[float] = None,
    ) -> List[int]:
        """Kill every device in one rack — a correlated multi-machine loss.

        Racks are contiguous machine blocks: rack ``r`` covers machines
        ``[r * machines_per_rack, (r + 1) * machines_per_rack)``, clipped to
        the cluster.  Returns the ranks that died now.
        """
        n_racks = self.spec.n_racks(machines_per_rack)
        if not 0 <= rack < n_racks:
            raise ValueError(f"rack {rack} out of range for {n_racks} rack(s)")
        first = rack * machines_per_rack
        died = []
        last = min(first + machines_per_rack, self.spec.n_machines)
        for machine in range(first, last):
            died.extend(self.fail_machine(machine, at_time=at_time))
        return died

    def total_memory_in_use(self) -> int:
        return sum(d.memory.used for d in self.devices)

    def __repr__(self) -> str:
        return (
            f"SimCluster({self.spec.n_machines}x{self.spec.gpus_per_machine} "
            f"{self.spec.gpu.name})"
        )
