"""Process groups and traffic accounting for simulated collectives.

A :class:`ProcessGroup` is an ordered list of global device ranks, exactly as
in NCCL/Megatron: "group rank" ``i`` is the i-th entry.  A
:class:`TrafficMeter` records the bytes each collective moved so tests and
benchmarks can verify the communication-volume algebra of Table 2 against the
functional implementation.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple


class TrafficMeter:
    """Accumulates communication volume per (group name, op) pair."""

    def __init__(self) -> None:
        self._bytes: Dict[Tuple[str, str], int] = {}
        #: Per-global-rank bytes sent (counting each rank's outgoing share).
        self._rank_bytes: Dict[int, int] = {}

    def record(self, group: "ProcessGroup", op: str, bytes_per_rank: int) -> None:
        if bytes_per_rank < 0:
            raise ValueError(f"negative traffic: {bytes_per_rank}")
        key = (group.name, op)
        self._bytes[key] = self._bytes.get(key, 0) + bytes_per_rank * group.size
        for rank in group.ranks:
            self._rank_bytes[rank] = self._rank_bytes.get(rank, 0) + bytes_per_rank

    def total_bytes(self) -> int:
        return sum(self._bytes.values())

    def bytes_for(self, group_name: str, op: Optional[str] = None) -> int:
        return sum(
            v
            for (g, o), v in self._bytes.items()
            if g == group_name and (op is None or o == op)
        )

    def bytes_for_rank(self, rank: int) -> int:
        return self._rank_bytes.get(rank, 0)

    def reset(self) -> None:
        self._bytes.clear()
        self._rank_bytes.clear()

    def snapshot(self) -> Dict[Tuple[str, str], int]:
        return dict(self._bytes)


def ring_all_gather_bytes(total_bytes: int, group_size: int) -> int:
    """Per-rank bytes a ring all-gather (or reduce-scatter) of ``total_bytes`` moves."""
    return (group_size - 1) * total_bytes // group_size


class ProcessGroup:
    """An ordered set of global ranks participating in collectives together."""

    def __init__(
        self,
        ranks: Sequence[int],
        name: str = "group",
        meter: Optional[TrafficMeter] = None,
    ) -> None:
        if not ranks:
            raise ValueError("a ProcessGroup needs at least one rank")
        if len(set(ranks)) != len(ranks):
            raise ValueError(f"duplicate ranks in group {name!r}: {list(ranks)}")
        self.ranks: List[int] = list(ranks)
        self.name = name
        self.meter = meter

    @property
    def size(self) -> int:
        return len(self.ranks)

    def group_rank_of(self, global_rank: int) -> int:
        """Position of ``global_rank`` within this group."""
        try:
            return self.ranks.index(global_rank)
        except ValueError:
            raise ValueError(
                f"rank {global_rank} is not in group {self.name!r} {self.ranks}"
            ) from None

    def contains(self, global_rank: int) -> bool:
        return global_rank in self.ranks

    def record_traffic(self, op: str, bytes_per_rank: int) -> None:
        if self.meter is not None:
            self.meter.record(self, op, bytes_per_rank)

    def __len__(self) -> int:
        return len(self.ranks)

    def __iter__(self):
        return iter(self.ranks)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ProcessGroup) and self.ranks == other.ranks

    def __hash__(self) -> int:
        return hash(tuple(self.ranks))

    def __repr__(self) -> str:
        return f"ProcessGroup({self.name!r}, ranks={self.ranks})"


class GroupCache:
    """Memoizes :class:`ProcessGroup` construction by group name.

    Topology group lookups (``tp_group``, ``micro_dp_group``, ...) are pure
    functions of the topology geometry, yet the hot paths — every worker of
    every transition, every collective bind — used to recompute the member
    scan and rebuild the group object on each call.  A cache instance lives
    on one topology, so a group's fully-qualified name (which encodes the
    topology name and the group's coordinates) uniquely determines its
    ranks; ``get_or_build`` therefore skips the rank computation entirely
    on a hit.  Callers must treat cached groups as immutable, which every
    collective already does.
    """

    def __init__(self) -> None:
        self._groups: Dict[str, ProcessGroup] = {}
        self.hits = 0
        self.misses = 0

    def get_or_build(
        self,
        name: str,
        ranks_fn: Callable[[], Sequence[int]],
        meter: Optional[TrafficMeter] = None,
    ) -> ProcessGroup:
        """The cached group for ``name``, building via ``ranks_fn`` on miss."""
        group = self._groups.get(name)
        if group is not None:
            self.hits += 1
            return group
        self.misses += 1
        group = ProcessGroup(list(ranks_fn()), name=name, meter=meter)
        self._groups[name] = group
        return group

    def stats(self) -> Dict[str, int]:
        return {
            "size": len(self._groups),
            "hits": self.hits,
            "misses": self.misses,
        }

    def clear(self) -> None:
        self._groups.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._groups)


def partition_problems(
    groups: Iterable["ProcessGroup"], universe: Sequence[int]
) -> List[str]:
    """Why a family of groups fails to partition ``universe``, if it does.

    A collective's group family (all TP groups, all micro-DP groups, ...)
    must be a true partition of the pool's ranks: every rank in exactly one
    group, no stray ranks.  Returns human-readable problem strings, empty
    when the family is a partition — the basis of the ``SH404`` rule.
    """
    problems: List[str] = []
    seen: Dict[int, str] = {}
    universe_set = set(universe)
    for group in groups:
        for rank in group.ranks:
            if rank not in universe_set:
                problems.append(
                    f"group {group.name!r} contains rank {rank}, which is "
                    f"outside the pool's ranks"
                )
            if rank in seen:
                problems.append(
                    f"rank {rank} appears in both {seen[rank]!r} and "
                    f"{group.name!r}"
                )
            else:
                seen[rank] = group.name
    missing = sorted(universe_set - set(seen))
    if missing:
        problems.append(f"ranks {missing} are covered by no group")
    return problems
