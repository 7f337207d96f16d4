"""``DataBatch``: a dict of equal-length numpy arrays plus metadata.

This is the reproduction's TensorDict / verl ``DataProto``: every edge of the
RLHF dataflow carries one of these.  Transfer protocols split it across DP
ranks (``split``/``chunk``) and reassemble worker outputs (``concat``); RLHF
stages extend it in place-ish style via ``union`` (each stage adds its
columns: responses, then values, log-probs, rewards, then advantages).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

#: Meta key carrying the execution-trace records that produced this batch's
#: columns (dataflow lineage).  Merged on union/concat; consumed by the
#: timeline scheduler to rebuild the dependency DAG.
LINEAGE_KEY = "_lineage"


def merge_lineage(*metas: Mapping[str, Any]) -> tuple:
    seqs = set()
    for meta in metas:
        seqs.update(meta.get(LINEAGE_KEY, ()))
    return tuple(sorted(seqs))


class IndivisibleBatchError(ValueError):
    """:meth:`DataBatch.chunk` refused: ``size`` rows do not split into
    ``n_chunks`` equal parts (the SF703 witness)."""

    def __init__(self, size: int, n_chunks: int) -> None:
        super().__init__(f"batch size {size} not divisible into {n_chunks} chunks")
        self.size, self.n_chunks = size, n_chunks


class DataBatch:
    """Named arrays sharing a leading batch dimension, plus free-form meta."""

    def __init__(
        self,
        tensors: Optional[Mapping[str, np.ndarray]] = None,
        meta: Optional[Mapping[str, Any]] = None,
    ) -> None:
        self.tensors: Dict[str, np.ndarray] = {}
        self.meta: Dict[str, Any] = dict(meta or {})
        for name, arr in (tensors or {}).items():
            self[name] = arr

    # -- mapping interface -------------------------------------------------------

    def __setitem__(self, name: str, arr: np.ndarray) -> None:
        arr = np.asarray(arr)
        if arr.ndim == 0:
            raise ValueError(f"column {name!r} must have a batch dimension")
        if self.tensors:
            expected = self.batch_size
            if arr.shape[0] != expected:
                raise ValueError(
                    f"column {name!r} has batch {arr.shape[0]}, expected {expected}"
                )
        self.tensors[name] = arr

    def __getitem__(self, name: str) -> np.ndarray:
        try:
            return self.tensors[name]
        except KeyError:
            raise KeyError(
                f"no column {name!r}; have {sorted(self.tensors)}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self.tensors

    def keys(self) -> Iterable[str]:
        return self.tensors.keys()

    @property
    def batch_size(self) -> int:
        if not self.tensors:
            raise ValueError("empty DataBatch has no batch size")
        return next(iter(self.tensors.values())).shape[0]

    def __len__(self) -> int:
        return self.batch_size

    def nbytes(self) -> int:
        return sum(a.nbytes for a in self.tensors.values())

    # -- restructuring -------------------------------------------------------------

    def select(self, names: Sequence[str]) -> "DataBatch":
        """A new batch with only the given columns (arrays shared)."""
        return DataBatch({n: self[n] for n in names}, meta=self.meta)

    def union(self, other: "DataBatch") -> "DataBatch":
        """Merge columns; colliding names must be identical arrays."""
        merged = dict(self.tensors)
        for name, arr in other.tensors.items():
            if name in merged and not np.array_equal(merged[name], arr):
                raise ValueError(f"union conflict on column {name!r}")
            merged[name] = arr
        meta = dict(self.meta)
        meta.update(other.meta)
        lineage = merge_lineage(self.meta, other.meta)
        if lineage:
            meta[LINEAGE_KEY] = lineage
        return DataBatch(merged, meta=meta)

    def slice(self, start: int, stop: int) -> "DataBatch":
        return DataBatch(
            {n: a[start:stop] for n, a in self.tensors.items()}, meta=self.meta
        )

    def chunk(self, n_chunks: int) -> List["DataBatch"]:
        """Split into ``n_chunks`` equal parts (batch must divide evenly)."""
        if n_chunks < 1:
            raise ValueError(f"n_chunks must be >= 1, got {n_chunks}")
        size = self.batch_size
        if size % n_chunks:
            raise IndivisibleBatchError(size, n_chunks)
        per = size // n_chunks
        return [self.slice(i * per, (i + 1) * per) for i in range(n_chunks)]

    @staticmethod
    def concat(batches: Sequence["DataBatch"]) -> "DataBatch":
        """Concatenate along the batch dimension; column sets must match."""
        if not batches:
            raise ValueError("nothing to concat")
        names = set(batches[0].tensors)
        for b in batches[1:]:
            if set(b.tensors) != names:
                raise ValueError(
                    f"concat column mismatch: {sorted(names)} vs "
                    f"{sorted(b.tensors)}"
                )
        meta: Dict[str, Any] = {}
        for b in batches:
            meta.update(b.meta)
        lineage = merge_lineage(*(b.meta for b in batches))
        if lineage:
            meta[LINEAGE_KEY] = lineage
        return DataBatch(
            {
                n: np.concatenate([b.tensors[n] for b in batches], axis=0)
                for n in batches[0].tensors
            },
            meta=meta,
        )

    def repeat(self, times: int) -> "DataBatch":
        """Repeat every row ``times`` times (GRPO's n-samples-per-prompt)."""
        if times < 1:
            raise ValueError(f"times must be >= 1, got {times}")
        return DataBatch(
            {n: np.repeat(a, times, axis=0) for n, a in self.tensors.items()},
            meta=self.meta,
        )

    def shuffle(self, rng: np.random.Generator) -> "DataBatch":
        """Row-permuted copy (PPO minibatch shuffling between epochs)."""
        perm = rng.permutation(self.batch_size)
        return DataBatch(
            {n: a[perm] for n, a in self.tensors.items()}, meta=self.meta
        )

    def copy(self) -> "DataBatch":
        return DataBatch(
            {n: a.copy() for n, a in self.tensors.items()}, meta=dict(self.meta)
        )

    def __repr__(self) -> str:
        cols = {n: tuple(a.shape) for n, a in self.tensors.items()}
        return f"DataBatch({cols})"
