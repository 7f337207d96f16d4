"""Paged KV-cache block manager (the vLLM [36] discipline, simulated).

The paper's generation stage "leverages vLLM's continuous batching and paged
KV-cache memory management" (§2.3): instead of reserving a contiguous
``max_seq_len`` KV region per slot, the cache is carved into fixed-size
*blocks* of ``block_size`` token positions, and every sequence holds a block
table that grows one block at a time as it decodes.  Fragmentation drops
from per-sequence worst-case to at most one partial block per sequence, so
many more sequences fit the same device memory.

This manager tracks the *accounting* half of that design exactly: a free
pool of block ids, per-request block tables, reserve/release, and a charge
against a :class:`repro.cluster.SimDevice` memory ledger under a named tag —
so block exhaustion and simulated-device OOM are the same budget viewed at
two granularities.  The token payloads themselves live in the server's one
:class:`repro.models.tinylm.KVStore` (a slot per running request, written in
place); the block manager decides *whether they may exist*, which is all the
scheduler needs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cluster.device import SimDevice
from repro.models.tinylm import TinyLMConfig

#: numpy float64 — the repo-wide model dtype.
DTYPE_BYTES = 8


class BlockExhausted(RuntimeError):
    """Raised when a reservation cannot be satisfied from the free pool."""

    def __init__(self, requested: int, free: int, total: int) -> None:
        self.requested = requested
        self.free = free
        self.total = total
        super().__init__(
            f"KV block pool exhausted: requested {requested} blocks, "
            f"{free} free of {total}"
        )


def kv_bytes_per_token(config: TinyLMConfig, dtype_bytes: int = DTYPE_BYTES) -> int:
    """Bytes of K+V cache one token position costs across all layers."""
    return 2 * config.n_layers * config.n_heads * config.head_dim * dtype_bytes


class PagedKVCache:
    """Fixed-size KV block pool with per-request block tables.

    Args:
        config: Model architecture (fixes the per-token KV footprint).
        block_size: Token positions per block.
        n_blocks: Total blocks in the pool.
        device: Optional simulated device; when given, ``blocks_in_use *
            bytes_per_block`` is charged to its memory ledger under ``tag``
            after every reserve/release, so the pool shows up in the same
            OOM accounting as params/grads/optimizer state.
        tag: Ledger tag for the charge.
    """

    def __init__(
        self,
        config: TinyLMConfig,
        block_size: int = 16,
        n_blocks: int = 64,
        device: Optional[SimDevice] = None,
        tag: str = "serving/kv_blocks",
    ) -> None:
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        if n_blocks < 1:
            raise ValueError(f"n_blocks must be >= 1, got {n_blocks}")
        self.config = config
        self.block_size = block_size
        self.n_blocks = n_blocks
        self.bytes_per_block = kv_bytes_per_token(config) * block_size
        self.device = device
        self.tag = tag
        # pop() hands out low block ids first — deterministic tables
        self._free: List[int] = list(range(n_blocks - 1, -1, -1))
        self._tables: Dict[int, List[int]] = {}
        #: Tables holding each block in use: a prompt's full blocks are
        #: held by every request of that prompt (vLLM's prefix sharing).
        self._refs: Dict[int, int] = {}
        #: Prompt key -> the full blocks of that prompt, while held.
        self._prefixes: Dict[bytes, List[int]] = {}
        self.peak_blocks_in_use = 0

    # -- queries ---------------------------------------------------------------------

    @property
    def blocks_in_use(self) -> int:
        return self.n_blocks - len(self._free)

    @property
    def blocks_free(self) -> int:
        return len(self._free)

    def bytes_in_use(self) -> int:
        return self.blocks_in_use * self.bytes_per_block

    def peak_bytes_in_use(self) -> int:
        return self.peak_blocks_in_use * self.bytes_per_block

    def blocks_needed(self, n_tokens: int) -> int:
        """Blocks covering ``n_tokens`` cached positions (ceiling division)."""
        if n_tokens < 0:
            raise ValueError(f"n_tokens must be >= 0, got {n_tokens}")
        return -(-n_tokens // self.block_size)

    def block_table(self, request_id: int) -> List[int]:
        """The request's current block ids (copy; empty when unknown)."""
        return list(self._tables.get(request_id, ()))

    def _adopted(
        self, request_id: int, prefix: Optional[Tuple[bytes, int]]
    ) -> List[int]:
        """The shared blocks a request holding nothing yet would start its
        table with: those of its prompt ``prefix = (key, length)``."""
        if prefix is None or request_id in self._tables:
            return []
        return self._prefixes.get(prefix[0], [])

    def can_reserve(
        self,
        request_id: int,
        n_tokens: int,
        prefix: Optional[Tuple[bytes, int]] = None,
    ) -> bool:
        """Whether growing the request's table to ``n_tokens`` would succeed."""
        held = len(self._tables.get(request_id, ())) or len(
            self._adopted(request_id, prefix)
        )
        return self.blocks_needed(n_tokens) - held <= len(self._free)

    # -- mutation --------------------------------------------------------------------

    def reserve(
        self,
        request_id: int,
        n_tokens: int,
        prefix: Optional[Tuple[bytes, int]] = None,
    ) -> None:
        """Grow the request's block table to cover ``n_tokens`` positions.

        Idempotent for already-covered lengths; raises
        :class:`BlockExhausted` (leaving state untouched) when the free pool
        cannot supply the extra blocks.  ``prefix = (key, length)``: the
        request starts with that prompt.  A request holding nothing yet
        shares the prompt's full blocks with the requests that hold them,
        or, when none does, offers its own to the next one.
        """
        adopted = self._adopted(request_id, prefix)
        table = self._tables.setdefault(request_id, [])
        extra = self.blocks_needed(n_tokens) - len(table) - len(adopted)
        if extra <= 0 and not adopted:
            return
        if extra > len(self._free):
            raise BlockExhausted(extra, len(self._free), self.n_blocks)
        for block in adopted:
            self._refs[block] += 1
        table.extend(adopted)
        for _ in range(extra):
            block = self._free.pop()
            self._refs[block] = 1
            table.append(block)
        if prefix is not None and not adopted:
            full = prefix[1] // self.block_size
            if full and prefix[0] not in self._prefixes:
                self._prefixes[prefix[0]] = table[:full]
        self._charge()

    def release(self, request_id: int) -> int:
        """Drop the request's table; blocks no other table holds go back to
        the pool.  Returns the count that did."""
        freed = []
        for block in reversed(self._tables.pop(request_id, [])):
            self._refs[block] -= 1
            if not self._refs[block]:
                del self._refs[block]
                freed.append(block)
        self._free.extend(freed)
        if freed:
            # a prompt whose blocks went back to the pool is shared no more
            for key, blocks in list(self._prefixes.items()):
                if blocks[0] not in self._refs:
                    del self._prefixes[key]
        self._charge()
        return len(freed)

    def check_invariants(self) -> None:
        """Raise ``AssertionError`` if tables, counts and the pool disagree:
        every block is free or held, and counted once per table holding it."""
        held: Dict[int, int] = {}
        for table in self._tables.values():
            assert len(set(table)) == len(table), f"table {table} repeats a block"
            for block in table:
                held[block] = held.get(block, 0) + 1
        assert held == self._refs, f"refs {self._refs} vs tables {held}"
        assert sorted(list(held) + self._free) == list(range(self.n_blocks))
        for key, blocks in self._prefixes.items():
            assert all(block in held for block in blocks), f"prefix {blocks} freed"

    def _charge(self) -> None:
        self.peak_blocks_in_use = max(self.peak_blocks_in_use, self.blocks_in_use)
        if self.device is not None:
            self.device.memory.resize(self.tag, self.bytes_in_use())

    def __repr__(self) -> str:
        return (
            f"PagedKVCache({self.blocks_in_use}/{self.n_blocks} blocks in "
            f"use, block_size={self.block_size}, "
            f"{len(self._tables)} tables)"
        )
