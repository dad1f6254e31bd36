"""Set-associative write-back cache timing model.

Only tags are modelled: data lives in :class:`repro.mem.memory.MainMemory`.
An access returns the latency the requester observes; misses recurse
into the next level.  Replacement is true LRU per set; dirty victims
are written back to the next level (counted, but — as with a write
buffer — not added to the requester's latency).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.config import CacheConfig


@dataclass
class CacheStats:
    """Per-cache access counters."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    writebacks: int = 0
    #: Accesses broken down by requester kind ("load", "store",
    #: "spill", "fill", "wtrap" for conventional window traps).
    by_kind: Dict[str, int] = field(default_factory=dict)
    #: Misses broken down the same way: which traffic class pays the
    #: miss penalty (spill/fill misses are VCA's overhead traffic).
    miss_by_kind: Dict[str, int] = field(default_factory=dict)

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def count(self, kind: str) -> None:
        self.by_kind[kind] = self.by_kind.get(kind, 0) + 1

    def count_miss(self, kind: str) -> None:
        self.miss_by_kind[kind] = self.miss_by_kind.get(kind, 0) + 1


class Cache:
    """One level of set-associative write-back cache.

    Args:
        name: label used in stats dumps.
        cfg: geometry and hit latency.
        next_level: the cache below this one, or ``None`` for the level
            backed directly by main memory.
        mem_latency: latency charged when ``next_level`` is ``None``.
    """

    def __init__(self, name: str, cfg: CacheConfig,
                 next_level: Optional["Cache"] = None,
                 mem_latency: int = 250) -> None:
        self.name = name
        self.cfg = cfg
        self.next_level = next_level
        self.mem_latency = mem_latency
        self.stats = CacheStats()
        n_sets = cfg.n_sets
        self._set_mask = n_sets - 1
        if n_sets & self._set_mask:
            raise ValueError("number of sets must be a power of two")
        self._idx_bits = self._set_mask.bit_length()
        self._block_shift = cfg.block_bytes.bit_length() - 1
        if (1 << self._block_shift) != cfg.block_bytes:
            raise ValueError("block size must be a power of two")
        self._hit_latency = cfg.hit_latency
        self._assoc = cfg.assoc
        # Each set: ordered list of [tag, dirty]; index 0 = MRU.  Sets
        # are created on first touch: a machine is built per sampled
        # interval, and most of the L2's 4096 sets stay empty in one.
        self._sets: Dict[int, List[List]] = defaultdict(list)

    # ------------------------------------------------------------------
    def access(self, addr: int, write: bool, kind: str = "load") -> int:
        """Access one byte address; returns the observed latency."""
        stats = self.stats
        stats.accesses += 1
        by_kind = stats.by_kind
        by_kind[kind] = by_kind.get(kind, 0) + 1
        block = addr >> self._block_shift
        idx = block & self._set_mask
        tag = block >> self._idx_bits
        ways = self._sets[idx]
        for i, entry in enumerate(ways):
            if entry[0] == tag:
                stats.hits += 1
                if i:
                    ways.insert(0, ways.pop(i))
                if write:
                    ways[0][1] = True
                return self._hit_latency
        # Miss: fetch from below (write-allocate).
        stats.misses += 1
        stats.count_miss(kind)
        below = (self.next_level.access(addr, write=False, kind=kind)
                 if self.next_level is not None else self.mem_latency)
        if len(ways) >= self._assoc:
            victim = ways.pop()
            if victim[1]:
                stats.writebacks += 1
                if self.next_level is not None:
                    # Write-back traffic; latency hidden by the write
                    # buffer but the next level still sees the access.
                    self.next_level.access(
                        self._rebuild_addr(victim[0], idx), write=True,
                        kind="writeback")
        ways.insert(0, [tag, write])
        return self._hit_latency + below

    def _rebuild_addr(self, tag: int, idx: int) -> int:
        return ((tag << self._idx_bits) | idx) << self._block_shift

    def install(self, addrs: Iterable[int]) -> None:
        """Insert each address's block as clean, in order, without
        counting stats.

        A block already present keeps its place (installing does not
        promote it to MRU); a new one goes in as MRU, evicting the LRU
        way of a full set without a writeback.
        Used for warm-start: the paper warms every simulation for 5M
        instructions, which our complete-but-short synthetic runs
        cannot afford; pre-installing each thread's data segment
        removes the cold-miss transient instead.
        """
        shift = self._block_shift
        set_mask = self._set_mask
        idx_bits = self._idx_bits
        assoc = self._assoc
        sets = self._sets
        last = None
        for addr in addrs:
            block = addr >> shift
            if block == last:
                continue  # just installed or found: a no-op
            last = block
            ways = sets[block & set_mask]
            tag = block >> idx_bits
            for entry in ways:
                if entry[0] == tag:
                    break
            else:
                if len(ways) >= assoc:
                    ways.pop()
                ways.insert(0, [tag, False])

    def contains(self, addr: int) -> bool:
        """Tag probe without side effects (testing/diagnostics)."""
        block = addr >> self._block_shift
        idx = block & self._set_mask
        tag = block >> (self._set_mask.bit_length())
        return any(e[0] == tag for e in self._sets.get(idx, ()))

    def flush(self) -> None:
        """Invalidate every block (no writebacks; testing aid)."""
        self._sets.clear()
