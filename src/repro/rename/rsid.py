"""Register space identifier (RSID) translation table (Section 2.2.1).

Rename-table tags over a full 64-bit register memory address would be
prohibitively wide, so VCA first translates the upper address bits
through a small fully-associative table into a short RSID; the rename
table is then tagged with the RSID plus the low-order register-space
offset.  When the table is full, the LRU entry is replaced — but only
after every physical register holding a value from that register space
has been flushed to memory (spilled if dirty) and unmapped.
"""

from __future__ import annotations

from itertools import count
from typing import Dict, List, Optional, Tuple


class RsidTable:
    """Fully-associative upper-address -> RSID translation table."""

    def __init__(self, n_entries: int, offset_bits: int) -> None:
        if n_entries < 1:
            raise ValueError("need at least one RSID")
        self.n_entries = n_entries
        self.offset_bits = offset_bits
        self._offset_mask = (1 << offset_bits) - 1
        # rsid -> upper bits; LRU tracked with a use clock.
        self._upper_of: List[Optional[int]] = [None] * n_entries
        self._rsid_of: Dict[int, int] = {}
        self._last_use = [0] * n_entries
        #: The LRU use clock: each call returns the next stamp (1, 2, ...).
        self._tick = count(1).__next__
        self.misses = 0
        self.flushes = 0

    def split(self, addr: int) -> Tuple[int, int]:
        """Split a register memory address into (upper, word offset)."""
        return addr >> self.offset_bits, (addr & self._offset_mask) >> 3

    def split_lookup(self, addr: int) -> Tuple[int, int, Optional[int]]:
        """:meth:`split` and :meth:`lookup` fused for the rename path:
        one call returns (upper, word offset, rsid-or-None)."""
        upper = addr >> self.offset_bits
        rsid = self._rsid_of.get(upper)
        if rsid is not None:
            self._last_use[rsid] = self._tick()
        return upper, (addr & self._offset_mask) >> 3, rsid

    # ------------------------------------------------------------------
    def lookup(self, upper: int) -> Optional[int]:
        """RSID for ``upper``, touching LRU state; None on miss."""
        rsid = self._rsid_of.get(upper)
        if rsid is not None:
            self._last_use[rsid] = self._tick()
        return rsid

    @property
    def has_free(self) -> bool:
        return len(self._rsid_of) < self.n_entries

    def install(self, upper: int) -> int:
        """Allocate a free RSID for ``upper``; table must have room."""
        if not self.has_free:
            raise RuntimeError("RSID table full; flush a victim first")
        if upper in self._rsid_of:
            raise RuntimeError("upper bits already mapped")
        self.misses += 1
        rsid = self._upper_of.index(None)
        self._upper_of[rsid] = upper
        self._rsid_of[upper] = rsid
        self._last_use[rsid] = self._tick()
        return rsid

    def lru_victim(self) -> int:
        """The RSID that would be replaced next (valid entries only)."""
        victims = [(self._last_use[r], r)
                   for r, u in enumerate(self._upper_of) if u is not None]
        return min(victims)[1]

    def evict(self, rsid: int) -> None:
        """Remove ``rsid``; the caller counts real working-set flushes
        (this is also the rollback path for speculative installs)."""
        upper = self._upper_of[rsid]
        if upper is None:
            raise RuntimeError(f"RSID {rsid} not in use")
        del self._rsid_of[upper]
        self._upper_of[rsid] = None
