"""The tagged, set-associative VCA rename table (Section 2.1.1).

Unlike a conventional rename map, the VCA table maps registers from a
large sparse address space, so each entry carries a tag (here, the
RSID-compressed key) and a lookup may miss.  Entries whose physical
register is a committed, unpinned cached value are eviction candidates
(LRU within the set); entries pinned by in-flight instructions are
not, and a set full of pinned entries stalls rename.
"""

from __future__ import annotations

from itertools import chain, islice
from operator import attrgetter
from typing import Dict, Iterator, List, Optional, Tuple

from .regfile import PhysReg, PhysRegFile

#: A rename-table key: (rsid, register-space word offset).
Key = Tuple[int, int]

_LAST_USE = attrgetter("last_use")


class VcaRenameTable:
    """Set-associative logical-address -> physical-register map."""

    def __init__(self, n_sets: int, assoc: int, regfile: PhysRegFile) -> None:
        if n_sets & (n_sets - 1):
            raise ValueError("n_sets must be a power of two")
        if assoc < 1:
            raise ValueError("assoc must be >= 1")
        self.n_sets = n_sets
        self.assoc = assoc
        self.regfile = regfile
        # Each set maps key -> register in insertion order, the order
        # victim searches break LRU ties in.
        self._sets: List[Dict[Key, PhysReg]] = [{} for _ in range(n_sets)]
        self._set_mask = n_sets - 1

    # ------------------------------------------------------------------
    def _set_of(self, key: Key) -> Dict[Key, PhysReg]:
        # The index folds in the frame bits (woff >> 6) and the RSID:
        # register-window frames are a whole number of sets apart and
        # different threads use identical register-space offsets, so
        # indexing on the low offset bits alone would alias every
        # window frame and every thread onto the same few sets.
        rsid, woff = key
        idx = (woff ^ (woff >> 6) ^ (rsid * 21)) & self._set_mask
        return self._sets[idx]

    def lookup(self, key: Key) -> Optional[PhysReg]:
        """The register ``key`` maps to, or None.  The rename path
        inlines this probe; while tracing it emits each hit and miss
        as a ``tag_hit``/``tag_miss`` event."""
        return self._set_of(key).get(key)

    # ------------------------------------------------------------------
    def set_mapping(self, key: Key, reg: PhysReg) -> None:
        """Point ``key`` at ``reg``; replaces an existing mapping for
        the same key, otherwise consumes a way (caller ensures room)."""
        s = self._set_of(key)
        old = s.get(key)
        if old is None and len(s) >= self.assoc:
            raise RuntimeError(f"set full for key {key}")
        if old is not None:
            old.in_table = False
        s[key] = reg
        reg.in_table = True

    def remove(self, key: Key) -> None:
        self._set_of(key).pop(key).in_table = False

    def has_room(self, key: Key) -> bool:
        s = self._set_of(key)
        return key in s or len(s) < self.assoc

    def find_set_victim(self, key: Key,
                        exclude: Optional[PhysReg] = None,
                        min_age: int = 0
                        ) -> Optional[Tuple[Key, PhysReg]]:
        """LRU evictable entry in ``key``'s set (cached values only).

        ``exclude`` protects a register the caller is about to use as
        the previous mapping of a destination — evicting it would free
        the value branch recovery still needs.  ``min_age`` protects
        recently used values: a cached register touched within the
        last ``min_age`` cycles is part of the live working set, and
        evicting it would only trigger an immediate refill (the
        fill-evict-fill thrash loop); rename stalls instead.  A set
        holds at most ``assoc`` entries, so a plain scan is cheaper
        here than :meth:`find_global_victim`'s gathering.
        """
        horizon = self.regfile.now - min_age
        best: Optional[Tuple[Key, PhysReg]] = None
        for k, reg in self._set_of(key).items():
            if reg is exclude or reg.last_use > horizon:
                continue
            if reg.cached and (best is None
                               or reg.last_use < best[1].last_use):
                best = k, reg
        return best

    def find_global_victim(self, exclude: Optional[PhysReg] = None,
                           min_age: int = 0
                           ) -> Optional[Tuple[Key, PhysReg]]:
        """LRU evictable entry across the whole table (used when the
        free list is empty but the target set still has room): the
        victim :meth:`find_set_victim`'s scan would pick from one set
        holding every entry, in set order then insertion order.

        Scanning every entry in Python would cost a visit per entry,
        so the entries and their ``last_use`` stamps are gathered by
        C-level iteration and only candidates are tested, oldest first.
        Usually the oldest entry is a cached value and the only one
        tested.
        """
        horizon = self.regfile.now - min_age
        sets = self._sets
        regs = list(chain.from_iterable(map(dict.values, sets)))
        if not regs:
            return None
        uses = list(map(_LAST_USE, regs))
        oldest = min(uses)
        if oldest > horizon:
            return None
        i = uses.index(oldest)
        reg = regs[i]
        if reg is exclude or not reg.cached:
            # Every candidate in last-use order; the sort is stable, so
            # equal stamps stay in set order, then insertion order.
            for i in sorted(range(len(regs)), key=uses.__getitem__):
                reg = regs[i]
                if reg.last_use > horizon:
                    return None
                if reg is not exclude and reg.cached:
                    break
            else:
                return None
        keys = chain.from_iterable(map(dict.keys, sets))
        return next(islice(keys, i, None)), reg

    # ------------------------------------------------------------------
    def entries(self) -> Iterator[Tuple[Key, PhysReg]]:
        for s in self._sets:
            yield from list(s.items())

    def entries_for_rsid(self, rsid: int) -> List[Tuple[Key, PhysReg]]:
        return [(k, r) for k, r in self.entries() if k[0] == rsid]

    @property
    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)

