"""Physical register file with the Figure-2 state machine.

Each physical register carries the four pieces of state Section 2.1.2
associates with it: the mapped logical-register memory address (if
any), a reference count, a committed bit and a dirty bit.  Registers
with a non-zero reference count are *pinned* and can never be
reallocated; committed, unpinned registers remain allocated as cached
values until they are either overwritten (freed for free when the
overwriting instruction commits) or chosen as LRU replacement victims
(spilled first if dirty).

The conventional rename engine uses only ``value``/``ready`` plus the
free list; the full state machine is exercised by the VCA engine.
"""

from __future__ import annotations

from typing import List, Optional


class PhysReg:
    """One physical register and its VCA management state."""

    __slots__ = ("idx", "value", "ready", "committed", "dirty", "refcount",
                 "laddr", "doomed", "last_use", "in_table", "from_fill",
                 "is_free")

    def __init__(self, idx: int) -> None:
        self.idx = idx
        self.is_free = True
        self.reset()

    def reset(self) -> None:
        self.value: float = 0
        self.ready = False
        self.committed = False
        self.dirty = False
        self.refcount = 0
        #: Logical-register memory address this register caches, or None.
        self.laddr: Optional[int] = None
        #: Set when the overwriting instruction commits: the value is
        #: dead and the register frees as soon as it unpins.
        self.doomed = False
        #: LRU timestamp (monotonic use counter).
        self.last_use = 0
        #: True while a rename-table entry points at this register.
        self.in_table = False
        #: True if the committed value arrived via a fill (state PCD
        #: with D=0) rather than a producing instruction (D=1).
        self.from_fill = False

    @property
    def pinned(self) -> bool:
        return self.refcount > 0

    @property
    def cached(self) -> bool:
        """Unpinned committed value still mapped: the PCD/PCD̄ states
        whose presence provides the register file's caching effect."""
        return self.committed and not self.pinned and not self.doomed

    def state_name(self) -> str:
        """The Figure-2 state label, for diagnostics and tests."""
        p = "P" if self.pinned else "p"
        c = "C" if self.committed else "c"
        d = "D" if self.dirty else "d"
        if not self.pinned and not self.committed and self.laddr is None:
            return "free"
        return p + c + d

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<p{self.idx} {self.state_name()} ref={self.refcount} "
                f"laddr={self.laddr}>")


class PhysRegFile:
    """The pool of physical registers plus the free list."""

    def __init__(self, n_regs: int) -> None:
        if n_regs < 1:
            raise ValueError("need at least one physical register")
        self.n_regs = n_regs
        self.regs: List[PhysReg] = [PhysReg(i) for i in range(n_regs)]
        self._free: List[int] = list(range(n_regs - 1, -1, -1))
        #: Current cycle, advanced by the engine; LRU stamps use it so
        #: recency is wall-clock even while rename is stalled.
        self.now = 0
        self.max_in_use = 0

    # ------------------------------------------------------------------
    @property
    def n_free(self) -> int:
        return len(self._free)

    @property
    def n_in_use(self) -> int:
        return self.n_regs - len(self._free)

    def touch(self, reg: PhysReg) -> None:
        """Record a use for LRU replacement."""
        reg.last_use = self.now

    def alloc(self) -> Optional[PhysReg]:
        """Take a register off the free list, or ``None`` if empty.

        The result is in :meth:`PhysReg.reset` state with ``last_use``
        stamped now.  :meth:`free` and :meth:`unfree` already leave a
        listed register unmapped, unpinned, uncommitted, clean, not
        ready and not doomed, so only the two fields they do not clear
        are reset here (every rename allocates, so the full reset is
        not repeated).
        """
        free = self._free
        if not free:
            return None
        reg = self.regs[free.pop()]
        reg.value = 0
        reg.from_fill = False
        reg.is_free = False
        reg.last_use = self.now
        in_use = self.n_regs - len(free)
        if in_use > self.max_in_use:
            self.max_in_use = in_use
        return reg

    def free(self, reg: PhysReg) -> None:
        """Return a register to the free list.

        The register must be unpinned and must already have been
        unlinked from any rename-table entry.
        """
        if reg.is_free:
            raise RuntimeError(f"double free of register {reg!r}")
        if reg.refcount > 0:  # reg.pinned, inlined: commit frees per insn
            raise RuntimeError(f"freeing pinned register {reg!r}")
        if reg.in_table:
            raise RuntimeError(f"freeing mapped register {reg!r}")
        reg.is_free = True
        reg.laddr = None
        reg.committed = False
        reg.dirty = False
        reg.doomed = False
        reg.ready = False
        self._free.append(reg.idx)

    def unfree(self, reg: PhysReg) -> None:
        """Undo an :meth:`alloc` (rename-stall rollback path)."""
        if reg.is_free:
            raise RuntimeError("register already free")
        self._free.append(reg.idx)
        reg.reset()
        reg.is_free = True

    # ------------------------------------------------------------------
    def unpin(self, reg: PhysReg) -> bool:
        """Drop one reference; frees the register if it was doomed and
        this was the last reference.  Returns True if freed."""
        if reg.refcount <= 0:
            raise RuntimeError(f"refcount underflow on {reg!r}")
        reg.refcount -= 1
        if reg.doomed and reg.refcount == 0:
            self.free(reg)
            return True
        return False

    def check_invariants(self) -> None:
        """Structural sanity checks (used by tests, not the hot loop)."""
        free_set = set(self._free)
        if len(free_set) != len(self._free):
            raise AssertionError("duplicate entries on free list")
        for reg in self.regs:
            if reg.idx in free_set:
                if reg.pinned:
                    raise AssertionError(f"free register pinned: {reg!r}")
            if reg.refcount < 0:
                raise AssertionError(f"negative refcount: {reg!r}")
