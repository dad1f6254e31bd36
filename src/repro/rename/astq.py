"""Architectural state transfer queue (Section 2.2.2).

Spill and fill operations have simpler requirements than program loads
and stores — addresses are known at rename, they need no memory
disambiguation, and they never depend on regular instructions — so VCA
routes them through a small dedicated FIFO instead of the instruction
and load/store queues.  ASTQ entries issue opportunistically: each
cycle, data-cache ports left over after ready program loads and stores
go to the head of the ASTQ.

A fill holds a reference on its target physical register until the
data arrives (the hardware pinning rule), and a spill captures its
value at creation — legal because committed register values are
immutable until the register is freed.  Spill data is applied to the
backing memory at *issue* so that a later fill of the same address
(which the FIFO guarantees issues no earlier) always observes it.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, List, Optional

from repro.mem.hierarchy import MemoryHierarchy

from .regfile import PhysReg, PhysRegFile


class AstqOp:
    """One spill or fill in the ASTQ."""

    __slots__ = ("kind", "addr", "preg", "value", "queued_at",
                 "complete_at")

    def __init__(self, kind: str, addr: int,
                 preg: Optional[PhysReg] = None,
                 value: float = 0) -> None:
        self.kind = kind          # "spill" or "fill"
        self.addr = addr
        self.preg = preg          # fill target (None for spills)
        self.value = value        # spill data
        self.queued_at = 0
        self.complete_at: Optional[int] = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{self.kind} @{self.addr:#x}>"


class ASTQ:
    """FIFO of pending spills/fills with per-cycle write limits."""

    def __init__(self, size: int, writes_per_cycle: int,
                 hierarchy: MemoryHierarchy, regfile: PhysRegFile) -> None:
        self.size = size
        self.writes_per_cycle = writes_per_cycle
        self.hierarchy = hierarchy
        self.regfile = regfile
        self.queue: deque[AstqOp] = deque()
        self.in_flight: List[AstqOp] = []
        self._writes_this_cycle = 0
        self._writes_at_instr_start = 0
        self._queue_at_instr_start = 0
        self.now = 0
        self.spills = 0
        self.fills = 0

    def begin_cycle(self) -> None:
        self._writes_this_cycle = 0
        self.now += 1

    def head_age(self) -> int:
        """Cycles the head entry has waited for a cache port.

        ASTQ operations normally take only ports left over by program
        loads and stores, but an in-flight instruction pinned behind a
        starving fill would block the ROB head indefinitely on a
        port-saturated machine; the pipeline promotes the ASTQ head
        once its age passes a small threshold.
        """
        if not self.queue:
            return 0
        return self.now - self.queue[0].queued_at

    # -- rename-side interface -------------------------------------------
    def begin_instruction(self) -> None:
        """Mark the start of one instruction's rename (see
        :meth:`can_write`)."""
        self._writes_at_instr_start = self._writes_this_cycle
        self._queue_at_instr_start = len(self.queue)

    def can_write(self, n_ops: int) -> bool:
        """Whether rename may enqueue ``n_ops`` more operations.

        An instruction can require more operations than the per-cycle
        write budget (two fills that each evict a dirty victim, plus a
        dirty destination eviction).  Hardware would sequence these
        over several cycles with rename stalled; we approximate by
        letting an instruction that found the budget and queue empty
        burst past both limits — the queue drains at the same average
        rate either way, and per-op limits would livelock the rename
        stage on such instructions.
        """
        if n_ops == 0:
            return True
        budget_ok = (self._writes_this_cycle + n_ops <= self.writes_per_cycle
                     or self._writes_at_instr_start == 0)
        room_ok = (len(self.queue) + n_ops <= self.size
                   or self._queue_at_instr_start == 0)
        return budget_ok and room_ok

    def push_spill(self, addr: int, value: float) -> AstqOp:
        op = AstqOp("spill", addr, value=value)
        self._push(op)
        self.spills += 1
        return op

    def push_fill(self, addr: int, preg: PhysReg) -> AstqOp:
        # The outstanding fill pins its target register.
        preg.refcount += 1
        op = AstqOp("fill", addr, preg=preg)
        self._push(op)
        self.fills += 1
        return op

    def _push(self, op: AstqOp) -> None:
        op.queued_at = self.now
        self.queue.append(op)
        self._writes_this_cycle += 1

    def unpush(self, op: AstqOp) -> None:
        """Rollback of the most recent push (rename-stall undo path)."""
        popped = self.queue.pop()
        if popped is not op:
            raise RuntimeError("ASTQ rollback out of order")
        self._writes_this_cycle -= 1
        if op.kind == "fill":
            op.preg.refcount -= 1

    # -- issue side ---------------------------------------------------------
    def issue_head(self, now: int) -> bool:
        """Issue the head entry using one (already acquired) DL1 port."""
        if not self.queue:
            return False
        op = self.queue.popleft()
        is_write = op.kind == "spill"
        latency = self.hierarchy.dl1_access(op.addr, write=is_write,
                                            kind=op.kind)
        op.complete_at = now + latency
        if is_write:
            # Data lands now; see module docstring for why this is safe.
            self.hierarchy.write_word(op.addr, op.value)
        self.in_flight.append(op)
        return True

    def tick(self, now: int,
             wakeup: Callable[[PhysReg], None]) -> None:
        """Complete in-flight operations whose latency has elapsed."""
        if not self.in_flight:
            return
        still = []
        for op in self.in_flight:
            if op.complete_at <= now:
                if op.kind == "fill":
                    preg = op.preg
                    if not preg.doomed:
                        preg.value = self.hierarchy.read_word(op.addr)
                        preg.ready = True
                        preg.committed = True
                        preg.dirty = False
                        preg.from_fill = True
                        wakeup(preg)
                    self.regfile.unpin(preg)
            else:
                still.append(op)
        self.in_flight = still

    @property
    def busy(self) -> bool:
        return bool(self.queue or self.in_flight)
