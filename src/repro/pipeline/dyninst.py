"""Dynamic (in-flight) instruction state."""

from __future__ import annotations

from typing import Optional

from repro.frontend.branch import PredictorCheckpoint
from repro.isa.instruction import Instruction
from repro.rename.regfile import PhysReg


class DynInst:
    """One instruction as it flows through the out-of-order pipeline.

    Fields are grouped by the stage that populates them; ``seq`` is a
    global fetch-order sequence number used for age comparisons (within
    one thread it is program/predicted-path order).
    """

    __slots__ = (
        # fetch
        "seq", "tid", "pc", "instr", "pred_taken", "pred_next_pc",
        "pred_cp",
        # rename
        "p_rs1", "p_rs2", "pdst", "prev_pdst", "dest_key", "ctx_delta",
        # scheduling
        "n_unready", "in_iq", "issued", "done", "squashed", "committed",
        # execution ("result" is a load's data: an ALU result goes
        # straight to the destination register)
        "result", "mem_addr", "store_val", "actual_taken",
        "actual_target",
        # a load's proof that no older store can match its address
        # (see Pipeline._service_pending_loads)
        "lsq_clear",
    )

    pred_cp: Optional[PredictorCheckpoint]
    p_rs1: Optional[PhysReg]
    p_rs2: Optional[PhysReg]
    pdst: Optional[PhysReg]
    prev_pdst: Optional[PhysReg]
    result: float
    mem_addr: Optional[int]
    store_val: float
    actual_target: Optional[int]

    def __init__(self, seq: int, tid: int, pc: int,
                 instr: Instruction) -> None:
        self.reinit(seq, tid, pc, instr)

    def reinit(self, seq: int, tid: int, pc: int,
               instr: Instruction) -> None:
        """(Re)set every field to freshly-fetched state.

        Factored out of ``__init__`` so the pipeline can recycle retired
        instances through an object pool instead of allocating a new
        object per fetched instruction.  Every slot is one more store
        per fetched instruction, wrong-path ones included, so a field
        nothing reads does not get a slot.
        """
        self.seq = seq
        self.tid = tid
        self.pc = pc
        self.instr = instr
        self.pred_next_pc = pc + 1
        # The rest are constants, reset by unpacking one constant tuple:
        # two bytecodes a field instead of three, per fetched
        # instruction.  Each line of names pairs with a line of values.
        (self.pred_taken, self.pred_cp,
         self.p_rs1, self.p_rs2, self.pdst, self.prev_pdst, self.dest_key,
         self.ctx_delta,
         self.n_unready, self.in_iq, self.issued, self.done, self.squashed,
         self.committed,
         self.result, self.mem_addr, self.store_val, self.actual_taken,
         self.actual_target,
         self.lsq_clear) = (
            False, None,
            None, None, None, None, None,
            0,
            0, False, False, False, False,
            False,
            0, None, 0, False,
            None,
            False)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        flags = "".join(c for c, f in (
            ("I", self.issued), ("D", self.done), ("C", self.committed),
            ("X", self.squashed)) if f)
        return (f"<#{self.seq} t{self.tid} pc={self.pc} "
                f"{self.instr.disassemble()} {flags}>")
