"""Pure execution semantics used by the timing model.

Deliberately independent of :mod:`repro.functional.interp` — the two
implementations cross-validate each other in the integration tests.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.functional.interp import MASK64, to_signed
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op


class ExecResult:
    """Outcome of executing one instruction's compute step."""

    __slots__ = ("result", "taken", "target", "mem_addr", "store_val")

    def __init__(self, result: float = 0, taken: bool = False,
                 target: Optional[int] = None,
                 mem_addr: Optional[int] = None,
                 store_val: float = 0) -> None:
        self.result = result
        self.taken = taken
        self.target = target
        self.mem_addr = mem_addr
        self.store_val = store_val


_INT_RR = {
    Op.ADD: lambda a, b: (int(a) + int(b)) & MASK64,
    Op.SUB: lambda a, b: (int(a) - int(b)) & MASK64,
    Op.MUL: lambda a, b: (int(a) * int(b)) & MASK64,
    Op.AND: lambda a, b: int(a) & int(b),
    Op.OR: lambda a, b: int(a) | int(b),
    Op.XOR: lambda a, b: int(a) ^ int(b),
    Op.SLL: lambda a, b: (int(a) << (int(b) & 63)) & MASK64,
    Op.SRL: lambda a, b: int(a) >> (int(b) & 63),
    Op.CMPEQ: lambda a, b: int(a == b),
    Op.CMPLT: lambda a, b: int(to_signed(int(a)) < to_signed(int(b))),
    Op.CMPLE: lambda a, b: int(to_signed(int(a)) <= to_signed(int(b))),
}

_INT_RI = {
    Op.ADDI: lambda a, i: (int(a) + i) & MASK64,
    Op.SUBI: lambda a, i: (int(a) - i) & MASK64,
    Op.MULI: lambda a, i: (int(a) * i) & MASK64,
    Op.ANDI: lambda a, i: int(a) & i,
    Op.ORI: lambda a, i: int(a) | i,
    Op.XORI: lambda a, i: int(a) ^ i,
    Op.SLLI: lambda a, i: (int(a) << (i & 63)) & MASK64,
    Op.SRLI: lambda a, i: int(a) >> (i & 63),
    Op.CMPEQI: lambda a, i: int(int(a) == i),
    Op.CMPLTI: lambda a, i: int(to_signed(int(a)) < i),
}

_FP_RR = {
    Op.FADD: lambda a, b: a + b,
    Op.FSUB: lambda a, b: a - b,
    Op.FMUL: lambda a, b: a * b,
    Op.FDIV: lambda a, b: (a / b) if b else 0.0,
    Op.FCMPLT: lambda a, b: 1.0 if a < b else 0.0,
    Op.FCMPEQ: lambda a, b: 1.0 if a == b else 0.0,
}

_BRANCH_COND = {
    Op.BEQ: lambda v: int(v) == 0,
    Op.BNE: lambda v: int(v) != 0,
    Op.BLT: lambda v: to_signed(int(v)) < 0,
    Op.BGE: lambda v: to_signed(int(v)) >= 0,
    Op.FBEQ: lambda v: v == 0.0,
    Op.FBNE: lambda v: v != 0.0,
}


#: Aligned-64-bit address clamp applied to every effective address.
_ADDR_MASK = MASK64 & ~7


def _build_exec(ins: Instruction):
    """Build the specialized executor closure for one static instruction.

    This is the interned ALU-dispatch cache: the opcode-class dispatch
    (four dict probes plus an if-chain in the worst case) runs once per
    *static* instruction, and every dynamic execution afterwards is a
    single stored-closure call.  Immediates and branch targets are
    captured at build time, so the closure touches the instruction not
    at all.

    The closure returns a bare value shaped by the instruction's class,
    so executing builds no result object: a load's effective address,
    a store's ``(address, data)``, a control instruction's ``(result,
    taken, target)`` with ``target`` the next PC either way, and
    anything else its result.  :func:`execute` wraps the value in an
    :class:`ExecResult`.
    """
    op = ins.op
    fn = _INT_RR.get(op)
    if fn is not None:
        return lambda v1, v2, pc, _f=fn: _f(v1, v2)
    fn = _INT_RI.get(op)
    if fn is not None:
        return lambda v1, v2, pc, _f=fn, _i=ins.imm: _f(v1, _i)
    fn = _FP_RR.get(op)
    if fn is not None:
        return lambda v1, v2, pc, _f=fn: _f(v1, v2)
    cond = _BRANCH_COND.get(op)
    if cond is not None:
        def _branch(v1, v2, pc, _c=cond, _t=ins.target):
            if _c(v1):
                return 0, True, _t
            return 0, False, pc + 1
        return _branch
    if op is Op.LDI:
        return lambda v1, v2, pc, _r=ins.imm & MASK64: _r
    if ins.is_load:
        return lambda v1, v2, pc, _i=ins.imm: (int(v1) + _i) & _ADDR_MASK
    if ins.is_store:
        return lambda v1, v2, pc, _i=ins.imm: \
            ((int(v1) + _i) & _ADDR_MASK, v2)
    if op is Op.BR:
        return lambda v1, v2, pc, _t=ins.target: (0, True, _t)
    if op is Op.CALL:
        return lambda v1, v2, pc, _t=ins.target: (pc + 1, True, _t)
    if op is Op.RET or op is Op.JMP:
        return lambda v1, v2, pc: (0, True, int(v1) & MASK64)
    if op is Op.FMOV:
        return lambda v1, v2, pc: v1
    if op is Op.ITOF:
        return lambda v1, v2, pc: float(to_signed(int(v1)))
    if op is Op.FTOI:
        def _ftoi(v1, v2, pc):
            try:
                return int(v1) & MASK64
            except (OverflowError, ValueError):  # inf/nan convert to zero
                return 0
        return _ftoi
    if op is Op.NOP or op is Op.HALT:
        return lambda v1, v2, pc: 0
    raise NotImplementedError(f"opcode {op}")  # pragma: no cover


def execute(ins: Instruction, v1: float, v2: float, pc: int) -> ExecResult:
    """Execute ``ins`` with source values ``v1``/``v2`` at ``pc``.

    Loads return their effective address; the pipeline supplies the
    data from the LSQ or the cache.  Memory addresses are clamped to
    aligned 64-bit values so wrong-path execution can never fault.
    """
    fn = ins.exec_fn
    if fn is None:
        fn = ins.exec_fn = _build_exec(ins)
    out = fn(v1, v2, pc)
    if ins.is_load:
        return ExecResult(mem_addr=out)
    if ins.is_store:
        return ExecResult(mem_addr=out[0], store_val=out[1])
    if ins.is_branch:
        return ExecResult(result=out[0], taken=out[1], target=out[2])
    return ExecResult(result=out)
