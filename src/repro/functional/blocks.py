"""Decoded basic-block cache for the functional interpreter.

:meth:`FunctionalSim.step` pays for generality on every instruction:
a ~40-arm opcode dispatch, two or three ``read_reg``/``write_reg``
calls that re-decide windowed-vs-flat-vs-zero per operand, and eight
statistics updates.  None of that varies between two executions of the
same static instruction, so this module hoists all of it to *decode
time*:

* A **basic block** is the straight-line run of instructions from an
  entry PC up to and including the first control transfer (branch,
  call, ret, jump or ``HALT``).  A block starts only where control
  flow enters code: the program entry, a transfer's target or its
  fall-through.  Entries are discovered dynamically, so a branch into
  the middle of another block's run gives two overlapping decodings,
  which is harmless.  A bounded run that resumes inside a run (after
  a stop mid-block) steps to the end of that run instead of decoding
  a block at the resume PC.
* Each block is decoded **once per static block** into a single
  specialised Python function (compiled with :func:`compile`/``exec``)
  whose body is the block's instructions with every operand already
  resolved: windowed registers become ``frame[slot]`` accesses, flat
  registers become ``regs[r]`` accesses, reads of the hardwired zero
  register fold to the literal ``0``, immediates are inlined, and the
  per-block-constant statistics (instruction count, loads, stores,
  int/fp ops, ...) collapse into one combined update.  Only genuinely
  dynamic statistics — ``taken_branches`` and ``max_call_depth`` — are
  computed at run time, in the block's terminator.
* Every dynamic visit **replays** the cached block: one function call
  instead of ``n`` trips through ``step()``.

Correctness contract (kept bit-exact vs. the interpreter; enforced by
``tests/test_functional_blocks.py``):

* ``FunctionalStats`` and architectural state (``save_state``) are
  identical to interp-mode execution at every block boundary, and any
  instruction boundary is reachable exactly because bounded execution
  (:func:`advance`) falls back to per-instruction ``step()`` for a
  partial block and for the rest of a run it resumes in.
* ``CheckpointingSim`` capture still works: memory traffic flows
  through the *bound* ``read_mem``/``write_mem`` methods, and branch /
  return-address-stack capture is emitted into the terminators behind
  the ``sim._cap`` class attribute, which ``CheckpointingSim`` sets
  and whose ``step()`` captures the same outcomes per instruction.
* On a raised :class:`FunctionalError` (unaligned access, bad PC, ...)
  statistics and ``sim.pc`` reflect the last completed block boundary
  rather than the faulting instruction.  These paths are fatal in both
  modes, so nothing downstream observes the difference.

Invalidation rules: the *decode* layer (:class:`BlockTable`) depends
only on the immutable ``program.code`` and is shared by every
simulator of the same :class:`~repro.asm.program.Program` object.  The
*binding* layer (:class:`_Binding`) caches the simulator's mutable
identities — the ``regs`` list and the bound memory-access methods —
and is keyed to ``sim._epoch``, which ``load_state`` bumps when it
replaces those objects; checkpoint restore goes through ``load_state``
and therefore invalidates too.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.asm.program import Program
from repro.functional.interp import (FunctionalError, FunctionalSim,
                                     MASK64)
from repro.isa.opcodes import Op
from repro.isa.registers import WINDOW_REGS, is_windowed, window_slot

__all__ = ["BlockTable", "block_table", "run_blocks", "advance",
           "MAX_BLOCK_LEN", "BBV_BUCKET"]

SIGN64 = 1 << 63
TWO64 = 1 << 64

#: Decode stops after this many instructions even without a control
#: transfer, emitting a synthetic fall-through terminator; bounds the
#: size of any one compiled function.
MAX_BLOCK_LEN = 256

#: Static-code granularity of the basic-block vector: instruction
#: indices are bucketed by ``pc // BBV_BUCKET``.
BBV_BUCKET = 8

#: Ops whose interp arm does ``st.fp_ops += 1``.
_FP_STAT_OPS = (Op.FADD, Op.FSUB, Op.FMUL, Op.FDIV, Op.FCMPLT,
                Op.FCMPEQ, Op.FMOV, Op.ITOF, Op.FTOI)


class _Binding:
    """Per-simulator execution state the compiled blocks close over.

    ``load_state`` replaces ``sim.regs`` (and, for checkpoint restore,
    the memory dict behind the bound access methods) with fresh
    objects, so a binding is only valid for one ``sim._epoch``.
    """

    __slots__ = ("epoch", "regs", "rdm", "wrm")

    def __init__(self, sim: FunctionalSim) -> None:
        self.epoch = sim._epoch
        self.regs = sim.regs
        self.rdm = sim.read_mem
        self.wrm = sim.write_mem


class BlockDesc:
    """One decoded basic block: its compiled body plus static facts.

    ``bbv_runs`` holds the ``(bucket_id, count)`` run-lengths of the
    block's PCs.  PCs are consecutive, so bucket ids are increasing
    and the pair order equals the first-touch order a per-instruction
    profiler would produce: BBV dicts built from these runs are
    identical, insertion order included, to interp-mode profiling.
    """

    __slots__ = ("start", "n", "fn", "bbv_runs")

    def __init__(self, start: int, n: int, fn) -> None:
        self.start = start
        self.n = n
        self.fn = fn
        end = start + n
        self.bbv_runs = tuple(
            (b, min(end, (b + 1) * BBV_BUCKET) - max(start, b * BBV_BUCKET))
            for b in range(start // BBV_BUCKET,
                           (end - 1) // BBV_BUCKET + 1))


class BlockTable:
    """Decode cache for one :class:`Program` (shared across sims)."""

    __slots__ = ("code", "windowed", "blocks", "globals")

    def __init__(self, program: Program) -> None:
        self.code = program.code
        self.windowed = program.windowed
        self.blocks: List[Optional[BlockDesc]] = [None] * len(program.code)
        self.globals = {"FunctionalError": FunctionalError}

    # -- operand rendering ------------------------------------------------
    def _raw(self, r: int) -> str:
        """Expression for ``read_reg(r)`` (raw, possibly-float value)."""
        if r == 31:
            return "0"
        if self.windowed and is_windowed(r):
            return f"frame[{window_slot(r)}]"
        return f"regs[{r}]"

    def _int(self, r: int) -> str:
        """Expression for ``int(read_reg(r))``."""
        return "0" if r == 31 else f"int({self._raw(r)})"

    def _dst(self, r: int, expr: str) -> str:
        """Statement assigning ``expr`` to register ``r``.

        Writes to the zero register are dropped, but the expression is
        still evaluated so exception behaviour (e.g. ``int()`` of a
        NaN-valued register) matches the interpreter.
        """
        if r == 31:
            return expr
        if self.windowed and is_windowed(r):
            return f"frame[{window_slot(r)}] = {expr}"
        return f"regs[{r}] = {expr}"

    def _signed_tmp(self, name: str, r: int) -> List[str]:
        """Statements binding ``name`` to ``to_signed(int(reg r))``."""
        return [f"{name} = {self._int(r)}",
                f"if {name} & {SIGN64}: {name} -= {TWO64}"]

    # -- body instruction emission ----------------------------------------
    def _emit_body(self, ins) -> List[str]:
        op = ins.op
        M = MASK64
        i1 = self._int(ins.rs1)
        if op is Op.ADD:
            return [self._dst(ins.rd, f"({i1} + {self._int(ins.rs2)}) & {M}")]
        if op is Op.ADDI:
            return [self._dst(ins.rd, f"({i1} + ({ins.imm})) & {M}")]
        if op is Op.SUB:
            return [self._dst(ins.rd, f"({i1} - {self._int(ins.rs2)}) & {M}")]
        if op is Op.SUBI:
            return [self._dst(ins.rd, f"({i1} - ({ins.imm})) & {M}")]
        if op is Op.MUL:
            return [self._dst(ins.rd, f"({i1} * {self._int(ins.rs2)}) & {M}")]
        if op is Op.MULI:
            return [self._dst(ins.rd, f"({i1} * ({ins.imm})) & {M}")]
        if op is Op.AND:
            return [self._dst(ins.rd, f"{i1} & {self._int(ins.rs2)}")]
        if op is Op.ANDI:
            return [self._dst(ins.rd, f"{i1} & ({ins.imm})")]
        if op is Op.OR:
            return [self._dst(ins.rd, f"{i1} | {self._int(ins.rs2)}")]
        if op is Op.ORI:
            return [self._dst(ins.rd, f"{i1} | ({ins.imm})")]
        if op is Op.XOR:
            return [self._dst(ins.rd, f"{i1} ^ {self._int(ins.rs2)}")]
        if op is Op.XORI:
            return [self._dst(ins.rd, f"{i1} ^ ({ins.imm})")]
        if op is Op.SLL:
            return [self._dst(ins.rd,
                    f"({i1} << ({self._int(ins.rs2)} & 63)) & {M}")]
        if op is Op.SLLI:
            return [self._dst(ins.rd, f"({i1} << {ins.imm & 63}) & {M}")]
        if op is Op.SRL:
            return [self._dst(ins.rd,
                    f"{i1} >> ({self._int(ins.rs2)} & 63)")]
        if op is Op.SRLI:
            return [self._dst(ins.rd, f"{i1} >> {ins.imm & 63}")]
        if op is Op.CMPEQ:
            # interp compares the *raw* (possibly float) values here.
            return [self._dst(ins.rd,
                    f"int({self._raw(ins.rs1)} == {self._raw(ins.rs2)})")]
        if op is Op.CMPEQI:
            return [self._dst(ins.rd, f"int({i1} == ({ins.imm}))")]
        if op is Op.CMPLT:
            return (self._signed_tmp("a", ins.rs1)
                    + self._signed_tmp("b", ins.rs2)
                    + [self._dst(ins.rd, "int(a < b)")])
        if op is Op.CMPLTI:
            return (self._signed_tmp("a", ins.rs1)
                    + [self._dst(ins.rd, f"int(a < ({ins.imm}))")])
        if op is Op.CMPLE:
            return (self._signed_tmp("a", ins.rs1)
                    + self._signed_tmp("b", ins.rs2)
                    + [self._dst(ins.rd, "int(a <= b)")])
        if op is Op.LDI:
            return [self._dst(ins.rd, f"{ins.imm & M}")]
        if op is Op.LD or op is Op.FLD:
            return [self._dst(ins.rd, f"rdm({i1} + ({ins.imm}))")]
        if op is Op.ST or op is Op.FST:
            return [f"wrm({i1} + ({ins.imm}), {self._raw(ins.rs2)})"]
        if op is Op.FADD:
            return [self._dst(ins.rd,
                    f"{self._raw(ins.rs1)} + {self._raw(ins.rs2)}")]
        if op is Op.FSUB:
            return [self._dst(ins.rd,
                    f"{self._raw(ins.rs1)} - {self._raw(ins.rs2)}")]
        if op is Op.FMUL:
            return [self._dst(ins.rd,
                    f"{self._raw(ins.rs1)} * {self._raw(ins.rs2)}")]
        if op is Op.FDIV:
            return [f"d = {self._raw(ins.rs2)}",
                    self._dst(ins.rd,
                              f"{self._raw(ins.rs1)} / d if d else 0.0")]
        if op is Op.FCMPLT:
            return [self._dst(ins.rd, f"1.0 if {self._raw(ins.rs1)} < "
                    f"{self._raw(ins.rs2)} else 0.0")]
        if op is Op.FCMPEQ:
            return [self._dst(ins.rd, f"1.0 if {self._raw(ins.rs1)} == "
                    f"{self._raw(ins.rs2)} else 0.0")]
        if op is Op.FMOV:
            return [self._dst(ins.rd, self._raw(ins.rs1))]
        if op is Op.ITOF:
            return (self._signed_tmp("a", ins.rs1)
                    + [self._dst(ins.rd, "float(a)")])
        if op is Op.FTOI:
            body = self._dst(ins.rd, f"int({self._raw(ins.rs1)}) & {M}")
            zero = "pass" if ins.rd == 31 else self._dst(ins.rd, "0")
            return ["try:", f"    {body}",
                    "except (OverflowError, ValueError):", f"    {zero}"]
        if op is Op.NOP:
            return []
        raise FunctionalError(f"unimplemented opcode {op}")

    # -- terminator emission ----------------------------------------------
    def _emit_target(self, ins, pc: int) -> List[str]:
        """``return <static target>`` (or the interp's unresolved error)."""
        if ins.target is None:
            return [f"raise FunctionalError('unresolved target at pc {pc}')"]
        return [f"return {ins.target}"]

    def _emit_cond_branch(self, cond: str, ins, pc: int) -> List[str]:
        taken: List[str] = ["st.taken_branches += 1"]
        if ins.target is None:
            # Stats match interp up to the raise (which counts the
            # branch as taken before discovering the bad target).
            taken += [f"raise FunctionalError("
                      f"'unresolved target at pc {pc}')"]
        else:
            taken += [f"if sim._cap: sim.branch_trace.append"
                      f"(({pc}, {ins.target != pc + 1}))",
                      f"return {ins.target}"]
        return ([f"if {cond}:"] + ["    " + l for l in taken]
                + [f"if sim._cap: sim.branch_trace.append(({pc}, False))",
                   f"return {pc + 1}"])

    def _emit_term(self, ins, pc: int) -> List[str]:
        op = ins.op
        if op is Op.BEQ:
            return self._emit_cond_branch(f"{self._int(ins.rs1)} == 0",
                                          ins, pc)
        if op is Op.BNE:
            return self._emit_cond_branch(f"{self._int(ins.rs1)} != 0",
                                          ins, pc)
        if op is Op.BLT:
            return self._emit_cond_branch(
                f"{self._int(ins.rs1)} & {SIGN64}", ins, pc)
        if op is Op.BGE:
            return self._emit_cond_branch(
                f"not ({self._int(ins.rs1)} & {SIGN64})", ins, pc)
        if op is Op.FBEQ:
            return self._emit_cond_branch(f"{self._raw(ins.rs1)} == 0.0",
                                          ins, pc)
        if op is Op.FBNE:
            return self._emit_cond_branch(f"{self._raw(ins.rs1)} != 0.0",
                                          ins, pc)
        if op is Op.BR:
            return self._emit_target(ins, pc)
        if op is Op.CALL:
            lines: List[str] = []
            if self.windowed:
                lines += [f"sim.frames.append([0] * {WINDOW_REGS})",
                          "d = len(sim.frames) - 1",
                          "if d > st.max_call_depth: "
                          "st.max_call_depth = d"]
            # RA lands in the (possibly just-pushed) top frame, which
            # is *not* the ``frame`` this block was entered with.
            if ins.rd != 31:
                if self.windowed and is_windowed(ins.rd):
                    lines.append(f"sim.frames[-1]"
                                 f"[{window_slot(ins.rd)}] = {pc + 1}")
                else:
                    lines.append(f"regs[{ins.rd}] = {pc + 1}")
            lines.append(f"if sim._cap: sim.ras_trace.append({pc + 1})")
            return lines + self._emit_target(ins, pc)
        if op is Op.RET:
            # The return address is read from the *current* frame
            # before it is popped.
            lines = [f"t = {self._int(ins.rs1)}"]
            if self.windowed:
                lines += ["if len(sim.frames) == 1: "
                          "raise FunctionalError("
                          "'RET with empty window stack')",
                          "sim.frames.pop()"]
            lines += ["if sim._cap and sim.ras_trace: "
                      "sim.ras_trace.pop()",
                      "return t"]
            return lines
        if op is Op.JMP:
            return [f"return {self._int(ins.rs1)}"]
        if op is Op.HALT:
            return ["sim.halted = True", f"return {pc}"]
        raise FunctionalError(f"unimplemented opcode {op}")

    # -- decode -----------------------------------------------------------
    def decode(self, start: int) -> BlockDesc:
        """Compile the basic block entered at ``start`` and cache it."""
        code = self.code
        body: List[str] = []
        stats = {"loads": 0, "stores": 0, "calls": 0, "rets": 0,
                 "cond_branches": 0, "fp_ops": 0, "int_ops": 0}
        pc = start
        n = 0
        while True:
            ins = code[pc]
            op = ins.op
            n += 1
            if op in _FP_STAT_OPS:
                stats["fp_ops"] += 1
            if op.name[0] not in "F" and not ins.is_mem \
                    and not ins.is_branch:
                stats["int_ops"] += 1
            if ins.is_load:
                stats["loads"] += 1
            elif ins.is_store:
                stats["stores"] += 1
            if ins.is_branch or op is Op.HALT:
                stats["cond_branches"] += 1 if ins.is_cond_branch else 0
                stats["calls"] += 1 if ins.is_call else 0
                stats["rets"] += 1 if ins.is_ret else 0
                body += self._emit_term(ins, pc)
                break
            body += self._emit_body(ins)
            if n >= MAX_BLOCK_LEN or pc + 1 >= len(code):
                # Synthetic fall-through terminator: the block simply
                # continues at the next PC (an out-of-range next PC is
                # diagnosed at the next fetch, exactly like ``step``).
                body.append(f"return {pc + 1}")
                break
            pc += 1
        header = ["def _bf(sim, st, regs, frame, rdm, wrm):",
                  f" st.instructions += {n}"]
        header += [f" st.{name} += {count}"
                   for name, count in stats.items() if count]
        src = "\n".join(header + [" " + l for l in body]) + "\n"
        g = self.globals
        exec(compile(src, f"<block@{start}>", "exec"), g)  # noqa: S102
        desc = BlockDesc(start, n, g.pop("_bf"))
        self.blocks[start] = desc
        return desc


def block_table(program: Program) -> BlockTable:
    """The program's shared decode cache (created on first use)."""
    table = getattr(program, "_block_table", None)
    if table is None:
        table = BlockTable(program)
        program._block_table = table
    return table


def _binding(sim: FunctionalSim) -> _Binding:
    """The sim's current execution binding, rebuilt after load_state."""
    b = sim._binding
    if b is None or b.epoch != sim._epoch:
        b = _Binding(sim)
        sim._binding = b
    return b


def _step_tail(sim: FunctionalSim, k: int,
               bbv: Optional[Dict[int, int]]) -> None:
    """Run up to ``k`` instructions through ``step()``, stopping after
    the first control transfer, and count each PC's bucket into
    ``bbv`` when one is given.

    Used when the next block is longer than the remaining budget, so
    any instruction boundary is reachable bit-exactly, and when a
    bounded run resumes inside a straight-line run, so the next block
    starts where control flow enters it.
    """
    code = sim.program.code
    done = 0
    while done < k and not sim.halted:
        pc = sim.pc
        if bbv is not None:
            b = pc // BBV_BUCKET
            bbv[b] = bbv.get(b, 0) + 1
        sim.step()
        done += 1
        if code[pc].is_branch:
            return


def advance(sim: FunctionalSim, limit: int,
            bbv: Optional[Dict[int, int]] = None) -> None:
    """Execute until ``stats.instructions == limit`` or ``HALT``.

    Whole blocks run through their compiled bodies; a block that would
    overshoot the limit falls back to per-instruction stepping, so the
    stop point is exact.  A call that starts inside a straight-line
    run at a PC no decoded block starts at (a resume after such a
    stop) steps to the end of that run instead of decoding a block
    there, so blocks start only where control flow enters them and a
    bounded pass decodes no block that a run to ``HALT`` does not.
    Given a ``bbv`` dict, each replayed block adds its
    :attr:`BlockDesc.bbv_runs` and each stepped instruction its PC's
    bucket.  Splitting an interval across several calls yields the
    same dict, content and insertion order, as one call: buckets are
    added in PC visit order either way.
    """
    st = sim.stats
    table = block_table(sim.program)
    blocks = table.blocks
    bind = _binding(sim)
    regs, rdm, wrm = bind.regs, bind.rdm, bind.wrm
    frames = sim.frames
    code = table.code
    code_len = len(code)
    pc = sim.pc
    try:
        if 0 < pc < code_len and blocks[pc] is None:
            prev = code[pc - 1]
            if not (prev.is_branch or prev.is_halt):
                _step_tail(sim, limit - st.instructions, bbv)
                pc = sim.pc
        while not sim.halted:
            room = limit - st.instructions
            if room <= 0:
                return
            if not 0 <= pc < code_len:
                raise FunctionalError(f"PC {pc} out of range")
            blk = blocks[pc]
            if blk is None:
                blk = table.decode(pc)
            if blk.n > room:
                sim.pc = pc
                _step_tail(sim, room, bbv)
                pc = sim.pc
                continue
            pc = blk.fn(sim, st, regs, frames[-1], rdm, wrm)
            if bbv is not None:
                for b, c in blk.bbv_runs:
                    bbv[b] = bbv.get(b, 0) + c
    finally:
        sim.pc = pc


def run_blocks(sim: FunctionalSim, max_instructions: int):
    """Blocks-mode equivalent of :meth:`FunctionalSim.run`."""
    st = sim.stats
    while not sim.halted:
        if st.instructions >= max_instructions:
            raise FunctionalError(
                f"exceeded {max_instructions} instructions "
                f"(runaway program?)")
        advance(sim, max_instructions)
    return st
