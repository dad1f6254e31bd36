"""Unit tests for the program builder, ABI lowering and linker."""

import pytest

from repro.asm import ProgramBuilder
from repro.asm.layout import (
    thread_data_base, thread_global_base, thread_stack_top,
    thread_window_base,
)
from repro.functional import FunctionalSim
from repro.isa import Op, RA_REG, SP_REG


def tiny_program(thread: int = 0) -> ProgramBuilder:
    """main calls leaf() which doubles its argument."""
    pb = ProgramBuilder(thread=thread)
    out = pb.alloc(1)
    main = pb.function("main", is_main=True)
    main.li(0, 21)
    main.call("leaf")
    main.li(1, out)
    main.st(0, 1, 0)
    main.halt()

    leaf = pb.function("leaf")
    leaf.add(0, 0, 0)
    leaf.ret()
    return pb


class TestBuilderBasics:
    def test_assemble_both_abis(self):
        for abi in ("flat", "windowed"):
            prog = tiny_program().assemble(abi)
            assert prog.abi == abi
            assert prog.entry == prog.symbols["main"] == 0

    def test_unknown_abi_rejected(self):
        with pytest.raises(ValueError):
            tiny_program().assemble("sparc")

    def test_main_required(self):
        pb = ProgramBuilder()
        f = pb.function("foo")
        f.ret()
        with pytest.raises(ValueError, match="no main"):
            pb.assemble("flat")

    def test_main_must_halt(self):
        pb = ProgramBuilder()
        pb.function("main", is_main=True).nop()
        with pytest.raises(ValueError, match="halt"):
            pb.assemble("flat")

    def test_function_must_return(self):
        pb = ProgramBuilder()
        m = pb.function("main", is_main=True)
        m.halt()
        pb.function("leaf").nop()
        with pytest.raises(ValueError, match="never returns"):
            pb.assemble("flat")

    def test_call_to_unknown_function_rejected(self):
        pb = ProgramBuilder()
        m = pb.function("main", is_main=True)
        m.call("ghost")
        m.halt()
        with pytest.raises(ValueError, match="unknown function"):
            pb.assemble("flat")

    def test_unknown_label_rejected(self):
        pb = ProgramBuilder()
        m = pb.function("main", is_main=True)
        m.br("nowhere")
        m.halt()
        with pytest.raises(ValueError, match="unknown label"):
            pb.assemble("flat")

    def test_duplicate_label_rejected(self):
        pb = ProgramBuilder()
        m = pb.function("main", is_main=True)
        m.label("x")
        m.label("x")
        m.halt()
        with pytest.raises(ValueError, match="duplicate label"):
            pb.assemble("flat")

    def test_duplicate_function_rejected(self):
        pb = ProgramBuilder()
        pb.function("foo")
        with pytest.raises(ValueError, match="duplicate"):
            pb.function("foo")

    def test_read_before_write_of_windowed_register_rejected(self):
        pb = ProgramBuilder()
        m = pb.function("main", is_main=True)
        with pytest.raises(ValueError, match="before any write"):
            m.add(0, 8, 0)  # r8 is windowed and never written

    def test_ra_register_exempt_from_read_check(self):
        pb = ProgramBuilder()
        f = pb.function("f")
        f.ret()  # reads RA implicitly -- allowed


class TestAbiLowering:
    def test_flat_binary_is_longer_than_windowed(self):
        """Save/restore code exists only under the flat ABI."""
        flat = tiny_program().assemble("flat")
        windowed = tiny_program().assemble("windowed")
        assert len(flat) > len(windowed)

    def test_flat_prologue_saves_clobbered_windowed_regs(self):
        pb = ProgramBuilder()
        m = pb.function("main", is_main=True)
        m.halt()
        f = pb.function("worker")
        f.li(8, 1)      # windowed r8
        f.li(9, 2)      # windowed r9
        f.ret()
        prog = pb.assemble("flat")
        entry = prog.symbols["worker"]
        ops = [i.op for i in prog.code[entry:]]
        # prologue: subi sp + two stores; epilogue: two loads + addi + ret
        assert ops[0] == Op.SUBI
        assert ops[1] == ops[2] == Op.ST
        assert Op.LD in ops and Op.RET in ops

    def test_windowed_lowering_has_no_saves(self):
        pb = ProgramBuilder()
        m = pb.function("main", is_main=True)
        m.halt()
        f = pb.function("worker")
        f.li(8, 1)
        f.li(9, 2)
        f.ret()
        prog = pb.assemble("windowed")
        entry = prog.symbols["worker"]
        ops = [i.op for i in prog.code[entry:]]
        assert Op.ST not in ops and Op.LD not in ops

    def test_non_leaf_flat_function_saves_ra(self):
        pb = ProgramBuilder()
        m = pb.function("main", is_main=True)
        m.halt()
        leaf = pb.function("leaf")
        leaf.ret()
        mid = pb.function("mid")
        mid.call("leaf")
        mid.ret()
        prog = pb.assemble("flat")
        entry = prog.symbols["mid"]
        stores = [i for i in prog.code[entry:entry + 4] if i.op == Op.ST]
        assert any(i.rs2 == RA_REG for i in stores)

    def test_stack_slots_below_save_area(self):
        pb = ProgramBuilder()
        m = pb.function("main", is_main=True)
        m.halt()
        f = pb.function("worker")
        off = f.stack_slot()
        assert off == 0
        off2 = f.stack_slot(3)
        assert off2 == 8
        f.li(8, 7)
        f.st(8, SP_REG, off)
        f.ret()
        prog = pb.assemble("flat")
        entry = prog.symbols["worker"]
        # frame = 4 data words + r8 + RA-free (leaf, but r8 written) = 5 words
        assert prog.code[entry].op == Op.SUBI
        assert prog.code[entry].imm == (4 + 1) * 8

    def test_call_targets_resolve_to_function_entries(self):
        prog = tiny_program().assemble("flat")
        call = next(i for i in prog.code if i.op == Op.CALL)
        assert call.target == prog.symbols["leaf"]


class TestDataAndLayout:
    def test_alloc_is_monotonic_and_word_aligned(self):
        pb = ProgramBuilder()
        a = pb.alloc(4)
        b = pb.alloc(2)
        assert b == a + 32
        assert a % 8 == 0

    def test_alloc_with_init_populates_data(self):
        pb = ProgramBuilder()
        a = pb.alloc(2, init=5)
        assert pb.data[a] == 5 and pb.data[a + 8] == 5

    def test_thread_layouts_are_disjoint(self):
        for t in range(4):
            assert thread_data_base(t) < thread_stack_top(t)
            assert thread_stack_top(t) < thread_data_base(t + 1)
        assert thread_global_base(1) > thread_window_base(0)

    def test_program_runs_identically_on_any_thread(self):
        r0 = FunctionalSim(tiny_program(0).assemble("flat")).run()
        r2 = FunctionalSim(tiny_program(2).assemble("flat")).run()
        assert r0.instructions == r2.instructions

    def test_function_at_maps_pcs(self):
        prog = tiny_program().assemble("flat")
        assert prog.function_at(prog.symbols["leaf"]) == "leaf"
        assert prog.function_at(0) == "main"

    def test_disassemble_lists_functions(self):
        prog = tiny_program().assemble("flat")
        text = prog.disassemble()
        assert "main:" in text and "leaf:" in text
