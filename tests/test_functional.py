"""Tests for the functional interpreter, including ABI equivalence."""

import pytest

from repro.asm import ProgramBuilder
from repro.functional import (
    FunctionalError, FunctionalSim, MASK64, measure_path_length, to_signed,
)
from repro.isa import Op, ZERO_REG


def run_main(body, abi="flat", extra_funcs=None, thread=0):
    """Assemble a one-function program and run it to completion."""
    pb = ProgramBuilder(thread=thread)
    main = pb.function("main", is_main=True)
    body(pb, main)
    main.halt()
    if extra_funcs:
        extra_funcs(pb)
    prog = pb.assemble(abi)
    sim = FunctionalSim(prog)
    sim.run()
    return sim


class TestArithmetic:
    def test_add_masks_to_64_bits(self):
        def body(pb, m):
            m.li(1, MASK64)
            m.addi(2, 1, 1)
        sim = run_main(body)
        assert sim.read_reg(2) == 0

    def test_sub_wraps(self):
        def body(pb, m):
            m.li(1, 0)
            m.subi(2, 1, 1)
        sim = run_main(body)
        assert sim.read_reg(2) == MASK64

    def test_signed_compare(self):
        def body(pb, m):
            m.li(1, MASK64)       # -1 signed
            m.li(2, 1)
            m.cmplt(3, 1, 2)      # -1 < 1
            m.cmplt(4, 2, 1)      # 1 < -1
        sim = run_main(body)
        assert sim.read_reg(3) == 1 and sim.read_reg(4) == 0

    def test_shifts(self):
        def body(pb, m):
            m.li(1, 1)
            m.slli(2, 1, 63)
            m.srli(3, 2, 62)
        sim = run_main(body)
        assert sim.read_reg(2) == 1 << 63
        assert sim.read_reg(3) == 2

    def test_zero_register_reads_zero_and_ignores_writes(self):
        def body(pb, m):
            m.li(1, 5)
            m.add(ZERO_REG, 1, 1)    # discarded
            m.add(2, ZERO_REG, 1)
        sim = run_main(body)
        assert sim.read_reg(2) == 5

    def test_to_signed(self):
        assert to_signed(MASK64) == -1
        assert to_signed(5) == 5
        assert to_signed(1 << 63) == -(1 << 63)


class TestMemory:
    def test_load_store_roundtrip(self):
        def body(pb, m):
            addr = pb.alloc(2)
            m.li(1, addr)
            m.li(2, 1234)
            m.st(2, 1, 8)
            m.ld(3, 1, 8)
        sim = run_main(body)
        assert sim.read_reg(3) == 1234

    def test_uninitialized_memory_reads_zero(self):
        def body(pb, m):
            m.li(1, 0x9000)
            m.ld(2, 1, 0)
        sim = run_main(body)
        assert sim.read_reg(2) == 0

    def test_unaligned_access_raises(self):
        def body(pb, m):
            m.li(1, 3)
            m.ld(2, 1, 0)
        with pytest.raises(FunctionalError, match="unaligned"):
            run_main(body)

    def test_initial_data_visible(self):
        def body(pb, m):
            addr = pb.alloc(1, init=99)
            m.li(1, addr)
            m.ld(2, 1, 0)
        sim = run_main(body)
        assert sim.read_reg(2) == 99


class TestControlFlow:
    def test_loop_executes_n_times(self):
        def body(pb, m):
            m.li(1, 10)   # counter
            m.li(2, 0)    # sum
            m.label("top")
            m.addi(2, 2, 3)
            m.subi(1, 1, 1)
            m.bne(1, "top")
        sim = run_main(body)
        assert sim.read_reg(2) == 30
        assert sim.stats.cond_branches == 10
        assert sim.stats.taken_branches == 9

    def test_runaway_detection(self):
        pb = ProgramBuilder()
        m = pb.function("main", is_main=True)
        m.label("spin")
        m.br("spin")
        m.halt()
        sim = FunctionalSim(pb.assemble("flat"))
        with pytest.raises(FunctionalError, match="exceeded"):
            sim.run(max_instructions=100)

    def test_fp_branch(self):
        def body(pb, m):
            m.li(1, 4)
            m.itof(33, 1)
            m.li(2, 0)
            m.fbne(33, "skip")
            m.li(2, 1)
            m.label("skip")
        sim = run_main(body)
        assert sim.read_reg(2) == 0


class TestFloatingPoint:
    def test_fp_pipeline(self):
        def body(pb, m):
            m.li(1, 6)
            m.li(2, 4)
            m.itof(33, 1)
            m.itof(34, 2)
            m.fadd(35, 33, 34)   # 10.0
            m.fmul(36, 35, 34)   # 40.0
            m.fdiv(37, 36, 34)   # 10.0
            m.ftoi(3, 37)
        sim = run_main(body)
        assert sim.read_reg(3) == 10

    def test_fdiv_by_zero_yields_zero(self):
        """VRISC defines x/0 == 0 (no FP traps in the simulators)."""
        def body(pb, m):
            m.li(1, 5)
            m.itof(33, 1)
            m.itof(34, ZERO_REG)
            m.fdiv(35, 33, 34)
            m.ftoi(3, 35)
        sim = run_main(body)
        assert sim.read_reg(3) == 0

    def test_fcmp(self):
        def body(pb, m):
            m.li(1, 2)
            m.li(2, 3)
            m.itof(33, 1)
            m.itof(34, 2)
            m.fcmplt(35, 33, 34)
            m.ftoi(3, 35)
        sim = run_main(body)
        assert sim.read_reg(3) == 1


def fib_builder(n: int):
    """Recursive fibonacci: a call-heavy cross-ABI witness."""
    def factory():
        pb = ProgramBuilder()
        out = pb.alloc(1)
        main = pb.function("main", is_main=True)
        main.li(0, n)
        main.call("fib")
        main.li(1, out)
        main.st(0, 1, 0)
        main.halt()

        fib = pb.function("fib")
        done = "base"
        fib.cmplti(1, 0, 2)       # n < 2 ?
        fib.bne(1, done)
        fib.mov(8, 0)             # save n in windowed r8
        fib.subi(0, 8, 1)
        fib.call("fib")
        fib.mov(9, 0)             # fib(n-1) in windowed r9
        fib.subi(0, 8, 2)
        fib.call("fib")
        fib.add(0, 9, 0)
        fib.ret()
        fib.label(done)
        fib.ret()
        return pb
    return factory


class TestWindowedSemantics:
    def test_recursive_fib_same_result_both_abis(self):
        factory = fib_builder(12)
        out_vals = {}
        for abi in ("flat", "windowed"):
            prog = factory().assemble(abi)
            sim = FunctionalSim(prog)
            sim.run()
            out_addr = prog.data_base  # first alloc
            out_vals[abi] = sim.read_mem(out_addr)
        assert out_vals["flat"] == out_vals["windowed"] == 144

    def test_windowed_path_is_shorter(self):
        result = measure_path_length(fib_builder(12))
        assert result.ratio < 1.0
        assert result.windowed.instructions < result.flat.instructions
        # fib saves 3 registers per non-leaf activation; savings are large.
        assert result.mem_op_ratio < 0.5

    def test_window_depth_tracked(self):
        prog = fib_builder(10)().assemble("windowed")
        sim = FunctionalSim(prog)
        sim.run()
        assert sim.stats.max_call_depth == 10

    def test_ret_with_empty_stack_raises(self):
        pb = ProgramBuilder()
        m = pb.function("main", is_main=True)
        m.li(25, 0)
        m.emit(Op.RET, rs1=25)
        m.halt()
        sim = FunctionalSim(pb.assemble("windowed"))
        with pytest.raises(FunctionalError, match="empty window stack"):
            sim.run()

    def test_fresh_window_is_zeroed_per_activation(self):
        pb = ProgramBuilder()
        out = pb.alloc(1)
        main = pb.function("main", is_main=True)
        main.call("poke")
        main.call("peek")
        main.li(1, out)
        main.st(0, 1, 0)
        main.halt()
        poke = pb.function("poke")
        poke.li(8, 777)
        poke.ret()
        peek = pb.function("peek")
        peek.li(8, 0)        # satisfy write-before-read, then re-read
        peek.mov(0, 8)
        peek.ret()
        prog = pb.assemble("windowed")
        sim = FunctionalSim(prog)
        sim.run()
        assert sim.read_mem(out) == 0
