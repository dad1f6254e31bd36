"""Focused tests of pipeline mechanisms: forwarding, speculation
recovery, port arbitration, SMT scheduling and window-trap timing."""

import pytest

from repro.asm import ProgramBuilder
from repro.config import MachineConfig
from repro.functional import FunctionalSim
from repro.models import build_machine, model_abi
from repro.pipeline.core import DeadlockError
from repro.workloads import benchmark_program


def run_program(builder_fn, model="baseline", phys_regs=256, **cfg):
    pb = builder_fn()
    abi = "windowed" if model.endswith("rw") or model == "ideal-rw" \
        else "flat"
    prog = pb.assemble(abi)
    machine = build_machine(
        model, MachineConfig.baseline(phys_regs=phys_regs, **cfg), [prog])
    stats = machine.run()
    return machine, stats


class TestStoreToLoadForwarding:
    def test_load_sees_in_flight_store(self):
        def body():
            pb = ProgramBuilder()
            out = pb.alloc(1)
            slot = pb.alloc(1)
            m = pb.function("main", is_main=True)
            m.li(1, slot)
            m.li(2, 77)
            m.st(2, 1, 0)
            m.ld(3, 1, 0)       # must forward 77
            m.li(4, out)
            m.st(3, 4, 0)
            m.halt()
            return pb
        machine, stats = run_program(body)
        out = machine.threads[0].program.data_base
        assert machine.hierarchy.read_word(out) == 77

    def test_dense_store_load_chains_are_correct(self):
        def body():
            pb = ProgramBuilder()
            arr = pb.alloc(16)
            out = pb.alloc(1)
            m = pb.function("main", is_main=True)
            m.li(1, arr)
            m.li(2, 0)
            m.li(5, 0)
            for i in range(16):
                m.addi(2, 2, 7)
                m.st(2, 1, 8 * i)
                m.ld(3, 1, 8 * i)
                m.add(5, 5, 3)
            m.li(4, out)
            m.st(5, 4, 0)
            m.halt()
            return pb
        machine, stats = run_program(body)
        prog = machine.threads[0].program
        golden = FunctionalSim(prog)
        golden.run()
        out = prog.data_base + 16 * 8
        assert machine.hierarchy.read_word(out) == golden.read_mem(out)


class TestParkedLoads:
    """A load blocked by an older store whose address is unknown waits
    parked on that store, off the pending list, until the store
    executes; it never outlives the store."""

    @pytest.mark.parametrize("model,bench", [("vca-rw", "twolf"),
                                             ("baseline", "gzip_graphic")])
    def test_blocked_loads_wait_parked_on_their_store(self, model, bench):
        program = benchmark_program(bench, abi=model_abi(model),
                                    scale=0.25, seed=0)
        machine = build_machine(model, MachineConfig.baseline(), [program])
        step = machine._stepper()
        parked_cycles = 0
        while not machine.threads[0].halted:
            assert machine.cycle < 200_000
            step()
            stores = machine._stores[0]
            for d in machine._pending_loads:
                assert all(st.mem_addr is not None for st in stores
                           if st.seq < d.seq and not st.squashed), d
            in_flight = {st.seq: st for st in stores if not st.squashed}
            for seq in machine._parked:
                assert in_flight[seq].mem_addr is None
            parked_cycles += bool(machine._parked)
        assert not machine._parked
        assert parked_cycles  # the run did park loads


class TestSpeculationRecovery:
    def data_dependent_branches(self):
        pb = ProgramBuilder()
        arr = pb.alloc(64)
        out = pb.alloc(1)
        for i in range(64):
            pb.word(arr + 8 * i, (i * 2654435761) % 97)
        m = pb.function("main", is_main=True)
        m.li(8, arr)     # base
        m.li(9, 0)       # i
        m.li(10, 0)      # acc
        m.label("loop")
        m.slli(1, 9, 3)
        m.add(1, 8, 1)
        m.ld(2, 1, 0)
        m.andi(3, 2, 1)
        m.beq(3, "even")
        m.add(10, 10, 2)
        m.label("even")
        m.addi(9, 9, 1)
        m.cmplti(4, 9, 64)
        m.bne(4, "loop")
        m.li(5, out)
        m.st(10, 5, 0)
        m.halt()
        return pb

    @pytest.mark.parametrize("model", ["baseline", "vca"])
    def test_result_correct_despite_mispredicts(self, model):
        machine, stats = run_program(self.data_dependent_branches,
                                     model=model)
        assert stats.branch_mispredicts > 5  # speculation happened
        prog = machine.threads[0].program
        golden = FunctionalSim(prog)
        golden.run()
        out = prog.data_base + 64 * 8
        assert machine.hierarchy.read_word(out) == golden.read_mem(out)

    def test_wrong_path_work_is_squashed_not_committed(self):
        machine, stats = run_program(self.data_dependent_branches)
        t = stats.threads[0]
        assert t.squashed > 0
        golden = FunctionalSim(machine.threads[0].program)
        golden.run()
        assert t.committed == golden.stats.instructions

    def test_vca_squash_under_pressure_is_consistent(self):
        machine, stats = run_program(self.data_dependent_branches,
                                     model="vca", phys_regs=80)
        prog = machine.threads[0].program
        golden = FunctionalSim(prog)
        golden.run()
        out = prog.data_base + 64 * 8
        assert machine.hierarchy.read_word(out) == golden.read_mem(out)
        machine.engine.regfile.check_invariants()


class TestPortContention:
    def mem_heavy(self):
        pb = ProgramBuilder()
        arr = pb.alloc(64)
        m = pb.function("main", is_main=True)
        m.li(1, arr)
        for acc in (5, 6, 7, 8):
            m.li(acc, 0)
        for i in range(60):
            # Four independent accumulator chains: load throughput,
            # not the adds, is the bottleneck.
            m.ld(2, 1, 8 * (i % 64))
            m.add(5 + (i % 4), 5 + (i % 4), 2)
        m.halt()
        return pb

    def test_single_port_is_slower(self):
        _, two = run_program(self.mem_heavy, dl1_ports=2)
        _, one = run_program(self.mem_heavy, dl1_ports=1)
        assert one.cycles > two.cycles


class TestSmt:
    def make_threads(self, n):
        progs = []
        for t in range(n):
            pb = ProgramBuilder(thread=t)
            out = pb.alloc(1)
            m = pb.function("main", is_main=True)
            m.li(8, 300)
            m.li(9, 0)
            m.label("loop")
            m.addi(9, 9, 3)
            m.xori(9, 9, 5)
            m.subi(8, 8, 1)
            m.bne(8, "loop")
            m.li(1, out)
            m.st(9, 1, 0)
            m.halt()
            progs.append(pb.assemble("flat"))
        return progs

    def test_two_threads_share_fairly(self):
        progs = self.make_threads(2)
        machine = build_machine(
            "vca", MachineConfig.baseline(phys_regs=256), progs)
        stats = machine.run(stop_at_first_halt=True)
        a, b = stats.thread_ipc(0), stats.thread_ipc(1)
        assert a > 0 and b > 0
        assert abs(a - b) / max(a, b) < 0.25  # symmetric workloads

    def test_stop_at_first_halt(self):
        progs = self.make_threads(2)
        machine = build_machine(
            "vca", MachineConfig.baseline(phys_regs=256), progs)
        stats = machine.run(stop_at_first_halt=True)
        assert any(t.halted for t in stats.threads)

    def test_four_threads_complete(self):
        progs = self.make_threads(4)
        machine = build_machine(
            "vca", MachineConfig.baseline(phys_regs=192), progs)
        stats = machine.run()
        for t in range(4):
            out = machine.threads[t].program.data_base
            assert machine.hierarchy.read_word(out) != 0


class TestWindowTraps:
    def recursion(self, depth):
        pb = ProgramBuilder()
        out = pb.alloc(1)
        m = pb.function("main", is_main=True)
        m.li(0, depth)
        m.call("rec")
        m.li(1, out)
        m.st(0, 1, 0)
        m.halt()
        r = pb.function("rec")
        r.cmplti(1, 0, 1)
        r.bne(1, "base")
        r.mov(8, 0)
        r.subi(0, 8, 1)
        r.call("rec")
        r.add(0, 0, 8)
        r.ret()
        r.label("base")
        r.li(0, 0)
        r.ret()
        return pb

    def test_trap_cycles_charged(self):
        machine, stats = run_program(
            lambda: self.recursion(20), model="conventional-rw",
            phys_regs=128)
        assert stats.window_overflows >= 19
        assert stats.window_underflows >= 19
        # Each trap costs at least the 10-cycle handler delay.
        assert stats.window_trap_cycles >= 10 * (
            stats.window_overflows + stats.window_underflows)

    def test_more_windows_fewer_traps(self):
        _, few = run_program(lambda: self.recursion(20),
                             model="conventional-rw", phys_regs=128)
        _, many = run_program(lambda: self.recursion(20),
                              model="conventional-rw", phys_regs=256)
        assert many.window_overflows < few.window_overflows
        assert many.cycles < few.cycles

    def test_vca_handles_same_depth_without_traps(self):
        machine, stats = run_program(
            lambda: self.recursion(20), model="vca-rw", phys_regs=128)
        assert stats.window_overflows == 0
        # Wrong-path speculation can transiently push a little deeper.
        assert machine.engine.contexts[0].max_depth >= 20


class TestDeadlockDetection:
    def test_runaway_raises(self):
        pb = ProgramBuilder()
        m = pb.function("main", is_main=True)
        m.label("spin")
        m.br("spin")
        m.halt()
        prog = pb.assemble("flat")
        machine = build_machine(
            "baseline",
            MachineConfig.baseline(max_cycles=5_000), [prog])
        with pytest.raises(DeadlockError):
            machine.run()


class TestManyThreads:
    """Section 6: 'VCA requires negligible per-thread state ... so it
    can in principle support dozens of threads.'  Eight threads on 256
    registers — half the 512 architectural registers a conventional
    machine would need just to boot."""

    def _programs(self, n):
        progs = []
        for t in range(n):
            pb = ProgramBuilder(thread=t)
            out = pb.alloc(1)
            m = pb.function("main", is_main=True)
            m.li(8, 120)
            m.li(9, t + 1)
            m.label("loop")
            m.addi(9, 9, 3)
            m.subi(8, 8, 1)
            m.bne(8, "loop")
            m.li(1, out)
            m.st(9, 1, 0)
            m.halt()
            progs.append(pb.assemble("flat"))
        return progs

    def test_eight_threads_on_half_the_registers(self):
        progs = self._programs(8)
        machine = build_machine(
            "vca", MachineConfig.baseline(phys_regs=256), progs)
        stats = machine.run()
        for t in range(8):
            out = machine.threads[t].program.data_base
            assert machine.hierarchy.read_word(out) == (t + 1) + 3 * 120
        assert all(ts.halted for ts in stats.threads)

    def test_conventional_cannot_boot_eight_threads(self):
        from repro.rename.base import UnrunnableConfigError
        progs = self._programs(8)
        with pytest.raises(UnrunnableConfigError):
            build_machine("baseline",
                          MachineConfig.baseline(phys_regs=256), progs)
