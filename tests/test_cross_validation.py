"""Randomised cross-validation: programs generated from random
profiles must produce identical architectural results on the golden
functional model and on every timing machine.

This is the strongest correctness property in the suite: the timing
models and the functional interpreter are fully independent
implementations of the ISA, and the five machines exercise completely
different rename/window machinery.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import MachineConfig
from repro.functional import FunctionalSim
from repro.models import build_machine, model_abi
from repro.workloads.generator import BenchmarkBuilder
from repro.workloads.profiles import BenchmarkProfile

profile_strategy = st.builds(
    BenchmarkProfile,
    name=st.sampled_from(["xval_a", "xval_b", "xval_c", "xval_d"]),
    call_interval=st.integers(min_value=40, max_value=400),
    locals_int=st.integers(min_value=4, max_value=12),
    locals_fp=st.integers(min_value=0, max_value=5),
    levels=st.integers(min_value=1, max_value=3),
    reps=st.integers(min_value=1, max_value=3),
    recursion=st.sampled_from([0, 0, 8, 20]),
    working_set=st.sampled_from([1024, 4096]),
    load_frac=st.floats(min_value=0.05, max_value=0.3),
    store_frac=st.floats(min_value=0.02, max_value=0.15),
    fp_frac=st.floats(min_value=0.0, max_value=0.2),
    branch_frac=st.floats(min_value=0.02, max_value=0.12),
    branch_random=st.floats(min_value=0.0, max_value=0.4),
    chase_frac=st.sampled_from([0.0, 0.05]),
    ilp=st.integers(min_value=1, max_value=4),
    target_dynamic=st.just(3000),
)


def checksum_of(program, machine) -> float:
    return machine.hierarchy.read_word(program.data_base)


@pytest.mark.parametrize("model,phys_regs", [
    ("baseline", 256), ("vca", 256), ("vca-rw", 256),
    ("vca-rw", 64), ("ideal-rw", 96), ("conventional-rw", 128),
])
@given(profile=profile_strategy)
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_timing_matches_functional(model, phys_regs, profile):
    profile = dataclasses.replace(profile, fp=profile.fp_frac > 0)
    abi = model_abi(model)
    builder = BenchmarkBuilder(profile)
    program = builder.build().assemble(abi)

    golden = FunctionalSim(program)
    golden.run()
    expected = golden.read_mem(program.data_base)

    machine = build_machine(
        model, MachineConfig.baseline(phys_regs=phys_regs), [program])
    stats = machine.run()
    assert checksum_of(program, machine) == expected
    assert stats.committed == golden.stats.instructions
    machine.engine.regfile.check_invariants()


@pytest.mark.parametrize("model,phys_regs", [
    ("baseline", 256), ("vca", 256), ("vca-rw", 256),
    ("ideal-rw", 96), ("conventional-rw", 128),
])
@given(profile=profile_strategy)
@settings(max_examples=4, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_commit_stream_matches_functional(model, phys_regs, profile):
    """Lockstep differential co-simulation: every committed
    instruction's (PC, destination register, value) must match the
    functional interpreter instruction-for-instruction, not just the
    final memory image.  Catches wrong-path commits, forwarding bugs
    and window-machinery corruption at the instruction that caused
    them rather than at the checksum."""
    profile = dataclasses.replace(profile, fp=profile.fp_frac > 0)
    abi = model_abi(model)
    program = BenchmarkBuilder(profile).build().assemble(abi)

    golden = FunctionalSim(program)
    machine = build_machine(
        model, MachineConfig.baseline(phys_regs=phys_regs), [program])

    def on_commit(d):
        # The conventional window trap sequencer sends its spill/fill
        # transfers straight to the data cache, so every committed
        # instruction is a program instruction.
        ins = d.instr
        assert not golden.halted, \
            f"timing committed pc={d.pc} past the functional HALT"
        assert d.pc == golden.pc, (
            f"commit-stream divergence after "
            f"{golden.stats.instructions} instructions: timing "
            f"committed pc={d.pc} ({ins.disassemble()}), functional "
            f"is at pc={golden.pc}")
        golden.step()
        dest = ins.dest()
        # Control transfers may retarget the window frame the link
        # register lives in; the PC lockstep already validates them.
        if dest is None or ins.ctrl_kind or d.pdst is None:
            return
        got, want = d.pdst.value, golden.read_reg(dest)
        # NaN compares unequal to itself; two NaNs *are* agreement
        # (FP workloads produce them legitimately, e.g. inf - inf).
        assert got == want or (got != got and want != want), (
            f"value divergence at pc={d.pc} ({ins.disassemble()}): "
            f"timing wrote r{dest}={got}, functional has {want}")

    machine.commit_hook = on_commit
    stats = machine.run()
    assert golden.halted
    assert stats.committed == golden.stats.instructions
    assert checksum_of(program, machine) == golden.read_mem(
        program.data_base)
