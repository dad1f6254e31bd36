"""Differential tests for the decoded basic-block cache.

``repro.functional.blocks`` replays whole decoded basic blocks
instead of dispatching per instruction.  The contract is *bit
identity* with the per-instruction interpreter: same :class:`FunctionalStats`, same architectural state
at every instruction boundary the caller can observe, same captured
warmup traces, same exceptions.  These tests check the contract on
randomly generated programs (hypothesis) and on the cache's
invalidation edges: ``load_state``, checkpoint restore through a warm
block table, and bounded fast-forwards that stop mid-block.
"""

import dataclasses
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.functional import (
    FUNCTIONAL_MODES, FunctionalError, FunctionalSim, advance,
    block_table,
)
from repro.sampling.checkpoint import (
    Checkpoint, CheckpointingSim, fast_forward, take_checkpoint,
)
from repro.sampling.memfeat import (
    MemCaptureCheckpointingSim, ReuseCollector, n_buckets,
)
from repro.sampling.sampler import (
    SamplingConfig, profile_intervals, profile_with_checkpoints,
)
from repro.workloads.generator import (
    BenchmarkBuilder, benchmark_program, build_benchmark,
)
from repro.workloads.profiles import BenchmarkProfile

profile_strategy = st.builds(
    BenchmarkProfile,
    name=st.sampled_from(["blk_a", "blk_b", "blk_c"]),
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
    target_dynamic=st.just(2500),
)


def build_program(profile, abi):
    profile = dataclasses.replace(profile, fp=profile.fp_frac > 0)
    return BenchmarkBuilder(profile).build().assemble(abi)


def canon(state) -> str:
    """JSON-canonicalised state for equality: FP workloads
    legitimately produce NaNs (e.g. ``inf - inf``), and ``nan != nan``
    would fail a plain dict comparison even though both modes stored
    the same value."""
    return json.dumps(state, sort_keys=True)


# ---------------------------------------------------------------------------
# whole-run equivalence
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("abi", ["windowed", "flat"])
@given(profile=profile_strategy)
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_stats_and_state_identical(abi, profile):
    program = build_program(profile, abi)
    ref = FunctionalSim(program, mode="interp")
    ref_stats = ref.run()
    sim = FunctionalSim(program, mode="blocks")
    stats = sim.run()
    assert stats == ref_stats
    assert canon(sim.save_state()) == canon(ref.save_state())


# ---------------------------------------------------------------------------
# lockstep: bounded advances must agree at every boundary
# ---------------------------------------------------------------------------

@given(profile=profile_strategy,
       budgets=st.lists(st.integers(min_value=1, max_value=700),
                        min_size=1, max_size=8))
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_bounded_advance_lockstep(profile, budgets):
    """fast_forward through the block cache stops at exactly the same
    instruction boundary — with exactly the same state — as the
    per-instruction loop, even when the boundary falls mid-block."""
    program = build_program(profile, "windowed")
    ref = FunctionalSim(program, mode="interp")
    sim = FunctionalSim(program, mode="blocks")
    for n in budgets:
        done_ref = fast_forward(ref, n)
        done = fast_forward(sim, n)
        assert done == done_ref
        assert sim.stats == ref.stats
        assert canon(sim.save_state()) == canon(ref.save_state())


@given(profile=profile_strategy,
       budgets=st.lists(st.integers(min_value=1, max_value=500),
                        min_size=1, max_size=6))
@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_capture_parity(profile, budgets):
    """CheckpointingSim's warmup traces (memory addresses, branch
    outcomes, return-address stack) are identical in both modes, so
    checkpoints taken at any fast-forward boundary serialise to the
    same dict, and identical whichever driver ran the simulator."""
    program = build_program(profile, "windowed")
    ref = CheckpointingSim(program)
    ref.mode = "interp"
    sim = CheckpointingSim(program)
    sim.mode = "blocks"
    for n in budgets:
        fast_forward(ref, n)
        fast_forward(sim, n)
        assert (canon(take_checkpoint(sim).to_dict())
                == canon(take_checkpoint(ref).to_dict()))
    # Capture belongs to the simulator, not to the driver: running to
    # HALT with run() records the same trace as fast-forwarding there.
    traces = []
    for mode in FUNCTIONAL_MODES:
        for drive in (CheckpointingSim.run,
                      lambda s: fast_forward(s, 1 << 30)):
            s = CheckpointingSim(program)
            s.mode = mode
            drive(s)
            assert s.halted
            traces.append(s.warmup_trace())
    assert traces[0].branches
    assert all(t == traces[0] for t in traces)


# ---------------------------------------------------------------------------
# invalidation edges
# ---------------------------------------------------------------------------

def test_load_state_reexecution_is_bit_exact():
    program = benchmark_program("fib", abi="windowed", scale=1.0,
                                seed=0)
    sim = FunctionalSim(program, mode="blocks")
    advance(sim, 500)
    mid = sim.save_state()
    final = sim.run()
    end = sim.save_state()
    # Rewind through load_state (which bumps the binding epoch) and
    # replay on the now-warm block table: same stats, same state.
    sim2 = FunctionalSim(program, mode="blocks")
    sim2.load_state(mid)
    sim2.run()
    assert canon(sim2.save_state()) == canon(end)
    assert sim2.stats.instructions + 500 == final.instructions


def test_checkpoint_roundtrip_through_warm_cache():
    program = benchmark_program("fib", abi="windowed", scale=1.0,
                                seed=0)
    # Reference: pure interpreter, run to completion.
    ref = FunctionalSim(program, mode="interp")
    ref.run()
    # Warm the program's block table, checkpoint mid-run, serialise.
    sim = CheckpointingSim(program)
    sim.mode = "blocks"
    fast_forward(sim, 1234)
    ck = Checkpoint.from_dict(take_checkpoint(sim).to_dict())
    table = block_table(program)
    assert any(b is not None for b in table.blocks)
    # Restore resumes on the same (warm) table and must reach the
    # same final state the interpreter did.
    resumed = ck.restore(program)
    resumed.mode = "blocks"
    resumed.run()
    assert canon(resumed.save_state()) == canon(ref.save_state())
    assert (ck.instructions + resumed.stats.instructions
            == ref.stats.instructions)


def test_runaway_parity():
    program = benchmark_program("fib", abi="windowed", scale=1.0,
                                seed=0)
    msgs, states = [], []
    for mode in ("interp", "blocks"):
        sim = FunctionalSim(program, mode=mode)
        with pytest.raises(FunctionalError) as exc:
            sim.run(max_instructions=777)
        msgs.append(str(exc.value))
        states.append((sim.stats, canon(sim.save_state())))
    assert msgs[0] == msgs[1]
    assert states[0] == states[1]


# ---------------------------------------------------------------------------
# interval profiling
# ---------------------------------------------------------------------------

@given(profile=profile_strategy,
       interval_len=st.sampled_from([64, 257, 1000]))
@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_profile_intervals_modes_agree(profile, interval_len):
    program = build_program(profile, "windowed")
    a = profile_intervals(program, interval_len, mode="interp")
    b = profile_intervals(program, interval_len, mode="blocks")
    assert b.counts == a.counts
    assert b.total == a.total
    # BBV equality includes dict insertion order: downstream
    # clustering iterates the dicts, so order is part of the contract.
    assert len(b.bbvs) == len(a.bbvs)
    for got, want in zip(b.bbvs, a.bbvs):
        assert list(got.items()) == list(want.items())


def _decoded(program):
    return {i for i, b in enumerate(block_table(program).blocks)
            if b is not None}


@pytest.mark.parametrize("abi", ["flat", "windowed"])
@pytest.mark.parametrize("bench", ["twolf", "perlbmk_535"])
def test_bounded_pass_decodes_only_blocks_a_full_run_decodes(bench, abi):
    # Every interval and checkpoint stop of a fixed-count pass may fall
    # inside a block; the resume steps to the end of that straight-line
    # run rather than decoding a block that starts there.  Fresh
    # programs, so neither table is warmed by the other.
    passed = build_benchmark(bench, scale=8.0).assemble(abi)
    profile_with_checkpoints(passed, SamplingConfig(interval_len=2000,
                                                    n_detailed=8))
    full = build_benchmark(bench, scale=8.0).assemble(abi)
    FunctionalSim(full).run()
    assert _decoded(passed) <= _decoded(full)


# ---------------------------------------------------------------------------
# mode plumbing
# ---------------------------------------------------------------------------

def test_mode_validation():
    program = benchmark_program("fib", abi="windowed", scale=1.0,
                                seed=0)
    assert FunctionalSim(program).mode == "blocks"
    assert FunctionalSim(program, mode="interp").mode == "interp"
    with pytest.raises(ValueError):
        FunctionalSim(program, mode="nope")


# ---------------------------------------------------------------------------
# memory-signature capture (repro.sampling.memfeat)
# ---------------------------------------------------------------------------

addr_trace = st.lists(st.integers(min_value=0, max_value=1 << 14),
                      min_size=0, max_size=300)


@given(trace=addr_trace,
       cuts=st.lists(st.integers(min_value=0, max_value=300),
                     min_size=0, max_size=5),
       cap=st.sampled_from([1, 4, 64]))
@settings(max_examples=60, deadline=None)
def test_sketch_merge_equals_concatenated_trace(trace, cuts, cap):
    """Merging per-segment sketches cut from one stateful collector
    equals the single sketch of the whole trace, at every split."""
    one = ReuseCollector(cap=cap, line_bytes=64)
    for a in trace:
        one.touch(a)
    whole = one.snapshot()

    split = ReuseCollector(cap=cap, line_bytes=64)
    bounds = sorted({c % (len(trace) + 1) for c in cuts})
    parts = []
    prev = 0
    for b in bounds + [len(trace)]:
        for a in trace[prev:b]:
            split.touch(a)
        parts.append(split.snapshot())
        prev = b
    merged = parts[0]
    for s in parts[1:]:
        merged = merged.merge(s)
    assert merged == whole


@given(trace=addr_trace, cap=st.sampled_from([1, 2, 16]))
@settings(max_examples=60, deadline=None)
def test_sketch_memory_is_bounded(trace, cap):
    """The LRU stack never exceeds ``cap`` and the histogram never
    grows: memory is O(cap + touched lines), independent of trace
    length."""
    col = ReuseCollector(cap=cap, line_bytes=64)
    for a in trace:
        col.touch(a)
        assert col.resident <= cap
    sketch = col.snapshot()
    assert len(sketch.reuse) == n_buckets(cap)
    assert sketch.accesses == len(trace)
    assert sum(sketch.reuse) == len(trace)
    assert sketch.touched == len({a // 64 for a in trace})
    assert col.resident <= cap  # the stack survives the snapshot cut


def test_sketch_validation():
    with pytest.raises(ValueError):
        ReuseCollector(cap=0)
    with pytest.raises(ValueError):
        ReuseCollector(line_bytes=0)
    a = ReuseCollector(cap=4).snapshot()
    b = ReuseCollector(cap=64).snapshot()
    with pytest.raises(ValueError):
        a.merge(b)


@pytest.mark.parametrize("mode", ["interp", "blocks"])
@given(profile=profile_strategy)
@settings(max_examples=4, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_mem_capture_off_vs_on_bit_identity(mode, profile):
    """Running with a capture collector changes *nothing* observable:
    FunctionalStats and architectural state are bit-identical to the
    capture-off run in both engine modes, and the sampler's functional
    pass keeps the reference profile's interval counts and BBVs and
    the capture-off pass's checkpoints."""
    program = build_program(profile, "windowed")
    ref = FunctionalSim(program, mode=mode)
    ref_stats = ref.run()
    sim = MemCaptureCheckpointingSim(program, ReuseCollector(64, 64))
    sim.mode = mode
    stats = sim.run()
    assert stats == ref_stats
    assert canon(sim.save_state()) == canon(ref.save_state())

    p_ref = profile_intervals(program, 500, mode=mode)
    scfg = SamplingConfig(interval_len=500, warmup_insns=200)
    p_off, c_off = profile_with_checkpoints(program, scfg)
    p_cap, c_cap = profile_with_checkpoints(program, scfg,
                                            ReuseCollector(64, 64))
    for p in (p_off, p_cap):
        assert p.counts == p_ref.counts
        assert [list(b.items()) for b in p.bbvs] \
            == [list(b.items()) for b in p_ref.bbvs]
        assert dataclasses.asdict(p.total) \
            == dataclasses.asdict(p_ref.total)
    assert [canon(c.to_dict()) for c in c_cap] \
        == [canon(c.to_dict()) for c in c_off]
    assert p_off.mem is None
    assert len(p_cap.mem) == p_cap.n_intervals


@given(profile=profile_strategy)
@settings(max_examples=4, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_mem_capture_mode_agnostic(profile):
    """The block replay path routes all memory traffic through the
    bound read/write hooks, so the captured sketches are identical to
    interp capture — access order included — and to the sketches of
    the sampler's functional pass, whose checkpoint stops split
    intervals without changing them."""
    program = build_program(profile, "windowed")
    sketches = {}
    for mode in ("interp", "blocks"):
        col = ReuseCollector(64, 64)
        sim = MemCaptureCheckpointingSim(program, col)
        sim.mode = mode
        sketches[mode] = []
        while not sim.halted:
            fast_forward(sim, 500)
            sketches[mode].append(col.snapshot())
    assert sketches["interp"] == sketches["blocks"]
    scfg = SamplingConfig(interval_len=500, warmup_insns=200)
    combined, _ = profile_with_checkpoints(program, scfg,
                                           ReuseCollector(64, 64))
    assert combined.mem == sketches["blocks"]
