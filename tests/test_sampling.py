"""Checkpointed sampled simulation (``repro.sampling``).

Three layers of guarantees, in order of strength:

* **Checkpoint round-trips** (property-based): restoring a checkpoint
  taken at *any* instruction boundary and resuming on the functional
  interpreter reproduces the uninterrupted run's architectural state
  exactly, and serialising a checkpoint through JSON changes nothing —
  a timing run seeded from the round-tripped checkpoint is
  bit-identical to one seeded from the in-memory object.
* **Seeded-run equivalence**: a timing machine entered mid-program
  from a checkpoint commits exactly the remaining instructions and
  produces the same final memory image as the golden functional run,
  on every machine model (flat and windowed ABIs).
* **Sampler invariants**: interval profiles partition the run,
  representative selection conserves weight, and extrapolated results
  carry the exact instruction-mix totals.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import MachineConfig
from repro.functional import FunctionalSim
from repro.models import build_machine, model_abi
from repro.sampling import (
    Checkpoint, CheckpointingSim, IntervalProfile, SamplingConfig,
    SamplingError, fast_forward, profile_intervals, run_sampled,
    seed_machine, select_intervals, take_checkpoint,
)
from repro.workloads.generator import BenchmarkBuilder, benchmark_program
from repro.workloads.profiles import BenchmarkProfile

profile_strategy = st.builds(
    BenchmarkProfile,
    name=st.sampled_from(["ckpt_a", "ckpt_b", "ckpt_c"]),
    call_interval=st.integers(min_value=40, max_value=300),
    locals_int=st.integers(min_value=4, max_value=10),
    locals_fp=st.integers(min_value=0, max_value=4),
    levels=st.integers(min_value=1, max_value=3),
    reps=st.integers(min_value=1, max_value=2),
    recursion=st.sampled_from([0, 0, 12]),
    working_set=st.sampled_from([1024, 4096]),
    load_frac=st.floats(min_value=0.05, max_value=0.3),
    store_frac=st.floats(min_value=0.02, max_value=0.15),
    fp_frac=st.floats(min_value=0.0, max_value=0.15),
    branch_frac=st.floats(min_value=0.02, max_value=0.1),
    branch_random=st.floats(min_value=0.0, max_value=0.3),
    chase_frac=st.just(0.0),
    ilp=st.integers(min_value=1, max_value=3),
    target_dynamic=st.just(2000),
)


def _program(profile, windowed: bool):
    import dataclasses
    profile = dataclasses.replace(profile, fp=profile.fp_frac > 0)
    abi = "windowed" if windowed else "flat"
    return BenchmarkBuilder(profile).build().assemble(abi)


def _same(a, b) -> bool:
    """NaN-tolerant deep equality: FP workloads legitimately produce
    NaN (e.g. inf - inf), and two NaNs *are* agreement even though
    ``nan != nan``."""
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (a != a and b != b)
    if isinstance(a, dict) and isinstance(b, dict):
        return (a.keys() == b.keys()
                and all(_same(v, b[k]) for k, v in a.items()))
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return (len(a) == len(b)
                and all(_same(x, y) for x, y in zip(a, b)))
    return a == b


def _mem_equal(a, b) -> bool:
    """Memory images compared semantically: absent words read as 0."""
    keys = set(a) | set(b)
    return all(_same(a.get(k, 0), b.get(k, 0)) for k in keys)


# ======================================================================
# checkpoint round-trips (satellite property tests)
# ======================================================================
@given(profile=profile_strategy,
       frac=st.floats(min_value=0.0, max_value=1.0),
       windowed=st.booleans())
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_checkpoint_restore_resumes_identically(profile, frac, windowed):
    """Save at a random instruction boundary, restore, resume: the
    resumed functional run must land on exactly the uninterrupted
    run's final state — PC, registers, window frames, memory — and
    execute exactly the remaining instruction count."""
    program = _program(profile, windowed)
    golden = FunctionalSim(program)
    golden.run()
    total = golden.stats.instructions

    n = min(total, int(frac * total))
    sim = CheckpointingSim(program)
    ran = fast_forward(sim, n)
    assert ran == n
    ckpt = take_checkpoint(sim)
    assert ckpt.instructions == n

    resumed = ckpt.restore(program)
    resumed.run()
    assert resumed.halted
    assert resumed.pc == golden.pc
    assert _same(resumed.regs, golden.regs)
    assert _same(resumed.frames, golden.frames)
    assert _mem_equal(resumed.mem, golden.mem)
    assert ran + resumed.stats.instructions == total


@given(profile=profile_strategy,
       frac=st.floats(min_value=0.0, max_value=1.0),
       windowed=st.booleans())
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_checkpoint_json_roundtrip_is_lossless(profile, frac, windowed):
    """``from_dict(json(to_dict(c)))`` reconstructs every field,
    including the warmup trace and the delta-compressed memory."""
    program = _program(profile, windowed)
    sim = CheckpointingSim(program)
    golden = FunctionalSim(program)
    golden.run()
    fast_forward(sim, int(frac * golden.stats.instructions))
    ckpt = take_checkpoint(sim)

    back = Checkpoint.from_dict(json.loads(json.dumps(ckpt.to_dict())))
    assert back.pc == ckpt.pc
    assert back.instructions == ckpt.instructions
    assert back.windowed == ckpt.windowed
    assert back.halted == ckpt.halted
    assert _same(back.regs, ckpt.regs)
    assert _same(back.frames, ckpt.frames)
    assert _same(back.mem_delta, ckpt.mem_delta)
    assert back.warmup == ckpt.warmup


def test_json_roundtripped_checkpoint_seeds_identical_timing_run():
    """A timing run seeded from a JSON-round-tripped checkpoint is
    bit-identical (full ``SimStats.to_dict`` equality) to one seeded
    from the in-memory checkpoint — serialisation is not allowed to
    perturb even advisory warmup state."""
    program = benchmark_program("fib", model_abi("vca-rw"), thread=0)
    sim = CheckpointingSim(program)
    fast_forward(sim, 1500)
    ckpt = take_checkpoint(sim)
    back = Checkpoint.from_dict(json.loads(json.dumps(ckpt.to_dict())))

    runs = []
    for c in (ckpt, back):
        cfg = MachineConfig.baseline(phys_regs=256)
        machine = build_machine("vca-rw", cfg, [program])
        seed_machine(machine, program, c)
        runs.append(machine.run().to_dict())
    assert runs[0] == runs[1]


# ======================================================================
# seeded timing runs (architectural equivalence on every model)
# ======================================================================
@pytest.mark.parametrize("model,phys_regs", [
    ("baseline", 256), ("vca", 256), ("vca-rw", 256),
    ("ideal-rw", 96), ("conventional-rw", 128),
])
def test_seeded_run_completes_architecturally(model, phys_regs):
    """Enter a timing machine at a mid-program checkpoint and run to
    completion: it must commit exactly the remaining instructions and
    agree with the golden functional run on the final checksum."""
    abi = model_abi(model)
    program = benchmark_program("fib", abi, thread=0)
    golden = FunctionalSim(program)
    golden.run()
    expected = golden.read_mem(program.data_base)

    sim = CheckpointingSim(program)
    fast_forward(sim, 1000)
    ckpt = take_checkpoint(sim)

    cfg = MachineConfig.baseline(phys_regs=phys_regs)
    machine = build_machine(model, cfg, [program])
    seed_machine(machine, program, ckpt)
    stats = machine.run()
    assert machine.hierarchy.read_word(program.data_base) == expected
    assert stats.committed == golden.stats.instructions - 1000
    machine.engine.regfile.check_invariants()


def test_enter_at_requires_fresh_machine():
    from repro.pipeline.core import SimulationError
    program = benchmark_program("fib", "windowed", thread=0)
    cfg = MachineConfig.baseline(phys_regs=256)
    machine = build_machine("vca-rw", cfg, [program])
    machine.run(commit_limit=10)
    with pytest.raises(SimulationError):
        machine.enter_at(0, 5)


# ======================================================================
# sampler invariants
# ======================================================================
def test_profile_intervals_partition_the_run():
    program = benchmark_program("fib", "flat", thread=0)
    golden = FunctionalSim(program)
    golden.run()
    profile = profile_intervals(program, 700)
    assert sum(profile.counts) == golden.stats.instructions
    assert all(c == 700 for c in profile.counts[:-1])
    assert 0 < profile.counts[-1] <= 700
    assert len(profile.bbvs) == profile.n_intervals
    assert all(sum(b.values()) == c
               for b, c in zip(profile.bbvs, profile.counts))


def test_profile_intervals_rejects_bad_interval():
    program = benchmark_program("fib", "flat", thread=0)
    with pytest.raises(SamplingError):
        profile_intervals(program, 0)


def _fake_profile(n: int) -> IntervalProfile:
    from repro.functional.interp import FunctionalStats
    return IntervalProfile(counts=[100] * n,
                           bbvs=[{i: 100} for i in range(n)],
                           total=FunctionalStats(instructions=100 * n))


@pytest.mark.parametrize("n,k", [(1, 8), (5, 8), (20, 8), (47, 3)])
def test_select_systematic_conserves_weight(n, k):
    reps, weights = select_intervals(
        _fake_profile(n), SamplingConfig(n_detailed=k))
    assert reps == sorted(reps)
    assert len(set(reps)) == len(reps)
    assert all(0 <= r < n for r in reps)
    assert len(reps) <= min(n, k)
    assert sum(weights) == pytest.approx(n)


def test_select_bbv_conserves_weight():
    np = pytest.importorskip("numpy")  # noqa: F841 — clustering dep
    reps, weights = select_intervals(
        _fake_profile(12), SamplingConfig(n_detailed=4, mode="bbv"))
    assert reps == sorted(reps)
    assert all(0 <= r < 12 for r in reps)
    assert sum(weights) == pytest.approx(12)


def test_select_rejects_unknown_mode():
    with pytest.raises(SamplingError):
        select_intervals(_fake_profile(4), SamplingConfig(mode="magic"))


# ======================================================================
# the sampled run end to end
# ======================================================================
def test_run_sampled_carries_exact_instruction_mix():
    """Extrapolated stats must carry the functional pass's *exact*
    totals for the instruction mix — only timing metrics are
    estimates."""
    program = benchmark_program("fib", model_abi("vca-rw"), thread=0)
    golden = FunctionalSim(program)
    golden.run()

    cfg = MachineConfig.baseline(phys_regs=256)
    stats, meta = run_sampled("vca-rw", cfg, program,
                              SamplingConfig(interval_len=1000,
                                             n_detailed=4))
    t = stats.threads[0]
    g = golden.stats
    assert t.committed == g.instructions
    assert t.loads == g.loads
    assert t.stores == g.stores
    assert t.calls == g.calls
    assert t.cond_branches == g.cond_branches
    assert stats.cycles == meta.est_cycles > 0
    assert meta.total_instructions == g.instructions
    assert meta.n_detailed <= meta.n_intervals
    assert meta.detailed_cycles > 0
    assert set(meta.errors) == {"ipc", "dl1_accesses", "spills",
                                "fills", "branch_mispredicts"}


def test_every_count_reaches_a_sampled_run():
    """The measured window differences, and extrapolation scales,
    every count ``count_fields`` names, so a count added to the stats
    classes reaches sampled runs with no sampler change."""
    from repro.functional.interp import FunctionalStats
    from repro.pipeline.stats import SimStats, ThreadStats, count_fields
    from repro.sampling.sampler import _extrapolate, _measured_window

    def counts(stats):
        return [(obj, name) for obj in (stats, stats.threads[0])
                for name in count_fields(type(obj))]

    def filled(n):
        stats = SimStats(threads=[ThreadStats()])
        for obj, name in counts(stats):
            if isinstance(getattr(obj, name), dict):
                getattr(obj, name)["kind"] = n
            else:
                setattr(obj, name, n)
        return stats

    def assert_all(stats, n):
        for obj, name in counts(stats):
            value = getattr(obj, name)
            assert value == ({"kind": n} if isinstance(value, dict)
                             else n), name

    window = _measured_window(filled(3).to_dict(), filled(10))
    assert_all(window, 7)
    # Two 7-instruction samples of a 14-instruction run scale every
    # count to 14; the profile's instruction mix is 14 as well.
    mix = dict.fromkeys(("loads", "stores", "calls", "fp_ops",
                         "cond_branches"), 14)
    profile = IntervalProfile(
        counts=[7, 7], bbvs=[{}, {}],
        total=FunctionalStats(instructions=14, **mix))
    est, _ = _extrapolate([window, window], [1.0, 1.0], profile)
    assert_all(est, 14)


def test_run_sampled_bbv_mode():
    pytest.importorskip("numpy")
    program = benchmark_program("fib", "flat", thread=0)
    cfg = MachineConfig.baseline(phys_regs=256)
    stats, meta = run_sampled("baseline", cfg, program,
                              SamplingConfig(interval_len=1000,
                                             n_detailed=3,
                                             mode="bbv"))
    assert meta.mode == "bbv"
    assert stats.cycles > 0


def test_run_sampled_rejects_multithread():
    program = benchmark_program("fib", "flat", thread=0)
    cfg = MachineConfig.baseline(phys_regs=256).with_(n_threads=2)
    with pytest.raises(SamplingError):
        run_sampled("baseline", cfg, program)


def test_run_point_sampled_roundtrips_through_cache(tmp_path,
                                                    monkeypatch):
    """The experiment runner's sampled path: metadata lands in the
    RunResult, the cache key differs from the full-detail key, and the
    cached entry decodes back."""
    from repro.experiments import runner
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    full = runner.run_point("baseline", ("fib",), 256)
    sampled = runner.run_point("baseline", ("fib",), 256, sample=True,
                               sample_interval=1000, sample_count=4)
    assert not full.sampled
    assert sampled.sampled
    assert sampled.sample_intervals > 0
    assert sampled.sample_detailed_cycles > 0
    assert sampled.committed == full.committed  # exact mix totals
    again = runner.run_point("baseline", ("fib",), 256, sample=True,
                             sample_interval=1000, sample_count=4)
    assert again == sampled
    with pytest.raises(ValueError):
        runner.run_point("baseline", ("fib", "fib"), 256, sample=True)


# ======================================================================
# adaptive convergence (rse_target)
# ======================================================================
def _stub_interval_sim(calls):
    """A fake ``_simulate_interval``: interval ``idx`` costs
    ``1000 + 4*idx`` cycles (a gentle linear gradient, so the weighted
    rate variance is stable across budgets and the RSE shrinks as
    samples accumulate).  Records every (re-)simulation per index."""
    from repro.pipeline.stats import SimStats, ThreadStats

    def fake(model, cfg, program, scfg, profile, idx, start, ckpt, sp):
        calls[idx] = calls.get(idx, 0) + 1
        stats = SimStats(threads=[ThreadStats()])
        stats.cycles = 1000 + 4 * idx
        stats.threads[0].committed = profile.counts[idx]
        return stats, stats.cycles, profile.counts[idx]

    return fake


def _adaptive_fixture(monkeypatch, n_intervals=32):
    """Stub the detailed simulator and count functional passes: the
    functional pass is a monkeypatched ``profile_with_checkpoints``
    returning a tiny synthetic profile, and the plain profiling pass
    fails the test if anything calls it."""
    from repro.functional.interp import FunctionalStats
    from repro.sampling import sampler

    passes = {"n": 0}
    calls: dict = {}

    def fake_pwc(program, scfg, collector=None):
        passes["n"] += 1
        profile = IntervalProfile(
            counts=[100] * n_intervals,
            bbvs=[{i: 100} for i in range(n_intervals)],
            total=FunctionalStats(instructions=100 * n_intervals))
        ckpts = [object()] * n_intervals
        return profile, ckpts

    monkeypatch.setattr(sampler, "profile_with_checkpoints", fake_pwc)
    monkeypatch.setattr(
        sampler, "profile_intervals",
        lambda *a, **k: pytest.fail("run_sampled re-ran the "
                                    "functional profiling pass"))
    monkeypatch.setattr(sampler, "_simulate_interval",
                        _stub_interval_sim(calls))
    return passes, calls


def test_fixed_count_is_one_round_of_one_pass(monkeypatch):
    """Without ``rse_target`` the sampler runs one functional pass and
    one round: every representative is simulated exactly once, and no
    convergence trail is recorded."""
    passes, calls = _adaptive_fixture(monkeypatch)
    program = benchmark_program("fib", "flat", thread=0)
    cfg = MachineConfig.baseline(phys_regs=256)
    scfg = SamplingConfig(interval_len=100, n_detailed=8)
    stats, meta = run_sampled("baseline", cfg, program, scfg)
    assert passes["n"] == 1
    assert all(v == 1 for v in calls.values())
    assert len(calls) == min(scfg.n_detailed, meta.n_intervals) == 8
    assert meta.rounds == []
    assert meta.n_detailed == len(calls)
    assert "rse" not in meta.to_dict()


def test_adaptive_monotone_rse_and_delta_set(monkeypatch):
    """Each round's max RSE is non-increasing, every interval is
    simulated exactly once (round N+1 touches only the delta set), and
    the functional pass runs exactly once."""
    passes, calls = _adaptive_fixture(monkeypatch)
    program = benchmark_program("fib", "flat", thread=0)
    cfg = MachineConfig.baseline(phys_regs=256)
    stats, meta = run_sampled(
        "baseline", cfg, program,
        SamplingConfig(interval_len=100, n_detailed=2,
                       rse_target=0.01, rse_metrics=("ipc",),
                       max_detailed=32))
    assert passes["n"] == 1
    assert calls and all(v == 1 for v in calls.values())
    rses = [r["max_rse"] for r in meta.rounds]
    assert len(rses) >= 2          # did not converge on the first try
    assert all(a >= b for a, b in zip(rses, rses[1:]))
    assert meta.converged
    assert meta.errors["ipc"] <= 0.01
    assert meta.n_detailed == meta.rounds[-1]["n_detailed"]
    assert meta.intervals_added \
        == meta.n_detailed - meta.rounds[0]["n_detailed"]
    assert sum(r["added"] for r in meta.rounds) == meta.n_detailed


def test_adaptive_hard_cap_on_nonconverging_metric(monkeypatch):
    """An unreachable target terminates at ``max_detailed`` with
    ``converged=False`` — never more detailed intervals than the cap,
    never an endless loop."""
    passes, calls = _adaptive_fixture(monkeypatch)
    program = benchmark_program("fib", "flat", thread=0)
    cfg = MachineConfig.baseline(phys_regs=256)
    stats, meta = run_sampled(
        "baseline", cfg, program,
        SamplingConfig(interval_len=100, n_detailed=2,
                       rse_target=1e-9, rse_metrics=("ipc",),
                       max_detailed=6))
    assert passes["n"] == 1
    assert not meta.converged
    assert meta.n_detailed == 6
    assert all(v == 1 for v in calls.values())
    assert len(calls) == 6
    d = meta.to_dict()
    assert d["rse"]["converged"] is False
    assert [r["round"] for r in d["rse"]["rounds"]] \
        == list(range(1, len(meta.rounds) + 1))


def test_adaptive_selection_is_deterministic(monkeypatch):
    """Two identical adaptive runs simulate the same intervals in the
    same rounds and produce identical metadata."""
    runs = []
    for _ in range(2):
        with pytest.MonkeyPatch.context() as mp:
            passes, calls = _adaptive_fixture(mp)
            program = benchmark_program("fib", "flat", thread=0)
            cfg = MachineConfig.baseline(phys_regs=256)
            stats, meta = run_sampled(
                "baseline", cfg, program,
                SamplingConfig(interval_len=100, n_detailed=2,
                               mode="bbv", rse_target=0.01,
                               rse_metrics=("ipc",), max_detailed=32))
            runs.append((sorted(calls), meta.to_dict(),
                         stats.cycles))
    assert runs[0] == runs[1]


def test_adaptive_validates_config():
    """The RSE knobs are checked when the config is built."""
    for kwargs in (dict(rse_target=-0.1), dict(rse_target=0.0),
                   dict(rse_target=0.01, rse_metrics=("bogus",)),
                   dict(rse_target=0.01, rse_metrics=())):
        with pytest.raises(SamplingError):
            SamplingConfig(**kwargs)


@pytest.mark.parametrize("kwargs", [
    dict(interval_len=0),
    dict(interval_len=-5),
    dict(mem_weight=2.0),
    dict(mem_weight=-0.1),
    dict(mem_weight=float("nan")),
])
def test_config_validated_at_construction(kwargs):
    """Invalid knobs fail when the config is built, before any
    functional pass; ``mem_weight`` outside [0, 1] is an error, not a
    value to clamp."""
    with pytest.raises(SamplingError):
        SamplingConfig(**kwargs)


def test_config_accepts_edges():
    """The bounds are inclusive, and the RSE knobs are only checked
    in adaptive mode, where they are used."""
    SamplingConfig(interval_len=1, mem_weight=0.0)
    SamplingConfig(mode="bbv+mem", mem_weight=1.0)
    SamplingConfig(rse_metrics=())
    SamplingConfig(rse_target=0.5, rse_metrics=("fills",))


@pytest.mark.parametrize("flags,needle", [
    (["--sample-interval", "0"], "interval_len"),
    (["--sample-mem-weight", "2"], "mem_weight"),
    (["--sample-rse", "0.01", "--sample-rse-metrics", "bogus"],
     "rse metrics"),
])
def test_run_cli_rejects_bad_sampling_config(capsys, flags, needle):
    from repro.cli import main
    assert main(["run", "fib", "--model", "baseline", "--sample",
                 *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("repro run: ")
    assert needle in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flags,needle", [
    (["--sample-interval", "0"], "interval_len"),
    (["--sample-mode", "bbv+mem", "--sample-mem-weight", "2"],
     "mem_weight"),
])
@pytest.mark.parametrize("cmd", ["sweep", "submit"])
def test_plan_clis_reject_bad_sampling_config(capsys, tmp_path,
                                              monkeypatch, cmd, flags,
                                              needle):
    """``sweep`` and ``submit`` validate the ``--sample*`` values once,
    before any point runs or is submitted: nothing listens at the
    submit URL, so only the sampling value can be named."""
    from repro.cli import main
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    argv = [cmd, "rw", "--models", "baseline", "--sizes", "256",
            "--bench", "gzip_graphic", "twolf", "--scale", "0.05",
            "--sample", *flags]
    if cmd == "submit":
        argv += ["--url", "http://127.0.0.1:9"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"repro {cmd}: ") and err.count("\n") == 1
    assert needle in err
    assert not (tmp_path / "results.sqlite").exists()


def test_adaptive_end_to_end_real_simulator():
    """No stubs: the adaptive loop on a real fib run converges to the
    requested target and reports the per-round trail."""
    program = benchmark_program("fib", model_abi("vca-rw"), thread=0)
    cfg = MachineConfig.baseline(phys_regs=256)
    stats, meta = run_sampled(
        "vca-rw", cfg, program,
        SamplingConfig(interval_len=1000, n_detailed=2,
                       rse_target=0.05, rse_metrics=("ipc",),
                       max_detailed=16))
    assert meta.converged
    assert meta.errors["ipc"] <= 0.05
    assert meta.rounds[-1]["n_detailed"] == meta.n_detailed
    assert stats.cycles == meta.est_cycles > 0
    # The exact instruction mix still comes from the functional pass.
    golden = FunctionalSim(program)
    golden.run()
    assert stats.threads[0].committed == golden.stats.instructions


def test_profile_with_checkpoints_matches_plain_profile():
    """The combined pass produces a bit-identical profile and one
    checkpoint per interval at exactly the warmup-start boundary —
    this is what lets added rounds skip the functional pass."""
    import dataclasses as dc

    from repro.sampling import profile_with_checkpoints
    program = benchmark_program("fib", model_abi("vca-rw"), thread=0)
    scfg = SamplingConfig(interval_len=1500, warmup_insns=400)
    plain = profile_intervals(program, 1500)
    combined, ckpts = profile_with_checkpoints(program, scfg)
    assert combined.counts == plain.counts
    assert combined.bbvs == plain.bbvs
    assert [list(b) for b in combined.bbvs] \
        == [list(b) for b in plain.bbvs]
    assert dc.asdict(combined.total) == dc.asdict(plain.total)
    assert len(ckpts) >= combined.n_intervals
    for i in range(combined.n_intervals):
        assert ckpts[i].instructions == max(0, i * 1500 - 400)
    # And the checkpoints equal what a sequential fast-forward takes.
    ff = CheckpointingSim(program)
    for i in range(combined.n_intervals):
        at = max(0, i * 1500 - 400)
        fast_forward(ff, at - ff.stats.instructions)
        assert (json.dumps(take_checkpoint(ff).to_dict(),
                           sort_keys=True)
                == json.dumps(ckpts[i].to_dict(), sort_keys=True))


def test_select_bbv_mem_requires_signatures():
    pytest.importorskip("numpy")
    with pytest.raises(SamplingError):
        select_intervals(_fake_profile(8),
                         SamplingConfig(n_detailed=3, mode="bbv+mem"))


def test_run_sampled_bbv_mem_mode():
    pytest.importorskip("numpy")
    program = benchmark_program("fib", "flat", thread=0)
    cfg = MachineConfig.baseline(phys_regs=256)
    stats, meta = run_sampled(
        "baseline", cfg, program,
        SamplingConfig(interval_len=1000, n_detailed=3,
                       mode="bbv+mem", mem_weight=0.7))
    assert meta.mode == "bbv+mem"
    assert stats.cycles > 0
