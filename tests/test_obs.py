"""Tests for the observability subsystem (repro.obs): tracer sinks,
pipeline view, CLI integration, and the guarantee that tracing off
costs (essentially) nothing."""

import json
import time

import pytest

from repro.config import MachineConfig
from repro.models import build_machine, model_abi
from repro.obs import (
    JsonlSink, NULL_TRACER, RingBufferSink, Tracer, build_tracer,
    read_jsonl,
)
from repro.obs.pipeview import event_counts, render_pipeline_view
from repro.workloads.generator import benchmark_program


def _traced_run(model="vca-rw", bench="gzip_graphic", regs=96,
                scale=0.2, tracer=None):
    abi = model_abi(model)
    programs = [benchmark_program(bench, abi, scale=scale)]
    cfg = MachineConfig.baseline(phys_regs=regs)
    machine = build_machine(model, cfg, programs, tracer=tracer)
    return machine.run()


@pytest.fixture(scope="module")
def traced():
    """One traced run shared by the reconciliation tests."""
    tracer = build_tracer(trace=True)
    stats = _traced_run(tracer=tracer)
    return tracer.ring_events(), stats


class TestSinks:
    def test_build_tracer_off_is_null(self):
        tr = build_tracer(trace=False)
        assert tr is NULL_TRACER
        assert not tr.enabled

    def test_build_tracer_ring_only(self):
        tr = build_tracer(trace=True)
        assert tr.enabled
        assert len(tr.sinks) == 1
        assert isinstance(tr.sinks[0], RingBufferSink)

    def test_trace_out_implies_trace(self, tmp_path):
        tr = build_tracer(trace=False, out=str(tmp_path / "t.jsonl"))
        assert tr.enabled
        kinds = {type(s) for s in tr.sinks}
        assert kinds == {RingBufferSink, JsonlSink}
        tr.close()

    def test_ring_truncation(self):
        ring = RingBufferSink(capacity=4)
        for i in range(10):
            ring.write({"cycle": i, "tid": 0, "kind": "fetch"})
        assert len(ring) == 4
        assert ring.total == 10
        assert ring.dropped == 6
        assert [e["cycle"] for e in ring.events] == [6, 7, 8, 9]

    def test_ring_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            RingBufferSink(capacity=0)

    def test_jsonl_roundtrip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonlSink(str(path))
        tr = Tracer([sink])
        tr.emit(3, 0, "spill", addr=0x40, cause="set_conflict")
        tr.emit(4, -1, "fill", addr=0x48)
        tr.close()
        assert sink.written == 2
        events = list(read_jsonl(str(path)))
        assert events == [
            {"cycle": 3, "tid": 0, "kind": "spill", "addr": 0x40,
             "cause": "set_conflict"},
            {"cycle": 4, "tid": -1, "kind": "fill", "addr": 0x48},
        ]

    def test_disabled_tracer_emits_nothing(self):
        ring = RingBufferSink()
        tr = Tracer([ring], enabled=False)
        tr.emit(0, 0, "fetch", seq=0)
        assert ring.total == 0

    def test_tracer_without_sinks_is_disabled(self):
        assert not Tracer([]).enabled


class TestPipelineView:
    def _events(self):
        return [
            {"cycle": 0, "tid": 0, "kind": "fetch", "seq": 0, "pc": 4,
             "asm": "add r1, r2, r3"},
            {"cycle": 1, "tid": 0, "kind": "rename", "seq": 0},
            {"cycle": 3, "tid": 0, "kind": "issue", "seq": 0},
            {"cycle": 4, "tid": 0, "kind": "writeback", "seq": 0},
            {"cycle": 6, "tid": 0, "kind": "commit", "seq": 0},
            {"cycle": 0, "tid": 1, "kind": "fetch", "seq": 1, "pc": 8,
             "asm": "beq r1, L"},
            {"cycle": 5, "tid": 1, "kind": "squash", "seq": 1},
        ]

    def test_render(self):
        text = render_pipeline_view(self._events())
        lines = text.splitlines()
        assert "timeline" in lines[0]
        assert "add r1, r2, r3" in lines[1]
        # The squashed instruction never renamed: dashes + x mark.
        assert "-" in lines[2] and lines[2].endswith("x")

    def test_tid_filter_and_limit(self):
        text = render_pipeline_view(self._events(), tid=0)
        assert "beq" not in text
        text = render_pipeline_view(self._events(), limit=1)
        assert "1 more instruction" in text

    def test_empty_trace(self):
        assert "no instruction lifecycle" in render_pipeline_view([])

    def test_event_counts(self):
        counts = event_counts(self._events())
        assert counts["fetch"] == 2
        assert counts["commit"] == 1


class TestReconciliation:
    """Traced event counts must equal the SimStats counters exactly —
    the property that makes the trace trustworthy for debugging."""

    def test_spills_and_fills(self, traced):
        events, stats = traced
        counts = event_counts(events)
        assert counts.get("spill", 0) == stats.spills
        assert counts.get("fill", 0) == stats.fills
        assert stats.spills > 0 and stats.fills > 0

    def test_lifecycle_counts(self, traced):
        events, stats = traced
        counts = event_counts(events)
        assert counts["commit"] == stats.committed
        assert counts["mispredict"] == stats.branch_mispredicts
        assert counts["dl1"] == stats.dl1_accesses

    def test_pipeline_view_renders_real_trace(self, traced):
        events, _ = traced
        text = render_pipeline_view(events, limit=8)
        assert "timeline" in text and "[f" in text

    def test_counts_split_by_cause(self, traced, tmp_path, capsys):
        """``repro trace --counts`` adds one ``<kind>.<cause>`` row per
        cause of each cause-carrying kind; the rows sum to the kind's
        total, and the spill and fill totals are the run's counts."""
        from repro.cli import main
        events, stats = traced
        path = tmp_path / "t.jsonl"
        path.write_text("".join(json.dumps(ev) + "\n" for ev in events))
        assert main(["trace", str(path), "--counts"]) == 0
        rows = dict(line.split() for line in
                    capsys.readouterr().out.splitlines())
        rows = {name: int(n) for name, n in rows.items()}
        assert rows["spill"] == stats.spills
        assert rows["fill"] == stats.fills
        for kind in ("spill", "fill", "victim"):
            causes = {name: n for name, n in rows.items()
                      if name.startswith(kind + ".")}
            assert causes, f"no {kind}.<cause> rows"
            assert sum(causes.values()) == rows[kind]
        # The per-kind view itself still counts each event once.
        assert event_counts(events)["spill"] == stats.spills


class TestStatsSerialization:
    def test_roundtrip(self, traced):
        from repro.pipeline.stats import SimStats
        _, stats = traced
        clone = SimStats.from_dict(stats.to_dict())
        assert clone.to_dict() == stats.to_dict()
        assert clone.committed == stats.committed
        assert clone.rename_stalls == stats.rename_stalls

    def test_derived_keys(self, traced):
        _, stats = traced
        d = stats.to_dict()
        assert d["committed_total"] == stats.committed
        assert d["ipc"] == pytest.approx(stats.ipc)

    def test_summary_spacing(self, traced):
        _, stats = traced
        text = stats.summary()
        assert "rsid flushes" in text
        assert "max regs in use" in text
        # Annotated rows keep a separator between value and annotation.
        for line in text.splitlines():
            if "(" in line:
                assert " (" in line

    def test_stats_json_roundtrip(self, traced, tmp_path):
        from repro.experiments.export import (
            read_stats_json, write_stats_json)
        _, stats = traced
        path = write_stats_json(str(tmp_path / "s.json"), stats,
                                model="vca-rw")
        meta, clone = read_stats_json(str(path))
        assert meta == {"model": "vca-rw"}
        assert clone.to_dict() == stats.to_dict()

    def test_v1_record_with_metrics_still_reads(self, traced, tmp_path):
        """Version 2 dropped ``stats.metrics``; a version-1 record that
        still carries it reads, the key ignored."""
        from repro.experiments.export import read_stats_json
        _, stats = traced
        path = tmp_path / "v1.json"
        path.write_text(json.dumps({
            "schema": "repro.run-stats", "schema_version": 1,
            "model": "vca-rw",
            "stats": {**stats.to_dict(), "metrics": {"counters": {}}}}))
        meta, clone = read_stats_json(str(path))
        assert meta == {"model": "vca-rw"}
        assert clone.to_dict() == stats.to_dict()

    def test_stats_json_without_schema_rejected(self, traced, tmp_path):
        from repro.experiments.export import read_stats_json
        _, stats = traced
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"model": "vca-rw",
                                    "stats": stats.to_dict()}))
        with pytest.raises(ValueError, match="not a repro.run-stats"):
            read_stats_json(str(path))


class TestSeedFlag:
    def test_seed_changes_program(self):
        from repro.workloads.generator import build_benchmark
        base = build_benchmark("fib").assemble("flat").disassemble()
        same = build_benchmark("fib", seed=None) \
            .assemble("flat").disassemble()
        other = build_benchmark("fib", seed=1) \
            .assemble("flat").disassemble()
        assert base == same
        assert base != other

    def test_seed_is_deterministic(self):
        from repro.workloads.generator import build_benchmark
        a = build_benchmark("fib", seed=3).assemble("flat").disassemble()
        b = build_benchmark("fib", seed=3).assemble("flat").disassemble()
        assert a == b

    def test_program_cache_keyed_by_seed(self):
        p0 = benchmark_program("fib", "flat")
        p1 = benchmark_program("fib", "flat", seed=5)
        assert p0 is benchmark_program("fib", "flat")
        assert p0 is not p1


class TestCliTrace:
    def test_run_trace_roundtrip(self, capsys, tmp_path):
        from repro.cli import main
        out = tmp_path / "t.jsonl"
        assert main(["run", "fib", "--model", "vca", "--regs", "64",
                     "--scale", "0.5", "--trace-out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "trace: wrote" in text
        assert out.exists()
        counts = event_counts(read_jsonl(str(out)))
        committed = int(text.split("committed")[1].split()[0])
        assert counts["commit"] == committed

        assert main(["trace", str(out), "--limit", "5"]) == 0
        view = capsys.readouterr().out
        assert "timeline" in view and "more instructions" in view

        assert main(["trace", str(out), "--counts"]) == 0
        ctext = capsys.readouterr().out
        assert "commit" in ctext and str(committed) in ctext

    def test_diag_bench_not_in_pool(self):
        from repro.workloads import ALL_BENCHMARKS, DIAG_BENCHMARKS
        assert "fib" in DIAG_BENCHMARKS
        assert "fib" not in ALL_BENCHMARKS

    def test_run_json_flag(self, capsys, tmp_path):
        from repro.cli import main
        from repro.experiments.export import read_stats_json
        out = tmp_path / "s.json"
        assert main(["run", "fib", "--model", "vca", "--regs", "64",
                     "--scale", "0.3", "--seed", "11",
                     "--json", str(out)]) == 0
        meta, stats = read_stats_json(str(out))
        assert meta["seed"] == 11 and meta["benches"] == ["fib"]
        assert stats.committed > 0


class TestOverhead:
    """Tracing off must be (essentially) free: no events, and guard
    checks far under 5% of the run's wall time."""

    def test_off_leaves_no_footprint(self):
        stats = _traced_run(scale=0.1)
        assert stats.committed > 0
        assert NULL_TRACER.ring_events() == []

    def test_guard_cost_under_budget(self):
        t0 = time.perf_counter()
        stats = _traced_run(scale=0.2)
        run_time = time.perf_counter() - t0

        # A traced run of this config emits one event per guard-site
        # hit; 3x that count generously over-bounds the number of
        # `if tr.enabled` checks the untraced run performed.
        tracer = build_tracer(trace=True)
        traced_stats = _traced_run(scale=0.2, tracer=tracer)
        n_checks = 3 * sum(event_counts(tracer.ring_events()).values())
        assert traced_stats.committed == stats.committed

        tr = NULL_TRACER
        t0 = time.perf_counter()
        for _ in range(n_checks):
            if tr.enabled:  # pragma: no cover - never taken
                raise AssertionError
        guard_time = time.perf_counter() - t0
        assert guard_time < 0.05 * run_time, (
            f"guard checks cost {guard_time:.4f}s "
            f"vs run {run_time:.4f}s")
