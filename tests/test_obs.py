"""Tests for the observability subsystem (repro.obs): tracer sinks,
metrics registry, pipeline view, CLI integration, and the guarantee
that tracing off costs (essentially) nothing."""

import json
import time

import pytest

from repro.config import MachineConfig
from repro.models import build_machine, model_abi
from repro.obs import (
    Histogram, JsonlSink, MetricsRegistry, NULL_TRACER, RingBufferSink,
    Tracer, build_tracer, read_jsonl,
)
from repro.obs.pipeview import event_counts, render_pipeline_view
from repro.workloads.generator import benchmark_program


def _traced_run(model="vca-rw", bench="gzip_graphic", regs=96,
                scale=0.2, tracer=None, metrics=None):
    abi = model_abi(model)
    programs = [benchmark_program(bench, abi, scale=scale)]
    cfg = MachineConfig.baseline(phys_regs=regs)
    machine = build_machine(model, cfg, programs,
                            tracer=tracer, metrics=metrics)
    return machine.run()


@pytest.fixture(scope="module")
def traced():
    """One traced+metered run shared by the reconciliation tests."""
    tracer = build_tracer(trace=True)
    metrics = MetricsRegistry(snapshot_interval=500)
    stats = _traced_run(tracer=tracer, metrics=metrics)
    return tracer.ring_events(), metrics, stats


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


class TestHistogram:
    def test_exact_percentiles(self):
        h = Histogram("h")
        for v in [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]:
            h.record(v)
        assert h.count == 10
        assert h.mean == pytest.approx(5.5)
        assert h.percentile(0) == 1
        assert h.percentile(100) == 10
        assert h.percentile(50) == pytest.approx(5.5)

    def test_interpolated_percentile(self):
        h = Histogram("h")
        for v in (10, 20, 30, 40):
            h.record(v)
        assert h.percentile(50) == pytest.approx(25.0)
        assert h.percentile(25) == pytest.approx(17.5)

    def test_decimation_keeps_exact_aggregates(self):
        h = Histogram("h", max_samples=64)
        n = 10_000
        for v in range(n):
            h.record(v)
        assert h.count == n
        assert h.min == 0 and h.max == n - 1
        assert h.mean == pytest.approx((n - 1) / 2)
        # Decimated samples still locate percentiles to within a few
        # percent of the exact value.
        assert h.percentile(50) == pytest.approx(n / 2, rel=0.1)
        assert h.percentile(90) == pytest.approx(0.9 * n, rel=0.1)

    def test_to_dict(self):
        h = Histogram("h")
        h.record(2)
        h.record(4)
        d = h.to_dict()
        assert d["count"] == 2
        assert d["mean"] == pytest.approx(3.0)
        assert d["min"] == 2 and d["max"] == 4
        assert "p50" in d and "p99" in d

    def test_empty(self):
        h = Histogram("h")
        assert h.count == 0
        assert h.percentile(50) == 0.0
        assert h.to_dict()["count"] == 0


class TestMetricsRegistry:
    def test_counters(self):
        m = MetricsRegistry()
        m.inc("a.b")
        m.inc("a.b", 4)
        m.set("a.c", 7)
        assert m.get("a.b") == 5
        assert m.to_dict()["counters"] == {"a.b": 5, "a.c": 7}

    def test_dist_is_cached_per_name(self):
        m = MetricsRegistry()
        assert m.dist("x") is m.dist("x")

    def test_snapshot_cadence(self):
        m = MetricsRegistry(snapshot_interval=100)
        for cycle in range(0, 350):
            m.inc("c")
            m.tick(cycle)
        snaps = m.to_dict()["snapshots"]
        assert [s["cycle"] for s in snaps] == [100, 200, 300]
        assert snaps[-1]["counters"]["c"] >= snaps[0]["counters"]["c"]

    def test_forced_snapshot_and_extras(self):
        m = MetricsRegistry()          # interval 0: never fires on tick
        m.tick(10)
        assert m.to_dict()["snapshots"] == []
        m.snapshot(42, committed=9)
        (snap,) = m.to_dict()["snapshots"]
        assert snap["cycle"] == 42 and snap["committed"] == 9


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
        events, _, stats = traced
        counts = event_counts(events)
        assert counts.get("spill", 0) == stats.spills
        assert counts.get("fill", 0) == stats.fills
        assert stats.spills > 0 and stats.fills > 0

    def test_lifecycle_counts(self, traced):
        events, _, stats = traced
        counts = event_counts(events)
        assert counts["commit"] == stats.committed
        assert counts["mispredict"] == stats.branch_mispredicts
        assert counts["dl1"] == stats.dl1_accesses

    def test_metrics_mirror_stats(self, traced):
        _, metrics, stats = traced
        c = metrics.to_dict()["counters"]
        assert c["vca.spills"] == stats.spills
        assert c["vca.fills"] == stats.fills
        assert c["pipeline.committed"] == stats.committed
        assert c["pipeline.cycles"] == stats.cycles

    def test_snapshots_and_dists_present(self, traced):
        _, metrics, stats = traced
        d = metrics.to_dict()
        assert len(d["snapshots"]) >= 2
        for name in ("pipeline.iq_occupancy", "pipeline.rob_occupancy",
                     "astq.occupancy"):
            assert d["dists"][name]["count"] > 0
        assert stats.metrics == d

    def test_pipeline_view_renders_real_trace(self, traced):
        events, _, _ = traced
        text = render_pipeline_view(events, limit=8)
        assert "timeline" in text and "[f" in text


class TestStatsSerialization:
    def test_roundtrip(self, traced):
        from repro.pipeline.stats import SimStats
        _, _, stats = traced
        clone = SimStats.from_dict(stats.to_dict())
        assert clone.to_dict() == stats.to_dict()
        assert clone.committed == stats.committed
        assert clone.rename_stalls == stats.rename_stalls

    def test_derived_keys(self, traced):
        _, _, stats = traced
        d = stats.to_dict()
        assert d["committed_total"] == stats.committed
        assert d["ipc"] == pytest.approx(stats.ipc)

    def test_summary_spacing(self, traced):
        _, _, stats = traced
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
        _, _, stats = traced
        path = write_stats_json(str(tmp_path / "s.json"), stats,
                                model="vca-rw")
        meta, clone = read_stats_json(str(path))
        assert meta == {"model": "vca-rw"}
        assert clone.to_dict() == stats.to_dict()

    def test_stats_json_without_schema_rejected(self, traced, tmp_path):
        from repro.experiments.export import read_stats_json
        _, _, stats = traced
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
    """Tracing off must be (essentially) free: no events, no registry
    mutations, and guard checks far under 5% of the run's wall time."""

    def test_off_leaves_no_footprint(self):
        stats = _traced_run(scale=0.1)
        assert stats.metrics == {}
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
