"""Cross-process span tracing, the run ledger, and the tools on top
(`repro top`, `repro report`, `repro bench diff`): span trees survive
the Pipe boundary, every point leaves exactly one tree no matter how
it died, rusage is plausible, the ETA excludes cache hits, and the
ambient null tracer stays free."""

import dataclasses
import io
import json
import os
import time

import pytest

from repro.experiments import runner
from repro.experiments.engine import ParallelEngine, SerialEngine
from repro.experiments.plan import Point
from repro.hooks import NULL_SPANS, current_spans, set_current_spans
from repro.obs.runlog import (
    RunLedger, ledger_points, ledger_spans, ledger_summary, read_ledger,
)
from repro.obs.spans import SpanTracer, assemble_trees

SCALE = 0.05
BENCH = "gzip_graphic"


# ---------------------------------------------------------------------------
# SpanTracer mechanics
# ---------------------------------------------------------------------------

class TestSpanTracer:
    def test_nesting_and_tree_assembly(self):
        sp = SpanTracer()
        a = sp.begin("sweep")
        b = sp.begin("point")
        sp.end(b)
        sp.end(a)
        trees = assemble_trees(sp.export())
        assert len(trees) == 1
        root = trees[0]
        assert root["name"] == "sweep"
        assert [c["name"] for c in root["children"]] == ["point"]
        assert root["t1"] >= root["t0"]
        assert root["cpu1"] >= root["cpu0"]

    def test_context_manager_marks_errors(self):
        sp = SpanTracer()
        with pytest.raises(ValueError):
            with sp.span("point"):
                raise ValueError("boom")
        (span,) = sp.export()
        assert span["status"] == "error"

    def test_end_unwinds_children(self):
        sp = SpanTracer()
        outer = sp.begin("sweep")
        sp.begin("point")  # never explicitly ended
        sp.end(outer)
        assert all(s["t1"] is not None for s in sp.export())

    def test_close_terminates_open_spans(self):
        sp = SpanTracer()
        sp.begin("sweep")
        sp.begin("point")
        sp.close(status="terminated")
        assert {s["status"] for s in sp.export()} == {"terminated"}

    def test_context_propagation_reparents_child_tracer(self):
        parent = SpanTracer()
        root = parent.begin("sweep")
        ctx = parent.context()
        child = SpanTracer.from_context(ctx)
        assert child.trace_id == parent.trace_id
        p = child.begin("point")
        child.end(p)
        parent.end(root)
        merged = parent.export() + child.export()
        trees = assemble_trees(merged)
        assert len(trees) == 1
        assert trees[0]["children"][0]["name"] == "point"

    def test_span_ids_carry_pid(self):
        sp = SpanTracer()
        sp.end(sp.begin("run"))
        (span,) = sp.export()
        assert span["span_id"].startswith(f"{os.getpid():x}-")

    def test_record_synthesizes_finished_span(self):
        sp = SpanTracer()
        sp.record("point", 10.0, 11.5, status="timeout", key="k")
        (span,) = sp.export()
        assert span["status"] == "timeout"
        assert span["t1"] - span["t0"] == pytest.approx(1.5)

    def test_drain_clears(self):
        sp = SpanTracer()
        sp.end(sp.begin("run"))
        assert len(sp.drain()) == 1
        assert sp.drain() == []

    def test_counters_attach_at_end(self):
        sp = SpanTracer()
        s = sp.begin("detailed")
        sp.end(s, **{"profile.fetch.seconds": 0.25})
        (span,) = sp.export()
        assert span["counters"] == {"profile.fetch.seconds": 0.25}


class TestAmbientTracer:
    def test_default_is_inert_null(self):
        sp = current_spans()
        assert sp is NULL_SPANS
        assert not sp.enabled
        with sp.span("anything") as handle:
            handle.counters["x"] = 1  # must not blow up
        assert sp.drain() == []

    def test_set_current_returns_previous(self):
        real = SpanTracer()
        prev = set_current_spans(real)
        try:
            assert current_spans() is real
        finally:
            assert set_current_spans(prev) is real
        assert current_spans() is NULL_SPANS


# ---------------------------------------------------------------------------
# The sweep ledger: one span tree per point, however the point ended
# ---------------------------------------------------------------------------

class TestSweepLedger:
    def _tree_of(self, rec):
        trees = assemble_trees(rec.get("spans") or [])
        assert len(trees) == 1, (
            f"point {rec.get('key', '?')[:12]} has {len(trees)} span "
            f"trees, want exactly 1")
        return trees[0]

    def test_parallel_sweep_one_tree_per_point(
            self, cache, tmp_path, monkeypatch):
        real = runner.run_point

        def flaky(model, benches, *args, **kwargs):
            if benches[0] == "crafty":
                raise RuntimeError("boom")
            if benches[0] == "twolf":
                os._exit(11)
            if benches[0] == "parser":
                time.sleep(30)
            return real(model, benches, *args, **kwargs)

        monkeypatch.setattr(runner, "run_point", flaky)
        cached_pt = Point.run("baseline", (BENCH,), 128, scale=SCALE)
        SerialEngine().run([cached_pt])  # populate the cache

        pts = [cached_pt] + [
            Point.run("baseline", (b,), 256, scale=SCALE)
            for b in (BENCH, "crafty", "twolf", "parser")]
        sampled_pt = dataclasses.replace(
            Point.run("vca-rw", (BENCH,), 192, scale=0.25),
            sample=True, sample_interval=500, sample_count=2)
        pts.append(sampled_pt)
        path = tmp_path / "ledger.jsonl"
        with RunLedger(path, command="test-sweep") as ledger:
            eng = ParallelEngine(workers=2, timeout=1.0,
                                 start_method="fork")
            out = eng.run(pts, ledger=ledger)

        records = read_ledger(path)
        header = records[0]
        assert header["rec"] == "run_start"
        points = ledger_points(records)
        assert len(points) == 6
        # Every span of every record belongs to this run's trace.
        assert {s["trace_id"] for s in ledger_spans(records)} \
            == {header["trace_id"]}

        by_status = {rec["status"]: rec for rec in points.values()}
        assert set(by_status) == {"done", "cached", "failed", "timeout"}

        # Executed point: worker-produced tree with a simulate child.
        done = points[pts[1].cache_key()]
        tree = self._tree_of(done)
        assert tree["name"] == "point"
        assert tree["status"] == "ok"
        assert "simulate" in {c["name"] for c in tree["children"]}
        assert done["cache"] == "miss"

        # Cache hit: parent-side synthesized span, still one tree.
        hit = points[cached_pt.cache_key()]
        assert hit["status"] == "cached"
        assert hit["cache"] == "hit"
        assert self._tree_of(hit)["status"] == "cached"

        # Exception in the worker: tracer closed as an error and the
        # spans still shipped back over the pipe.
        failed = points[pts[2].cache_key()]
        assert failed["status"] == "failed"
        assert self._tree_of(failed)["status"] == "error"

        # Hard crash (os._exit) and timeout: the worker never reported,
        # so the parent synthesizes the terminated/timeout span.
        crashed = points[pts[3].cache_key()]
        assert self._tree_of(crashed)["status"] == "terminated"
        timed = points[pts[4].cache_key()]
        assert timed["status"] == "timeout"
        assert self._tree_of(timed)["status"] == "timeout"

        # rusage: plausible numbers from the worker process.
        ru = done["rusage"]
        assert ru["utime"] >= 0 and ru["stime"] >= 0
        assert ru["maxrss_kb"] > 1024     # > 1 MiB: a real process
        assert ru["minflt"] >= 0 and ru["majflt"] >= 0

        # Sampled point: the functional pass and the round hang off
        # the point span.
        sampled = points[sampled_pt.cache_key()]
        names = {c["name"]
                 for c in self._tree_of(sampled)["children"]}
        assert {"fast_forward", "rse_round"} <= names

        # run_end carries the root sweep span with outcome counters.
        end = records[-1]
        assert end["rec"] == "run_end"
        (sweep,) = end["spans"]
        assert sweep["name"] == "sweep"
        assert sweep["counters"]["points.done"] == 2
        assert out[pts[4]].status == "timeout"

        # The HTML report renders one waterfall per point (+ the
        # sweep root) from this very ledger.
        from repro.obs.htmlreport import render_html
        html = render_html(records)
        assert html.count("<h3 class='meta'>") == len(points) + 1
        assert "Span waterfall" in html

    def test_sampled_point_interval_spans(self, cache, tmp_path):
        pt = dataclasses.replace(
            Point.run("vca-rw", (BENCH,), 256, scale=0.25),
            sample=True, sample_interval=500, sample_count=2)
        path = tmp_path / "ledger.jsonl"
        with RunLedger(path) as ledger:
            SerialEngine(use_cache=False).run([pt], ledger=ledger)
        (rec,) = ledger_points(read_ledger(path)).values()
        tree = self._tree_of(rec)
        # A fixed-count point is one functional pass and one round;
        # the interval phases hang off the round.
        assert [c["name"] for c in tree["children"]] \
            == ["fast_forward", "rse_round"]
        (rnd,) = [c for c in tree["children"]
                  if c["name"] == "rse_round"]
        names = [c["name"] for c in rnd["children"]]
        assert names.count("detailed") == 2
        # Each interval's machine build and state seeding is its own
        # phase, so it is not hidden in the round's self time.
        assert names.count("seed") == names.count("detailed")
        detailed = [c for c in rnd["children"]
                    if c["name"] == "detailed"]
        # The detailed interval carries per-stage attribution.
        for d in detailed:
            profiled = [k for k in d["counters"]
                        if k.startswith("profile.")
                        and k.endswith(".seconds")]
            assert len(profiled) >= 4

    def test_serial_and_parallel_agree_on_ledger_shape(
            self, cache, tmp_path):
        pts = [Point.run("baseline", (BENCH,), r, scale=SCALE)
               for r in (128, 256)]
        shapes = []
        for eng in (SerialEngine(use_cache=False),
                    ParallelEngine(workers=2, use_cache=False,
                                   start_method="fork")):
            path = tmp_path / f"{type(eng).__name__}.jsonl"
            with RunLedger(path) as ledger:
                eng.run(pts, ledger=ledger)
            shape = sorted(
                (rec["status"],
                 tuple(sorted(c["name"] for c in
                              self._tree_of(rec)["children"])))
                for rec in ledger_points(read_ledger(path)).values())
            shapes.append(shape)
        assert shapes[0] == shapes[1]

    def test_resume_from_ledger_executes_nothing(
            self, cache, tmp_path, monkeypatch):
        pts = [Point.run("baseline", (BENCH,), r, scale=SCALE)
               for r in (128, 256)]
        path = tmp_path / "ledger.jsonl"
        with RunLedger(path) as ledger:
            SerialEngine().run(pts, ledger=ledger)

        monkeypatch.setattr(runner, "run_point", _must_not_run)
        with RunLedger(path) as ledger:
            out = SerialEngine().run(pts, ledger=ledger)
        assert {oc.status for oc in out.values()} == {"cached"}
        # The re-run appended its own complete record set.
        hits = [rec for rec in read_ledger(path)
                if rec["rec"] == "point" and rec["cache"] == "hit"]
        assert len(hits) == 2

    def test_ledger_off_means_no_spans_on_outcomes(self, cache):
        pt = Point.run("baseline", (BENCH,), 128, scale=SCALE)
        out = SerialEngine(use_cache=False).run([pt])
        assert out[pt].spans is None
        assert current_spans() is NULL_SPANS


def _must_not_run(*args, **kwargs):
    raise AssertionError("a re-run must not execute completed points")


# ---------------------------------------------------------------------------
# ETA: cache hits must not pollute the rate estimate
# ---------------------------------------------------------------------------

class TestEta:
    def test_cached_points_excluded_from_rate(self, cache, monkeypatch):
        from tests.test_plan_engine import fake_result

        def slow(model, benches, phys_regs, dl1_ports=2, scale=1.0,
                 use_cache=True, **sample):
            time.sleep(0.05)
            return fake_result(model, benches, phys_regs, dl1_ports,
                               scale)

        cached = [Point.run("baseline", (BENCH,), r, scale=SCALE)
                  for r in (64, 96)]
        SerialEngine().run(cached)  # populate the cache (real runner)
        monkeypatch.setattr(runner, "run_point", slow)
        fresh = [Point.run("baseline", (BENCH,), r, scale=SCALE)
                 for r in (128, 256)]

        snaps = []
        SerialEngine().run(
            cached + fresh,
            progress=lambda p: snaps.append((p.completed, p.executed,
                                             p.eta)))
        # Cache hits resolve first: no executed sample yet, so no ETA
        # (rather than an ETA extrapolated from ~0s cache loads).
        assert [s[2] for s in snaps if s[1] == 0] == [None, None]
        # After the first executed point: one 50ms sample, one point
        # left, serial engine -> eta ~= one average point, not ~0.
        (eta_mid,) = [s[2] for s in snaps if s[0] == 3]
        assert 0.02 < eta_mid < 2.0
        assert snaps[-1][2] == 0.0

    def test_parallel_eta_counts_waves(self, cache, monkeypatch):
        from repro.experiments.engine import SweepProgress, _EngineBase
        # 7 points left on 4 workers is 2 waves, not 7/4 of a point.
        eng = ParallelEngine(workers=4)
        assert eng.workers == 4
        import math
        assert math.ceil(7 / eng.workers) == 2


# ---------------------------------------------------------------------------
# Ledger readers, dashboard, HTML report
# ---------------------------------------------------------------------------

def _synthetic_ledger(path, with_end=True):
    sp = SpanTracer()
    root = sp.begin("sweep")
    ledger = RunLedger(path, command="sweep rw", config_hash="c0ffee")
    ledger.run_start(total=3, workers=2, trace_id=sp.trace_id)
    ledger.point_start("k1", "baseline/fib/r128")
    d = sp.begin("point", label="baseline/fib/r128")
    det = sp.begin("detailed")
    sp.end(det, **{"profile.fetch.seconds": 0.08,
                   "profile.commit.seconds": 0.02})
    sp.end(d)
    ledger.point("k1", "done",
                 point={"label": "baseline/fib/r128"},
                 payload={"cycles": 1000, "committed": [800],
                          "spills": 5, "fills": 2},
                 elapsed=1.25, cache="miss",
                 rusage={"utime": 1.0, "stime": 0.1,
                         "maxrss_kb": 51200, "minflt": 10,
                         "majflt": 0},
                 spans=sp.drain())
    ledger.point_start("k2", "vca-rw/fib/r128")
    ledger.point("k2", "cached",
                 point={"label": "vca-rw/fib/r128"},
                 payload={"cycles": 900, "committed": [810]},
                 cache="hit")
    ledger.point_start("k3", "vca-rw/fib/r256")  # still running
    if with_end:
        ledger.point("k3", "failed", error="boom",
                     point={"label": "vca-rw/fib/r256"})
        sp.end(root)
        ledger.run_end(status="ok",
                       counts={"done": 1, "cached": 1, "failed": 1},
                       elapsed=2.0, spans=sp.drain())
    ledger.close()
    return path


class TestLedgerReaders:
    def test_summary_aggregates(self, tmp_path):
        records = read_ledger(
            _synthetic_ledger(tmp_path / "l.jsonl"))
        s = ledger_summary(records)
        assert s["total"] == 3 and s["resolved"] == 3
        assert s["counts"] == {"done": 1, "cached": 1, "failed": 1}
        assert s["cache_hit_rate"] == pytest.approx(1 / 3)
        assert s["cycles"] == 1900
        assert s["spills"] == 5
        assert s["maxrss_kb"] == 51200
        assert s["cpu_seconds"] == pytest.approx(1.1)
        assert s["running"] == []

    def test_running_points_are_started_not_finished(self, tmp_path):
        records = read_ledger(_synthetic_ledger(
            tmp_path / "l.jsonl", with_end=False))
        s = ledger_summary(records)
        assert [r["key"] for r in s["running"]] == ["k3"]
        assert not s["end"]

    def test_read_ledger_skips_corrupt_lines(self, tmp_path):
        path = _synthetic_ledger(tmp_path / "l.jsonl")
        whole = read_ledger(path)
        with open(path, "a") as fh:
            fh.write('\n[1, 2]\n{"rec": "point", "key": "half')
        records = read_ledger(path)
        assert records == whole
        assert all(isinstance(r, dict) and "rec" in r for r in records)

    def test_old_resumed_records_count_but_are_not_hits(self, tmp_path):
        # Ledgers written before the store became the one resume
        # source hold ``resumed`` points; they still render.
        from repro.obs.dashboard import render_top
        from repro.obs.htmlreport import render_html
        path = tmp_path / "old.jsonl"
        with RunLedger(path) as ledger:
            ledger.run_start(total=2, workers=1, trace_id="t")
            ledger.point("k1", "done", payload={"cycles": 10,
                                                "committed": [8]},
                         point={"label": "baseline/fib/r128"},
                         cache="miss")
            ledger.point("k2", "resumed", payload={"cycles": 10,
                                                   "committed": [9]},
                         point={"label": "baseline/fib/r256"},
                         cache="hit")
            ledger.run_end(status="ok",
                           counts={"done": 1, "resumed": 1})
        records = read_ledger(path)
        s = ledger_summary(records)
        assert s["resolved"] == s["total"] == 2
        assert s["cache_hit_rate"] == 0.0
        assert "2/2 points" in render_top(records)
        assert "baseline/fib/r256" in render_html(records)

    def test_ledger_is_loadable_as_journal(self, tmp_path):
        path = _synthetic_ledger(tmp_path / "l.jsonl")
        prior = ledger_points(read_ledger(path))
        # point records win over their point_start predecessors.
        assert prior["k1"]["status"] == "done"
        assert prior["k3"]["status"] == "failed"


class TestDashboard:
    def test_render_top_content(self, tmp_path):
        records = read_ledger(_synthetic_ledger(tmp_path / "l.jsonl"))
        from repro.obs.dashboard import render_top
        screen = render_top(records)
        assert "3/3 points" in screen
        assert "FINISHED" in screen
        assert "cache hit rate 33%" in screen
        assert "failed/timeout: vca-rw/fib/r256" in screen

    def test_render_top_mid_run(self, tmp_path):
        records = read_ledger(_synthetic_ledger(
            tmp_path / "l.jsonl", with_end=False))
        from repro.obs.dashboard import render_top
        screen = render_top(records)
        assert "running" in screen
        assert "vca-rw/fib/r256" in screen  # the in-flight point

    def test_top_loop_exit_codes(self, tmp_path):
        from repro.obs.dashboard import top_loop
        done = _synthetic_ledger(tmp_path / "done.jsonl")
        out = io.StringIO()
        assert top_loop(done, max_ticks=1, out=out, clear=False) == 0
        midrun = _synthetic_ledger(tmp_path / "mid.jsonl",
                                   with_end=False)
        assert top_loop(midrun, interval=0.0, max_ticks=2,
                        out=io.StringIO(), clear=False) == 1

    def test_eta_mirrors_engine_waves(self, tmp_path):
        from repro.obs.dashboard import eta_seconds
        records = read_ledger(_synthetic_ledger(
            tmp_path / "l.jsonl", with_end=False))
        s = ledger_summary(records)
        # one executed sample (1.25s), one unresolved point, 2 workers.
        assert eta_seconds(s["executed_elapsed"],
                           s["total"] - s["resolved"],
                           s["header"]["workers"]) == pytest.approx(1.25)
        # The rule the engine's progress callback shares: no estimate
        # before the first executed point, zero when nothing remains,
        # and whole waves (3 points on 2 workers cost 2 points).
        assert eta_seconds([], 3, 2) is None
        assert eta_seconds([], 0, 2) == 0.0
        assert eta_seconds([1.0, 2.0], 3, 2) == pytest.approx(3.0)


class TestHtmlReport:
    def test_report_is_self_contained(self, tmp_path):
        from repro.obs.htmlreport import render_html
        records = read_ledger(_synthetic_ledger(tmp_path / "l.jsonl"))
        html = render_html(records)
        assert html.startswith("<!DOCTYPE html>")
        assert "http" not in html.split("</style>")[1]  # no ext assets
        assert "Span waterfall" in html
        assert "baseline/fib/r128" in html
        assert 'class="flame"' in html      # stage attribution strip
        assert html.count('class="row"') >= 3
        assert "boom" not in html or True   # failed row renders
        assert '<tr class="failed">' in html

    def test_empty_spans_note(self, tmp_path):
        from repro.obs.htmlreport import render_html
        path = tmp_path / "l.jsonl"
        with RunLedger(path) as ledger:
            ledger.run_start(total=0, workers=1, trace_id="t")
            ledger.run_end(status="ok", counts={})
        html = render_html(read_ledger(path))
        assert "no spans recorded" in html


# ---------------------------------------------------------------------------
# bench diff
# ---------------------------------------------------------------------------

def _bench_result(metrics, workload="figures-rw", failed=0):
    """A synthetic `python -m bench run --out` document."""
    return {"provenance": {"commit": "c0ffee", "dirty": False},
            "workloads": {workload: {
                "correct": failed == 0, "attempted": 3, "failed": failed,
                "params": {"scale": 0.25},
                "metrics": {name: {"value": v, "unit": "s"}
                            for name, v in metrics.items()}}}}


def _write(tmp_path, doc, name="result.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def _history(tmp_path, *results, name="hist.json"):
    """A history holding ``results``, each appended by bench_record."""
    from repro.experiments.benchdiff import bench_record
    path = tmp_path / name
    path.write_text("[]")
    for res in results:
        assert bench_record(_write(tmp_path, res, "rec.json"), path,
                            out=lambda *_: None) == 0
    return path


class TestBenchDiff:
    def test_baseline_is_median_of_window(self, tmp_path):
        from repro.experiments.benchdiff import (
            history_baseline, load_history,
        )
        results = [_bench_result({"wall_s": v})
                   for v in (100, 200, 300, 400, 500, 600, 9999)]
        # Another workload's entry does not join figures-rw's window.
        results.insert(4, _bench_result({"wall_s": 1}, "figures-smt"))
        hist = load_history(_history(tmp_path, *results))
        assert len(hist) == 8
        entry = hist[0]
        assert entry["schema_version"] == 2
        assert entry["provenance"] == {"commit": "c0ffee", "dirty": False}
        assert entry["workloads"] == {"figures-rw": {
            "params": {"scale": 0.25},
            "metrics": {"wall_s": {"value": 100, "unit": "s"}}}}
        # Window of 5 most recent: 300..600 + 9999 -> median 500.
        assert history_baseline(hist, "figures-rw", "wall_s") == 500
        assert history_baseline(hist, "figures-smt", "wall_s") == 1
        assert history_baseline(hist, "sampled-sweep", "wall_s") is None
        assert history_baseline(hist, "figures-rw", "cpu_s") is None

    def test_diff_rows_flag_regressions(self, tmp_path):
        from repro.experiments.benchdiff import (
            _declared_metrics, diff_rows, load_history,
        )
        cps = "pipeline.cycles_per_s.vca-rw"
        hist = load_history(_history(tmp_path, _bench_result(
            {"wall_s": 10.0, cps: 1000.0})))
        declared = _declared_metrics()

        def row(wall, rate):
            rows = diff_rows(_bench_result({"wall_s": wall, cps: rate}),
                             hist, declared)
            return {r["metric"]: r for r in rows}

        ok = row(12.0, 1000.0)["wall_s"]
        assert ok["better"] == "lower" and ok["bound"] == 0.25
        assert ok["change"] == pytest.approx(0.2)
        assert ok["regressed"] is False
        assert row(13.0, 1000.0)["wall_s"]["regressed"] is True
        assert row(5.0, 1000.0)["wall_s"]["regressed"] is False
        # A per-layer row reports its change but never regresses.
        layer = row(10.0, 100.0)[cps]
        assert layer["better"] == "higher"
        assert layer["change"] == pytest.approx(-0.9)
        assert layer["bound"] is None and layer["regressed"] is None
        # Direction comes from the declaration: higher-is-better
        # regresses on a drop.
        up = {"wall_s": {"better": "higher", "bound": 0.25}}
        drop = diff_rows(_bench_result({"wall_s": 7.0}), hist, up)
        assert drop[0]["regressed"] is True
        rise = diff_rows(_bench_result({"wall_s": 13.0}), hist, up)
        assert rise[0]["regressed"] is False

    def test_zero_baseline(self, tmp_path, capsys):
        from repro.experiments.benchdiff import bench_diff
        hist = _history(tmp_path, _bench_result(
            {"engine.points_cached": 0}, "sampled-sweep"))
        out = tmp_path / "diff.json"
        res = _write(tmp_path, _bench_result(
            {"engine.points_cached": 0}, "sampled-sweep"))
        assert bench_diff(res, hist, json_out=out) == 0
        (row,) = json.loads(out.read_text())["rows"]
        assert row["baseline"] == 0 and row["change"] is None
        assert "no history" not in capsys.readouterr().out

    def test_exit_codes(self, tmp_path, capsys):
        from repro.experiments.benchdiff import bench_diff
        hist = _history(tmp_path, _bench_result({"wall_s": 10.0}))
        slow = _write(tmp_path, _bench_result({"wall_s": 13.0}))
        fine = _write(tmp_path, _bench_result({"wall_s": 10.5}),
                      "fine.json")
        out = tmp_path / "diff.json"
        assert bench_diff(slow, hist, json_out=out) == 1
        (row,) = json.loads(out.read_text())["rows"]
        assert row["workload"] == "figures-rw"
        assert row["metric"] == "wall_s" and row["regressed"]
        assert bench_diff(slow, hist, report_only=True) == 0
        assert bench_diff(fine, hist) == 0
        # No usable history: 2, which --report-only turns into 0.
        other = _history(tmp_path, _bench_result({"wall_s": 10.0},
                                                 "figures-smt"),
                         name="other.json")
        assert bench_diff(fine, other) == 2
        assert bench_diff(fine, other, report_only=True) == 0
        # An unusable result or history is 2 whatever --report-only
        # says.
        for doc in (_bench_result({"wall_s": 10.0}, failed=1),
                    {"rows": []}):
            bad = _write(tmp_path, doc, "bad.json")
            assert bench_diff(bad, hist, report_only=True) == 2
        assert bench_diff(tmp_path / "missing.json", hist,
                          report_only=True) == 2
        for text in ("[{", json.dumps([{"schema": "repro.bench-perf",
                                        "schema_version": 1,
                                        "results": {}}])):
            other.write_text(text)
            assert bench_diff(fine, other, report_only=True) == 2
        capsys.readouterr()

    def test_result_without_failure_counts_is_refused_by_name(
            self, tmp_path, capsys):
        # A history entry has params and metrics but no failure count:
        # refused, with a message that says what is missing rather
        # than reporting failures that never happened.
        from repro.experiments.benchdiff import bench_diff, load_history
        hist = _history(tmp_path, _bench_result({"wall_s": 10.0}),
                        _bench_result({"wall_s": 9.0}, "figures-smt"))
        entry = dict(load_history(hist)[0])
        entry["workloads"].update(load_history(hist)[1]["workloads"])
        assert bench_diff(_write(tmp_path, entry), hist) == 2
        err = capsys.readouterr().err
        assert "no failure count (`failed`) for figures-rw, " \
               "figures-smt" in err
        assert "operations failed" not in err

    def test_record_refuses_and_leaves_history_untouched(self, tmp_path,
                                                         capsys):
        from repro.experiments.benchdiff import bench_record
        hist = _history(tmp_path, _bench_result({"wall_s": 10.0}))
        before = hist.read_bytes()
        for doc in (_bench_result({"wall_s": 9.0}, failed=2),
                    {"rows": []}, _bench_result({"wall_s": "fast"})):
            assert bench_record(_write(tmp_path, doc), hist) == 2
            assert hist.read_bytes() == before
        good = _write(tmp_path, _bench_result({"wall_s": 9.0}),
                      "good.json")
        for text in ("[{", '{"entries": []}',
                     '[{"schema": "repro.bench-perf", '
                     '"schema_version": 1, "results": {}}]'):
            hist.write_text(text)
            assert bench_record(good, hist) == 2
            assert hist.read_text() == text
        assert "failed" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

class TestCli:
    def test_run_ledger_and_report(self, cache, tmp_path, capsys):
        from repro.cli import main
        path = tmp_path / "run.jsonl"
        assert main(["run", "fib", "--scale", "0.2",
                     "--ledger", str(path)]) == 0
        points = ledger_points(read_ledger(path))
        (rec,) = points.values()
        assert rec["status"] == "done"
        names = {s["name"] for s in rec["spans"]}
        assert {"point", "simulate"} <= names

        out = tmp_path / "r.html"
        assert main(["report", str(path), "--out", str(out)]) == 0
        assert "Span waterfall" in out.read_text()
        assert main(["top", str(path), "--once"]) == 0
        capsys.readouterr()

    def test_run_ledger_keys_name_the_configuration(self, cache,
                                                    tmp_path, capsys):
        from repro.cli import main
        path = tmp_path / "run.jsonl"
        base = ["run", "fib", "--scale", "0.2", "--ledger", str(path)]
        sample = ["--sample", "--sample-interval", "500"]
        for extra in ([], ["--ports", "1"], ["--scale", "0.3"], [],
                      sample + ["--sample-count", "2"],
                      sample + ["--sample-count", "3"]):
            assert main(base + extra) == 0
        records = read_ledger(path)
        assert sum(r["rec"] == "point" for r in records) == 6
        # The two identical runs share a key; every other run has its
        # own, so `repro top` and `repro report` show all five.
        assert len(ledger_points(records)) == 5
        capsys.readouterr()

    def test_report_missing_file(self, tmp_path, capsys):
        from repro.cli import main
        assert main(["report", str(tmp_path / "nope.jsonl")]) == 2
        capsys.readouterr()

    def test_cycle_range_parsing(self):
        from repro.cli.obscmd import _in_cycle_range, _parse_cycle_range
        assert _parse_cycle_range("10:20") == (10, 20)
        assert _parse_cycle_range(":20") == (None, 20)
        assert _parse_cycle_range("10:") == (10, None)
        with pytest.raises(ValueError):
            _parse_cycle_range("10")
        assert _in_cycle_range({"cycle": 15}, 10, 20)
        assert not _in_cycle_range({"cycle": 25}, 10, 20)
        assert _in_cycle_range({"cycle": 25}, 10, None)

    def test_trace_cycle_range_and_follow(self, tmp_path, capsys):
        from repro.cli import main
        trace = tmp_path / "t.jsonl"
        trace.write_text(
            '{"cycle": 1, "tid": 0, "kind": "fetch", "seq": 0}\n'
            '{"cycle": 5, "tid": 0, "kind": "commit", "seq": 0}\n')
        assert main(["trace", str(trace), "--counts",
                     "--cycle-range", "2:9"]) == 0
        out = capsys.readouterr().out
        assert "commit" in out and "fetch" not in out
        assert main(["trace", str(trace), "--follow",
                     "--idle-timeout", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "fetch" in out and "commit" in out
        assert main(["trace", str(trace), "--cycle-range", "oops"]) == 2
        capsys.readouterr()

    def test_bench_record_wired(self, tmp_path, capsys):
        from repro.cli import main
        hist = tmp_path / "hist.json"
        res = _write(tmp_path, _bench_result({"wall_s": 10.0}))
        assert main(["bench", "record", str(res),
                     "--history", str(hist)]) == 0
        assert main(["bench", "record", str(res),
                     "--history", str(hist)]) == 0
        assert len(json.loads(hist.read_text())) == 2
        capsys.readouterr()

    def test_bench_diff_wired(self, tmp_path, capsys):
        from repro.cli import main
        hist = _history(tmp_path, _bench_result({"wall_s": 10.0}))
        res = _write(tmp_path, _bench_result({"wall_s": 20.0}))
        out = tmp_path / "diff.json"
        assert main(["bench", "diff", str(res), "--history", str(hist),
                     "--report-only", "--json", str(out)]) == 0
        assert json.loads(out.read_text())["rows"][0]["regressed"]
        assert main(["bench", "diff", str(res),
                     "--history", str(hist)]) == 1
        capsys.readouterr()


# ---------------------------------------------------------------------------
# Observational purity: tracing must never perturb SimStats
# ---------------------------------------------------------------------------

class TestDigestStability:
    def _digest(self, stats):
        import hashlib
        return hashlib.sha256(
            json.dumps(stats.to_dict(), sort_keys=True)
            .encode()).hexdigest()

    def test_stats_bit_identical_with_tracing_enabled(self):
        from repro.config import MachineConfig
        from repro.models import build_machine, model_abi
        from repro.sampling import SamplingConfig, run_sampled
        from repro.workloads.generator import benchmark_program

        def full():
            cfg = MachineConfig.baseline(phys_regs=256, dl1_ports=2)
            prog = benchmark_program("fib", model_abi("vca-rw"),
                                     scale=0.5)
            return build_machine("vca-rw", cfg, [prog]).run()

        def sampled():
            cfg = MachineConfig.baseline(phys_regs=256, dl1_ports=2,
                                         n_threads=1)
            prog = benchmark_program("fib", model_abi("vca-rw"),
                                     scale=0.5)
            stats, _ = run_sampled(
                "vca-rw", cfg, prog,
                SamplingConfig(interval_len=500, n_detailed=2))
            return stats

        for run in (full, sampled):
            base = self._digest(run())
            prev = set_current_spans(SpanTracer())
            try:
                traced = self._digest(run())
            finally:
                set_current_spans(prev)
            assert base == traced, f"{run.__name__} stats perturbed"


# ---------------------------------------------------------------------------
# Overhead: the ambient null tracer must be (essentially) free
# ---------------------------------------------------------------------------

class TestOverhead:
    def test_null_guard_cost_under_budget(self):
        from repro.config import MachineConfig
        from repro.models import build_machine, model_abi
        from repro.workloads.generator import benchmark_program

        prog = benchmark_program("fib", model_abi("vca-rw"), scale=0.5)
        cfg = MachineConfig.baseline(phys_regs=256, dl1_ports=2)
        t0 = time.perf_counter()
        stats = build_machine("vca-rw", cfg, [prog]).run()
        run_time = time.perf_counter() - t0

        # The sampler consults current_spans() once per interval and
        # enters three spans per detailed interval; 1000 no-op span
        # entries generously over-bound a sampled run's guard work.
        sp = current_spans()
        assert sp is NULL_SPANS
        t0 = time.perf_counter()
        for _ in range(1000):
            with sp.span("detailed", interval=0) as h:
                if sp.enabled:  # pragma: no cover - never taken
                    h.counters["x"] = 1
        guard_time = time.perf_counter() - t0
        assert stats.cycles > 0
        assert guard_time < 0.05 * run_time, (
            f"null span guards cost {guard_time:.4f}s "
            f"vs run {run_time:.4f}s")
