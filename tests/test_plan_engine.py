"""Tests for declarative sweep plans and the execution engine:
expansion, cache-aware scheduling, fault isolation, re-running
against the store, worker environment propagation, and cache
robustness."""

import multiprocessing as mp
import os
import signal
import sqlite3
import threading
import time
from contextlib import closing
from multiprocessing import connection as mp_connection

import pytest

from repro.experiments import runner
from repro.experiments.engine import (
    EngineError, ParallelEngine, SerialEngine, Worker,
    apply_repro_env, execute_plan, repro_env,
)
from repro.experiments.plan import (
    Point, SweepSpec, point_from_params, unique_points,
)
from repro.experiments.runner import RunResult
from repro.experiments.store import SqliteStore, active_store
from repro.obs.runlog import RunLedger

SCALE = 0.05
BENCH = "gzip_graphic"


def stored(path):
    """Every ``{key: payload}`` in the sqlite store at ``path``."""
    with SqliteStore(path) as db:
        return {key: db.load(key) for key in db.keys()}


def reaped(pid):
    """Whether process ``pid`` is gone: it exited and was reaped."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


def fake_result(model, benches, phys_regs, dl1_ports=2, scale=1.0,
                use_cache=True, **sample):
    return RunResult(model=model, benches=tuple(benches),
                     phys_regs=phys_regs, dl1_ports=dl1_ports,
                     scale=scale, cycles=100, committed=(50,))


class TestPlan:
    def test_expansion_order_and_size(self):
        spec = SweepSpec.build(
            "t", axes={"model": ("baseline", "vca-rw"),
                       "phys_regs": (128, 256),
                       "bench": (BENCH,)},
            dl1_ports=1, scale=0.5)
        pts = spec.points()
        assert len(pts) == spec.size == 4
        assert pts[0] == Point.run("baseline", (BENCH,), 128,
                                   dl1_ports=1, scale=0.5)
        # Last axis varies fastest.
        assert [ (p.model, p.phys_regs) for p in pts ] == [
            ("baseline", 128), ("baseline", 256),
            ("vca-rw", 128), ("vca-rw", 256)]

    def test_extra_points_deduped(self):
        ref = Point.run("baseline", (BENCH,), 256)
        spec = SweepSpec.build(
            "t", axes={"phys_regs": (128, 256), "bench": (BENCH,)},
            model="baseline", extra=(ref, Point.ratio(BENCH)))
        pts = spec.points()
        # The 256-reg grid point and the reference are the same point.
        assert len(pts) == 3
        assert pts.count(ref) == 1

    def test_workload_axis_spells_benches(self):
        spec = SweepSpec.build(
            "t", axes={"workload": (("a", "b"), ("c", "d"))},
            model="vca", phys_regs=192)
        assert [p.benches for p in spec.points()] == [("a", "b"),
                                                      ("c", "d")]

    def test_unknown_axis_rejected_at_expansion(self):
        spec = SweepSpec.build("t", axes={"phys_reg": (128,)},
                               model="baseline")
        with pytest.raises(TypeError):
            spec.points()

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            SweepSpec.build("t", axes={"model": ()})

    def test_point_from_params_bench_xor_benches(self):
        with pytest.raises(TypeError):
            point_from_params(bench="a", benches=("b",))

    def test_unique_points_preserves_order(self):
        a, b = Point.ratio("a"), Point.ratio("b")
        assert unique_points([b, a, b]) == [b, a]

    def test_cache_keys_match_runner_keys(self):
        # Plans address the same cache entries run_point/path_ratio
        # have always written, so pre-plan caches stay valid.
        p = Point.run("vca", (BENCH,), 192, dl1_ports=1, scale=0.5)
        assert p.cache_key() == runner._cache_key(
            model="vca", benches=(BENCH,), phys_regs=192,
            dl1_ports=1, scale=0.5)
        assert Point.ratio(BENCH).cache_key() == runner._cache_key(
            kind="path_ratio", bench=BENCH)

    def test_probe_points_not_cacheable(self):
        assert not Point.probe().cacheable
        assert Point.run("baseline", (BENCH,), 256).cacheable


class TestSerialEngine:
    def test_statuses_and_cache_resolution(self, cache):
        pts = [Point.run("baseline", (BENCH,), s, scale=SCALE)
               for s in (128, 256)]
        eng = SerialEngine()
        first = eng.run(pts)
        assert all(o.status == "done" for o in first.values())
        second = eng.run(pts)
        assert all(o.status == "cached" for o in second.values())
        assert [o.payload for o in first.values()] == \
               [o.payload for o in second.values()]

    def test_sampled_points_store_under_their_cache_keys(
            self, cache, tmp_path, monkeypatch):
        # Point.cache_key and run_point must gate the same sample_*
        # parameters, or a resolved point misses what its run stored.
        import dataclasses
        path = tmp_path / "keys.sqlite"
        monkeypatch.setenv("REPRO_STORE", str(path))
        fixed = dataclasses.replace(
            Point.run("vca-rw", ("fib",), 256, scale=0.25),
            sample=True, sample_interval=500, sample_count=2)
        pts = [fixed,
               dataclasses.replace(fixed, sample_mode="bbv+mem",
                                   sample_mem_weight=0.7),
               dataclasses.replace(fixed, sample_mode="bbv",
                                   sample_rse=0.05,
                                   sample_rse_metrics=("ipc",),
                                   sample_max=4)]
        out = SerialEngine().run(pts)
        assert [o.status for o in out.values()] == ["done"] * 3
        assert sorted(stored(path)) == sorted(p.cache_key() for p in pts)

    def test_exception_isolated_to_its_point(self, cache):
        good = Point.run("baseline", (BENCH,), 256, scale=SCALE)
        bad = Point.run("baseline", ("no_such_bench",), 256,
                        scale=SCALE)
        out = SerialEngine().run([bad, good])
        assert out[bad].status == "failed"
        assert "no_such_bench" in out[bad].error
        assert out[good].status == "done"
        with pytest.raises(EngineError):
            out[bad].result()

    def test_execute_plan_applies_reduction(self, cache):
        spec = SweepSpec.build(
            "t", axes={"phys_regs": (256,), "bench": (BENCH,)},
            model="baseline", scale=SCALE,
            reduce=lambda outcomes: sorted(
                o.status for o in outcomes.values()))
        assert execute_plan(spec) == ["done"]

    def test_unrunnable_round_trips_through_cache(self, cache):
        pt = Point.run("baseline", (BENCH,), 64, scale=SCALE)
        eng = SerialEngine()
        first = eng.run([pt])[pt]
        assert first.status == "done" and first.result().unrunnable
        second = eng.run([pt])[pt]
        assert second.status == "cached"
        assert second.result() == first.result()

    def test_progress(self, cache):
        seen = []
        pts = [Point.run("baseline", (BENCH,), s, scale=SCALE)
               for s in (128, 256)]
        SerialEngine().run(pts, progress=seen.append)
        assert len(seen) == 2
        assert seen[-1].completed == seen[-1].total == 2
        assert seen[-1].done == 2
        assert seen[-1].eta == 0.0


class TestParallelEngine:
    def test_parallel_matches_serial_cache_and_results(
            self, tmp_path, monkeypatch):
        pts = SweepSpec.build(
            "t", axes={"model": ("baseline", "vca-rw"),
                       "phys_regs": (128, 256), "bench": (BENCH,)},
            scale=SCALE).points()
        monkeypatch.delenv("REPRO_STORE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "serial"))
        serial = SerialEngine().run(pts)
        monkeypatch.setenv("REPRO_CACHE_DIR",
                           str(tmp_path / "parallel"))
        parallel = ParallelEngine(workers=2).run(pts)
        for pt in pts:
            assert serial[pt].payload == parallel[pt].payload
            assert serial[pt].result() == parallel[pt].result()
        # Same cache keys and identical cache values in each store.
        s_rows = stored(tmp_path / "serial" / "results.sqlite")
        p_rows = stored(tmp_path / "parallel" / "results.sqlite")
        assert s_rows == p_rows and len(s_rows) == len(pts)

    def test_worker_exception_crash_and_timeout_isolated(
            self, cache, tmp_path, monkeypatch):
        real = runner.run_point
        log = tmp_path / "starts.log"

        def flaky(model, benches, phys_regs, *args, **kwargs):
            with log.open("a") as f:
                f.write(f"{benches[0]} {os.getpid()}\n")
            if benches[0] == "crafty":
                raise RuntimeError("boom")
            if benches[0] == "twolf":
                os._exit(11)
            if benches[0] == "parser":
                time.sleep(30)
            if benches[0] == "mcf":
                # Keeps the crash's replacement busy past the timeout,
                # so the timed-out slot has a point left to run.
                time.sleep(0.5)
                return fake_result(model, benches, phys_regs)
            return real(model, benches, phys_regs, *args, **kwargs)

        monkeypatch.setattr(runner, "run_point", flaky)
        pts = [Point.run("baseline", (b,), 256, scale=SCALE)
               for b in (BENCH, "crafty", "twolf", "parser")]
        after = [Point.run("baseline", ("mcf",), 64 + i, scale=SCALE)
                 for i in range(4)]
        # fork start method, so workers inherit the monkeypatch.
        eng = ParallelEngine(workers=2, timeout=1.0,
                             start_method="fork", use_cache=False)
        out = eng.run(pts + after)
        assert out[pts[0]].status == "done"
        assert out[pts[1]].status == "failed"
        assert "boom" in out[pts[1]].error
        assert out[pts[2]].status == "failed"
        assert "exitcode 11" in out[pts[2]].error
        assert out[pts[3]].status == "timeout"
        assert [out[pt].status for pt in after] == ["done"] * 4

        starts = [line.split() for line in log.read_text().splitlines()]
        benches = [bench for bench, _pid in starts]
        pids = [int(pid) for _bench, pid in starts]
        pid_of = dict(zip(benches, pids))
        # The process that raised stays in use and runs a later point.
        assert pid_of["crafty"] in pids[benches.index("crafty") + 1:]
        # The crash and the timeout each end only their own process,
        # which runs nothing more, and each slot forks a fresh one.
        for bad in ("twolf", "parser"):
            assert pid_of[bad] not in pids[benches.index(bad) + 1:]
        assert len(set(pids)) == 4
        assert mp.active_children() == []

    def test_parallel_speedup_over_serial(self, cache, monkeypatch):
        # Sleep-dominated points: parallel wall-clock must approach
        # serial / workers even on a single core.
        monkeypatch.setattr(
            runner, "run_point",
            lambda model, benches, phys_regs, dl1_ports=2, scale=1.0,
            use_cache=True, **sample: (time.sleep(0.2),
                             fake_result(model, benches, phys_regs,
                                         dl1_ports, scale))[1])
        pts = [Point.run("baseline", (BENCH,), 64 + i, scale=SCALE)
               for i in range(8)]
        t0 = time.monotonic()
        SerialEngine(use_cache=False).run(pts)
        serial_s = time.monotonic() - t0
        t0 = time.monotonic()
        ParallelEngine(workers=4, start_method="fork",
                       use_cache=False).run(pts)
        parallel_s = time.monotonic() - t0
        assert parallel_s * 2 <= serial_s, \
            f"parallel {parallel_s:.2f}s vs serial {serial_s:.2f}s"

    def test_spawned_worker_sees_repro_environment(
            self, cache, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.123")
        monkeypatch.setenv("REPRO_SMT_K", "2,2,2")
        probe = Point.probe("worker-env")
        eng = ParallelEngine(workers=1, start_method="spawn")
        outcome = eng.run([probe])[probe]
        assert outcome.status == "done"
        payload = outcome.payload
        assert payload["env"]["REPRO_SCALE"] == "0.123"
        assert payload["env"]["REPRO_SMT_K"] == "2,2,2"
        assert payload["env"]["REPRO_CACHE_DIR"] == str(cache)
        assert payload["cache_dir"] == str(cache)
        assert payload["scale"] == 0.123

    def test_apply_repro_env_is_exact(self, monkeypatch):
        monkeypatch.setenv("REPRO_STALE", "1")
        monkeypatch.setenv("REPRO_SCALE", "1.0")
        apply_repro_env({"REPRO_SCALE": "0.5"})
        assert os.environ["REPRO_SCALE"] == "0.5"
        assert "REPRO_STALE" not in os.environ
        assert repro_env() == {"REPRO_SCALE": "0.5"}


def run_on(worker, point):
    """Run ``point`` on ``worker`` and return its outcome."""
    worker.start(point, use_cache=False)
    outcome = None
    while outcome is None:
        mp_connection.wait([worker.conn], timeout=1.0)
        outcome = worker.poll(time.monotonic(), timeout=120)
    return outcome


class TestPooledWorkers:
    """A worker process runs point after point: each slot keeps one
    process, its points cannot see one another, its memory stays
    flat, and its owner reaps it."""

    def test_slots_reuse_their_process_and_run_reaps_it(self, cache):
        pts = [Point.probe(f"reuse-{i}") for i in range(6)]
        out = ParallelEngine(workers=2).run(pts)
        assert [out[pt].status for pt in pts] == ["done"] * 6
        pids = {out[pt].payload["pid"] for pt in pts}
        assert len(pids) <= 2
        assert mp.active_children() == []
        assert all(reaped(pid) for pid in pids)

    def test_points_sharing_a_process_are_independent(self, cache):
        pts = [Point.run("baseline", (BENCH,), 128, scale=SCALE),
               Point.run("vca-rw", (BENCH,), 64, scale=SCALE),
               Point.run("vca-rw", ("twolf",), 128, scale=SCALE),
               Point.run("vca", (BENCH, "twolf"), 192, scale=SCALE)]
        eng = ParallelEngine(workers=1, use_cache=False)
        forward = eng.run(pts)
        backward = eng.run(pts[::-1])
        for pt in pts:
            assert forward[pt].status == backward[pt].status == "done"
            assert forward[pt].payload == backward[pt].payload

    def test_memory_returns_to_where_it_began(self, cache):
        pt = Point.run("vca-rw", ("twolf",), 128, scale=0.2)
        worker = Worker()
        try:
            outcomes = [run_on(worker, pt) for _ in range(5)]
        finally:
            worker.kill()
        assert [o.status for o in outcomes] == ["done"] * 5
        rss = [o.rusage["maxrss_kb"] for o in outcomes]
        assert rss[-1] <= rss[0] * 1.05, rss

    def test_a_worker_peaks_no_higher_than_its_largest_point(self, cache):
        # Eight programs: kept across points, they would raise the
        # high-water mark by about 8%.
        pts = [Point.run("baseline", (bench,), 256, scale=0.3)
               for bench in ("bzip2_graphic", "crafty", "eon_rushmeier",
                             "gap", "gcc_expr", BENCH, "parser",
                             "perlbmk_535")]
        alone = []
        for pt in pts:
            worker = Worker()
            try:
                alone.append(run_on(worker, pt).rusage["maxrss_kb"])
            finally:
                worker.kill()
        worker = Worker()
        try:
            outcomes = [run_on(worker, pt) for pt in pts]
        finally:
            worker.kill()
        assert [o.status for o in outcomes] == ["done"] * len(pts)
        pooled = outcomes[-1].rusage["maxrss_kb"]
        assert pooled <= max(alone) * 1.03, (pooled, alone)

    def test_a_worker_killed_while_idle_fails_only_its_next_point(
            self, cache):
        worker = Worker()
        try:
            assert run_on(worker, Point.probe("before")).status == "done"
            os.kill(worker.proc.pid, signal.SIGKILL)
            worker.proc.join(timeout=10)
            outcome = run_on(worker, Point.probe("after"))
        finally:
            worker.kill()
        assert outcome.status == "failed"
        assert "exitcode -9" in outcome.error
        assert not worker.idle


def run_with_ledger(engine, points, path, **kwargs):
    """One engine run appending to the run ledger at ``path``."""
    ledger = RunLedger(path)
    try:
        return engine.run(points, ledger=ledger, **kwargs)
    finally:
        ledger.close()


class TestRerunResume:
    """The result store is the one resume source: a re-run executes
    exactly the points with no store row."""

    def test_rerun_executes_zero_completed_points(
            self, cache, tmp_path, monkeypatch):
        path = tmp_path / "ledger.jsonl"
        pts = [Point.run("baseline", (BENCH,), s, scale=SCALE)
               for s in (128, 256)]
        first = run_with_ledger(SerialEngine(), pts, path)
        assert all(o.status == "done" for o in first.values())

        def must_not_run(*args, **kwargs):
            raise AssertionError("re-run executed a completed point")

        monkeypatch.setattr(runner, "run_point", must_not_run)
        again = run_with_ledger(SerialEngine(), pts, path)
        assert all(o.status == "cached" for o in again.values())
        for pt in pts:
            assert again[pt].result() == first[pt].result()

    def test_rerun_retries_failed_points(self, cache, tmp_path,
                                         monkeypatch):
        path = tmp_path / "ledger.jsonl"
        pt = Point.run("baseline", (BENCH,), 256, scale=SCALE)
        monkeypatch.setattr(
            runner, "run_point",
            lambda *a, **k: (_ for _ in ()).throw(RuntimeError("x")))
        out = run_with_ledger(SerialEngine(), [pt], path)
        assert out[pt].status == "failed"

        calls = []
        monkeypatch.setattr(
            runner, "run_point",
            lambda *a, **k: calls.append(a) or fake_result(*a, **k))
        out = run_with_ledger(SerialEngine(), [pt], path)
        assert out[pt].status == "done" and len(calls) == 1

    def test_no_cache_rerun_starts_over(self, cache, tmp_path,
                                        monkeypatch):
        path = tmp_path / "ledger.jsonl"
        pts = [Point.run("baseline", (BENCH,), s, scale=SCALE)
               for s in (128, 256)]
        run_with_ledger(SerialEngine(), pts, path)

        calls = []
        monkeypatch.setattr(
            runner, "run_point",
            lambda *a, **k: calls.append(a) or fake_result(*a, **k))
        out = run_with_ledger(SerialEngine(use_cache=False), pts, path)
        assert all(o.status == "done" for o in out.values())
        assert len(calls) == len(pts)


class TestCacheRobustness:
    def test_corrupt_cache_entry_is_miss_and_rewritten(self, cache):
        pt = Point.run("baseline", (BENCH,), 256, scale=SCALE)
        real = runner.run_point(pt.model, pt.benches, pt.phys_regs,
                                scale=pt.scale)
        with closing(sqlite3.connect(cache / "results.sqlite")) as conn:
            conn.execute("UPDATE results SET payload = ? WHERE key = ?",
                         ('{"cycles": 1, "truncated...', pt.cache_key()))
            conn.commit()
        assert runner.run_point(pt.model, pt.benches, pt.phys_regs,
                                scale=pt.scale) == real
        rows = stored(cache / "results.sqlite")
        assert rows[pt.cache_key()]["cycles"] == real.cycles

    def test_schema_mismatched_entry_is_miss(self, cache):
        pt = Point.run("baseline", (BENCH,), 256, scale=SCALE)
        active_store().store(pt.cache_key(), {"bogus_field": 1})
        assert pt.load_cached() is None
        r = runner.run_point(pt.model, pt.benches, pt.phys_regs,
                             scale=pt.scale)
        assert r.cycles > 0
        assert pt.load_cached() is not None

    def test_concurrent_same_key_writers_never_corrupt(self, cache):
        payloads = [{"who": i, "data": "x" * 4096} for i in range(4)]
        stop = threading.Event()
        errors = []

        def writer(payload):
            while not stop.is_set():
                try:
                    runner._cache_store("contended", payload)
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)
                    return

        threads = [threading.Thread(target=writer, args=(p,))
                   for p in payloads]
        for t in threads:
            t.start()
        try:
            deadline = time.monotonic() + 0.5
            while time.monotonic() < deadline:
                loaded = runner._cache_load("contended")
                if loaded is not None:
                    assert loaded in payloads  # complete, never torn
        finally:
            stop.set()
            for t in threads:
                t.join()
        assert not errors
        # No temp-file collisions left behind after the dust settles.
        assert runner._cache_load("contended") in payloads

    def test_path_ratio_corrupt_entry_recomputed(self, cache):
        key = runner._cache_key(kind="path_ratio", bench=BENCH)
        active_store().store(key, {"ratio": "NaNsense"})
        ratio = runner.path_ratio(BENCH)
        assert 0.5 < ratio < 1.0
        assert active_store().load(key) == {"ratio": ratio}


class TestSourceHash:
    def test_orchestration_layers_excluded(self):
        import pathlib

        import repro
        root = pathlib.Path(repro.__file__).parent
        rels = {p.relative_to(root).as_posix()
                for p in runner.hashed_source_files()}
        assert "experiments/runner.py" in rels
        assert "pipeline/core.py" in rels
        assert "cli.py" not in rels
        assert "experiments/report.py" not in rels
        assert "experiments/plan.py" not in rels
        assert "experiments/engine.py" not in rels
        assert not any(r.startswith("obs/") for r in rels)

    def test_hash_is_stable(self):
        assert runner.source_hash() == runner.source_hash()
        assert len(runner.source_hash()) == 16
