"""End-to-end tests for the service layers: the job scheduler
(priorities, per-tenant quotas, in-flight dedupe, cross-process
claims, cancellation), the HTTP JSON API and its client, per-job run
ledgers rendered by ``repro top`` / ``repro report``, and bit-exact
parity between local and service execution."""

import json
import os
import time

import pytest

from repro.experiments import runner
from repro.experiments.engine import Worker
from repro.experiments.plan import Point
from repro.experiments.store import SqliteStore, active_store
from repro.obs.runlog import ledger_summary, read_ledger
from repro.obs.spans import assemble_trees
from repro.service import Scheduler, ServiceClient, ServiceError
from repro.service.server import ServiceServer

SCALE = 0.05
BENCH = "gzip_graphic"


@pytest.fixture()
def cache(tmp_path, monkeypatch):
    """An isolated cache and low workload scale for one test."""
    d = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(d))
    monkeypatch.setenv("REPRO_SCALE", str(SCALE))
    monkeypatch.delenv("REPRO_STORE", raising=False)
    return d


def wait_job(sched, job_id, timeout=180):
    """Poll until the job reaches a terminal status."""
    t0 = time.monotonic()
    while time.monotonic() - t0 < timeout:
        snap = sched.job(job_id)
        if snap["status"] in ("done", "failed", "cancelled"):
            return snap
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} never finished: "
                         f"{sched.job(job_id)}")


class TestScheduler:
    def test_job_runs_to_done_then_hits_cache(self, cache):
        with Scheduler(workers=2) as sched:
            jid = sched.submit([Point.ratio(BENCH)], tenant="alice")
            snap = wait_job(sched, jid)
            assert snap["status"] == "done"
            assert snap["counts"] == {"done": 1}
            (rec,) = sched.results(jid)
            assert rec["status"] == "done"
            assert isinstance(rec["payload"]["ratio"], float)

            # Same point again: resolved from the result cache inside
            # submit, without touching the pool.
            jid2 = sched.submit([Point.ratio(BENCH)], tenant="bob")
            snap2 = sched.job(jid2)
            assert snap2["status"] == "done"
            assert snap2["counts"] == {"cached": 1}
            counters = sched.metrics.counters
            assert counters["service.points.started"] == 1
            assert counters["service.points.cached"] == 1
            assert counters["service.jobs.submitted"] == 2
            assert counters["service.jobs.done"] == 2

    def test_empty_job_rejected(self, cache):
        sched = Scheduler(workers=1)
        with pytest.raises(ValueError):
            sched.submit([])

    def test_priority_orders_slot_assignment(self, cache):
        # One slot, three competing jobs: the highest-priority job
        # gets the worker.  The scheduler thread is never started, so
        # a single _schedule pass is observable and deterministic.
        sched = Scheduler(workers=1)
        low = sched.submit([Point.probe("low")], priority=0)
        high = sched.submit([Point.probe("high")], priority=5)
        mid = sched.submit([Point.probe("mid")], priority=3)
        sched._schedule()
        try:
            statuses = {jid: sched.results(jid)[0]["status"]
                        for jid in (low, high, mid)}
            assert statuses[high] == "running"
            assert statuses[low] == "queued"
            assert statuses[mid] == "queued"
        finally:
            sched.stop()

    def test_tenant_quota_caps_slots(self, cache):
        # Two slots, but alice is capped at one: her second point
        # waits even though a worker is free — which bob then takes.
        sched = Scheduler(workers=2, quotas={"alice": 1})
        alice = sched.submit([Point.probe("a1"), Point.probe("a2")],
                             tenant="alice")
        sched._schedule()
        try:
            counts = sched.job(alice)["counts"]
            assert counts == {"running": 1, "queued": 1}
            bob = sched.submit([Point.probe("b1")], tenant="bob")
            sched._schedule()
            assert sched.job(bob)["counts"] == {"running": 1}
            assert len(sched._live) == 2
        finally:
            sched.stop()

    def test_inflight_dedupe_shares_one_execution(self, cache):
        pt = Point.ratio(BENCH)
        sched = Scheduler(workers=2)
        a = sched.submit([pt], tenant="alice")
        b = sched.submit([pt], tenant="bob")
        with sched:
            assert wait_job(sched, a)["status"] == "done"
            assert wait_job(sched, b)["status"] == "done"
        counts_a = sched.job(a)["counts"]
        counts_b = sched.job(b)["counts"]
        # One executed, the other shared the payload.
        assert sorted((*counts_a, *counts_b)) == ["cached", "done"]
        assert sched.metrics.counters["service.points.started"] == 1
        (ra,) = sched.results(a)
        (rb,) = sched.results(b)
        assert ra["payload"] == rb["payload"] is not None

    def test_foreign_claim_parks_point_until_result_lands(
            self, cache, tmp_path, monkeypatch):
        path = tmp_path / "store.sqlite"
        monkeypatch.setenv("REPRO_STORE", str(path))
        store = SqliteStore(path, actor="test")
        pt = Point.ratio(BENCH)
        store.claim(pt.cache_key(), owner="another-scheduler")
        with Scheduler(workers=1, store=store) as sched:
            jid = sched.submit([pt], tenant="alice")
            # The point is claimed elsewhere: it must park as
            # "waiting", not double-run.
            t0 = time.monotonic()
            while time.monotonic() - t0 < 30:
                (rec,) = sched.results(jid)
                if rec["status"] == "waiting":
                    break
                time.sleep(0.02)
            assert rec["status"] == "waiting"
            assert sched.metrics.counters.get(
                "service.points.started", 0) == 0
            # The claim owner publishes the result; the waiting point
            # resolves from the store as a cache hit.
            store.store(pt.cache_key(), {"ratio": 3.0})
            snap = wait_job(sched, jid, timeout=30)
            assert snap["status"] == "done"
            (rec,) = sched.results(jid)
            assert rec["status"] == "cached"
            assert rec["payload"] == {"ratio": 3.0}
        store.close()

    def test_cancel_queued_job(self, cache, tmp_path):
        store = SqliteStore(tmp_path / "store.sqlite", actor="test")
        sched = Scheduler(workers=1, store=store)
        jid = sched.submit([Point.ratio(BENCH), Point.ratio("twolf")],
                           tenant="alice")
        try:
            assert sched.cancel(jid) is True
            snap = sched.job(jid)
            assert snap["status"] == "cancelled"
            assert snap["counts"] == {"cancelled": 2}
            assert sched.cancel(jid) is False  # already terminal
            assert sched.metrics.counters[
                "service.jobs.cancelled"] == 1
            actions = [r["action"] for r in store.audit_rows()]
            assert "cancel" in actions and "submit" in actions
        finally:
            sched.stop()
            store.close()

    def test_cancel_resolves_running_point_another_job_shares(
            self, cache, tmp_path, monkeypatch):
        # A's copy of the point is running when A is cancelled, and B
        # awaits the same point: the worker runs on for B, but A's copy
        # must still resolve through the ledger and the counters.
        real = runner.path_ratio

        def slow(bench, *args, **kwargs):
            time.sleep(1.0)
            return real(bench, *args, **kwargs)

        monkeypatch.setattr(runner, "path_ratio", slow)
        pt = Point.ratio(BENCH)
        state = tmp_path / "state"
        sched = Scheduler(workers=1, state_dir=state)
        try:
            a = sched.submit([pt], tenant="alice")
            sched._schedule()
            assert sched.results(a)[0]["status"] == "running"
            b = sched.submit([pt], tenant="bob")
            assert sched.cancel(a) is True
            recs = read_ledger(state / "ledgers" / f"job-{a}.jsonl")
            assert [r["status"] for r in recs if r["rec"] == "point"] \
                == ["cancelled"]
            assert ledger_summary(recs)["running"] == []
            assert sched.metrics.counters.get(
                "service.points.cancelled", 0) == 1
            sched.start()
            assert wait_job(sched, b)["status"] == "done"
            (rb,) = sched.results(b)
            assert rb["status"] == "cached"
            assert rb["payload"] is not None
        finally:
            sched.stop()


class TestSchedulerFaultIsolation:
    """A raising, a crashing and a hung point fail alone under the
    scheduler, exactly as under ``ParallelEngine``, and each still
    leaves one ledger record holding one span tree."""

    def test_exception_crash_and_timeout_isolated(
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

        # Workers fork, so they inherit the monkeypatch.
        monkeypatch.setattr(runner, "run_point", flaky)
        pts = [Point.run("baseline", (b,), 256, scale=SCALE)
               for b in (BENCH, "crafty", "twolf", "parser")]
        state = tmp_path / "state"
        with Scheduler(workers=2, timeout=1.0, state_dir=state) as sched:
            jid = sched.submit(pts, tenant="alice")
            snap = wait_job(sched, jid)
            recs = sched.results(jid)
            assert sched._live == {}
        assert snap["status"] == "failed"
        assert [r["status"] for r in recs] == [
            "done", "failed", "failed", "timeout"]
        assert "boom" in recs[1]["error"]
        assert "exitcode 11" in recs[2]["error"]

        ledger = read_ledger(state / "ledgers" / f"job-{jid}.jsonl")
        points = [r for r in ledger if r["rec"] == "point"]
        assert sorted(r["key"] for r in points) \
            == sorted(pt.cache_key() for pt in pts)
        by_key = {r["key"]: r for r in points}
        trees = []
        for pt in pts:
            rec = by_key[pt.cache_key()]
            (tree,) = assemble_trees(rec["spans"])
            assert tree["name"] == "point"
            trees.append((rec["status"], rec["cache"], tree["status"]))
        assert trees == [("done", "miss", "ok"),
                         ("failed", None, "error"),
                         ("failed", None, "terminated"),
                         ("timeout", None, "timeout")]


class _ReapLog:
    """Stub worker proc/conn pair that records whether the scheduler
    lock was held at each teardown call — the K003 regression: join()
    must happen outside the lock."""

    def __init__(self, sched):
        self.sched = sched
        self.calls = []

    def _note(self, what):
        self.calls.append((what, self.sched._lock._is_owned()))

    def terminate(self):
        self._note("terminate")

    def join(self, timeout=None):
        self._note("join")

    def close(self):
        self._note("close")


def _fake_running_worker(sched, jid):
    """Wire a stub proc/conn into the scheduler as a live Worker."""
    job = sched._jobs[jid]
    rec = job.records[0]
    rec["status"] = "running"
    rec["t0"] = time.monotonic()
    job.status = "running"
    stub = _ReapLog(sched)
    worker = Worker.__new__(Worker)  # no process behind it
    worker.point = job.points[0]
    worker.proc = worker.conn = stub
    sched._live[worker] = (job, 0)
    return job, stub


class TestSchedulerReapsOutsideLock:
    """Regressions for the lint-found K003s: stop()/cancel() used to
    terminate+join workers while holding the scheduler lock."""

    def test_stop_joins_with_lock_released(self, cache):
        sched = Scheduler(workers=1)
        jid = sched.submit([Point.probe("reap")])
        job, stub = _fake_running_worker(sched, jid)
        sched.stop()
        assert stub.calls == [("terminate", False), ("join", False),
                              ("close", False)]
        assert sched._live == {} and sched._inflight == {}
        snap = sched.job(jid)
        assert snap["status"] == "cancelled"
        assert job.records[0]["status"] == "cancelled"
        assert job.records[0]["error"] == "scheduler stopped"

    def test_cancel_joins_with_lock_released(self, cache):
        sched = Scheduler(workers=1)
        jid = sched.submit([Point.probe("reap")])
        _job, stub = _fake_running_worker(sched, jid)
        try:
            assert sched.cancel(jid) is True
            assert stub.calls == [("terminate", False),
                                  ("join", False), ("close", False)]
            assert sched._live == {} and sched._inflight == {}
            snap = sched.job(jid)
            assert snap["status"] == "cancelled"
            assert snap["counts"] == {"cancelled": 1}
        finally:
            sched.stop()


class TestWaitingPointChangeDetection:
    """The data_version satellite: waiting points re-poll when a
    foreign connection commits, not on a fixed timer."""

    def test_store_exposes_data_version(self, tmp_path):
        path = tmp_path / "store.sqlite"
        a = SqliteStore(path, actor="a")
        b = SqliteStore(path, actor="b")
        v0 = a.data_version()
        a.store("own", {"ratio": 1.0})
        # Own commits are invisible to our own counter...
        assert a.data_version() == v0
        # ...foreign commits bump it.
        b.store("foreign", {"ratio": 2.0})
        assert a.data_version() != v0
        a.close()
        b.close()

    def test_waiting_point_resolves_on_foreign_commit(
            self, cache, tmp_path, monkeypatch):
        path = tmp_path / "store.sqlite"
        monkeypatch.setenv("REPRO_STORE", str(path))
        store = SqliteStore(path, actor="sched")
        other = SqliteStore(path, actor="other")
        pt = Point.ratio(BENCH)
        other.claim(pt.cache_key(), owner="another-scheduler")
        sched = Scheduler(workers=1, store=store)
        # Make the timed fallback unreachable: only data_version
        # change detection can resolve the point in this test.
        sched.wait_poll_fallback = 3600.0
        try:
            jid = sched.submit([pt], tenant="alice")
            sched._schedule()
            (rec,) = sched.results(jid)
            assert rec["status"] == "waiting"
            sched._check_waiting()  # snapshots the current version
            last = sched._last_wait_check
            sched._check_waiting()  # nothing changed: early return
            assert sched._last_wait_check == last
            (rec,) = sched.results(jid)
            assert rec["status"] == "waiting"
            # The foreign owner publishes; the next check sweeps.
            other.store(pt.cache_key(), {"ratio": 9.0})
            sched._check_waiting()
            snap = sched.job(jid)
            assert snap["status"] == "done"
            (rec,) = sched.results(jid)
            assert rec["status"] == "cached"
            assert rec["payload"] == {"ratio": 9.0}
        finally:
            sched.stop()
            store.close()
            other.close()

    def test_scheduler_holds_the_active_store(self, cache):
        sched = Scheduler(workers=1)
        try:
            assert sched.store is active_store()
            assert sched.store.path == cache / "results.sqlite"
        finally:
            sched.stop()


class TestServiceHTTP:
    def test_end_to_end_over_http(self, cache, tmp_path, monkeypatch):
        store_path = tmp_path / "store.sqlite"
        monkeypatch.setenv("REPRO_STORE", str(store_path))
        store = SqliteStore(store_path, actor="serve")
        state = tmp_path / "state"
        with Scheduler(workers=2, store=store,
                       state_dir=state) as sched:
            with ServiceServer(sched, port=0) as server:
                client = ServiceClient(server.url, timeout=30)
                health = client.health()
                assert health["ok"] and health["workers"] == 2

                pt = Point.ratio(BENCH)
                jid = client.submit([pt.to_dict()], tenant="alice",
                                    priority=3, label="e2e")
                snap = client.wait(jid, timeout=180)
                assert snap["status"] == "done"
                assert snap["tenant"] == "alice"
                assert snap["priority"] == 3

                (rec,) = client.results(jid)
                assert rec["status"] == "done"
                assert rec["key"] == pt.cache_key()
                assert isinstance(rec["payload"]["ratio"], float)

                # Resubmission is a store hit end to end.
                jid2 = client.submit([pt.to_dict()], tenant="bob")
                snaps = list(client.stream(jid2))
                assert snaps[-1]["status"] == "done"
                assert snaps[-1]["counts"] == {"cached": 1}

                assert {j["id"] for j in client.jobs()} == {jid, jid2}
                counters = client.metrics()
                assert counters["service.jobs.submitted"] == 2
                assert counters["service.points.started"] == 1

                st = client.store()
                assert st["attached"]
                assert st["stats"]["results"] >= 1
                actions = {r["action"] for r in st["audit"]}
                # Submissions audited by the service, the result row
                # by the worker process that computed it.
                assert {"submit", "store"} <= actions

                with pytest.raises(ServiceError) as exc:
                    client.job("nonexistent")
                assert exc.value.status == 404
                with pytest.raises(ServiceError) as exc:
                    client.submit([])
                assert exc.value.status == 400

                ledger = state / "ledgers" / f"job-{jid}.jsonl"
                assert ledger.exists()
        store.close()

        # The per-job ledger renders through the standard observability
        # CLI, unchanged.
        from repro.cli import main
        assert main(["top", str(ledger), "--once"]) == 0
        report = tmp_path / "job.html"
        assert main(["report", str(ledger),
                     "--out", str(report)]) == 0
        assert "Span waterfall" in report.read_text()

    def test_service_matches_local_execution(self, cache, tmp_path,
                                             monkeypatch):
        from repro.experiments.engine import SerialEngine

        points = [Point.ratio(BENCH), Point.ratio("twolf")]
        local = SerialEngine().run(points)
        local_payloads = {pt.cache_key(): local[pt].payload
                          for pt in points}

        # Recompute through the service against a fresh cache: the
        # payloads must be bit-identical, not merely cache-equal.
        monkeypatch.setenv("REPRO_CACHE_DIR",
                           str(tmp_path / "cache-service"))
        with Scheduler(workers=2) as sched:
            with ServiceServer(sched, port=0) as server:
                client = ServiceClient(server.url, timeout=30)
                jid = client.submit([p.to_dict() for p in points])
                snap = client.wait(jid, timeout=180)
                assert snap["status"] == "done"
                assert snap["counts"] == {"done": 2}
                records = client.results(jid)
        assert {r["key"]: r["payload"] for r in records} == \
            local_payloads
        assert json.dumps(local_payloads, sort_keys=True) == \
            json.dumps({r["key"]: r["payload"] for r in records},
                       sort_keys=True)

    def test_job_ledger_has_standard_envelopes(self, cache, tmp_path):
        from repro.obs.runlog import ledger_points, ledger_summary, \
            read_ledger

        state = tmp_path / "state"
        with Scheduler(workers=1, state_dir=state) as sched:
            jid = sched.submit([Point.ratio(BENCH)], tenant="alice",
                               label="ledgered")
            wait_job(sched, jid)
        ledger = state / "ledgers" / f"job-{jid}.jsonl"
        recs = read_ledger(ledger)
        kinds = [r["rec"] for r in recs]
        assert kinds[0] == "run_start" and kinds[-1] == "run_end"
        assert "point_start" in kinds and "point" in kinds
        points = ledger_points(recs)
        assert [r["status"] for r in points.values()] == ["done"]
        summary = ledger_summary(recs)
        assert summary["header"]["run_id"] == jid
        assert summary["end"]["status"] == "ok"
        assert summary["counts"] == {"done": 1}

    def test_adaptive_sampling_end_to_end(self, cache):
        """An adaptive sampled point submitted over HTTP: the
        ``sample_rse`` knobs survive the JSON round-trip to the worker,
        the fetched payload carries the per-round convergence trail,
        and the scheduler rolls the round counts up into /metrics."""
        import dataclasses

        pt = dataclasses.replace(
            Point.run("vca-rw", ("fib",), 256),
            sample=True, sample_interval=1000, sample_count=2,
            sample_rse=0.05, sample_rse_metrics=("ipc",),
            sample_max=16)
        # The adaptive knobs are identity-bearing: the key must differ
        # from the same point run at a fixed budget.
        fixed = dataclasses.replace(pt, sample_rse=None)
        assert pt.cache_key() != fixed.cache_key()
        assert Point.from_dict(pt.to_dict()) == pt

        with Scheduler(workers=2) as sched:
            with ServiceServer(sched, port=0) as server:
                client = ServiceClient(server.url, timeout=30)
                jid = client.submit([pt.to_dict()], tenant="alice",
                                    label="adaptive")
                snap = client.wait(jid, timeout=180)
                assert snap["status"] == "done"

                (rec,) = client.results(jid)
                assert rec["key"] == pt.cache_key()
                payload = rec["payload"]
                # The worker saw the adaptive config, not the fixed
                # one, and reports the convergence metadata back.
                rse = payload["sampling"]["rse"]
                assert rse["target"] == 0.05
                assert rse["converged"] is True
                rounds = rse["rounds"]
                assert payload["sample_rse_rounds"] == len(rounds) >= 1
                for i, rnd in enumerate(rounds):
                    assert rnd["round"] == i + 1
                    assert rnd["n_detailed"] >= 1
                    assert "max_rse" in rnd and "errors" in rnd
                assert rounds[-1]["max_rse"] <= 0.05
                assert payload["sample_intervals_added"] >= 0

                counters = client.metrics()
                assert counters["sampling.rse_rounds"] == len(rounds)
                assert counters["sampling.intervals_added"] == \
                    payload["sample_intervals_added"]

                # A resubmission is cache-resolved: the rollup counts
                # computed work, so the counters do not move.
                jid2 = client.submit([pt.to_dict()], tenant="bob")
                assert client.wait(jid2)["counts"] == {"cached": 1}
                assert client.metrics()["sampling.rse_rounds"] == \
                    len(rounds)
