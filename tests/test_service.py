"""End-to-end tests for the service layers: the job scheduler
(priorities, per-tenant quotas, in-flight dedupe, cross-process
claims, cancellation), the HTTP JSON API and its client, per-job run
ledgers rendered by ``repro top`` / ``repro report``, and bit-exact
parity between local and service execution."""

import dataclasses
import json
import multiprocessing as mp
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from multiprocessing import connection as mp_connection
from pathlib import Path

import pytest

from repro.experiments import runner
from repro.experiments.engine import Worker
from repro.experiments.plan import Point
from repro.experiments.store import SqliteStore, active_store
from repro.obs.runlog import ledger_summary, read_ledger
from repro.obs.spans import assemble_trees
from repro.service import Scheduler, ServiceClient, ServiceError
from repro.service.scheduler import Job
from repro.service.server import ServiceServer

SCALE = 0.05
BENCH = "gzip_graphic"


@pytest.fixture()
def cache(cache, monkeypatch):
    """The shared fresh cache, at this module's low workload scale."""
    monkeypatch.setenv("REPRO_SCALE", str(SCALE))
    return cache


def wait_job(sched, job_id, timeout=180):
    """Block until the job reaches a terminal status."""
    snap = sched.wait(job_id, timeout)
    assert snap["status"] in ("done", "failed", "cancelled"), \
        f"job {job_id} never finished: {snap}"
    return snap


def slow_point(monkeypatch, seconds):
    """A run point whose execution first sleeps ``seconds`` (workers
    fork, so they inherit the patched ``run_point``)."""
    real = runner.run_point

    def slow(*args, **kwargs):
        time.sleep(seconds)
        return real(*args, **kwargs)

    monkeypatch.setattr(runner, "run_point", slow)
    return Point.run("baseline", (BENCH,), 256, scale=SCALE)


def reaped(pid):
    """Whether process ``pid`` is gone: it exited and was reaped."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


def running(pid):
    """Whether process ``pid`` still runs (a zombie has exited)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def live_pids(sched):
    """job id -> pid of the worker running that job's point."""
    with sched._lock:
        return {job.id: worker.proc.pid
                for worker, (job, _idx) in sched._live.items()}


def status_of(client, path, **kwargs):
    """The HTTP status the service answers one request with."""
    try:
        client._request(path, **kwargs)
    except ServiceError as exc:
        return exc.status
    return 200


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
            # Both jobs are known, and the point executed once.
            snaps = sched.jobs()
            assert [j["id"] for j in snaps] == [jid, jid2]
            assert [j["status"] for j in snaps] == ["done", "done"]
            assert sum(j["counts"].get("done", 0) for j in snaps) == 1

    def test_empty_job_rejected(self, cache):
        sched = Scheduler(workers=1)
        try:
            with pytest.raises(ValueError):
                sched.submit([])
        finally:
            sched.stop()

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
            assert not sched._live
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
            actions = [r["action"] for r in store.audit_rows()]
            assert "cancel" in actions and "submit" in actions
        finally:
            sched.stop()
            store.close()

    def test_cancel_resolves_running_point_another_job_shares(
            self, cache, tmp_path, monkeypatch):
        # A's copy of the point is running when A is cancelled, and B
        # awaits the same point: the worker runs on for B, but A's copy
        # must still resolve through its record and the ledger.
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


#: A process that owns two idle scheduler workers: it prints their
#: pids, then waits to be killed.
_OWNER = """
import time
from repro.experiments.plan import Point
from repro.service import Scheduler

sched = Scheduler(workers=2).start()
jid = sched.submit([Point.probe("a"), Point.probe("b")])
sched.wait(jid, 60)
print(*sorted({rec["payload"]["pid"] for rec in sched.results(jid)}),
      flush=True)
time.sleep(600)
"""


class TestSchedulerWorkers:
    """The scheduler keeps its worker processes from its first point
    until stop(); a cancel ends only its point's process, and a
    worker whose owner dies exits by itself."""

    def test_workers_live_from_first_point_until_stop(self, cache):
        sched = Scheduler(workers=1).start()
        try:
            pids = []
            for i in range(3):
                jid = sched.submit([Point.probe(f"keep-{i}")])
                assert wait_job(sched, jid, timeout=30)["status"] == "done"
                pids.append(sched.results(jid)[0]["payload"]["pid"])
            assert len(set(pids)) == 1
            assert not reaped(pids[0])
        finally:
            sched.stop()
        assert reaped(pids[0])
        assert mp.active_children() == []

    def test_cancel_kills_only_the_cancelled_points_process(
            self, cache, monkeypatch):
        slow = slow_point(monkeypatch, 30)
        with Scheduler(workers=2) as sched:
            a = sched.submit([slow])
            b = sched.submit([dataclasses.replace(slow, phys_regs=128)])
            deadline = time.monotonic() + 30
            while len(live_pids(sched)) < 2:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            pids = live_pids(sched)
            assert sched.cancel(a) is True
            assert reaped(pids[a])
            assert not reaped(pids[b])
            assert sched.job(b)["status"] == "running"
            # The cancelled point's slot forks a fresh process.
            probe = sched.submit([Point.probe("after-cancel")])
            assert wait_job(sched, probe, timeout=30)["status"] == "done"
            assert sched.results(probe)[0]["payload"]["pid"] \
                not in pids.values()
        assert mp.active_children() == []

    @pytest.mark.skipif(sys.platform != "linux", reason="reads /proc")
    @pytest.mark.parametrize("sig", [signal.SIGKILL, signal.SIGTERM])
    def test_idle_workers_exit_when_their_owner_dies(self, cache, sig):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        owner = subprocess.Popen([sys.executable, "-c", _OWNER], env=env,
                                 stdout=subprocess.PIPE, text=True,
                                 start_new_session=True)
        try:
            pids = [int(pid) for pid in owner.stdout.readline().split()]
            assert len(pids) == 2 and all(running(p) for p in pids)
            owner.send_signal(sig)
            owner.wait(timeout=30)
            deadline = time.monotonic() + 2.0
            while any(running(p) for p in pids) \
                    and time.monotonic() < deadline:
                time.sleep(0.02)
            assert not any(running(p) for p in pids), pids
        finally:
            try:
                os.killpg(owner.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            owner.wait()
            owner.stdout.close()

    @pytest.mark.skipif(sys.platform != "linux", reason="reads /proc")
    def test_sigint_stops_a_serve_that_started_with_it_ignored(
            self, cache, tmp_path):
        # A shell without job control starts `repro serve &` with
        # SIGINT ignored, and exec keeps it so.
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        masked = ("import os, signal, sys; "
                  "signal.signal(signal.SIGINT, signal.SIG_IGN); "
                  "os.execv(sys.executable, "
                  "[sys.executable, *sys.argv[1:]])")
        serve = subprocess.Popen(
            [sys.executable, "-c", masked, "-m", "repro", "serve",
             "--port", "0", "--workers", "2",
             "--store", str(tmp_path / "store.sqlite")],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True)
        try:
            banner = serve.stdout.readline()
            assert "listening on " in banner, banner
            url = banner.split("listening on ")[1].split()[0]
            client = ServiceClient(url, timeout=30)
            jid = client.submit([Point.probe(f"sigint-{i}").to_dict()
                                 for i in range(2)])
            assert client.wait(jid, timeout=60)["status"] == "done"
            pids = [rec["payload"]["pid"] for rec in client.results(jid)]
            assert all(running(p) for p in pids)
            serve.send_signal(signal.SIGINT)
            assert serve.wait(timeout=30) == 0
            assert "shutting down" in serve.stderr.read()
            assert not any(running(p) for p in pids), pids
        finally:
            try:
                os.killpg(serve.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            serve.wait()
            serve.stdout.close()
            serve.stderr.close()


class TestOpenJobIndex:
    """Neither the pump nor ``GET /health`` walks the finished jobs,
    however many of them the scheduler keeps for queries."""

    def test_pump_and_finishing_point_touch_no_finished_job(
            self, cache, monkeypatch):
        monkeypatch.setattr(runner, "path_ratio",
                            lambda bench, use_cache=True: 2.0)
        cached = Point.ratio(BENCH)
        active_store().store(cached.cache_key(), {"ratio": 1.0})
        touched = []

        class Finished(Job):
            """A job that logs every attribute read of it."""

            def __getattribute__(self, name):
                touched.append(name)
                return super().__getattribute__(name)

        sched = Scheduler(workers=1)  # the pump runs by hand below
        sched.wait_poll_fallback = 0.0
        try:
            done = [sched.submit([cached]) for _ in range(500)]
            assert {sched.job(jid)["status"] for jid in done} == {"done"}
            for jid in done:
                sched._jobs[jid].__class__ = Finished
            fresh = sched.submit([Point.ratio("twolf")])
            deadline = time.monotonic() + 60
            while sched.job(fresh)["status"] != "done":
                assert time.monotonic() < deadline
                sched._schedule()
                mp_connection.wait([w.conn for w in sched._live],
                                   timeout=0.1)
                sched._poll()
                sched._check_waiting()
            assert not sched._has_followers(sched._jobs[fresh],
                                            cached.cache_key())
            assert touched == []
            assert sched.results(fresh)[0]["payload"] == {"ratio": 2.0}
        finally:
            sched.stop()


    def test_health_counts_jobs_without_a_snapshot(self, cache,
                                                   monkeypatch):
        cached = Point.ratio(BENCH)
        active_store().store(cached.cache_key(), {"ratio": 1.0})
        with Scheduler(workers=1) as sched, \
                ServiceServer(sched, port=0) as server:
            done = [sched.submit([cached]) for _ in range(100)]
            assert [j["id"] for j in sched.jobs()] == done
            snapshots = []
            real = Job.snapshot
            monkeypatch.setattr(
                Job, "snapshot",
                lambda job: snapshots.append(job.id) or real(job))
            health = ServiceClient(server.url, timeout=30).health()
        assert health["jobs"] == 100
        assert snapshots == []


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


def _fake_idle_worker(sched):
    """Wire a stub proc/conn into the scheduler as an idle Worker."""
    stub = _ReapLog(sched)
    worker = Worker.__new__(Worker)  # no process behind it
    worker.point = None
    worker.proc = worker.conn = stub
    sched._idle.append(worker)
    return stub


class TestSchedulerReapsOutsideLock:
    """Regressions for the lint-found K003s: stop()/cancel() used to
    terminate+join workers while holding the scheduler lock."""

    def test_stop_joins_with_lock_released(self, cache):
        sched = Scheduler(workers=1)
        jid = sched.submit([Point.probe("reap")])
        job, stub = _fake_running_worker(sched, jid)
        idle = _fake_idle_worker(sched)
        sched.stop()
        for reap in (stub, idle):
            assert reap.calls == [("terminate", False), ("join", False),
                                  ("close", False)]
        assert sched._live == {} and sched._inflight == {}
        assert sched._idle == []
        snap = sched.job(jid)
        assert snap["status"] == "cancelled"
        assert job.records[0]["status"] == "cancelled"
        assert job.records[0]["error"] == "scheduler stopped"

    def test_cancel_joins_with_lock_released(self, cache):
        sched = Scheduler(workers=1)
        jid = sched.submit([Point.probe("reap")])
        _job, stub = _fake_running_worker(sched, jid)
        idle = _fake_idle_worker(sched)
        try:
            assert sched.cancel(jid) is True
            assert stub.calls == [("terminate", False),
                                  ("join", False), ("close", False)]
            assert idle.calls == []  # only the cancelled point's
            assert sched._live == {} and sched._inflight == {}
            snap = sched.job(jid)
            assert snap["status"] == "cancelled"
            assert snap["counts"] == {"cancelled": 1}
        finally:
            sched.stop()


class TestJobEvents:
    """Both ends of a job are events: ``GET /v1/jobs/<id>?wait=S``
    answers when the job ends, and a submit wakes the pump even while
    a worker runs."""

    def test_held_snapshot_answers_when_the_job_ends(self, cache,
                                                     monkeypatch):
        pt = slow_point(monkeypatch, 0.5)
        with Scheduler(workers=1) as sched, \
                ServiceServer(sched, port=0) as server:
            client = ServiceClient(server.url, timeout=30)
            jid = sched.submit([pt])
            t0 = time.time()
            snap = client._request(f"/v1/jobs/{jid}?wait=10")
            answered = time.time()
        assert snap["status"] == "done"
        assert snap["finished"] - t0 >= 0.5
        assert 0 <= answered - snap["finished"] < 0.1

    def test_held_snapshot_of_a_running_job_answers_at_its_hold(
            self, cache, monkeypatch):
        pt = slow_point(monkeypatch, 30)
        with Scheduler(workers=1) as sched, \
                ServiceServer(sched, port=0) as server:
            client = ServiceClient(server.url, timeout=30)
            jid = sched.submit([pt])
            t0 = time.monotonic()
            snap = client._request(f"/v1/jobs/{jid}?wait=0.2")
            held = time.monotonic() - t0
        assert snap["status"] == "running"
        assert snap["finished"] is None
        assert 0.2 <= held < 1.0

    def test_bad_queries_answer_400_and_unknown_jobs_404(self, cache):
        with Scheduler(workers=1) as sched, \
                ServiceServer(sched, port=0) as server:
            client = ServiceClient(server.url, timeout=30)
            jid = client.submit([Point.probe("query").to_dict()])
            assert client.wait(jid)["status"] == "done"
            for query in ("wait=abc", "wait=-1", "wait=nan", "wait=inf",
                          "wait=", "wait=1&wait=2", "other=1",
                          "wait=1&other=1"):
                assert status_of(client, f"/v1/jobs/{jid}?{query}") \
                    == 400, query
            for path in ("/health?wait=1", "/v1/jobs?wait=1",
                         f"/v1/jobs/{jid}/results?wait=1"):
                assert status_of(client, path) == 400, path
            for path in (f"/v1/jobs/{jid}/cancel?wait=1",
                         "/v1/jobs?wait=1"):
                assert status_of(client, path, payload={}) == 400, path
            for query in ("", "?wait=0.1"):
                with pytest.raises(ServiceError, match="nonexistent") \
                        as exc:
                    client._request(f"/v1/jobs/nonexistent{query}")
                assert exc.value.status == 404
            # A terminal job answers at once, whatever the hold.
            t0 = time.monotonic()
            snap = client._request(f"/v1/jobs/{jid}?wait=30")
            assert snap["status"] == "done"
            assert time.monotonic() - t0 < 1.0

    def test_hold_is_cut_to_a_minute(self):
        from repro.service.server import _wait_seconds
        assert _wait_seconds("wait=0") == 0.0
        assert _wait_seconds("wait=2.5") == 2.5
        assert _wait_seconds("wait=1e9") == 60.0

    def test_stop_releases_a_held_wait(self, cache, monkeypatch):
        pt = slow_point(monkeypatch, 30)
        out = {}
        with ServiceServer(Scheduler(workers=1).start(),
                           port=0) as server:
            sched = server.scheduler
            client = ServiceClient(server.url, timeout=30)
            jid = sched.submit([pt])

            def hold():
                out["snap"] = client._request(f"/v1/jobs/{jid}?wait=30")
                out["at"] = time.time()

            held = threading.Thread(target=hold)
            held.start()
            try:
                held.join(0.3)
                assert held.is_alive()
            finally:
                stopped = time.time()
                sched.stop()
                held.join(10)
        assert not held.is_alive()
        assert out["snap"]["status"] == "cancelled"
        assert out["at"] - stopped < 5.0

    def test_client_wait_timeout_bounds_a_long_hold(self, cache,
                                                    monkeypatch):
        pt = slow_point(monkeypatch, 30)
        with Scheduler(workers=1) as sched, \
                ServiceServer(sched, port=0) as server:
            client = ServiceClient(server.url, timeout=30)
            jid = client.submit([pt.to_dict()])
            t0 = time.monotonic()
            with pytest.raises(ServiceError, match=r"still \w+ after 0.3s"):
                client.wait(jid, poll=5, timeout=0.3)
            assert time.monotonic() - t0 < 2.0
            assert client.job(jid)["status"] == "running"

    def test_submit_starts_a_job_while_a_worker_runs(self, cache,
                                                     monkeypatch):
        # One slot is held by a slow point for the whole test; ten
        # one-probe jobs go one at a time to the other slot, each once
        # the pump is back in its wait.  A submit wakes the pump, so
        # none waits for the slow worker's pipe or for a 50 ms tick.
        sched = Scheduler(workers=2)
        try:
            hog = sched.submit([slow_point(monkeypatch, 60)])
            sched._schedule()
            assert sched.job(hog)["status"] == "running"
            sched.start()
            delays = []
            for i in range(10):
                time.sleep(0.02)
                snap = wait_job(sched, sched.submit(
                    [Point.probe(f"start-{i}")]), timeout=30)
                assert snap["status"] == "done"
                delays.append(snap["started"] - snap["submitted"])
            assert sched.job(hog)["status"] == "running"
        finally:
            sched.stop()
        assert statistics.median(delays) < 0.010, delays

    def test_wake_never_blocks_and_stop_closes_it(self, cache):
        sched = Scheduler(workers=1)  # the pump never starts
        try:
            for _ in range(100_000):  # far past the socket's buffer
                sched._wake_pump()
        finally:
            sched.stop()
        assert sched._wake_rx.fileno() == sched._wake_tx.fileno() == -1
        sched._wake_pump()  # a closed handle is not an error either


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
                snap2 = client.wait(jid2, timeout=180)
                assert snap2["status"] == "done"
                assert snap2["counts"] == {"cached": 1}

                assert {j["id"] for j in client.jobs()} == {jid, jid2}

                assert store.stats()["results"] >= 1
                actions = {r["action"] for r in store.audit_rows()}
                # Submissions audited by the service, the result row
                # by the worker process that computed it.
                assert {"submit", "store"} <= actions

                with pytest.raises(ServiceError) as exc:
                    client.job("nonexistent")
                assert exc.value.status == 404
                with pytest.raises(ServiceError) as exc:
                    client.submit([])
                assert exc.value.status == 400
                # A point must carry every key ``to_dict`` writes.
                partial = {k: v for k, v in pt.to_dict().items()
                           if not k.startswith("sample")}
                with pytest.raises(ServiceError) as exc:
                    client.submit([partial])
                assert exc.value.status == 400
                assert "bad point" in str(exc.value)

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
        and the fetched payload carries the per-round convergence
        trail."""
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

                # A resubmission is cache-resolved.
                jid2 = client.submit([pt.to_dict()], tenant="bob")
                assert client.wait(jid2)["counts"] == {"cached": 1}
