"""Tests for the repository layer (``repro.experiments.store``): the
sqlite store and the file store kept beside it, cross-process claims,
the audit trail, concurrent writers hammering one database, and the
one active store every process reads and writes through."""

import json
import multiprocessing
import signal
import sqlite3
import threading
import time
from contextlib import closing

from repro.experiments import store as store_mod
from repro.experiments.plan import Point
from repro.experiments.store import FileStore, SqliteStore, active_store

SCALE = 0.05
BENCH = "gzip_graphic"


class TestFileStore:
    def test_round_trip_and_keys(self, tmp_path):
        fs = FileStore(tmp_path / "c")
        assert fs.load("k") is None
        fs.store("k", {"a": 1})
        fs.store("j", {"b": 2})
        assert fs.load("k") == {"a": 1}
        assert fs.keys() == ["j", "k"]

    def test_corrupt_and_non_object_entries_are_misses(self, tmp_path):
        root = tmp_path / "c"
        root.mkdir()
        (root / "bad.json").write_text("{truncated")
        (root / "list.json").write_text("[1, 2]")
        fs = FileStore(root)
        assert fs.load("bad") is None
        assert fs.load("list") is None

    def test_layout_matches_historical_cache(self, tmp_path):
        # A file written by hand — the pre-store cache format — reads
        # back verbatim, and a store() write is one json file per key.
        root = tmp_path / "c"
        root.mkdir()
        (root / "old.json").write_text(json.dumps({"ratio": 1.5}))
        fs = FileStore(root)
        assert fs.load("old") == {"ratio": 1.5}
        fs.store("new", {"x": 1})
        assert json.loads((root / "new.json").read_text()) == {"x": 1}


class TestSqliteStore:
    def test_round_trip(self, tmp_path):
        with SqliteStore(tmp_path / "s.sqlite") as db:
            assert db.load("k") is None
            db.store("k", {"a": [1, 2]}, source_hash="abc")
            assert db.load("k") == {"a": [1, 2]}
            assert db.keys() == ["k"]

    def test_upsert_last_writer_wins_single_row(self, tmp_path):
        with SqliteStore(tmp_path / "s.sqlite") as db:
            db.store("k", {"v": 1})
            db.store("k", {"v": 2})
            db.store("k", {"v": 3})
            assert db.load("k") == {"v": 3}
            assert db.keys() == ["k"]
            assert db.stats()["results"] == 1

    def test_claims_exclusive_reclaim_release(self, tmp_path):
        with SqliteStore(tmp_path / "s.sqlite") as db:
            assert db.claim("pt", owner="a")
            assert not db.claim("pt", owner="b")
            assert db.claim("pt", owner="a")  # idempotent re-claim
            db.release("pt", owner="b")       # wrong owner: no-op
            assert not db.claim("pt", owner="b")
            db.release("pt", owner="a")
            assert db.claim("pt", owner="b")

    def test_stale_claims_swept(self, tmp_path):
        with SqliteStore(tmp_path / "s.sqlite",
                         claim_stale_s=0.05) as db:
            assert db.claim("pt", owner="crashed")
            time.sleep(0.1)
            assert db.claim("pt", owner="successor")

    def test_dead_owner_claim_is_taken_over_at_once(self, tmp_path):
        """A claim whose process was SIGKILLed goes to the next
        claimant at once, long before the default staleness age."""
        path = tmp_path / "s.sqlite"
        ctx = multiprocessing.get_context("fork")
        claimed = ctx.Event()
        proc = ctx.Process(target=_claim_and_hang, args=(path, claimed))
        proc.start()
        try:
            assert claimed.wait(timeout=60)
        finally:
            proc.kill()
            proc.join(timeout=60)
        assert proc.exitcode == -signal.SIGKILL
        with SqliteStore(path) as db:
            assert db.claim_stale_s == 3600.0
            assert db.claim("pt", owner="successor")
            assert db.claim("pt", owner="successor")
            assert not db.claim("pt", owner="third")

    def test_gc_claims(self, tmp_path):
        with SqliteStore(tmp_path / "s.sqlite") as db:
            assert db.claim("p1", owner="a")
            assert db.claim("p2", owner="a")
            assert db.claim("p3", owner="b")
            # Nothing is older than the default stale window yet.
            assert db.gc_claims() == 0
            # Owner sweep ignores age entirely.
            assert db.gc_claims(owner="a") == 2
            assert db.stats()["claims"] == 1
            assert db.claim("p1", owner="b")
            # max_age_s=0 drops everything, and the sweep is audited.
            assert db.gc_claims(max_age_s=0) == 2
            assert db.stats()["claims"] == 0
            rows = db.audit_rows(action="gc-claims")
            assert [r["detail"]["removed"] for r in rows] == [2, 2]
            assert db.claim("p3", owner="c")

    def test_one_store_audit_row_per_write(self, tmp_path):
        with SqliteStore(tmp_path / "s.sqlite") as db:
            for i in range(5):
                db.store(f"k{i}", {"i": i})
            db.store("k0", {"i": "updated"}, source_hash="deadbeef")
            rows = db.audit_rows(limit=100)
            assert [r["action"] for r in rows] == ["store"] * 6
            assert [r["key"] for r in rows] == \
                ["k0", "k4", "k3", "k2", "k1", "k0"]
            assert rows[0]["source_hash"] == "deadbeef"

    def test_audit_rows_limit_and_filter(self, tmp_path):
        with SqliteStore(tmp_path / "s.sqlite") as db:
            db.store("k", {"v": 1})
            db.audit("submit", key="job1", actor="alice",
                     detail={"points": 3})
            db.audit("cancel", key="job1", actor="alice")
            rows = db.audit_rows(limit=2)
            assert len(rows) == 2
            assert rows[0]["action"] == "cancel"  # newest first
            submits = db.audit_rows(action="submit")
            assert [r["key"] for r in submits] == ["job1"]
            assert submits[0]["detail"] == {"points": 3}

    def test_stats_and_integrity(self, tmp_path):
        with SqliteStore(tmp_path / "s.sqlite") as db:
            db.store("k", {"v": 1})
            st = db.stats()
            assert st["backend"] == "sqlite"
            assert st["results"] == 1 and st["schema"] == 1
            assert db.integrity_ok()


class TestTornRow:
    def test_torn_row_is_miss_and_rewritten(self, cache, monkeypatch,
                                            tmp_path):
        """A torn payload in the results table is a miss: the point
        runs again and its row is rewritten whole."""
        from repro.experiments.engine import SerialEngine

        path = tmp_path / "store.sqlite"
        monkeypatch.setenv("REPRO_STORE", str(path))
        pt = Point.run("baseline", (BENCH,), 256, scale=SCALE)
        key = pt.cache_key()
        first = SerialEngine().run([pt])[pt]
        assert first.status == "done"
        with closing(sqlite3.connect(path)) as conn:
            conn.execute("UPDATE results SET payload = ? WHERE key = ?",
                         ('{"cycles": 1, "truncated...', key))
            conn.commit()
        assert pt.load_cached() is None
        second = SerialEngine().run([pt])[pt]
        assert second.status == "done"
        assert second.payload == first.payload
        with closing(sqlite3.connect(path)) as conn:
            (blob,) = conn.execute(
                "SELECT payload FROM results WHERE key = ?",
                (key,)).fetchone()
        assert json.loads(blob) == first.payload


class TestActiveStore:
    def test_default_is_sqlite_in_cache_dir(self, cache):
        store = active_store()
        assert isinstance(store, SqliteStore)
        assert store.path == cache / "results.sqlite"
        assert store.path.is_file()

    def test_repro_store_overrides_the_path(self, cache, monkeypatch,
                                            tmp_path):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "s.sqlite"))
        store = active_store()
        assert isinstance(store, SqliteStore)
        assert store.path == tmp_path / "s.sqlite"
        assert not (cache / "results.sqlite").exists()

    def test_reused_until_the_environment_changes(self, cache,
                                                  monkeypatch, tmp_path):
        store = active_store()
        # Stable while the environment is stable...
        assert active_store() is store
        # ...rebuilt when it changes.
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "s.sqlite"))
        named = active_store()
        assert named is not store
        assert named.path == tmp_path / "s.sqlite"
        monkeypatch.delenv("REPRO_STORE")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "other"))
        assert active_store().path == tmp_path / "other" / "results.sqlite"

    def test_threads_asking_at_once_share_one_store(self, cache,
                                                    monkeypatch):
        # Four threads released together onto a fresh cache directory:
        # one store opens, and every thread gets that same object.
        opened = []

        class CountingStore(SqliteStore):
            def __init__(self, *args, **kwargs):
                opened.append(self)
                time.sleep(0.05)  # hold the window between check and set
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(store_mod, "SqliteStore", CountingStore)
        barrier = threading.Barrier(4)
        got = [None] * 4

        def ask(i):
            barrier.wait(timeout=30)
            got[i] = active_store()

        threads = [threading.Thread(target=ask, args=(i,))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
        assert len(opened) == 1
        assert all(s is opened[0] for s in got)

    def test_json_cache_entries_are_not_read(self, cache):
        # One JSON file per key was the layout before the one store;
        # such files are left alone and a lookup misses.
        pt = Point.ratio(BENCH)
        FileStore(cache).store(pt.cache_key(), {"ratio": 1.25})
        assert pt.load_cached() is None


def _run_sweep(points, out_path):
    """One engine sweep in a child process (fork-safe: the child is
    single-threaded, so its own worker forks cannot deadlock on locks
    another thread held at fork time)."""
    from repro.experiments.engine import ParallelEngine
    outcomes = ParallelEngine(workers=2).run(points)
    out_path.write_text(json.dumps({
        "ok": all(oc.ok for oc in outcomes.values()),
        "payloads": {pt.cache_key(): oc.payload
                     for pt, oc in outcomes.items()},
    }))


def _hammer(path, writer, rounds):
    db = SqliteStore(path, busy_timeout_ms=30_000)
    try:
        for r in range(rounds):
            for k in range(5):
                db.store(f"k{k}", {"writer": writer, "round": r,
                                   "k": k})
    finally:
        db.close()


def _claim_and_hang(path, claimed):
    """Claim ``pt`` as ``doomed``, signal, and wait to be killed."""
    db = SqliteStore(path)
    assert db.claim("pt", owner="doomed")
    claimed.set()
    time.sleep(600)


class TestConcurrency:
    def test_many_processes_one_database(self, tmp_path):
        """Four writer processes upserting the same five keys never
        corrupt the database or tear a payload."""
        path = tmp_path / "s.sqlite"
        ctx = multiprocessing.get_context("fork")
        procs = [ctx.Process(target=_hammer, args=(path, w, 25))
                 for w in range(4)]
        for p in procs:
            p.start()
        for p in procs:
            p.join()
            assert p.exitcode == 0
        with SqliteStore(path) as db:
            assert db.keys() == [f"k{k}" for k in range(5)]
            for k in range(5):
                payload = db.load(f"k{k}")
                assert payload is not None and payload["k"] == k
                assert payload["writer"] in range(4)
            assert db.integrity_ok()
            # One audit row per store() call survived the contention.
            assert db.stats()["audit"] == 4 * 25 * 5

    def test_two_engines_share_one_store(self, cache, monkeypatch,
                                         tmp_path):
        """Two parallel engines (separate processes) sweeping the same
        plan through one sqlite store: all points succeed, each key
        holds exactly one row, and the payloads agree."""
        monkeypatch.setenv("REPRO_SCALE", str(SCALE))
        monkeypatch.setenv("REPRO_STORE",
                           str(tmp_path / "shared.sqlite"))
        points = [Point.ratio(BENCH), Point.ratio("twolf")]
        ctx = multiprocessing.get_context("fork")
        outs = {n: tmp_path / f"engine-{n}.json" for n in ("a", "b")}
        procs = [ctx.Process(target=_run_sweep, args=(points, out))
                 for out in outs.values()]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=300)
            assert p.exitcode == 0
        results = {n: json.loads(out.read_text())
                   for n, out in outs.items()}
        assert results["a"]["ok"] and results["b"]["ok"]
        assert results["a"]["payloads"] == results["b"]["payloads"]
        with SqliteStore(tmp_path / "shared.sqlite") as db:
            assert db.integrity_ok()
            for pt in points:
                key = pt.cache_key()
                assert db.load(key) == results["a"]["payloads"][key]

