"""The repository layer: one content-addressed sqlite result store.

Every simulation result is addressed by the runner's content hash
(:func:`repro.experiments.runner._cache_key` — the run parameters plus
the semantics source hash).  :class:`SqliteStore` keeps those payloads
in one sqlite3 database: a ``results`` table, an **audit trail** (who
stored or submitted what, when, under which ``source_hash``) and a
``claims`` table that lets concurrent schedulers agree on who runs a
missing point.  It is opened with WAL journaling and a busy timeout so
many worker processes can hammer one store safely; writes are a
single atomic upsert.

:func:`active_store` opens the store every process reads and writes
through: ``REPRO_STORE`` when set, else ``results.sqlite`` under the
cache directory (``REPRO_CACHE_DIR``).  Engine workers inherit both
variables through ``repro_env()``, so a sweep's parent and its forked
workers always share one store.

:class:`FileStore`, one JSON file per key, is no longer read or
written by any run; the benchmark keeps it as the comparison point
for its ``store.file.*`` rows.
"""

from __future__ import annotations

import json
import os
import sqlite3
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

__all__ = ["ResultStore", "FileStore", "SqliteStore", "active_store"]


class ResultStore:
    """The repository interface every backend implements.

    Keys are the runner's content-addressed cache keys; payloads are
    the JSON-serializable dicts the engine records and pipes around.
    """

    #: Human-readable backend name (CLI/status surfaces).
    kind = "abstract"

    def load(self, key: str) -> Optional[dict]:
        """The payload stored under ``key``, or ``None`` on any kind
        of miss (missing, corrupt, non-object)."""
        raise NotImplementedError

    def store(self, key: str, payload: dict,
              source_hash: Optional[str] = None,
              actor: Optional[str] = None) -> None:
        """Atomically publish ``payload`` under ``key`` (last writer
        wins; concurrent writers of one key produce identical payloads
        by construction)."""
        raise NotImplementedError

    def keys(self) -> List[str]:
        """Every key currently stored."""
        raise NotImplementedError

    def close(self) -> None:
        """Release backend resources (idempotent)."""

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class FileStore(ResultStore):
    """One JSON file per key: ``<root>/<key>.json`` holding the
    payload (the benchmark's file-store baseline)."""

    kind = "file"

    def __init__(self, root) -> None:
        self.root = Path(root)

    def load(self, key: str) -> Optional[dict]:
        try:
            payload = json.loads((self.root / f"{key}.json").read_text())
        except (OSError, json.JSONDecodeError):
            return None
        return payload if isinstance(payload, dict) else None

    def store(self, key: str, payload: dict,
              source_hash: Optional[str] = None,
              actor: Optional[str] = None) -> None:
        """Unique temp file + atomic ``os.replace``, so readers only
        ever observe complete entries."""
        self.root.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.root, prefix=f"{key}.",
                                   suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(json.dumps(payload))
            os.replace(tmp, self.root / f"{key}.json")
        except OSError:  # pragma: no cover - cleanup best effort
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def keys(self) -> List[str]:
        try:
            names = sorted(p.stem for p in self.root.glob("*.json"))
        except OSError:  # pragma: no cover - unreadable dir
            return []
        return names


#: Schema version stamped into the sqlite ``meta`` table.
STORE_SCHEMA = 1

_SCHEMA_SQL = """
CREATE TABLE IF NOT EXISTS meta (
    k TEXT PRIMARY KEY, v TEXT NOT NULL);
CREATE TABLE IF NOT EXISTS results (
    key TEXT PRIMARY KEY,
    payload TEXT NOT NULL,
    source_hash TEXT,
    actor TEXT,
    created REAL NOT NULL,
    updated REAL NOT NULL);
CREATE TABLE IF NOT EXISTS audit (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    t REAL NOT NULL,
    actor TEXT,
    action TEXT NOT NULL,
    key TEXT,
    source_hash TEXT,
    detail TEXT);
CREATE TABLE IF NOT EXISTS claims (
    key TEXT PRIMARY KEY,
    owner TEXT NOT NULL,
    pid INTEGER,
    t REAL NOT NULL);
"""


def _process_gone(pid: Optional[int]) -> bool:
    """Whether no process ``pid`` exists on this host, where every
    claimant runs (sqlite's WAL mode requires it).  Only POSIX has a
    harmless probe (signal 0); elsewhere every owner counts as alive."""
    if os.name != "posix" or not pid:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except PermissionError:  # alive, owned by another user
        pass
    return False


class SqliteStore(ResultStore):
    """A sqlite3-backed result repository with an audit trail.

    One database file holds every result (``results``), an append-only
    record of who did what (``audit``) and the cross-process point
    claims (``claims``).  The connection is opened with

    * ``journal_mode=WAL`` — readers never block writers and a crash
      mid-write cannot corrupt committed data;
    * ``busy_timeout`` — concurrent writers queue instead of failing;
    * ``synchronous=NORMAL`` — durable-enough for a derived cache
      (every payload is recomputable) at much lower fsync cost.
    """

    kind = "sqlite"

    def __init__(self, path, actor: Optional[str] = None,
                 busy_timeout_ms: int = 10_000,
                 claim_stale_s: float = 3600.0) -> None:
        self.path = Path(path)
        self.actor = actor or f"pid-{os.getpid()}"
        self.claim_stale_s = claim_stale_s
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # One connection shared across the server's handler threads;
        # sqlite3 objects are not thread-safe, so every use holds the
        # lock (the transactions are all short).
        self._lock = threading.RLock()
        self._conn: Optional[sqlite3.Connection] = sqlite3.connect(
            str(self.path), timeout=busy_timeout_ms / 1000.0,
            check_same_thread=False)
        with self._lock:
            cur = self._conn
            cur.execute("PRAGMA journal_mode=WAL")
            cur.execute(f"PRAGMA busy_timeout={int(busy_timeout_ms)}")
            cur.execute("PRAGMA synchronous=NORMAL")
            cur.executescript(_SCHEMA_SQL)
            cur.execute(
                "INSERT OR IGNORE INTO meta(k, v) VALUES('schema', ?)",
                (str(STORE_SCHEMA),))
            cur.commit()

    # -- core interface ----------------------------------------------------

    def load(self, key: str) -> Optional[dict]:
        with self._lock:
            row = self._conn.execute(
                "SELECT payload FROM results WHERE key = ?",
                (key,)).fetchone()
        if row is None:
            return None
        try:
            payload = json.loads(row[0])
        except json.JSONDecodeError:
            return None
        return payload if isinstance(payload, dict) else None

    def store(self, key: str, payload: dict,
              source_hash: Optional[str] = None,
              actor: Optional[str] = None) -> None:
        blob = json.dumps(payload)
        actor = actor or self.actor
        now = time.time()
        with self._lock:
            self._conn.execute(
                "INSERT INTO results(key, payload, source_hash, actor,"
                " created, updated) VALUES(?, ?, ?, ?, ?, ?)"
                " ON CONFLICT(key) DO UPDATE SET"
                " payload = excluded.payload,"
                " source_hash = excluded.source_hash,"
                " actor = excluded.actor, updated = excluded.updated",
                (key, blob, source_hash, actor, now, now))
            self._conn.execute(
                "INSERT INTO audit(t, actor, action, key, source_hash,"
                " detail) VALUES(?, ?, ?, ?, ?, ?)",
                (now, actor, "store", key, source_hash, None))
            self._conn.commit()

    def keys(self) -> List[str]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT key FROM results ORDER BY key").fetchall()
        return [r[0] for r in rows]

    def close(self) -> None:
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None

    # -- audit trail -------------------------------------------------------

    def audit(self, action: str, key: Optional[str] = None,
              actor: Optional[str] = None,
              source_hash: Optional[str] = None,
              detail: Optional[dict] = None) -> None:
        """Append one audit record (used by the service for submit /
        cancel / fetch events; ``store`` writes its own rows)."""
        with self._lock:
            self._conn.execute(
                "INSERT INTO audit(t, actor, action, key, source_hash,"
                " detail) VALUES(?, ?, ?, ?, ?, ?)",
                (time.time(), actor or self.actor, action, key,
                 source_hash,
                 json.dumps(detail) if detail is not None else None))
            self._conn.commit()

    def audit_rows(self, limit: int = 100,
                   action: Optional[str] = None) -> List[Dict]:
        """The newest ``limit`` audit records, newest first."""
        sql = ("SELECT t, actor, action, key, source_hash, detail "
               "FROM audit")
        params: Tuple = ()
        if action is not None:
            sql += " WHERE action = ?"
            params = (action,)
        sql += " ORDER BY id DESC LIMIT ?"
        with self._lock:
            rows = self._conn.execute(sql, params + (int(limit),)) \
                .fetchall()
        out = []
        for t, actor, act, key, srch, detail in rows:
            rec = {"t": t, "actor": actor, "action": act, "key": key,
                   "source_hash": srch}
            if detail:
                try:
                    rec["detail"] = json.loads(detail)
                except json.JSONDecodeError:  # pragma: no cover
                    rec["detail"] = detail
            out.append(rec)
        return out

    # -- claims ------------------------------------------------------------

    def claim(self, key: str, owner: str) -> bool:
        """Atomically claim ``key`` for ``owner``.

        Exactly one concurrent claimant wins (``INSERT OR IGNORE`` on
        the primary key); re-claiming a key you already own succeeds.
        A claim whose process no longer exists (a ``kill -9``'d
        scheduler) is taken over in the same transaction.  Claims
        older than ``claim_stale_s`` are presumed abandoned and are
        swept before the attempt, which covers a dead owner whose pid
        was reused.
        """
        now = time.time()
        with self._lock:
            self._conn.execute(
                "DELETE FROM claims WHERE t < ?",
                (now - self.claim_stale_s,))
            cur = self._conn.execute(
                "INSERT OR IGNORE INTO claims(key, owner, pid, t)"
                " VALUES(?, ?, ?, ?)", (key, owner, os.getpid(), now))
            won = cur.rowcount == 1
            if not won:
                row = self._conn.execute(
                    "SELECT owner, pid FROM claims WHERE key = ?",
                    (key,)).fetchone()
                won = row is not None and row[0] == owner
                if row is not None and not won and _process_gone(row[1]):
                    self._conn.execute(
                        "UPDATE claims SET owner = ?, pid = ?, t = ?"
                        " WHERE key = ?", (owner, os.getpid(), now, key))
                    won = True
            self._conn.commit()
        return won

    def release(self, key: str, owner: Optional[str] = None) -> None:
        """Drop a claim (optionally only if ``owner`` still holds it)."""
        with self._lock:
            if owner is None:
                self._conn.execute(
                    "DELETE FROM claims WHERE key = ?", (key,))
            else:
                self._conn.execute(
                    "DELETE FROM claims WHERE key = ? AND owner = ?",
                    (key, owner))
            self._conn.commit()

    def data_version(self) -> int:
        """sqlite's counter of *other* connections' committed writes.

        Cheap change detection for pollers: the value moves exactly
        when a different connection commits to this database, so a
        scheduler can skip its waiting-point sweep until something
        actually changed.  Commits made through *this* connection do
        not bump it — callers keep a slow timed fallback for those.
        """
        with self._lock:
            row = self._conn.execute(
                "PRAGMA data_version").fetchone()
        return int(row[0])

    def gc_claims(self, max_age_s: Optional[float] = None,
                  owner: Optional[str] = None) -> int:
        """Bulk-drop claims; returns how many rows were removed.

        With ``owner`` set, drops that owner's claims regardless of
        age (e.g. after a scheduler is known dead).  Otherwise drops
        claims older than ``max_age_s`` (default ``claim_stale_s``;
        ``0`` sweeps everything).  :meth:`claim` already sweeps stale
        rows opportunistically — this is the explicit maintenance
        entry point (``repro store gc-claims``), and it leaves an
        audit record when anything was removed.
        """
        with self._lock:
            if owner is not None:
                cur = self._conn.execute(
                    "DELETE FROM claims WHERE owner = ?", (owner,))
            else:
                age = self.claim_stale_s if max_age_s is None \
                    else max_age_s
                cur = self._conn.execute(
                    "DELETE FROM claims WHERE t < ?",
                    (time.time() - age,))
            removed = cur.rowcount
            self._conn.commit()
        if removed:
            self.audit("gc-claims",
                       detail={"removed": removed, "owner": owner})
        return removed

    # -- maintenance -------------------------------------------------------

    def stats(self) -> Dict:
        """Counts and identity for CLI/status surfaces."""
        with self._lock:
            results = self._conn.execute(
                "SELECT COUNT(*) FROM results").fetchone()[0]
            audit = self._conn.execute(
                "SELECT COUNT(*) FROM audit").fetchone()[0]
            claims = self._conn.execute(
                "SELECT COUNT(*) FROM claims").fetchone()[0]
        return {"backend": self.kind, "path": str(self.path),
                "results": results, "audit": audit, "claims": claims,
                "schema": STORE_SCHEMA}

    def integrity_ok(self) -> bool:
        """sqlite's own ``PRAGMA integrity_check`` verdict."""
        with self._lock:
            row = self._conn.execute(
                "PRAGMA integrity_check").fetchone()
        return bool(row) and row[0] == "ok"


# ----------------------------------------------------------------------
# process-wide active store
# ----------------------------------------------------------------------

#: The one live store per process: ``{"pid", "path", "store"}``.
_active = {"pid": None, "path": None, "store": None}
#: Stores abandoned after a fork — referenced so the child's GC never
#: closes the parent's sqlite connection (closing a POSIX-locked fd in
#: the child could release the parent's locks).
_abandoned: List[SqliteStore] = []


def _store_path() -> Path:
    from repro.experiments.runner import cache_dir
    path = os.environ.get("REPRO_STORE")
    return Path(path) if path else cache_dir() / "results.sqlite"


def active_store() -> SqliteStore:
    """The store this process reads and writes results through.

    ``REPRO_STORE`` when set, else ``results.sqlite`` under
    ``cache_dir()``.  Re-evaluated on every call — like ``cache_dir()``
    — so forked/spawned engine workers and tests that re-point the
    environment always agree with it; the open store is reused until
    the pid or the path changes.
    """
    pid = os.getpid()
    path = _store_path()
    store = _active["store"]
    if store is not None and _active["pid"] == pid \
            and _active["path"] == path:
        return store
    if store is not None:
        if _active["pid"] == pid:
            store.close()
        else:
            _abandoned.append(store)
    store = SqliteStore(path)
    _active.update(pid=pid, path=path, store=store)
    return store
