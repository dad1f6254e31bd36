"""``kill -9`` anywhere leaves a store that resumes exactly the
unfinished work.

Three crashes, each followed by the check that matters: a sweep killed
mid-run (serial and on two workers) leaves an intact store whose rows
all decode, and re-running the same command executes exactly the
points with no row; a process killed while it holds sqlite's write
lock blocks no later writer and leaves no uncommitted row; and a
``repro serve`` killed while it holds a claim does not stall the
server restarted on the same store.

Every child runs in its own session and is SIGKILLed as a whole
process group, and the group is gone before anything is counted, so
no orphaned worker writes after the rows are read.
"""

import json
import os
import signal
import sqlite3
import subprocess
import sys
import time
from collections import Counter
from contextlib import closing
from pathlib import Path

import pytest

from repro.experiments.plan import Point
from repro.experiments.store import SqliteStore
from repro.obs.runlog import ledger_points, read_ledger
from repro.service import ServiceClient

pytestmark = pytest.mark.skipif(
    sys.platform != "linux", reason="needs process groups and /proc")

SRC = Path(__file__).resolve().parent.parent / "src"
SCALE = 0.05
MODELS = ("baseline", "vca-rw")
SIZES = (128, 256)
SWEEP_BENCHES = ("gzip_graphic", "twolf")


def grid(benches):
    """The plan's points: baseline and vca-rw at 128 and 256
    registers on each of ``benches``."""
    return [Point.run(model, (bench,), regs, scale=SCALE)
            for model in MODELS for regs in SIZES for bench in benches]


def child_env(tmp_path):
    """This environment minus ``REPRO_*``, with a private cache
    directory and ``src`` importable."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    return env


def spawn(args, env, **kwargs):
    """``python *args`` as the leader of a new session."""
    return subprocess.Popen([sys.executable, *args], env=env,
                            start_new_session=True, **kwargs)


def _group_alive(pgid):
    """Whether any process of group ``pgid`` is still running (a
    zombie has exited and can write nothing)."""
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            return True
    return False


def kill_group(proc):
    """SIGKILL ``proc``'s whole process group and wait until none of
    it runs."""
    os.killpg(proc.pid, signal.SIGKILL)
    proc.wait(timeout=60)
    deadline = time.monotonic() + 60
    while _group_alive(proc.pid):
        assert time.monotonic() < deadline, "group outlived SIGKILL"
        time.sleep(0.01)


def wait_until(cond, proc, timeout=120):
    """Poll ``cond`` until it holds; ``proc`` must stay alive."""
    deadline = time.monotonic() + timeout
    while not cond():
        assert proc.poll() is None, "child exited before the kill"
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


def query(path, sql):
    """The rows ``sql`` returns from the store at ``path`` (none while
    the file or its schema does not exist yet)."""
    if not path.exists():
        return []
    with closing(sqlite3.connect(path)) as conn:
        try:
            return conn.execute(sql).fetchall()
        except sqlite3.OperationalError:
            return []


def count(path, sql):
    rows = query(path, sql)
    return rows[0][0] if rows else 0


ROWS = "SELECT COUNT(*) FROM results"
UNSTORED_CLAIMS = ("SELECT COUNT(*) FROM claims"
                   " WHERE key NOT IN (SELECT key FROM results)")


def assert_store_intact(path, points):
    """``integrity_check`` passes and every row decodes through its
    point; returns the number of rows."""
    assert query(path, "PRAGMA integrity_check") == [("ok",)]
    by_key = {pt.cache_key(): pt for pt in points}
    rows = query(path, "SELECT key, payload FROM results")
    for key, payload in rows:
        by_key[key].decode(json.loads(payload))
    return len(rows)


@pytest.mark.parametrize("workers", [0, 2], ids=["serial", "workers2"])
def test_killed_sweep_reruns_exactly_the_unfinished_points(
        tmp_path, workers):
    store = tmp_path / "results.sqlite"
    ledger = tmp_path / "ledger.jsonl"
    env = child_env(tmp_path)
    args = ["-m", "repro", "sweep", "rw",
            "--models", *MODELS, "--sizes", *map(str, SIZES),
            "--bench", *SWEEP_BENCHES, "--scale", str(SCALE),
            "--workers", str(workers), "--store", str(store),
            "--ledger", str(ledger), "--quiet"]
    proc = spawn(args, env, stdout=subprocess.DEVNULL,
                 stderr=subprocess.DEVNULL)
    try:
        wait_until(lambda: count(store, ROWS) >= 3, proc)
    finally:
        kill_group(proc)

    points = grid(SWEEP_BENCHES)
    rows = assert_store_intact(store, points)
    assert 3 <= rows < len(points)
    rerun = subprocess.run([sys.executable, *args], env=env,
                           capture_output=True, text=True, timeout=300)
    assert rerun.returncode == 0, rerun.stderr
    assert f"executed {len(points) - rows} " in rerun.stdout
    assert f"{rows} cached" in rerun.stdout
    # The killed run's ledger still reads, and the re-run's records,
    # which win per key, say the same.
    statuses = Counter(rec["status"] for rec in
                       ledger_points(read_ledger(ledger)).values())
    assert statuses == {"cached": rows, "done": len(points) - rows}


_HOLD_WRITE_LOCK = """
import sqlite3, sys, time
conn = sqlite3.connect(sys.argv[1], isolation_level=None)
conn.execute("BEGIN IMMEDIATE")
conn.execute("INSERT INTO results(key, payload, created, updated)"
             " VALUES('uncommitted', '{}', 0, 0)")
print("locked", flush=True)
time.sleep(600)
"""


def test_killed_write_lock_holder_blocks_no_writer(tmp_path):
    path = tmp_path / "results.sqlite"
    SqliteStore(path).close()
    proc = spawn(["-c", _HOLD_WRITE_LOCK, str(path)],
                 child_env(tmp_path), stdout=subprocess.PIPE)
    try:
        assert proc.stdout.readline() == b"locked\n"
        with closing(sqlite3.connect(path, timeout=0.05)) as conn:
            with pytest.raises(sqlite3.OperationalError, match="locked"):
                conn.execute("BEGIN IMMEDIATE")
    finally:
        kill_group(proc)
        proc.stdout.close()

    with SqliteStore(path, busy_timeout_ms=10_000) as db:
        t0 = time.monotonic()
        db.store("k", {"v": 1})
        assert time.monotonic() - t0 < 1.0
        assert db.load("uncommitted") is None
        assert db.keys() == ["k"]
        assert db.integrity_ok()


def start_server(args, env):
    """Start ``repro serve`` and return ``(process, url)``."""
    proc = spawn(args, env, stdout=subprocess.PIPE,
                 stderr=subprocess.DEVNULL, text=True)
    banner = proc.stdout.readline()
    assert "listening on " in banner, banner
    return proc, banner.split("listening on ", 1)[1].split()[0]


def test_restarted_service_finishes_a_killed_job(tmp_path):
    store = tmp_path / "results.sqlite"
    env = child_env(tmp_path)
    args = ["-m", "repro", "serve", "--workers", "1", "--port", "0",
            "--store", str(store)]
    points = grid(("gzip_graphic",))
    job = [pt.to_dict() for pt in points]

    first, url = start_server(args, env)
    try:
        ServiceClient(url, timeout=30).submit(job)
        # Killed holding a claim on a point that has no row yet.
        wait_until(lambda: count(store, ROWS) >= 2
                   and count(store, UNSTORED_CLAIMS) >= 1, first)
    finally:
        kill_group(first)
        first.stdout.close()
    rows = assert_store_intact(store, points)
    assert count(store, UNSTORED_CLAIMS) >= 1

    second, url = start_server(args, env)
    try:
        client = ServiceClient(url, timeout=30)
        snap = client.wait(client.submit(job), poll=0.05, timeout=60)
    finally:
        kill_group(second)
        second.stdout.close()
    assert snap["status"] == "done"
    assert snap["counts"] == {"cached": rows, "done": len(points) - rows}
    assert count(store, "SELECT COUNT(*) FROM claims") == 0
    assert assert_store_intact(store, points) == len(points)
