"""The scheduler layer: a job queue over a shared set of workers.

A :class:`Scheduler` accepts sweep-plan submissions (lists of
:class:`~repro.experiments.plan.Point`), resolves result-store hits
*before* any point reaches a worker, and runs the residue on
:class:`~repro.experiments.engine.Worker` processes — the unit
:class:`~repro.experiments.engine.ParallelEngine` runs too, so crash
and timeout isolation, span propagation and the ledger records
(:func:`~repro.experiments.engine.ledger_point`) are the engine's.
Its workers are forked on demand and kept from its first point until
:meth:`Scheduler.stop`; a crash, a timeout or a cancel ends only the
process of its point.
Where the engine is a FIFO over its workers, the scheduler is a
priority/quota policy over them, adding what a multi-client service
needs:

* **priorities** — higher-priority jobs are scheduled first; FIFO
  within a priority level;
* **per-tenant quotas** — a tenant never holds more than its quota of
  worker slots, so one heavy client cannot starve the rest;
* **in-flight dedupe** — two jobs asking for the same point (same
  content-addressed cache key) share one execution;
* **cross-process claims** — a point is claimed in the store before
  it starts, so a second scheduler sharing the store waits for the
  result instead of double-running the point.  Only schedulers claim:
  a CLI sweep sharing the store may run a point a scheduler also
  runs, and both publish the same payload through the upsert;
* **audit** — one :class:`~repro.obs.runlog.RunLedger` per job
  (``repro top`` / ``repro report`` work unchanged on it) and
  submit/cancel audit rows in the store.

Results themselves flow through the repository layer: the scheduler
holds the process's :func:`~repro.experiments.store.active_store`,
and workers receive ``REPRO_STORE``/``REPRO_CACHE_DIR`` with each
point through ``repro_env()`` and write their payloads straight into
the same file.
"""

from __future__ import annotations

import os
import socket
import threading
import time
import uuid
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.experiments.engine import PointOutcome, Worker, ledger_point
from repro.experiments.plan import Point, unique_points
from repro.experiments.runner import source_hash
from repro.experiments.store import SqliteStore, active_store
from repro.obs.runlog import RunLedger
from repro.obs.spans import SpanTracer

__all__ = ["Job", "Scheduler", "JOB_STATUSES", "POINT_STATUSES"]

#: Terminal job statuses.
JOB_STATUSES = ("queued", "running", "done", "failed", "cancelled")
#: Per-point record statuses (a superset of the engine's outcome
#: statuses: ``waiting`` is "claimed elsewhere", ``cancelled`` is
#: service-side).
POINT_STATUSES = ("queued", "waiting", "running", "done", "cached",
                  "failed", "timeout", "cancelled")
_TERMINAL = ("done", "cached", "failed", "timeout", "cancelled")
_OK = ("done", "cached")
#: Longest the pump waits with no wake and no worker reporting: the
#: tick that notices point timeouts and waiting points.
_PUMP_TICK = 0.05


@dataclass
class Job:
    """One submitted sweep: its points, identity, and progress."""

    id: str
    tenant: str
    priority: int
    label: str
    points: List[Point]
    submitted: float
    seq: int
    status: str = "queued"
    started: Optional[float] = None
    finished: Optional[float] = None
    #: idx -> point record (see :meth:`Scheduler._record`).
    records: Dict[int, Dict] = field(default_factory=dict)
    ledger: Optional[RunLedger] = None
    spans: Optional[SpanTracer] = None
    root_span: Any = None
    span_ctx: Optional[Dict] = None
    #: Set once the job is terminal; :meth:`Scheduler.wait` blocks on it.
    ended: threading.Event = field(default_factory=threading.Event,
                                   repr=False, compare=False)

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for rec in self.records.values():
            out[rec["status"]] = out.get(rec["status"], 0) + 1
        return out

    def remaining(self) -> int:
        return sum(1 for rec in self.records.values()
                   if rec["status"] not in _TERMINAL)

    def snapshot(self) -> Dict:
        """JSON-ready summary (no payloads)."""
        return {
            "id": self.id, "tenant": self.tenant,
            "priority": self.priority, "label": self.label,
            "status": self.status, "submitted": self.submitted,
            "started": self.started, "finished": self.finished,
            "total": len(self.points), "counts": self.counts(),
            "remaining": self.remaining(),
            "ledger": str(self.ledger.path) if self.ledger else None,
        }


class Scheduler:
    """A long-running job queue: a priority/quota policy over at most
    ``workers`` :class:`Worker` processes."""

    def __init__(self, workers: Optional[int] = None,
                 timeout: Optional[float] = None,
                 quotas: Optional[Dict[str, int]] = None,
                 default_quota: Optional[int] = None,
                 state_dir: Optional[os.PathLike] = None,
                 store: Optional[SqliteStore] = None) -> None:
        self.workers = max(1, workers if workers else
                           (os.cpu_count() or 1))
        self.timeout = timeout
        self.quotas = dict(quotas or {})
        #: Slots a tenant without an explicit quota may hold at once.
        self.default_quota = default_quota or self.workers
        self.state_dir = Path(state_dir) if state_dir is not None \
            else None
        if self.state_dir is not None:
            (self.state_dir / "ledgers").mkdir(parents=True,
                                               exist_ok=True)
        self.store = store if store is not None else active_store()
        self.id = f"sched-{uuid.uuid4().hex[:8]}"

        #: Every job submitted, for queries.
        self._jobs: Dict[str, Job] = {}
        #: The queued and running jobs, in submission order: all the
        #: pump walks.
        self._open: Dict[str, Job] = {}
        self._seq = 0
        #: running worker -> (job, idx) it runs the point for.
        self._live: Dict[Worker, Tuple[Job, int]] = {}
        #: Workers between points, kept for the next one until stop().
        self._idle: List[Worker] = []
        #: cache keys currently executing (or claimed) here.
        self._inflight: Dict[str, Tuple[str, int]] = {}
        self._lock = threading.RLock()
        # The pump waits on _wake_rx with the live workers' pipes;
        # submit, cancel and stop write a byte to _wake_tx.  Both ends
        # are non-blocking, so a wake never blocks its caller, even
        # with no pump reading.
        self._wake_rx, self._wake_tx = socket.socketpair()
        self._wake_rx.setblocking(False)
        self._wake_tx.setblocking(False)
        self._stopping = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._last_wait_check = 0.0
        self._wait_data_version: Optional[int] = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "Scheduler":
        """Start the scheduling thread (idempotent)."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._pump, name="repro-scheduler", daemon=True)
            self._thread.start()
        return self

    def stop(self) -> None:
        """Terminate every worker, finish ledgers, join the thread,
        close the wake handle."""
        self._stopping.set()
        self._wake_pump()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
        self._wake_rx.close()
        self._wake_tx.close()
        with self._lock:
            live = dict(self._live)
            self._live.clear()
            idle, self._idle = self._idle, []
        # Reap outside the lock: join() blocks for as long as the
        # child takes to die, and nothing else can reach these
        # workers now that they are out of _live and _idle.
        for worker in [*live, *idle]:
            worker.kill()
        with self._lock:
            for worker, (job, idx) in live.items():
                rec = job.records[idx]
                if rec["status"] == "running":
                    rec["status"] = "cancelled"
                    rec["error"] = "scheduler stopped"
                pt = worker.point
                if pt.cacheable:
                    self._inflight.pop(pt.cache_key(), None)
                    self.store.release(pt.cache_key(), owner=self.id)
            for job in list(self._open.values()):
                self._finish_job(job, status="cancelled",
                                 note="scheduler stopped")

    def __enter__(self) -> "Scheduler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- submission & queries ----------------------------------------------

    def submit(self, points, tenant: str = "anon", priority: int = 0,
               label: str = "") -> str:
        """Queue one job; returns its id.

        Store hits are resolved here — before any scheduling — so a
        fully-cached submission completes without touching the pool.
        """
        pts = unique_points(points)
        if not pts:
            raise ValueError("job has no points")
        with self._lock:
            self._seq += 1
            job = Job(id=uuid.uuid4().hex[:12], tenant=tenant,
                      priority=int(priority), label=label, points=pts,
                      submitted=time.time(), seq=self._seq)
            job.spans = SpanTracer()
            if self.state_dir is not None:
                job.ledger = RunLedger(
                    self.state_dir / "ledgers" / f"job-{job.id}.jsonl",
                    run_id=job.id, command=label or "submit",
                    config_hash=source_hash())
                job.ledger.run_start(
                    total=len(pts), workers=self.workers,
                    trace_id=job.spans.trace_id, tenant=tenant,
                    priority=job.priority)
            job.root_span = job.spans.begin(
                "job", tenant=tenant, priority=job.priority,
                label=label)
            job.span_ctx = job.spans.context()
            for idx, pt in enumerate(pts):
                job.records[idx] = self._record(idx, pt)
            self._jobs[job.id] = job
            self._open[job.id] = job
            self.store.audit(
                "submit", key=job.id, actor=tenant,
                source_hash=source_hash(),
                detail={"points": len(pts), "priority": job.priority,
                        "label": label})
            # Resolve store hits before anything is scheduled.
            for idx, pt in enumerate(pts):
                if pt.cacheable:
                    payload = pt.load_cached()
                    if payload is not None:
                        self._resolve(job, idx, "cached",
                                      payload=payload)
            self._maybe_finish_job(job)
        self._wake_pump()
        return job.id

    @staticmethod
    def _record(idx: int, pt: Point) -> Dict:
        return {"idx": idx, "key": pt.cache_key(), "label": pt.label,
                "point": pt.to_dict(), "status": "queued",
                "payload": None, "error": "", "elapsed": 0.0}

    def cancel(self, job_id: str) -> bool:
        """Cancel a job: queued points never run; running points are
        terminated unless another job shares them."""
        to_reap: List[Worker] = []
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.status in ("done", "failed",
                                             "cancelled"):
                return False
            for rec in job.records.values():
                if rec["status"] in ("queued", "waiting"):
                    self._resolve(job, rec["idx"], "cancelled",
                                  error="job cancelled")
            for worker, (ljob, idx) in list(self._live.items()):
                if ljob is not job:
                    continue
                self._resolve(job, idx, "cancelled",
                              error="job cancelled")
                pt = worker.point
                key = pt.cache_key() if pt.cacheable else None
                if key is not None and self._has_followers(job, key):
                    # Another job awaits the same point; let the
                    # worker finish for them.
                    continue
                del self._live[worker]
                if key is not None:
                    self._inflight.pop(key, None)
                    self.store.release(key, owner=self.id)
                to_reap.append(worker)
            self.store.audit("cancel", key=job.id, actor=job.tenant)
            self._finish_job(job, status="cancelled")
        # Reap outside the lock: join() blocks until the child dies,
        # and the pump needs the lock to keep other jobs moving.  The
        # pump may be inside mp_connection.wait() on a conn we close
        # here; it tolerates the resulting OSError and re-snapshots.
        for worker in to_reap:
            worker.kill()
        self._wake_pump()
        return True

    def job(self, job_id: str) -> Optional[Dict]:
        with self._lock:
            job = self._jobs.get(job_id)
            return job.snapshot() if job is not None else None

    def wait(self, job_id: str, timeout: float) -> Optional[Dict]:
        """The job's snapshot once it is terminal or ``timeout``
        seconds have passed, whichever is first; ``None`` for an
        unknown job.  Blocks with the lock released."""
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            return None
        job.ended.wait(timeout)
        return self.job(job_id)

    def jobs(self) -> List[Dict]:
        """Every job's snapshot, in submission order (the order
        ``_jobs`` is filled in)."""
        with self._lock:
            return [j.snapshot() for j in self._jobs.values()]

    def job_count(self) -> int:
        """How many jobs this scheduler holds, without building a
        snapshot of any."""
        with self._lock:
            return len(self._jobs)

    def results(self, job_id: str) -> Optional[List[Dict]]:
        """Per-point records (payload included), submission order."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            return [dict(job.records[idx])
                    for idx in sorted(job.records)]

    # -- the pump ----------------------------------------------------------

    def _pump(self) -> None:
        while not self._stopping.is_set():
            self._schedule()
            with self._lock:
                handles = [self._wake_rx] + [w.conn for w in self._live]
            try:
                ready = mp_connection.wait(handles, timeout=_PUMP_TICK)
                if self._wake_rx in ready:
                    self._wake_rx.recv(4096)
            except (OSError, ValueError):
                # A cancel closed a worker's pipe, or stop() the wake
                # handle, mid-wait; re-snapshot.
                pass
            self._poll()
            self._check_waiting()

    def _wake_pump(self) -> None:
        """Wake the pump.  A full buffer already holds a wake and a
        closed handle has no pump behind it, so neither is an error."""
        try:
            self._wake_tx.send(b"\0")
        except OSError:
            pass

    def _quota(self, tenant: str) -> int:
        return self.quotas.get(tenant, self.default_quota)

    def _schedule(self) -> None:
        """Fill free worker slots: priority order, quota-capped."""
        with self._lock:
            if len(self._live) >= self.workers:
                return
            held: Dict[str, int] = {}
            for job, _idx in self._live.values():
                held[job.tenant] = held.get(job.tenant, 0) + 1
            for job in sorted(self._open.values(),
                              key=lambda j: (-j.priority, j.seq)):
                if held.get(job.tenant, 0) >= self._quota(job.tenant):
                    continue
                for idx in sorted(job.records):
                    rec = job.records[idx]
                    if rec["status"] != "queued":
                        continue
                    if len(self._live) >= self.workers:
                        return
                    if held.get(job.tenant, 0) >= \
                            self._quota(job.tenant):
                        break
                    pt = job.points[idx]
                    key = pt.cache_key() if pt.cacheable else None
                    if key is not None:
                        if key in self._inflight:
                            # Shares an execution already under way;
                            # resolved with it in _finish_point.
                            continue
                        if not self.store.claim(key, owner=self.id):
                            # Another process owns the point; poll
                            # the store for its result instead.
                            rec["status"] = "waiting"
                            continue
                    self._start_worker(job, idx, pt)
                    held[job.tenant] = held.get(job.tenant, 0) + 1

    def _start_worker(self, job: Job, idx: int, pt: Point) -> None:
        rec = job.records[idx]
        rec["status"] = "running"
        rec["t0"] = time.monotonic()
        if job.status == "queued":
            job.status = "running"
            job.started = time.time()
        if job.ledger is not None:
            job.ledger.point_start(rec["key"], pt.label)
        worker = self._idle.pop() if self._idle else Worker()
        worker.start(pt, span_ctx=job.span_ctx)
        self._live[worker] = (job, idx)
        if pt.cacheable:
            self._inflight[pt.cache_key()] = (job.id, idx)

    def _poll(self) -> None:
        now = time.monotonic()
        with self._lock:
            for worker in list(self._live):
                outcome = worker.poll(now, self.timeout)
                if outcome is not None:
                    job, idx = self._live.pop(worker)
                    if worker.idle:
                        self._idle.append(worker)
                    self._finish_point(job, idx, outcome)

    #: Unconditional re-poll period for waiting points: a crashed
    #: owner's claim going stale and publishes through our own
    #: connection bump no ``data_version()``, so a slow timed sweep
    #: still has to catch them.
    wait_poll_fallback = 1.0

    def _check_waiting(self) -> None:
        """Poll the store for points claimed by another process, and
        retry their claims (the owner may have failed and released).

        This is change-driven: ``PRAGMA data_version`` bumps whenever
        another connection commits, so the expensive per-point sweep
        runs only when a foreign writer actually landed something (or
        on the slow fallback tick).
        """
        now = time.monotonic()
        version = self.store.data_version()
        if version != self._wait_data_version:
            self._wait_data_version = version
        elif now - self._last_wait_check < self.wait_poll_fallback:
            return
        self._last_wait_check = now
        with self._lock:
            for job in list(self._open.values()):
                for idx in sorted(job.records):
                    rec = job.records[idx]
                    if rec["status"] != "waiting":
                        continue
                    pt = job.points[idx]
                    payload = pt.load_cached()
                    if payload is not None:
                        self._resolve(job, idx, "cached",
                                      payload=payload)
                        self._maybe_finish_job(job)
                    elif self.store.claim(rec["key"], owner=self.id):
                        rec["status"] = "queued"

    # -- resolution --------------------------------------------------------

    def _finish_point(self, job: Job, idx: int,
                      outcome: PointOutcome) -> None:
        pt = outcome.point
        key = pt.cache_key() if pt.cacheable else None
        if key is not None:
            self._inflight.pop(key, None)
            self.store.release(key, owner=self.id)
        rec = job.records[idx]
        if rec["status"] != "cancelled":
            self._resolve(job, idx, outcome.status,
                          payload=outcome.payload, error=outcome.error,
                          elapsed=outcome.elapsed,
                          rusage=outcome.rusage, spans=outcome.spans)
        # Any other job queued behind this execution shares the
        # payload (or retries on failure, by staying queued).
        if key is not None and outcome.status == "done" \
                and outcome.payload is not None:
            for other in list(self._open.values()):
                if other is job:
                    continue
                for oidx in sorted(other.records):
                    orec = other.records[oidx]
                    if (orec["status"] in ("queued", "waiting")
                            and orec["key"] == key):
                        self._resolve(other, oidx, "cached",
                                      payload=outcome.payload)
                self._maybe_finish_job(other)
        self._maybe_finish_job(job)

    def _has_followers(self, job: Job, key: str) -> bool:
        for other in self._open.values():
            if other is job:
                continue
            for rec in other.records.values():
                if rec["key"] == key and rec["status"] in (
                        "queued", "waiting"):
                    return True
        return False

    def _resolve(self, job: Job, idx: int, status: str,
                 payload: Optional[dict] = None, error: str = "",
                 elapsed: float = 0.0,
                 rusage: Optional[dict] = None,
                 spans: Optional[List[dict]] = None) -> None:
        """The single bookkeeping path for a point reaching a
        terminal status: record, ledger."""
        rec = job.records[idx]
        if "t0" in rec:
            elapsed = elapsed or (time.monotonic() - rec.pop("t0"))
        rec.update(status=status, payload=payload, error=error,
                   elapsed=elapsed)
        if job.ledger is not None:
            ledger_point(job.ledger, job.spans, PointOutcome(
                job.points[idx], status, payload, error, elapsed,
                rusage, spans))

    def _maybe_finish_job(self, job: Job) -> None:
        if job.status in ("done", "failed", "cancelled"):
            return
        if job.remaining():
            return
        counts = job.counts()
        bad = counts.get("failed", 0) + counts.get("timeout", 0)
        self._finish_job(job,
                         status="failed" if bad else "done")

    def _finish_job(self, job: Job, status: str,
                    note: str = "") -> None:
        if job.finished is not None:
            return
        job.status = status
        job.finished = time.time()
        self._open.pop(job.id, None)
        if job.spans is not None:
            job.spans.end(job.root_span, status=status,
                          **{f"points.{k}": v
                             for k, v in job.counts().items()})
        if job.ledger is not None:
            job.ledger.run_end(
                status={"done": "ok"}.get(status, status),
                counts=job.counts(),
                elapsed=job.finished - job.submitted,
                spans=job.spans.drain() if job.spans else [])
            job.ledger.close()
        job.ended.set()
