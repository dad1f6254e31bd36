"""Plan execution engines: serial and parallel, fault-tolerant.

An engine runs the points of a sweep plan (``repro.experiments.plan``)
and returns ``{Point: PointOutcome}``.  Both engines share the same
front half — dedupe, ledger resume, cache-aware scheduling (points
whose result is already on disk are resolved in-process, before any
worker is forked) — and differ only in how the residue executes:

* :class:`SerialEngine` runs points in-process, capturing exceptions
  into the point's outcome so one broken configuration cannot kill a
  sweep.
* :class:`ParallelEngine` runs each point in its own :class:`Worker`
  process (``fork`` where available, else ``spawn``), giving hard
  fault isolation: an exception, a hard crash (``os._exit``,
  segfault) or a per-point timeout marks only that point failed;
  every other point completes.  The parent's ``REPRO_*`` environment
  is propagated to workers explicitly, so spawned workers never
  silently run at default scale or against the wrong cache directory.

Both run a point through :func:`execute_point` — in-process for the
serial engine, inside the child for a :class:`Worker` — and the
service scheduler (``repro.service.scheduler``) schedules the same
:class:`Worker` and writes its ledger through the same
:func:`ledger_point`.

Progress flows through a callback as :class:`SweepProgress`
snapshots, and per-point accounting can be aggregated into a
:class:`repro.obs.MetricsRegistry`.

With a :class:`repro.obs.runlog.RunLedger` attached (``ledger=``),
every run additionally leaves an auditable record: the engine writes
the ``run_start``/``point``/``run_end`` records, collects per-point
``getrusage`` deltas in the worker, and weaves one span tree per point
(``sweep → point → ...``) across the Pipe boundary — workers continue
the parent's trace via a propagated span context and ship their
finished spans back alongside the payload.  Points that never report
(crash, timeout) get a terminated span synthesized parent-side, so the
ledger always reassembles into exactly one tree per point.  The
ledger is also the one resume source: re-running with ``resume=True``
replays the points its ``point`` records mark completed (failed and
timed-out points are retried).
"""

from __future__ import annotations

import json
import math
import multiprocessing as mp
import os
import time
import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from repro.hooks import set_current_spans
from repro.obs.spans import SpanTracer

from .plan import Point, SweepSpec, unique_points

#: Outcome statuses counted as successfully completed.
_OK_STATUSES = ("done", "cached", "resumed")


class EngineError(RuntimeError):
    """Raised when a failed point's result is requested."""


@dataclass
class PointOutcome:
    """What happened to one point of a sweep.

    ``status`` is one of ``done`` (executed this run), ``cached``
    (resolved from the result cache without executing), ``resumed``
    (replayed from the ledger), ``failed`` (exception or worker
    crash; see ``error``) or ``timeout``.
    """

    point: Point
    status: str
    payload: Optional[dict] = None
    error: str = ""
    elapsed: float = 0.0
    #: Resource usage delta (``getrusage``) of the process that ran the
    #: point; ``None`` when it never ran or its worker never reported.
    rusage: Optional[dict] = None
    #: Finished span dicts for this point (worker-exported, or
    #: synthesized parent-side for cached/crashed/timed-out points).
    spans: Optional[List[dict]] = None

    @property
    def ok(self) -> bool:
        """True when a payload is available (done/cached/resumed)."""
        return self.status in _OK_STATUSES

    def result(self) -> Any:
        """The point's decoded value; raises :class:`EngineError` for
        failed/timed-out points."""
        if not self.ok or self.payload is None:
            raise EngineError(
                f"point {self.point.label} {self.status}: {self.error}")
        return self.point.decode(self.payload)


@dataclass
class SweepProgress:
    """A live snapshot of a running sweep, passed to the progress
    callback after every resolved point."""

    total: int = 0
    done: int = 0
    cached: int = 0
    resumed: int = 0
    failed: int = 0
    timeout: int = 0
    elapsed: float = 0.0
    #: Estimated seconds until the sweep completes (``None`` until at
    #: least one point has executed).
    eta: Optional[float] = None

    @property
    def completed(self) -> int:
        """Points resolved so far, by any route including failure."""
        return (self.done + self.cached + self.resumed + self.failed
                + self.timeout)

    @property
    def executed(self) -> int:
        """Points that actually ran (did not come from cache/ledger)."""
        return self.done + self.failed + self.timeout


def repro_env() -> Dict[str, str]:
    """The ``REPRO_*`` environment to propagate to workers."""
    return {k: v for k, v in sorted(os.environ.items())
            if k.startswith("REPRO_")}


def apply_repro_env(env: Dict[str, str]) -> None:
    """Make this process's ``REPRO_*`` environment exactly ``env``
    (workers call this before executing any point)."""
    for k in [k for k in os.environ if k.startswith("REPRO_")]:
        if k not in env:
            del os.environ[k]
    os.environ.update(env)


def load_journal(path: Path) -> Dict[str, dict]:
    """Parse a run ledger's point records into ``{cache_key: record}``.

    Later records win (a resumed sweep appends), and a truncated final
    line — the crash resume exists to survive — is ignored.
    """
    records: Dict[str, dict] = {}
    try:
        text = path.read_text()
    except OSError:
        return records
    for line in text.splitlines():
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(rec, dict) and "key" in rec:
            records[rec["key"]] = rec
    return records


def _rusage_snapshot() -> Optional[Dict[str, float]]:
    """Current-process resource usage, or ``None`` where the
    :mod:`resource` module is unavailable (non-Unix)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-Unix
        return None
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return {"utime": ru.ru_utime, "stime": ru.ru_stime,
            "maxrss_kb": ru.ru_maxrss,
            "minflt": ru.ru_minflt, "majflt": ru.ru_majflt}


def _rusage_delta(before: Optional[Dict]) -> Optional[Dict]:
    """Resource usage since ``before`` (``maxrss_kb`` is the process
    high-water mark, not a delta)."""
    after = _rusage_snapshot()
    if before is None or after is None:
        return after
    return {"utime": round(after["utime"] - before["utime"], 6),
            "stime": round(after["stime"] - before["stime"], 6),
            "maxrss_kb": after["maxrss_kb"],
            "minflt": after["minflt"] - before["minflt"],
            "majflt": after["majflt"] - before["majflt"]}


#: Outcome status -> span status for point spans synthesized
#: parent-side (a worker that reported carries its own statuses).
_SPAN_STATUS = {"done": "ok", "cached": "cached", "resumed": "resumed",
                "failed": "terminated", "timeout": "timeout"}


def ledger_point(ledger: Any, spans: SpanTracer,
                 outcome: PointOutcome) -> None:
    """Write one resolved point's ``point`` record to ``ledger``.

    A point that exported no spans (cache hit, resume replay, hard
    crash, timeout, cancellation) gets a point span synthesized on
    ``spans``, so the ledger still holds exactly one tree per point.
    The record carries the outcome's spans plus everything ``spans``
    finished since the previous record.
    """
    key = outcome.point.cache_key()
    if not outcome.spans:
        end_t = time.time()
        spans.record("point", end_t - outcome.elapsed, end_t,
                     status=_SPAN_STATUS.get(outcome.status,
                                             outcome.status),
                     key=key, label=outcome.point.label)
    ledger.point(
        key=key, status=outcome.status, point=outcome.point.to_dict(),
        payload=outcome.payload, error=outcome.error,
        elapsed=outcome.elapsed,
        cache={"cached": "hit", "resumed": "hit",
               "done": "miss"}.get(outcome.status),
        rusage=outcome.rusage,
        spans=(outcome.spans or []) + spans.drain())


class _EngineBase:
    """Shared scheduling front half of every engine."""

    #: Worker-slot count, for ETA estimation.
    workers = 1

    def __init__(self, use_cache: bool = True) -> None:
        self.use_cache = use_cache

    def run(self, points: Iterable[Point],
            resume: bool = False,
            progress: Optional[Callable[[SweepProgress], None]] = None,
            metrics: Optional[Any] = None,
            ledger: Optional[Any] = None,
            ) -> Dict[Point, PointOutcome]:
        """Run ``points`` (or a plan's expansion) to completion.

        Never raises for a failing *point* — inspect the returned
        outcomes (or call :meth:`PointOutcome.result`, which raises
        :class:`EngineError` for failures).

        ``ledger`` (a :class:`repro.obs.runlog.RunLedger`) enables the
        audit trail and span tracing: run/point records, per-point
        rusage, and one span tree per point.  ``resume`` replays the
        points the ledger's file already records as completed, so it
        needs a ``ledger``.
        """
        pts = unique_points(points)
        prog = SweepProgress(total=len(pts))
        t0 = time.monotonic()
        elapsed_samples: List[float] = []
        outcomes: Dict[Point, PointOutcome] = {}

        prior: Dict[str, dict] = {}
        if resume:
            if ledger is None:
                raise ValueError("resume needs a ledger to resume from")
            prior = load_journal(Path(ledger.path))
        if metrics is not None:
            metrics.set("sweep.points.total", len(pts))

        spans = SpanTracer() if ledger is not None else None
        sweep_span = None
        if ledger is not None:
            ledger.run_start(total=len(pts), workers=self.workers,
                             trace_id=spans.trace_id)
            sweep_span = spans.begin("sweep", total=len(pts))

        def emit(outcome: PointOutcome) -> None:
            """Record one resolved point: outcome map, progress/ETA,
            ledger record, metrics — the single bookkeeping path
            every engine's ``_execute`` reports through."""
            outcomes[outcome.point] = outcome
            setattr(prog, outcome.status,
                    getattr(prog, outcome.status) + 1)
            prog.elapsed = time.monotonic() - t0
            if outcome.status in ("done", "failed", "timeout"):
                elapsed_samples.append(outcome.elapsed)
            remaining = prog.total - prog.completed
            if elapsed_samples and remaining:
                # Only points that actually executed feed the rate
                # estimate (cached/resumed points resolve in
                # microseconds and would make a mostly-cached resume
                # look nearly free), and a worker pool finishes the
                # residue in whole waves: 1 remaining point on 8
                # workers still costs one full point, not 1/8th.
                avg = sum(elapsed_samples) / len(elapsed_samples)
                prog.eta = avg * math.ceil(
                    remaining / max(1, self.workers))
            elif not remaining:
                prog.eta = 0.0
            if ledger is not None:
                ledger_point(ledger, spans, outcome)
            if metrics is not None:
                metrics.inc(f"sweep.points.{outcome.status}")
                if outcome.status in ("done", "failed", "timeout"):
                    metrics.dist("sweep.point_seconds").record(
                        outcome.elapsed)
            if progress is not None:
                progress(prog)

        try:
            to_run: List[Point] = []
            for pt in pts:
                if pt.cacheable:
                    rec = prior.get(pt.cache_key())
                    if (rec is not None
                            and rec.get("status") in _OK_STATUSES
                            and rec.get("payload") is not None):
                        emit(PointOutcome(pt, "resumed",
                                          payload=rec["payload"]))
                        continue
                    if self.use_cache:
                        payload = pt.load_cached()
                        if payload is not None:
                            emit(PointOutcome(pt, "cached",
                                              payload=payload))
                            continue
                to_run.append(pt)
            self._execute(to_run, emit, spans=spans, ledger=ledger)
        finally:
            if ledger is not None:
                spans.end(sweep_span, **{
                    f"points.{k}": getattr(prog, k)
                    for k in ("done", "cached", "resumed", "failed",
                              "timeout") if getattr(prog, k)})
                ledger.run_end(
                    status="ok" if prog.completed == prog.total
                    else "interrupted",
                    counts={k: getattr(prog, k)
                            for k in ("done", "cached", "resumed",
                                      "failed", "timeout")},
                    elapsed=time.monotonic() - t0,
                    spans=spans.drain())
        return outcomes

    def _execute(self, points: Sequence[Point],
                 emit: Callable[[PointOutcome], None],
                 spans: Optional[SpanTracer] = None,
                 ledger: Optional[Any] = None) -> None:
        raise NotImplementedError


def execute_point(point: Point, use_cache: bool,
                  tracer: Optional[SpanTracer] = None) -> PointOutcome:
    """Run one point in this process; the path every point executes
    through (directly in :class:`SerialEngine`, in the child of every
    :class:`Worker`).

    An exception becomes a ``failed`` outcome carrying the traceback.
    With a ``tracer`` the point runs under a ``point`` span, with the
    tracer installed as the current one so the sampling pipeline's
    phase spans land beneath it, and the outcome carries its spans.
    """
    ru0 = _rusage_snapshot()
    prev = psp = None
    if tracer is not None:
        prev = set_current_spans(tracer)
        psp = tracer.begin("point", key=point.cache_key(),
                           label=point.label)
    t0 = time.monotonic()
    try:
        outcome = PointOutcome(
            point, "done", payload=point.execute(use_cache=use_cache))
    except Exception:  # lint: allow-broad-except (point isolation)
        outcome = PointOutcome(point, "failed",
                               error=traceback.format_exc(limit=8))
    finally:
        if tracer is not None:
            set_current_spans(prev)
    outcome.elapsed = time.monotonic() - t0
    outcome.rusage = _rusage_delta(ru0)
    if tracer is not None:
        tracer.end(psp, status="ok" if outcome.ok else "error")
        outcome.spans = tracer.drain()
    return outcome


class SerialEngine(_EngineBase):
    """In-process executor with exception (but not crash/timeout)
    isolation — the reference implementation parallel runs must
    match."""

    def _execute(self, points, emit, spans=None, ledger=None):
        for pt in points:
            if ledger is not None:
                ledger.point_start(pt.cache_key(), pt.label)
            emit(execute_point(pt, self.use_cache, spans))


def _worker_main(conn, point: Point, use_cache: bool,
                 env: Dict[str, str],
                 span_ctx: Optional[Dict] = None) -> None:
    """A :class:`Worker`'s child: run one point, ship the result back.

    The Pipe message is ``(kind, value, meta)``: kind ``"ok"`` with the
    payload or ``"error"`` with a traceback, plus a meta dict carrying
    the worker's finished spans and its ``getrusage`` delta.  With a
    ``span_ctx`` the worker continues the parent's trace.
    """
    try:
        apply_repro_env(env)
        tracer = (SpanTracer.from_context(span_ctx)
                  if span_ctx is not None else None)
        out = execute_point(point, use_cache, tracer)
        conn.send(("ok" if out.ok else "error",
                   out.payload if out.ok else out.error,
                   {"spans": out.spans or [], "rusage": out.rusage}))
    finally:
        conn.close()


#: Default worker start method: ``fork`` where available (workers
#: inherit warm imports), else ``spawn``.
_START_METHOD = ("fork" if "fork" in mp.get_all_start_methods()
                 else "spawn")


class Worker:
    """One point running in its own process — the fault-isolation unit
    that :class:`ParallelEngine` and the service scheduler both drive.

    Constructing one opens the result Pipe and starts the child (from
    multiprocessing context ``ctx``; default ``fork`` where available,
    else ``spawn``) with the parent's ``REPRO_*`` environment.  The
    owner then calls :meth:`poll` until it returns the outcome, or
    :meth:`kill` to abandon the point; both reap the process and close
    the pipe.
    """

    def __init__(self, point: Point, use_cache: bool = True,
                 span_ctx: Optional[Dict] = None, ctx: Any = None) -> None:
        ctx = ctx or mp.get_context(_START_METHOD)
        self.point = point
        self.conn, send = ctx.Pipe(duplex=False)
        self.proc = ctx.Process(
            target=_worker_main,
            args=(send, point, use_cache, repro_env(), span_ctx),
            daemon=True)
        self.proc.start()
        send.close()
        self.started = time.monotonic()

    def poll(self, now: float,
             timeout: Optional[float] = None) -> Optional[PointOutcome]:
        """The point's outcome once it has finished, or ``None`` while
        it is still running.  A point running longer than ``timeout``
        seconds is killed and times out."""
        elapsed = now - self.started
        if self.conn.poll(0):
            try:
                kind, value, meta = self.conn.recv()
            except (EOFError, OSError):
                kind, value, meta = None, None, {}
            self.proc.join()
            if kind == "ok":
                outcome = PointOutcome(self.point, "done", payload=value)
            elif kind == "error":
                outcome = PointOutcome(self.point, "failed", error=value)
            else:
                outcome = PointOutcome(
                    self.point, "failed",
                    error=f"worker died without reporting "
                          f"(exitcode {self.proc.exitcode})")
            outcome.rusage = meta.get("rusage")
            outcome.spans = meta.get("spans")
        elif not self.proc.is_alive():
            self.proc.join()
            outcome = PointOutcome(
                self.point, "failed",
                error=f"worker crashed (exitcode {self.proc.exitcode})")
        elif timeout is not None and elapsed > timeout:
            self.kill()
            return PointOutcome(
                self.point, "timeout", elapsed=elapsed,
                error=f"point exceeded {timeout:g}s timeout")
        else:
            return None
        self.conn.close()
        outcome.elapsed = elapsed
        return outcome

    def kill(self) -> None:
        """Terminate the process, reap it and close the pipe."""
        self.proc.terminate()
        self.proc.join()
        self.conn.close()


class ParallelEngine(_EngineBase):
    """Multiprocessing executor: a FIFO over :class:`Worker` processes,
    one per point.

    ``workers`` bounds concurrency (default: the CPU count).
    ``timeout`` (seconds) kills and fails any single point that runs
    too long.  ``start_method`` picks the multiprocessing start method
    (default ``fork`` where available — workers inherit warm imports —
    else ``spawn``; spawned workers re-import cold, which is why the
    parent's ``REPRO_*`` environment is re-applied explicitly in the
    worker before execution).
    """

    def __init__(self, workers: Optional[int] = None,
                 timeout: Optional[float] = None,
                 start_method: Optional[str] = None,
                 use_cache: bool = True) -> None:
        super().__init__(use_cache=use_cache)
        self.workers = max(1, workers if workers else
                           (os.cpu_count() or 1))
        self.timeout = timeout
        self._ctx = mp.get_context(start_method or _START_METHOD)

    def _execute(self, points, emit, spans=None, ledger=None):
        pending = deque(points)
        live: List[Worker] = []
        span_ctx = spans.context() if spans is not None else None
        try:
            while pending or live:
                while pending and len(live) < self.workers:
                    pt = pending.popleft()
                    if ledger is not None:
                        ledger.point_start(pt.cache_key(), pt.label)
                    live.append(Worker(pt, self.use_cache, span_ctx,
                                       self._ctx))
                # Sleep until a worker reports (or a short tick, so
                # timeouts and crashes are noticed promptly).
                mp_connection.wait([w.conn for w in live], timeout=0.05)
                now = time.monotonic()
                for worker in list(live):
                    outcome = worker.poll(now, self.timeout)
                    if outcome is not None:
                        live.remove(worker)
                        emit(outcome)
        finally:
            for worker in live:
                worker.kill()


def execute_plan(spec: SweepSpec, engine: Optional[_EngineBase] = None,
                 **run_kwargs) -> Any:
    """Expand ``spec``, run it on ``engine`` (default: serial), and
    apply the plan's reduction (if any) to the outcome map."""
    engine = engine or SerialEngine()
    outcomes = engine.run(spec.points(), **run_kwargs)
    return spec.reduce(outcomes) if spec.reduce is not None else outcomes
