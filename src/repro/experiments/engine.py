"""Plan execution engines: serial and parallel, fault-tolerant.

An engine runs the points of a sweep plan (``repro.experiments.plan``)
and returns ``{Point: PointOutcome}``.  Both engines share the same
front half — dedupe and cache-aware scheduling (points whose result
is already in the store are resolved in-process, before any worker is
forked) — and differ only in how the residue executes:

* :class:`SerialEngine` runs points in-process, capturing exceptions
  into the point's outcome so one broken configuration cannot kill a
  sweep.
* :class:`ParallelEngine` runs points on at most ``workers``
  :class:`Worker` processes (``fork`` where available, else
  ``spawn``), each running point after point, giving hard fault
  isolation per slot: an exception marks only its point failed and
  the process runs on; a hard crash (``os._exit``, segfault) or a
  per-point timeout marks only that point failed and ends only that
  process, and the slot forks a fresh one.  Every other point
  completes.  The parent's ``REPRO_*`` environment is sent with each
  point, so spawned workers never silently run at default scale or
  against the wrong cache directory.

Both run a point through :func:`execute_point` — in-process for the
serial engine, inside the process of a :class:`Worker` — and the
service scheduler (``repro.service.scheduler``) schedules the same
:class:`Worker` and writes its ledger through the same
:func:`ledger_point`.

Progress flows through a callback as :class:`SweepProgress`
snapshots.

With a :class:`repro.obs.runlog.RunLedger` attached (``ledger=``),
every run additionally leaves an auditable record: the engine writes
the ``run_start``/``point``/``run_end`` records, collects per-point
``getrusage`` deltas in the worker, and weaves one span tree per point
(``sweep → point → ...``) across the Pipe boundary — workers continue
the parent's trace via a propagated span context and ship their
finished spans back alongside the payload.  Points that never report
(crash, timeout) get a terminated span synthesized parent-side, so the
ledger always reassembles into exactly one tree per point.
"""

from __future__ import annotations

import gc
import multiprocessing as mp
import os
import signal
import time
import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from repro.hooks import set_current_spans
from repro.obs.dashboard import eta_seconds
from repro.obs.spans import SpanTracer
from repro.workloads.generator import forget_programs

from .plan import Point, SweepSpec, unique_points

#: Outcome statuses counted as successfully completed.
_OK_STATUSES = ("done", "cached")


class EngineError(RuntimeError):
    """Raised when a failed point's result is requested; ``outcome``
    is that point's :class:`PointOutcome`."""

    def __init__(self, outcome: PointOutcome) -> None:
        super().__init__(f"point {outcome.point.label} "
                         f"{outcome.status}: {outcome.error}")
        self.outcome = outcome


@dataclass
class PointOutcome:
    """What happened to one point of a sweep.

    ``status`` is one of ``done`` (executed this run), ``cached``
    (resolved from the result store without executing), ``failed``
    (exception or worker crash; see ``error``) or ``timeout``.
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
        """True when a payload is available (done/cached)."""
        return self.status in _OK_STATUSES

    def result(self) -> Any:
        """The point's decoded value; raises :class:`EngineError` for
        failed/timed-out points."""
        if not self.ok or self.payload is None:
            raise EngineError(self)
        return self.point.decode(self.payload)


@dataclass
class SweepProgress:
    """A live snapshot of a running sweep, passed to the progress
    callback after every resolved point."""

    total: int = 0
    done: int = 0
    cached: int = 0
    failed: int = 0
    timeout: int = 0
    elapsed: float = 0.0
    #: Estimated seconds until the sweep completes (``None`` until at
    #: least one point has executed).
    eta: Optional[float] = None

    @property
    def completed(self) -> int:
        """Points resolved so far, by any route including failure."""
        return self.done + self.cached + self.failed + self.timeout

    @property
    def executed(self) -> int:
        """Points that actually ran (did not come from the store)."""
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
_SPAN_STATUS = {"done": "ok", "cached": "cached",
                "failed": "terminated", "timeout": "timeout"}


def ledger_point(ledger: Any, spans: SpanTracer,
                 outcome: PointOutcome) -> None:
    """Write one resolved point's ``point`` record to ``ledger``.

    A point that exported no spans (cache hit, hard crash, timeout,
    cancellation) gets a point span synthesized on ``spans``, so the
    ledger still holds exactly one tree per point.
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
        cache={"cached": "hit", "done": "miss"}.get(outcome.status),
        rusage=outcome.rusage,
        spans=(outcome.spans or []) + spans.drain())


class _EngineBase:
    """Shared scheduling front half of every engine."""

    #: Worker-slot count, for ETA estimation.
    workers = 1

    def __init__(self, use_cache: bool = True) -> None:
        self.use_cache = use_cache

    def run(self, points: Iterable[Point],
            progress: Optional[Callable[[SweepProgress], None]] = None,
            ledger: Optional[Any] = None,
            ) -> Dict[Point, PointOutcome]:
        """Run ``points`` (or a plan's expansion) to completion.

        Never raises for a failing *point* — inspect the returned
        outcomes (or call :meth:`PointOutcome.result`, which raises
        :class:`EngineError` for failures).

        ``ledger`` (a :class:`repro.obs.runlog.RunLedger`) enables the
        audit trail and span tracing: run/point records, per-point
        rusage, and one span tree per point.
        """
        pts = unique_points(points)
        prog = SweepProgress(total=len(pts))
        t0 = time.monotonic()
        elapsed_samples: List[float] = []
        outcomes: Dict[Point, PointOutcome] = {}

        spans = SpanTracer() if ledger is not None else None
        sweep_span = None
        if ledger is not None:
            ledger.run_start(total=len(pts), workers=self.workers,
                             trace_id=spans.trace_id)
            sweep_span = spans.begin("sweep", total=len(pts))

        def emit(outcome: PointOutcome) -> None:
            """Record one resolved point: outcome map, progress/ETA,
            ledger record — the single bookkeeping path every
            engine's ``_execute`` reports through."""
            outcomes[outcome.point] = outcome
            setattr(prog, outcome.status,
                    getattr(prog, outcome.status) + 1)
            prog.elapsed = time.monotonic() - t0
            if outcome.status in ("done", "failed", "timeout"):
                elapsed_samples.append(outcome.elapsed)
            prog.eta = eta_seconds(elapsed_samples,
                                   prog.total - prog.completed,
                                   self.workers)
            if ledger is not None:
                ledger_point(ledger, spans, outcome)
            if progress is not None:
                progress(prog)

        try:
            to_run: List[Point] = []
            for pt in pts:
                payload = pt.load_cached() if self.use_cache else None
                if payload is not None:
                    emit(PointOutcome(pt, "cached", payload=payload))
                else:
                    to_run.append(pt)
            self._execute(to_run, emit, spans=spans, ledger=ledger)
        finally:
            if ledger is not None:
                spans.end(sweep_span, **{
                    f"points.{k}": getattr(prog, k)
                    for k in ("done", "cached", "failed", "timeout")
                    if getattr(prog, k)})
                ledger.run_end(
                    status="ok" if prog.completed == prog.total
                    else "interrupted",
                    counts={k: getattr(prog, k)
                            for k in ("done", "cached", "failed",
                                      "timeout")},
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


#: Seconds an idle worker waits for a point before it checks that its
#: owner is still alive.
_OWNER_CHECK = 0.25


def _serve_points(conn, owner: int) -> None:
    """A :class:`Worker`'s process: run points one at a time for as
    long as its owner lives.

    Each message from the owner is ``(point, use_cache, env,
    span_ctx)``; the reply is ``(kind, value, meta)``: kind ``"ok"``
    with the payload or ``"error"`` with a traceback, plus a meta dict
    carrying the point's finished spans and its ``getrusage`` delta.

    The heap inherited from the owner is frozen at start, and after
    each point the worker empties the program cache and collects the
    point's reference cycles, so its memory returns to where it began.
    A fork hands every worker the owner's end of its own pipe and of
    its siblings' pipes, so EOF alone cannot tell a worker that its
    owner died; it checks ``os.getppid()`` between waits.  SIGINT is
    ignored: the owner ends its workers.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    gc.freeze()
    try:
        while True:
            if not conn.poll(_OWNER_CHECK):
                if os.getppid() != owner:
                    return
                continue
            try:
                msg = conn.recv()
            except EOFError:
                return
            _run_and_report(conn, *msg)
            forget_programs()
            gc.collect()
    finally:
        conn.close()


def _run_and_report(conn, point: Point, use_cache: bool,
                    env: Dict[str, str],
                    span_ctx: Optional[Dict]) -> None:
    """Run one point under the owner's ``REPRO_*`` environment (and,
    with a ``span_ctx``, continuing the owner's trace) and send its
    outcome back; nothing it made outlives the call."""
    apply_repro_env(env)
    tracer = (SpanTracer.from_context(span_ctx)
              if span_ctx is not None else None)
    out = execute_point(point, use_cache, tracer)
    conn.send(("ok" if out.ok else "error",
               out.payload if out.ok else out.error,
               {"spans": out.spans or [], "rusage": out.rusage}))


#: Default worker start method: ``fork`` where available (workers
#: inherit warm imports), else ``spawn``.
_START_METHOD = ("fork" if "fork" in mp.get_all_start_methods()
                 else "spawn")


class Worker:
    """A long-lived process that runs points one at a time — the
    fault-isolation unit that :class:`ParallelEngine` and the service
    scheduler both drive.

    Constructing one opens a duplex Pipe and starts the process (from
    multiprocessing context ``ctx``; default ``fork`` where available,
    else ``spawn``).  The owner hands it a point with :meth:`start`
    and calls :meth:`poll` until it returns the outcome; the process
    is then :attr:`idle` and takes the next point.  An exception fails
    only its point.  A crash or a timeout ends the process, as does
    :meth:`kill`, which is also how an owner stops an idle worker;
    either way the process is reaped and the pipe closed, and the
    owner forks a fresh worker when its slot next needs one.
    """

    def __init__(self, ctx: Any = None) -> None:
        ctx = ctx or mp.get_context(_START_METHOD)
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(target=_serve_points,
                                args=(child, os.getpid()), daemon=True)
        self.proc.start()
        child.close()
        #: The point running, or ``None`` between points.
        self.point: Optional[Point] = None
        self.started = 0.0

    @property
    def idle(self) -> bool:
        """True while the process is alive and between points."""
        return self.point is None and not self.conn.closed

    def start(self, point: Point, use_cache: bool = True,
              span_ctx: Optional[Dict] = None) -> None:
        """Hand the idle process ``point``, to run under the caller's
        ``REPRO_*`` environment."""
        self.point = point
        self.started = time.monotonic()
        try:
            self.conn.send((point, use_cache, repro_env(), span_ctx))
        except OSError:
            pass  # it died while idle; poll() reports the crash

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
            if kind == "ok":
                outcome = PointOutcome(self.point, "done", payload=value)
            elif kind == "error":
                outcome = PointOutcome(self.point, "failed", error=value)
            else:
                self.kill()
                outcome = PointOutcome(
                    self.point, "failed",
                    error=f"worker died without reporting "
                          f"(exitcode {self.proc.exitcode})")
            outcome.rusage = meta.get("rusage")
            outcome.spans = meta.get("spans")
        elif not self.proc.is_alive():
            self.kill()
            outcome = PointOutcome(
                self.point, "failed",
                error=f"worker crashed (exitcode {self.proc.exitcode})")
        elif timeout is not None and elapsed > timeout:
            self.kill()
            outcome = PointOutcome(
                self.point, "timeout",
                error=f"point exceeded {timeout:g}s timeout")
        else:
            return None
        self.point = None
        outcome.elapsed = elapsed
        return outcome

    def kill(self) -> None:
        """Terminate the process, reap it and close the pipe."""
        self.proc.terminate()
        self.proc.join()
        self.conn.close()


class ParallelEngine(_EngineBase):
    """Multiprocessing executor: a FIFO over at most ``workers``
    :class:`Worker` processes, forked on demand and reaped before
    :meth:`run` returns.

    ``workers`` bounds concurrency (default: the CPU count).
    ``timeout`` (seconds) kills and fails any single point that runs
    too long.  ``start_method`` picks the multiprocessing start method
    (default ``fork`` where available — workers inherit warm imports —
    else ``spawn``; spawned workers re-import cold, which is why the
    parent's ``REPRO_*`` environment is re-applied explicitly in the
    worker before each point).
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
        busy: List[Worker] = []
        idle: List[Worker] = []
        span_ctx = spans.context() if spans is not None else None
        try:
            while pending or busy:
                while pending and len(busy) < self.workers:
                    pt = pending.popleft()
                    if ledger is not None:
                        ledger.point_start(pt.cache_key(), pt.label)
                    worker = idle.pop() if idle else Worker(self._ctx)
                    worker.start(pt, self.use_cache, span_ctx)
                    busy.append(worker)
                # Sleep until a worker reports (or a short tick, so
                # timeouts and crashes are noticed promptly).
                mp_connection.wait([w.conn for w in busy], timeout=0.05)
                now = time.monotonic()
                for worker in list(busy):
                    outcome = worker.poll(now, self.timeout)
                    if outcome is not None:
                        busy.remove(worker)
                        if worker.idle:
                            idle.append(worker)
                        emit(outcome)
        finally:
            for worker in busy + idle:
                worker.kill()


def execute_plan(spec: SweepSpec, engine: Optional[_EngineBase] = None,
                 **run_kwargs) -> Any:
    """Expand ``spec``, run it on ``engine`` (default: serial), and
    apply the plan's reduction (if any) to the outcome map."""
    engine = engine or SerialEngine()
    outcomes = engine.run(spec.points(), **run_kwargs)
    return spec.reduce(outcomes) if spec.reduce is not None else outcomes
