"""The API layer: a stdlib ``http.server`` JSON API over the
scheduler.

``repro serve`` builds a :class:`ServiceServer` — a threading HTTP
server in front of one :class:`~repro.service.scheduler.Scheduler` —
and blocks in :meth:`ServiceServer.serve_forever`.  The surface is
deliberately small and entirely JSON:

================================  =====================================
``GET  /health``                  liveness + scheduler identity
``POST /v1/jobs``                 submit a job (point dicts, tenant,
                                  priority, label) → ``{"id": ...}``
``GET  /v1/jobs``                 every job's snapshot
``GET  /v1/jobs/<id>``            one job's snapshot
``POST /v1/jobs/<id>/cancel``     cancel → ``{"cancelled": bool}``
``GET  /v1/jobs/<id>/results``    per-point records, payloads included
``GET  /v1/jobs/<id>/stream``     chunked JSONL snapshots until the
                                  job reaches a terminal status
``GET  /v1/metrics``              the scheduler's ``service.*`` counters
``GET  /v1/store``                store stats + recent audit rows
================================  =====================================

Submitted points travel as :meth:`~repro.experiments.plan.Point.to_dict`
dicts and are rebuilt with ``Point.from_dict``, so a service job is
indistinguishable from a local sweep at the repository layer: same
cache keys, same payload bytes, same ledger envelopes (``repro top``
and ``repro report`` render the per-job ledgers unchanged).
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple

from repro.experiments.plan import Point

from .scheduler import Scheduler

__all__ = ["ServiceServer"]

#: Cap on request bodies — a sweep plan is small; anything bigger is
#: a client bug, not a job.
_MAX_BODY = 8 * 1024 * 1024


class _Handler(BaseHTTPRequestHandler):
    """One request; the scheduler lives on ``self.server``."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serve"

    # -- plumbing ----------------------------------------------------------

    def log_message(self, fmt, *args):  # noqa: D102 - quiet by default
        if self.server.verbose:  # type: ignore[attr-defined]
            BaseHTTPRequestHandler.log_message(self, fmt, *args)

    def _json(self, payload, status: int = 200) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str) -> None:
        self._json({"error": message}, status=status)

    def _body(self) -> Optional[dict]:
        length = int(self.headers.get("Content-Length") or 0)
        if length > _MAX_BODY:
            self._error(413, "request body too large")
            return None
        try:
            data = json.loads(self.rfile.read(length) or b"{}")
        except ValueError:
            self._error(400, "request body is not JSON")
            return None
        if not isinstance(data, dict):
            self._error(400, "request body must be a JSON object")
            return None
        return data

    @property
    def sched(self) -> Scheduler:
        return self.server.scheduler  # type: ignore[attr-defined]

    # -- routes ------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = self.path.rstrip("/")
        if path == "/health":
            self._json({"ok": True, "id": self.sched.id,
                        "workers": self.sched.workers,
                        "jobs": len(self.sched.jobs())})
        elif path == "/v1/jobs":
            self._json({"jobs": self.sched.jobs()})
        elif path == "/v1/metrics":
            self._json({"counters": dict(self.sched.metrics.counters)})
        elif path == "/v1/store":
            self._store()
        elif path.startswith("/v1/jobs/"):
            job_id, _, verb = path[len("/v1/jobs/"):].partition("/")
            if verb == "":
                self._job(job_id)
            elif verb == "results":
                self._results(job_id)
            elif verb == "stream":
                self._stream(job_id)
            else:
                self._error(404, f"unknown job view {verb!r}")
        else:
            self._error(404, f"no route for GET {self.path}")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        path = self.path.rstrip("/")
        if path == "/v1/jobs":
            self._submit()
        elif path.startswith("/v1/jobs/") and path.endswith("/cancel"):
            job_id = path[len("/v1/jobs/"):-len("/cancel")]
            self._json({"cancelled": self.sched.cancel(job_id)})
        else:
            self._error(404, f"no route for POST {self.path}")

    # -- handlers ----------------------------------------------------------

    def _submit(self) -> None:
        data = self._body()
        if data is None:
            return
        raw = data.get("points")
        if not isinstance(raw, list) or not raw:
            self._error(400, "'points' must be a non-empty list")
            return
        try:
            points = [Point.from_dict(d) for d in raw]
        except (KeyError, TypeError, ValueError) as exc:
            self._error(400, f"bad point: {exc}")
            return
        try:
            job_id = self.sched.submit(
                points, tenant=str(data.get("tenant") or "anon"),
                priority=int(data.get("priority") or 0),
                label=str(data.get("label") or ""))
        except ValueError as exc:
            self._error(400, str(exc))
            return
        self._json({"id": job_id}, status=201)

    def _job(self, job_id: str) -> None:
        snap = self.sched.job(job_id)
        if snap is None:
            self._error(404, f"no job {job_id!r}")
        else:
            self._json(snap)

    def _results(self, job_id: str) -> None:
        records = self.sched.results(job_id)
        if records is None:
            self._error(404, f"no job {job_id!r}")
        else:
            self._json({"id": job_id, "records": records})

    def _stream(self, job_id: str) -> None:
        """Chunked JSONL: one snapshot line per tick until terminal."""
        if self.sched.job(job_id) is None:
            self._error(404, f"no job {job_id!r}")
            return
        self.send_response(200)
        self.send_header("Content-Type", "application/jsonl")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()

        def chunk(line: str) -> None:
            data = (line + "\n").encode()
            self.wfile.write(b"%x\r\n%s\r\n" % (len(data), data))

        try:
            while True:
                snap = self.sched.job(job_id)
                chunk(json.dumps(snap))
                if snap is None or snap["status"] in (
                        "done", "failed", "cancelled"):
                    break
                time.sleep(self.server.stream_interval)  # type: ignore[attr-defined]
            self.wfile.write(b"0\r\n\r\n")
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-stream; nothing to clean up

    def _store(self) -> None:
        store = self.sched.store
        self._json({"attached": True, "stats": store.stats(),
                    "audit": store.audit_rows(limit=50)})


class ServiceServer:
    """The HTTP front of one scheduler; owns neither the store nor
    the scheduler's lifetime (the CLI composes and closes them)."""

    def __init__(self, scheduler: Scheduler, host: str = "127.0.0.1",
                 port: int = 0, verbose: bool = False,
                 stream_interval: float = 0.2) -> None:
        self.scheduler = scheduler
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.scheduler = scheduler  # type: ignore[attr-defined]
        self._httpd.verbose = verbose  # type: ignore[attr-defined]
        self._httpd.stream_interval = stream_interval  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (the OS picks port for 0)."""
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def serve_forever(self) -> None:
        """Block serving requests (the ``repro serve`` foreground)."""
        self._httpd.serve_forever(poll_interval=0.1)

    def start(self) -> "ServiceServer":
        """Serve on a background thread (tests, embedded use)."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self.serve_forever, name="repro-serve",
                daemon=True)
            self._thread.start()
        return self

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "ServiceServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
