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
``GET  /v1/jobs/<id>``            one job's snapshot; ``?wait=S``
                                  holds the answer until the job ends
                                  or ``S`` seconds pass
``POST /v1/jobs/<id>/cancel``     cancel → ``{"cancelled": bool}``
``GET  /v1/jobs/<id>/results``    per-point records, payloads included
================================  =====================================

Submitted points travel as :meth:`~repro.experiments.plan.Point.to_dict`
dicts and are rebuilt with ``Point.from_dict``, so a service job is
indistinguishable from a local sweep at the repository layer: same
cache keys, same payload bytes, same ledger envelopes (``repro top``
and ``repro report`` render the per-job ledgers unchanged).
"""

from __future__ import annotations

import json
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.experiments.plan import Point

from .scheduler import Scheduler

__all__ = ["ServiceServer"]

#: Cap on request bodies — a sweep plan is small; anything bigger is
#: a client bug, not a job.
_MAX_BODY = 8 * 1024 * 1024
#: Longest a ``GET /v1/jobs/<id>?wait=S`` request is held; a larger
#: ``S`` is cut to this.
_MAX_WAIT = 60.0


def _wait_seconds(query: str) -> float:
    """The hold a snapshot query asks for: exactly one ``wait=S``,
    ``S`` a finite number of seconds >= 0, capped at
    :data:`_MAX_WAIT`.  Anything else raises ``ValueError``."""
    try:
        params = parse_qs(query, keep_blank_values=True,
                          strict_parsing=True)
    except ValueError:
        raise ValueError(f"bad query {query!r}") from None
    unknown = sorted(set(params) - {"wait"})
    if unknown:
        raise ValueError(f"unknown query parameter {unknown[0]!r}")
    try:
        (raw,) = params["wait"]
        seconds = float(raw)
    except ValueError:
        seconds = math.nan
    if not (math.isfinite(seconds) and seconds >= 0):
        raise ValueError("wait wants one finite number of seconds "
                         f">= 0, got {query!r}")
    return min(seconds, _MAX_WAIT)


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
        url = urlsplit(self.path)
        path = url.path.rstrip("/")
        job_id, _, verb = path[len("/v1/jobs/"):].partition("/")
        if url.query and not (path.startswith("/v1/jobs/")
                              and verb == ""):
            self._error(400, f"no query on GET {url.path}")
        elif path == "/health":
            self._json({"ok": True, "id": self.sched.id,
                        "workers": self.sched.workers,
                        "jobs": self.sched.job_count()})
        elif path == "/v1/jobs":
            self._json({"jobs": self.sched.jobs()})
        elif path.startswith("/v1/jobs/"):
            if verb == "":
                self._job(job_id, url.query)
            elif verb == "results":
                self._results(job_id)
            else:
                self._error(404, f"unknown job view {verb!r}")
        else:
            self._error(404, f"no route for GET {self.path}")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        url = urlsplit(self.path)
        path = url.path.rstrip("/")
        if url.query:
            self._error(400, f"no query on POST {url.path}")
        elif path == "/v1/jobs":
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

    def _job(self, job_id: str, query: str) -> None:
        if query:
            try:
                hold = _wait_seconds(query)
            except ValueError as exc:
                self._error(400, str(exc))
                return
            snap = self.sched.wait(job_id, hold)
        else:
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


class ServiceServer:
    """The HTTP front of one scheduler; owns neither the store nor
    the scheduler's lifetime (the CLI composes and closes them)."""

    def __init__(self, scheduler: Scheduler, host: str = "127.0.0.1",
                 port: int = 0, verbose: bool = False) -> None:
        self.scheduler = scheduler
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.scheduler = scheduler  # type: ignore[attr-defined]
        self._httpd.verbose = verbose  # type: ignore[attr-defined]
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
