"""The client layer: a thin ``urllib`` wrapper over the service API.

``repro submit`` / ``repro jobs`` / ``repro fetch`` are built on
:class:`ServiceClient`; tests drive the live server through it too, so
the CLI and the test-suite exercise the same wire format.  Transport
and HTTP-status failures both surface as :class:`ServiceError` with
the server's own message where one was sent.
"""

from __future__ import annotations

import json
import time
from typing import List, Optional
from urllib import error as urlerror
from urllib import request as urlrequest

__all__ = ["ServiceClient", "ServiceError"]


class ServiceError(RuntimeError):
    """A request the service refused (or never answered)."""

    def __init__(self, message: str, status: Optional[int] = None):
        super().__init__(message)
        self.status = status


class ServiceClient:
    """JSON client for one ``repro serve`` endpoint."""

    def __init__(self, url: str, timeout: float = 10.0) -> None:
        self.url = url.rstrip("/")
        self.timeout = timeout

    # -- transport ---------------------------------------------------------

    def _request(self, path: str, payload: Optional[dict] = None,
                 method: Optional[str] = None,
                 hold: float = 0.0) -> dict:
        """One JSON request; ``hold`` is how long the server may keep
        it before answering, added to the client timeout."""
        req = urlrequest.Request(
            self.url + path,
            data=(json.dumps(payload).encode()
                  if payload is not None else None),
            headers={"Content-Type": "application/json"},
            method=method or ("POST" if payload is not None else "GET"))
        try:
            with urlrequest.urlopen(req, timeout=self.timeout + hold) \
                    as resp:
                return json.loads(resp.read() or b"{}")
        except urlerror.HTTPError as exc:
            try:
                detail = json.loads(exc.read() or b"{}").get("error")
            except ValueError:
                detail = None
            raise ServiceError(
                detail or f"{exc.code} {exc.reason}",
                status=exc.code) from None
        except urlerror.URLError as exc:
            raise ServiceError(
                f"cannot reach {self.url}: {exc.reason}") from None

    # -- API ---------------------------------------------------------------

    def health(self) -> dict:
        return self._request("/health")

    def submit(self, points: List[dict], tenant: str = "anon",
               priority: int = 0, label: str = "") -> str:
        """Submit point dicts (``Point.to_dict`` form); returns the
        job id."""
        out = self._request("/v1/jobs", payload={
            "points": points, "tenant": tenant,
            "priority": priority, "label": label})
        return out["id"]

    def jobs(self) -> List[dict]:
        return self._request("/v1/jobs")["jobs"]

    def job(self, job_id: str) -> dict:
        return self._request(f"/v1/jobs/{job_id}")

    def cancel(self, job_id: str) -> bool:
        return bool(self._request(f"/v1/jobs/{job_id}/cancel",
                                  payload={})["cancelled"])

    def results(self, job_id: str) -> List[dict]:
        return self._request(f"/v1/jobs/{job_id}/results")["records"]

    def wait(self, job_id: str, poll: float = 0.2,
             timeout: Optional[float] = None) -> dict:
        """Block until the job is terminal; returns the final snapshot.

        Requests go back to back, each held by the server for up to
        ``poll`` seconds (``GET /v1/jobs/<id>?wait=``), so the answer
        comes when the job ends.  Raises :class:`ServiceError` once
        ``timeout`` seconds pass first."""
        t0 = time.monotonic()
        hold = poll if timeout is None else min(poll, timeout)
        while True:
            snap = self._request(f"/v1/jobs/{job_id}?wait={hold:g}",
                                 hold=hold)
            if snap["status"] in ("done", "failed", "cancelled"):
                return snap
            if timeout is not None:
                left = timeout - (time.monotonic() - t0)
                if left <= 0:
                    raise ServiceError(
                        f"job {job_id} still {snap['status']} after "
                        f"{timeout:g}s")
                hold = min(poll, left)
