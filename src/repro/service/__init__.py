"""Simulation-as-a-service: the layers that turn the experiment
engine into a long-running, multi-client system.

* :mod:`repro.service.scheduler` — a job queue in front of a shared
  worker pool: sweep-plan submissions with priorities and per-tenant
  quotas, store-hit resolution before any fork, in-flight dedupe, and
  the engine's crash/timeout isolation.
* :mod:`repro.service.server` — a stdlib ``http.server`` JSON API
  (``repro serve``): submit/status/cancel/results, backed by
  the scheduler and the sqlite result store, writing one run ledger
  per job so ``repro top`` and ``repro report`` work unchanged.
* :mod:`repro.service.client` — the thin ``urllib`` client the
  ``repro submit``/``jobs``/``fetch`` subcommands are built on.

The CLI is one client of the API; the engine is a library underneath
the scheduler; results live in the repository layer
(:mod:`repro.experiments.store`).
"""

from .scheduler import Job, Scheduler
from .client import ServiceClient, ServiceError

__all__ = ["Job", "Scheduler", "ServiceClient", "ServiceError"]
