"""The service family: ``serve``, ``submit``, ``jobs``, ``fetch``,
and the ``store`` maintenance commands."""

from __future__ import annotations

import json
import os
import sys

from .figures import add_plan_arguments, sampled_points, sweep_spec

#: Default port; overridable everywhere with --url / --port.
DEFAULT_PORT = 8471


def _default_url() -> str:
    return os.environ.get("REPRO_SERVICE_URL",
                          f"http://127.0.0.1:{DEFAULT_PORT}")


def _parse_quotas(specs):
    quotas = {}
    for spec in specs or []:
        tenant, sep, n = spec.partition("=")
        if not sep or not tenant or not n.isdigit():
            raise ValueError(
                f"--quota wants TENANT=N, got {spec!r}")
        quotas[tenant] = int(n)
    return quotas


def _cmd_serve(args) -> int:
    from repro.service.scheduler import Scheduler
    from repro.service.server import ServiceServer

    try:
        quotas = _parse_quotas(args.quota)
    except ValueError as exc:
        print(f"repro serve: {exc}", file=sys.stderr)
        return 2
    if args.store:
        # The scheduler opens the active store, and workers reach the
        # same file through REPRO_STORE, which repro_env() propagates.
        os.environ["REPRO_STORE"] = args.store
    sched = Scheduler(workers=args.workers, timeout=args.timeout,
                      quotas=quotas, default_quota=args.default_quota,
                      state_dir=args.state_dir)
    server = ServiceServer(sched, host=args.host, port=args.port,
                           verbose=args.verbose)
    sched.start()
    print(f"repro serve: listening on {server.url} "
          f"({sched.workers} workers, store {sched.store.path})",
          flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nrepro serve: shutting down", file=sys.stderr)
    finally:
        sched.stop()
    return 0


def _cmd_submit(args) -> int:
    from repro.service.client import ServiceClient, ServiceError

    spec = sweep_spec(args)
    points = spec.points()
    if args.sample:
        points = sampled_points(points, args, "repro submit")
        if points is None:
            return 2
    client = ServiceClient(args.url)
    try:
        job_id = client.submit(
            [p.to_dict() for p in points], tenant=args.tenant,
            priority=args.priority,
            label=args.label or f"submit {args.plan}")
    except ServiceError as exc:
        print(f"repro submit: {exc}", file=sys.stderr)
        return 2
    print(job_id)
    if not args.wait:
        return 0
    try:
        for snap in client.stream(job_id):
            done = sum(v for k, v in snap["counts"].items()
                       if k in ("done", "cached"))
            print(f"\r{snap['status']}: {done}/{snap['total']}\x1b[K",
                  end="", file=sys.stderr, flush=True)
        print(file=sys.stderr)
        snap = client.job(job_id)
    except ServiceError as exc:
        print(f"repro submit: {exc}", file=sys.stderr)
        return 2
    print(f"job {job_id}: {snap['status']} "
          f"({json.dumps(snap['counts'])})", file=sys.stderr)
    return 0 if snap["status"] == "done" else 1


def _cmd_jobs(args) -> int:
    from repro.service.client import ServiceClient, ServiceError

    client = ServiceClient(args.url)
    try:
        jobs = client.jobs()
    except ServiceError as exc:
        print(f"repro jobs: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(jobs, indent=2))
        return 0
    if not jobs:
        print("(no jobs)")
        return 0
    print(f"{'id':<14} {'tenant':<10} {'prio':>4} {'status':<10} "
          f"{'points':>7}  label")
    for j in jobs:
        done = sum(v for k, v in j["counts"].items()
                   if k in ("done", "cached"))
        print(f"{j['id']:<14} {j['tenant']:<10} {j['priority']:>4} "
              f"{j['status']:<10} {done:>3}/{j['total']:<3}  "
              f"{j['label']}")
    return 0


def _cmd_fetch(args) -> int:
    from repro.service.client import ServiceClient, ServiceError

    client = ServiceClient(args.url)
    try:
        if args.cancel:
            ok = client.cancel(args.job)
            print(f"job {args.job}: "
                  f"{'cancelled' if ok else 'not cancellable'}")
            return 0 if ok else 1
        records = client.results(args.job)
    except ServiceError as exc:
        print(f"repro fetch: {exc}", file=sys.stderr)
        return 2
    text = json.dumps(records, indent=2)
    if args.out:
        from pathlib import Path
        Path(args.out).write_text(text + "\n")
        print(f"fetch: wrote {len(records)} records to {args.out}")
    else:
        print(text)
    bad = [r for r in records
           if r["status"] not in ("done", "cached")]
    return 1 if bad else 0


def _cmd_store(args) -> int:
    from pathlib import Path

    from repro.experiments.store import SqliteStore

    if not Path(args.path).is_file():
        # Opening a missing path would create an empty store and
        # report it healthy; a typo must not look like one.
        print(f"repro store {args.store_cmd}: no store at {args.path}",
              file=sys.stderr)
        return 2
    store = SqliteStore(args.path, actor="cli")
    try:
        if args.store_cmd == "stats":
            stats = store.stats()
            ok = store.integrity_ok()
            for k in sorted(stats):
                print(f"{k} = {stats[k]}")
            print(f"integrity = {'ok' if ok else 'FAILED'}")
            return 0 if ok else 1
        if args.store_cmd == "gc-claims":
            n = store.gc_claims(max_age_s=args.max_age,
                                owner=args.owner)
            left = store.stats()["claims"]
            print(f"store gc-claims: removed {n} claims "
                  f"({left} remain)")
            return 0
        # audit
        rows = store.audit_rows(limit=args.limit, action=args.action)
        for rec in rows:
            detail = json.dumps(rec["detail"]) if "detail" in rec else ""
            print(f"{rec['t']:.3f} {rec['actor'] or '-':<12} "
                  f"{rec['action']:<8} {rec['key'] or '-':<14} "
                  f"{detail}")
        return 0
    finally:
        store.close()


def register(sub) -> None:
    """Attach the service subcommands to the parser."""
    sv = sub.add_parser(
        "serve", help="run the simulation service: an HTTP JSON API "
                      "over a shared worker pool (see docs/service.md)")
    sv.add_argument("--host", default="127.0.0.1",
                    help="bind address (default 127.0.0.1)")
    sv.add_argument("--port", type=int, default=DEFAULT_PORT,
                    help=f"bind port (default {DEFAULT_PORT}; 0 picks "
                         f"a free port)")
    sv.add_argument("--workers", type=int, default=0, metavar="N",
                    help="worker-pool size (default: the CPU count)")
    sv.add_argument("--timeout", type=float, default=None,
                    metavar="SECS", help="per-point timeout")
    sv.add_argument("--store", metavar="PATH", default=None,
                    help="sqlite result store (also exported as "
                         "REPRO_STORE so workers write through it; "
                         "default: results.sqlite in the cache "
                         "directory)")
    sv.add_argument("--state-dir", metavar="DIR", default=None,
                    help="where per-job run ledgers are written "
                         "(default: no ledgers)")
    sv.add_argument("--quota", action="append", metavar="TENANT=N",
                    default=None,
                    help="cap TENANT at N concurrent worker slots "
                         "(repeatable)")
    sv.add_argument("--default-quota", type=int, default=None,
                    metavar="N",
                    help="slot cap for tenants without an explicit "
                         "--quota (default: the pool size)")
    sv.add_argument("--verbose", action="store_true",
                    help="log every HTTP request to stderr")
    sv.set_defaults(fn=_cmd_serve)

    sb = sub.add_parser(
        "submit", help="submit a sweep plan to a running service")
    add_plan_arguments(sb)
    sb.add_argument("--url", default=_default_url(),
                    help="service endpoint (default: REPRO_SERVICE_URL "
                         f"or http://127.0.0.1:{DEFAULT_PORT})")
    sb.add_argument("--tenant", default="anon",
                    help="tenant name for quota accounting")
    sb.add_argument("--priority", type=int, default=0,
                    help="scheduling priority (higher runs first)")
    sb.add_argument("--label", default=None,
                    help="job label shown by `repro jobs`")
    sb.add_argument("--wait", action="store_true",
                    help="stream progress and exit with the job's "
                         "final status")
    sb.set_defaults(fn=_cmd_submit)

    jb = sub.add_parser(
        "jobs", help="list the jobs of a running service")
    jb.add_argument("--url", default=_default_url(),
                    help="service endpoint (default: REPRO_SERVICE_URL "
                         f"or http://127.0.0.1:{DEFAULT_PORT})")
    jb.add_argument("--json", action="store_true",
                    help="machine-readable job snapshots")
    jb.set_defaults(fn=_cmd_jobs)

    ft = sub.add_parser(
        "fetch", help="fetch a job's per-point results (or cancel it)")
    ft.add_argument("job", help="job id from `repro submit`")
    ft.add_argument("--url", default=_default_url(),
                    help="service endpoint (default: REPRO_SERVICE_URL "
                         f"or http://127.0.0.1:{DEFAULT_PORT})")
    ft.add_argument("--out", metavar="PATH", default=None,
                    help="write the records JSON here instead of "
                         "stdout")
    ft.add_argument("--cancel", action="store_true",
                    help="cancel the job instead of fetching results")
    ft.set_defaults(fn=_cmd_fetch)

    st = sub.add_parser(
        "store", help="sqlite result-store maintenance")
    ssub = st.add_subparsers(dest="store_cmd", required=True)
    sst = ssub.add_parser(
        "stats", help="row counts, schema, and an integrity check")
    sst.add_argument("path", help="sqlite store file")
    sst.set_defaults(fn=_cmd_store)
    sad = ssub.add_parser(
        "audit", help="print the audit trail, newest first")
    sad.add_argument("path", help="sqlite store file")
    sad.add_argument("--limit", type=int, default=50, metavar="N",
                     help="rows to show (default 50)")
    sad.add_argument("--action", default=None,
                     help="only rows with this action (store, "
                          "submit, cancel, gc-claims)")
    sad.set_defaults(fn=_cmd_store)
    sgc = ssub.add_parser(
        "gc-claims", help="drop stale (or one owner's) cross-process "
                          "claims")
    sgc.add_argument("path", help="sqlite store file")
    sgc.add_argument("--max-age", type=float, default=None,
                     metavar="SECS",
                     help="drop claims older than SECS (default: the "
                          "store's stale threshold, 3600; 0 sweeps "
                          "all)")
    sgc.add_argument("--owner", default=None,
                     help="drop this owner's claims regardless of age")
    sgc.set_defaults(fn=_cmd_store)
