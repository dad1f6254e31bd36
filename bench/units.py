"""One unit of a workload, run in a fresh interpreter.

``python -m bench.units REQUEST.json`` reads a request written by
:mod:`bench.harness`, runs the workload once from an empty store, and
writes its result JSON next to the request.  Only this process (and
the probes process) imports ``repro``; the harness measures it from
outside.

The unit marks ``t_first`` when it issues its first operation, so the
harness can tell set-up (interpreter start, imports, plans, and for
the service the server start) from the measured work.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from bench.spec import POINT_TIMEOUT, ROOT, WORKERS, sample_params


def _check_source() -> None:
    """Refuse to run against anything but this checkout's ``src/``."""
    import repro
    src = (ROOT / "src").resolve()
    if src not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"bench: imported repro from {repro.__file__}, "
                         f"not from {src}")


_check_source()

from repro.experiments.engine import ParallelEngine, execute_plan  # noqa: E402
from repro.experiments.plan import Point, unique_points  # noqa: E402
from repro.experiments.store import FileStore, SqliteStore  # noqa: E402
from repro.obs.runlog import (  # noqa: E402
    RunLedger, ledger_points, read_ledger,
)

#: Result fields every output digest covers.  A fixed list, so that new
#: ``RunResult`` fields do not change the digests.
POINT_FIELDS = ("cycles", "committed", "dl1_accesses", "spills", "fills",
                "unrunnable")
SAMPLED_FIELDS = POINT_FIELDS + ("sample_detailed_cycles",)
#: Span names that are detailed (timing-model) simulation.
DETAILED_SPANS = ("simulate", "warmup", "detailed")


def _round(obj: Any) -> Any:
    """Floats to 12 significant digits, dict keys to strings."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {str(k): _round(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round(v) for v in obj]
    return obj


def digest(series: Dict[str, Any], results: Dict[Point, dict]) -> str:
    """sha256 over the figure series and the pinned fields of each
    point's payload.

    Points are keyed by their parameters, so order cannot matter.  Not
    by cache key: that hashes the simulator's sources, so any edit to
    them, even one that changes no result, would change the digest.
    """
    points = {}
    for pt, payload in results.items():
        key = json.dumps(pt.to_dict(), sort_keys=True)
        if "ratio" in payload:
            points[key] = {"ratio": payload["ratio"]}
        else:
            fields = (SAMPLED_FIELDS if payload.get("sampled")
                      else POINT_FIELDS)
            points[key] = {f: payload.get(f) for f in fields}
    blob = json.dumps(_round({"series": series, "points": points}),
                      sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _median_ms(values: List[float]) -> float:
    return statistics.median(values) * 1000.0


class Unit:
    """What one unit measured, filled in as the workload runs."""

    def __init__(self) -> None:
        self.t_first: Optional[float] = None
        self.t_end: Optional[float] = None
        self.ops: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.payloads: Dict[str, dict] = {}
        self.points: Dict[str, Point] = {}
        self.ledgers: List[str] = []
        #: Per-layer metrics the workload measured along the way.
        self.layers: Dict[str, float] = {}

    def start(self) -> None:
        """Mark the first operation (end of set-up)."""
        if self.t_first is None:
            self.t_first = time.time()

    def finish(self) -> None:
        """Mark the last result received."""
        if self.t_end is None:
            self.t_end = time.time()

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)


class SeededEngine:
    """A ``ParallelEngine`` that runs each batch in a seeded order.

    The figure functions take any object with a ``run`` method, so this
    is how a seed reaches the order of every batch they issue.  It
    also records each outcome into the unit and, when a ledger
    directory is given, attaches one run ledger per batch.
    """

    def __init__(self, unit: Unit, rng: random.Random,
                 ledger_dir: Optional[Path] = None) -> None:
        self.engine = ParallelEngine(workers=WORKERS,
                                     timeout=POINT_TIMEOUT)
        self.unit = unit
        self.rng = rng
        self.ledger_dir = ledger_dir

    def run(self, points, **kwargs):
        pts = unique_points(points)
        self.rng.shuffle(pts)
        ledger = None
        if self.ledger_dir is not None:
            path = self.ledger_dir / f"batch-{len(self.unit.ledgers)}.jsonl"
            ledger = RunLedger(path, command="bench")
            self.unit.ledgers.append(str(path))
        self.unit.start()
        try:
            outcomes = self.engine.run(pts, ledger=ledger, **kwargs)
        finally:
            if ledger is not None:
                ledger.close()
        for pt, outcome in outcomes.items():
            self.unit.attempted += 1
            if outcome.status == "done":
                self.unit.ops.append(outcome.elapsed)
            if outcome.ok:
                key = pt.cache_key()
                self.unit.payloads[key] = outcome.payload
                self.unit.points[key] = pt
            else:
                self.unit.fail(f"{pt.label} {outcome.status}: "
                               f"{outcome.error.strip()[-300:]}")
        return outcomes


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
def figures_rw(spec: dict, engine: SeededEngine) -> Dict[str, Any]:
    """Table 2 and Figures 4, 5 and 6."""
    from repro.experiments.rw import fig4_plan, fig5_plan, fig6_plan
    benches = tuple(spec["benches"])
    sizes = tuple(spec["sizes"])
    plans = [make(benches, sizes, spec["scale"])
             for make in (fig4_plan, fig5_plan, fig6_plan)]
    ratios = [Point.ratio(b) for b in spec["table2"]]
    out = engine.run(ratios)
    series: Dict[str, Any] = {
        "table2": {p.bench: out[p].result() for p in ratios}}
    for plan in plans:
        series[plan.name] = execute_plan(plan, engine)
    return series


def figures_smt(spec: dict, engine: SeededEngine) -> Dict[str, Any]:
    """Figures 7 and 8 and the Section 4.3 cache traffic
    (``REPRO_SMT_K`` is set by the harness)."""
    from repro.experiments.smt import (
        fig7_smt, fig8_smt_rw, sec43_cache_traffic,
    )
    sizes = tuple(spec["sizes"])
    return {
        "fig7": fig7_smt(sizes, spec["scale"], engine),
        "fig8": fig8_smt_rw(sizes, spec["scale"], engine),
        "sec43": sec43_cache_traffic(spec["scale"], engine),
    }


def sampled_sweep(spec: dict, engine: SeededEngine) -> Dict[str, Any]:
    """The same grid through fixed-count and through adaptive
    sampling."""
    from repro.experiments.rw import rw_plan
    plan = rw_plan(spec["models"], spec["sizes"], spec["benches"],
                   scale=spec["scale"])
    for method in ("fixed", "adaptive"):
        params = sample_params(spec[method])
        engine.run([dataclasses.replace(p, sample=True, **params)
                    for p in plan.points()])
    return {}


def service_jobs(spec: dict) -> List[List[Point]]:
    """One job per (bench, model): the model at each size, the bench's
    baseline@256 reference and its path-length ratio; then the first
    ``resubmit`` jobs again."""
    jobs = []
    for bench in spec["benches"]:
        for model in spec["models"]:
            pts = [Point.run(model, (bench,), size, scale=spec["scale"])
                   for size in spec["sizes"]]
            pts.append(Point.run("baseline", (bench,), 256,
                                 scale=spec["scale"]))
            pts.append(Point.ratio(bench))
            jobs.append(unique_points(pts))
    return jobs + jobs[:spec["resubmit"]]


def _start_server(work: Path, traced: bool):
    """``repro serve`` on a free port; returns ``(process, url)``."""
    cmd = [sys.executable, "-m", "repro", "serve",
           "--workers", str(WORKERS), "--port", "0",
           "--timeout", str(POINT_TIMEOUT),
           "--store", str(work / "store.sqlite")]
    if traced:
        cmd += ["--state-dir", str(work / "state")]
    with (work / "serve.log").open("w") as log:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=log,
                                text=True, cwd=work)
    line = proc.stdout.readline()
    if "listening on" not in line:
        _stop_server(proc)
        raise RuntimeError(f"repro serve did not start: {line!r}")
    return proc, line.split("listening on ", 1)[1].split()[0]


def _stop_server(proc) -> None:
    """SIGINT is ``repro serve``'s clean shutdown; it reaps its own
    workers before exiting."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    proc.stdout.close()


def service_roundtrip(spec: dict, unit: Unit, rng: random.Random,
                      work: Path, traced: bool) -> None:
    """A closed loop of one client: submit a job, wait for it, fetch
    its results, then submit the next."""
    from repro.service.client import ServiceClient, ServiceError

    jobs = service_jobs(spec)
    rng.shuffle(jobs)
    server, url = _start_server(work, traced)
    try:
        client = ServiceClient(url, timeout=60)
        deadline = time.monotonic() + 60
        while True:
            try:
                client.health()
                break
            except ServiceError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.01)
        unit.start()
        submit_s, fetch_s, lag_s = [], [], []
        snaps, records = [], []
        for pts in jobs:
            unit.attempted += 1
            t0 = time.perf_counter()
            try:
                job_id = client.submit([p.to_dict() for p in pts],
                                       label="bench")
                t1 = time.perf_counter()
                snap = client.wait(job_id, poll=spec["poll"],
                                   timeout=POINT_TIMEOUT * len(pts))
                done_at = time.time()
                t2 = time.perf_counter()
                recs = client.results(job_id)
                t3 = time.perf_counter()
            except ServiceError as exc:
                unit.fail(f"job of {pts[0].label}: {exc}")
                continue
            unit.ops.append(t3 - t0)
            submit_s.append(t1 - t0)
            fetch_s.append(t3 - t2)
            if snap["finished"] is not None:
                lag_s.append(done_at - snap["finished"])
            snaps.append(snap)
            records.extend(recs)
            if snap["status"] != "done":
                unit.fail(f"job of {pts[0].label}: {snap['status']}")
            for rec in recs:
                if rec["status"] in ("done", "cached"):
                    unit.payloads[rec["key"]] = rec["payload"]
                    unit.points[rec["key"]] = Point.from_dict(rec["point"])
                else:
                    unit.fail(f"{rec['label']} {rec['status']}: "
                              f"{rec['error'].strip()[-300:]}")
        unit.finish()
        wall = unit.t_end - unit.t_first
        ran = [s for s in snaps if s["started"] is not None]
        executed = [r["elapsed"] for r in records if r["status"] == "done"]
        unit.layers.update({
            "service.submit_ms": _median_ms(submit_s),
            "service.fetch_ms": _median_ms(fetch_s),
            "service.queue_wait_ms": _median_ms(
                [s["started"] - s["submitted"] for s in ran]),
            "service.run_s": statistics.median(
                [s["finished"] - s["started"] for s in ran]),
            "service.notify_lag_ms": _median_ms(lag_s),
            "service.point_elapsed_s": statistics.median(executed),
            "service.hit_ratio": (
                sum(r["status"] == "cached" for r in records)
                / len(records)),
            "service.worker_util": sum(executed) / (WORKERS * wall),
        })
    finally:
        _stop_server(server)
    if traced:
        unit.ledgers = sorted(
            str(p) for p in (work / "state" / "ledgers").glob("*.jsonl"))


# ----------------------------------------------------------------------
# traced extras: the engine layer from the ledgers, the store layer
# from this unit's payloads
# ----------------------------------------------------------------------
def engine_metrics(ledgers: List[str], wall: float) -> Dict[str, float]:
    """Engine-layer metrics from the run ledgers a traced unit left
    (one per engine batch, or one per service job).

    For each executed point, the worker's ``point`` span is split into
    detailed simulation (``simulate``/``warmup``/``detailed`` spans,
    at any depth) and self time (the span minus its direct children);
    the part of the point's elapsed time outside the span is dispatch
    (fork, pipe and reap).
    """
    records = [rec for path in ledgers
               for rec in ledger_points(read_ledger(path)).values()]
    executed = [rec for rec in records if rec["status"] == "done"]
    point_s = detailed_s = elapsed_s = 0.0
    self_ms, dispatch_ms = [], []
    for rec in executed:
        spans = rec["spans"]
        point = next(s for s in spans
                     if s["name"] == "point" and s["status"] == "ok")
        children: Dict[Optional[str], List[dict]] = {}
        for s in spans:
            children.setdefault(s.get("parent_id"), []).append(s)
        duration = point["t1"] - point["t0"]
        stack = list(children.get(point["span_id"], []))
        while stack:
            s = stack.pop()
            if s["name"] in DETAILED_SPANS:
                detailed_s += s["t1"] - s["t0"]
            else:
                stack.extend(children.get(s["span_id"], []))
        direct = sum(s["t1"] - s["t0"]
                     for s in children.get(point["span_id"], []))
        point_s += duration
        elapsed_s += rec["elapsed"]
        dispatch_ms.append((rec["elapsed"] - duration) * 1000.0)
        if rec["point"]["kind"] == "run":
            self_ms.append((duration - direct) * 1000.0)
    return {
        "engine.detailed_share": detailed_s / point_s,
        "engine.point_self_ms": statistics.median(self_ms),
        "engine.dispatch_ms": statistics.median(dispatch_ms),
        "engine.worker_util": elapsed_s / (WORKERS * wall),
        "engine.points_executed": len(executed),
        "engine.points_cached": sum(rec["status"] == "cached"
                                    for rec in records),
    }


def _timed(fn: Callable[[str], Any], keys: List[str]) -> float:
    """Median milliseconds of ``fn(key)`` over ``keys``."""
    times = []
    for key in keys:
        t0 = time.perf_counter()
        fn(key)
        times.append(time.perf_counter() - t0)
    return _median_ms(times)


def store_metrics(unit: Unit, work: Path) -> Dict[str, float]:
    """Replay the unit's payloads into a fresh file store and a fresh
    sqlite store, then resolve all the unit's points again on the
    unit's own (now warm) store."""
    keys = sorted(unit.payloads)
    files = FileStore(work / "replay-files")
    out = {
        "store.file.store_ms": _timed(
            lambda k: files.store(k, unit.payloads[k]), keys),
        "store.file.load_ms": _timed(files.load, keys),
    }
    with SqliteStore(work / "replay.sqlite", actor="bench") as db:
        out["store.sqlite.store_ms"] = _timed(
            lambda k: db.store(k, unit.payloads[k]), keys)
        out["store.sqlite.load_ms"] = _timed(db.load, keys)
        out["store.sqlite.claim_ms"] = _timed(
            lambda k: db.claim(k, "bench"), keys)
    service_store = work / "store.sqlite"
    if service_store.exists():
        # The repository layer is chosen by environment; the service
        # unit's results live in the server's sqlite store.
        os.environ["REPRO_STORE"] = str(service_store)
    engine = ParallelEngine(workers=WORKERS, timeout=POINT_TIMEOUT)
    points = list(unit.points.values())
    t0 = time.perf_counter()
    outcomes = engine.run(points)
    out["store.warm_resolve_ms"] = (
        (time.perf_counter() - t0) * 1000.0 / len(points))
    missed = [o.point.label for o in outcomes.values()
              if o.status != "cached"]
    if missed:
        unit.fail(f"warm store missed {len(missed)} points, "
                  f"e.g. {missed[0]}")
    return out


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
ENGINE_WORKLOADS = {"figures-rw": figures_rw, "figures-smt": figures_smt,
                    "sampled-sweep": sampled_sweep}


def run_unit(spec: dict, seed: str, work: Path,
             traced: bool) -> Dict[str, Any]:
    """Run one unit of ``spec`` and return its result record."""
    unit = Unit()
    rng = random.Random(seed)
    series: Dict[str, Any] = {}
    try:
        if spec["kind"] == "service":
            service_roundtrip(spec, unit, rng, work, traced)
        else:
            ledger_dir = work / "ledgers" if traced else None
            if ledger_dir is not None:
                ledger_dir.mkdir()
            engine = SeededEngine(unit, rng, ledger_dir)
            series = ENGINE_WORKLOADS[spec["kind"]](spec, engine)
    except Exception as exc:  # noqa: BLE001 - reported as a failed op
        unit.fail(f"{type(exc).__name__}: {exc}")
    unit.finish()
    result_digest = digest(series, {unit.points[key]: payload
                                    for key, payload in unit.payloads.items()})
    if traced and unit.payloads:
        unit.layers.update(engine_metrics(unit.ledgers,
                                          unit.t_end - unit.t_first))
        unit.layers.update(store_metrics(unit, work))
    return {
        "t_first": unit.t_first, "t_end": unit.t_end, "ops": unit.ops,
        "attempted": unit.attempted, "failed": unit.failed,
        "errors": unit.errors[:20], "digest": result_digest,
        "layers": unit.layers,
    }


def main(argv: List[str]) -> int:
    request = json.loads(Path(argv[0]).read_text())
    work = Path(request["work"])
    if request["kind"] == "probes":
        from bench.probes import run_probes
        result = run_probes(request["spec"])
    else:
        result = run_unit(request["spec"], request["seed"], work,
                          request["traced"])
    (work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
