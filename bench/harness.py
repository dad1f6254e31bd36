"""Parent side: runs units and probes in fresh interpreters and turns
what they report into metrics.

The harness itself never imports ``repro``.  Each unit is a child
process with a scrubbed environment (no inherited ``REPRO_*``), a
fresh cache directory and its own ``TMPDIR``, all under
``.bench_tmp/`` in the checkout, which is deleted afterwards.  The
child's CPU time and peak RSS come from ``wait4``, so they cover the
engine's workers and the service's server too.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from bench.spec import MIN_UNITS, PROBES, ROOT, load_benchmark_json

#: A run ends within this many seconds even if a child hangs.
RUN_DEADLINE = 170.0


def source_present() -> bool:
    return (ROOT / "src" / "repro" / "__init__.py").is_file()


def percentile(values: List[float], pct: int) -> float:
    """``pct``-th percentile (inclusive method; one value is its own
    percentile)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


# ----------------------------------------------------------------------
# children
# ----------------------------------------------------------------------
def child_env(work: Path, spec: dict) -> Dict[str, str]:
    """The environment of one child: every ``REPRO_*`` variable removed,
    then the ones the workload needs set."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PYTHONPATH=str(ROOT / "src"), TMPDIR=str(work / "tmp"),
               REPRO_CACHE_DIR=str(work / "cache"))
    if "smt_k" in spec:
        env["REPRO_SMT_K"] = ",".join(str(k) for k in spec["smt_k"])
    return env


def _wait(proc: subprocess.Popen, timeout: float):
    """Reap ``proc`` with ``wait4`` (for its rusage, which includes every
    descendant it waited for), killing its process group on timeout.
    Returns ``(exit code, rusage, timed_out)``."""
    deadline = time.monotonic() + timeout
    timed_out = False
    while True:
        pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            timed_out = True
            os.killpg(proc.pid, signal.SIGKILL)
            pid, status, rusage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, rusage, timed_out


def run_child(kind: str, spec: dict, seed: str, traced: bool, tmp: Path,
              timeout: float) -> Dict[str, Any]:
    """One fresh interpreter running a unit (``kind="unit"``) or the
    layer probes (``kind="probes"``); returns its result record plus
    the harness-side measurements."""
    work = Path(tempfile.mkdtemp(prefix=f"{kind}-", dir=tmp))
    (work / "tmp").mkdir()
    request = work / "request.json"
    request.write_text(json.dumps({"kind": kind, "spec": spec,
                                   "seed": seed, "traced": traced,
                                   "work": str(work)}))
    t_spawn = time.time()
    with (work / "child.log").open("w") as log:
        proc = subprocess.Popen(
            [sys.executable, "-m", "bench.units", str(request)],
            cwd=ROOT, env=child_env(work, spec), stdout=log,
            stderr=subprocess.STDOUT, start_new_session=True)
    try:
        code, rusage, timed_out = _wait(proc, timeout)
    except BaseException:
        # Interrupted: take the child's whole process group down.
        os.killpg(proc.pid, signal.SIGKILL)
        os.waitpid(proc.pid, 0)
        raise
    result_path = work / "result.json"
    if code == 0 and result_path.exists():
        result = json.loads(result_path.read_text())
    else:
        tail = (work / "child.log").read_text()[-2000:]
        why = "timed out" if timed_out else f"exited {code}"
        result = {"attempted": 1, "failed": 1, "ops": [], "layers": {},
                  "digest": None,
                  "errors": [f"{kind} child {why}: {tail}"]}
    try:
        # Anything still in the child's process group outlived it.
        os.killpg(proc.pid, signal.SIGKILL)
        result["failed"] += 1
        result["errors"].append(f"{kind} child left processes running")
    except ProcessLookupError:
        pass
    result["cpu_s"] = rusage.ru_utime + rusage.ru_stime
    result["peak_rss_mb"] = rusage.ru_maxrss / 1024.0
    if result.get("t_first") is not None:
        result["setup_s"] = result["t_first"] - t_spawn
        result["wall_s"] = result["t_end"] - result["t_first"]
    return result


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def end_to_end(units: List[dict]) -> Dict[str, float]:
    """Medians over the run's units; operation latencies pooled."""
    timed = [u for u in units if "wall_s" in u]
    ops = [op for u in units for op in u["ops"]]
    out: Dict[str, float] = {}
    if timed:
        for name in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb"):
            out[name] = statistics.median(u[name] for u in timed)
    if ops:
        out["op_p50_s"] = statistics.median(ops)
        out["op_p90_s"] = percentile(ops, 90)
    return out


# ----------------------------------------------------------------------
# one measured run of one workload
# ----------------------------------------------------------------------
def measure(spec: dict, seed: int, seconds: float, traced: bool,
            pin: Optional[str], min_units: int = MIN_UNITS,
            probes: dict = PROBES) -> Dict[str, Any]:
    """Measure one workload for about ``seconds`` seconds.

    Untraced: repeat units (at least ``min_units``) for about
    ``seconds``; report the end-to-end metrics.
    Traced: one untraced and one traced unit (same seed), the layer
    probes and a small service job mix; report the per-layer metrics.
    Every unit's output digest is checked against ``pin`` (``None``
    checks only that the units agree).
    """
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=tmp_root))
    start = time.monotonic()

    def child(kind: str, child_spec: dict, child_seed: str,
              child_traced: bool = False) -> Dict[str, Any]:
        left = RUN_DEADLINE - (time.monotonic() - start)
        return run_child(kind, child_spec, child_seed, child_traced, tmp,
                         timeout=max(5.0, left))

    try:
        units: List[dict] = []
        extra: List[dict] = []
        if traced:
            units = [child("unit", spec, f"{seed}/0"),
                     child("unit", spec, f"{seed}/0", child_traced=True)]
            extra = [child("probes", probes, "probes"),
                     child("unit", probes["service"], "probes")]
        else:
            while True:
                units.append(child("unit", spec, f"{seed}/{len(units)}"))
                # Stop once another unit would likely end the run
                # further past ``seconds`` than stopping now ends it short.
                used = time.monotonic() - start
                if (len(units) >= min_units
                        and used + used / len(units) / 2 >= seconds):
                    break
        want = pin if pin is not None else units[0]["digest"]
        checks = [_check(i, u["digest"], want) for i, u in enumerate(units)]
        bench = load_benchmark_json()
        if traced:
            metrics = layer_metrics(units[0], units[1], *extra)
            declared = bench["per_layer"]
        else:
            metrics = end_to_end(units)
            declared = bench["end_to_end"]
        unit_of = {m["name"]: m["unit"] for m in declared}
        runs = units + extra
        errors = [e for r in runs for e in r["errors"]]
        errors += [c["detail"] for c in checks if not c["ok"]]
        attempted = sum(r["attempted"] for r in runs) + len(checks)
        failed = (sum(r["failed"] for r in runs)
                  + sum(not c["ok"] for c in checks))
        return {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit_of[name]}
                        for name, value in sorted(metrics.items())},
            "checks": checks,
            "errors": errors,
            "units": [{k: r.get(k) for k in ("setup_s", "wall_s", "cpu_s",
                                             "peak_rss_mb", "digest")}
                      for r in runs],
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass


def _check(index: int, got: Optional[str], want: str) -> Dict[str, Any]:
    ok = got is not None and got == want
    return {"name": f"unit {index} output digest", "ok": ok,
            "detail": got if ok else (f"unit {index} output digest {got} "
                                      f"!= expected {want}")}


def layer_metrics(untraced: dict, traced: dict, probes: dict,
                  service: dict) -> Dict[str, float]:
    """The per-layer metrics of a traced run."""
    out = {k: v for k, v in traced["layers"].items()
           if k.startswith(("engine.", "store."))}
    out.update(probes["layers"])
    out.update({k: v for k, v in service["layers"].items()
                if k.startswith("service.")})
    if "wall_s" in traced and "wall_s" in untraced:
        out["obs.traced_wall_ratio"] = traced["wall_s"] / untraced["wall_s"]
    return out
