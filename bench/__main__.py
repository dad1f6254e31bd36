"""Command line: ``python -m bench run`` and ``python -m bench compare``.

``run`` measures each chosen workload once for ``--seconds`` and
prints, as the last lines of standard output, one JSON object per
workload: ``{"correct", "attempted", "failed", "metrics"}``.  The
readable report goes to standard error.  ``--out`` also writes the
full results with provenance, which ``compare`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from typing import List, Optional

from bench.compare import compare
from bench.harness import measure, source_present
from bench.spec import (
    DEFAULT_SEED, ROOT, WORKERS, WORKLOADS, load_benchmark_json, load_pins,
)


def _git(*args: str) -> Optional[str]:
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(args, seconds: int) -> dict:
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if commit else None
    return {
        "commit": commit, "dirty": bool(status) if commit else None,
        "python": platform.python_version(), "platform": platform.platform(),
        "nproc": os.cpu_count(), "workers": WORKERS, "seed": args.seed,
        "seconds": seconds, "trace": args.trace,
        "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def _report(name: str, result: dict) -> None:
    err = sys.stderr
    print(f"== {name}: {'correct' if result['correct'] else 'INCORRECT'}"
          f" ({result['failed']} failed of {result['attempted']})", file=err)
    for metric, m in result["metrics"].items():
        print(f"  {metric:<48} {m['value']:>14.6g} {m['unit']}", file=err)
    for check in result["checks"]:
        print(f"  check {check['name']}: "
              f"{'ok' if check['ok'] else 'FAILED'}", file=err)
    for error in result["errors"][:10]:
        print(f"  error: {error}", file=err)


def cmd_run(args) -> int:
    if not source_present():
        print(f"bench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    bench = load_benchmark_json()
    seconds = args.seconds if args.seconds is not None \
        else bench["run_seconds"]
    pins = load_pins()
    doc = {"provenance": provenance(args, seconds), "workloads": {}}
    for name in args.workload or list(WORKLOADS):
        result = measure(WORKLOADS[name], args.seed, seconds,
                         traced=args.trace == 1,
                         pin=pins.get(name, "unpinned"))
        result["params"] = WORKLOADS[name]
        doc["workloads"][name] = result
        _report(name, result)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
    for result in doc["workloads"].values():
        print(json.dumps({k: result[k] for k in
                          ("correct", "attempted", "failed", "metrics")}))
    return 0 if all(r["correct"] for r in doc["workloads"].values()) else 1


def main(argv: List[str]) -> int:
    if argv[:1] == ["compare"]:
        rest = argv[1:]
        if "--" not in rest:
            print("usage: python -m bench compare A.json... -- B.json...",
                  file=sys.stderr)
            return 2
        cut = rest.index("--")
        return compare(rest[:cut], rest[cut + 1:])
    parser = argparse.ArgumentParser(
        prog="python -m bench",
        epilog="python -m bench compare A.json... -- B.json... applies "
               "the end-to-end bounds to files written by run --out")
    sub = parser.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run", help="measure workloads")
    run.add_argument("--workload", action="append", choices=list(WORKLOADS),
                     help="workload to run (repeatable; default: all)")
    run.add_argument("--seed", type=int, default=DEFAULT_SEED,
                     help="permutes point and job order, not the points")
    run.add_argument("--seconds", type=float, default=None,
                     help="measuring time per workload (default: "
                          "run_seconds in BENCHMARK.json)")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0,
                     help="1 reports the per-layer metrics instead")
    run.add_argument("--out", help="write results with provenance here")
    args = parser.parse_args(argv)
    return cmd_run(args)


if __name__ == "__main__":
    # SIGTERM unwinds like an interrupt, so children and the temporary
    # directory are cleaned up.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main(sys.argv[1:]))
