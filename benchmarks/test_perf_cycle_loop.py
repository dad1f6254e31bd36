"""Performance guard for the cycle-loop hot path.

Simulated cycles per wall-clock second must be at least
``SPEEDUP_FLOOR`` times the pre-optimization tree's on the recursive
``fib`` diagnostic and a generator workload (``gzip_graphic``).  The
pre-optimization tree is commit ``BASELINE_COMMIT``: the test extracts
its ``src/`` with ``git archive`` and times the same :func:`_machine`
runs there, in a subprocess, on the same host during the same test, so
the ratio does not depend on which machine runs the test.  That tree
has the same ``MachineConfig``/``build_machine``/``benchmark_program``
API.

A speedup is only a speedup if the results stay bit-identical; the
pinned ``SimStats`` digests that check it live in tier-1, in
``tests/test_timing_digests.py``.

The measured rates are printed, not recorded: the perf history in
``BENCH_perf.json`` holds ``python -m bench run --out`` results
appended by ``repro bench record``, whose ``pipeline.cycles_per_s.*``
rows trend every model's cycle loop.
"""

import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import time
from pathlib import Path

import pytest

from repro.config import MachineConfig
from repro.models.factory import build_machine, model_abi
from repro.workloads.generator import benchmark_program

#: The tree before the cycle loop was first optimized.
BASELINE_COMMIT = "5a04113"
BENCHES = ("fib", "gzip_graphic")
SPEEDUP_FLOOR = 1.5
TIMING_ROUNDS = 5
TIMING_SCALE = 4.0

_REPO = Path(__file__).resolve().parents[1]


def _machine(model, benches, scale):
    cfg = MachineConfig.baseline().with_(
        phys_regs=256, dl1_ports=2, n_threads=len(benches))
    abi = model_abi(model)
    progs = [benchmark_program(b, abi=abi, scale=scale, seed=0)
             for b in benches]
    return build_machine(model, cfg, progs)


def _best_cps(bench):
    best = 0.0
    cycles = 0
    for _ in range(TIMING_ROUNDS):
        m = _machine("vca-rw", [bench], TIMING_SCALE)
        t0 = time.perf_counter()
        stats = m.run()
        dt = time.perf_counter() - t0
        cycles = stats.cycles
        best = max(best, cycles / dt)
    return best, cycles


def _baseline_cps(tmp_path):
    """Best-of-``TIMING_ROUNDS`` cycles/sec per bench on the
    ``BASELINE_COMMIT`` tree, timed by this module's :func:`_best_cps`
    in a subprocess that imports ``repro`` from that tree."""
    git = shutil.which("git")
    if git is None:
        pytest.fail("the speed floor needs git on PATH to extract the "
                    f"baseline tree (commit {BASELINE_COMMIT})")
    archive = subprocess.run(
        [git, "archive", "--format=tar", BASELINE_COMMIT, "src"],
        cwd=_REPO, capture_output=True)
    if archive.returncode != 0:
        pytest.fail(f"the speed floor needs commit {BASELINE_COMMIT} in "
                    f"the git history of {_REPO}: "
                    f"{archive.stderr.decode().strip()}")
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(tmp_path)
    script = (
        "import importlib.util, json\n"
        f"spec = importlib.util.spec_from_file_location('perf', "
        f"{str(Path(__file__).resolve())!r})\n"
        "perf = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(perf)\n"
        "print(json.dumps({b: perf._best_cps(b)[0] "
        "for b in perf.BENCHES}))\n")
    env = dict(os.environ, PYTHONPATH=str(tmp_path / "src"))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_cycle_loop_speedup(tmp_path):
    baseline = _baseline_cps(tmp_path)
    results = {}
    for bench in BENCHES:
        cps, cycles = _best_cps(bench)
        base = baseline[bench]
        ratio = cps / base
        results[bench] = {"cycles": cycles, "cycles_per_sec": cps,
                          "baseline_cps": base, "speedup": ratio}
        print(f"\n{bench}: {cycles} cycles, best {cps:,.0f} c/s, "
              f"{ratio:.2f}x {BASELINE_COMMIT} ({base:,.0f} c/s)")

    for bench, r in results.items():
        assert r["speedup"] >= SPEEDUP_FLOOR, (
            f"{bench}: {r['cycles_per_sec']:,.0f} c/s is only "
            f"{r['speedup']:.2f}x the {BASELINE_COMMIT} tree "
            f"({r['baseline_cps']:,.0f} c/s); floor is "
            f"{SPEEDUP_FLOOR}x")
