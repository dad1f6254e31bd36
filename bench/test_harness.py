"""Self-test of the benchmark harness: ``python -m pytest bench/``.

Each workload runs from a miniature spec given here, so the whole
file takes a couple of minutes.  Not part of the tier-1 suite
(``testpaths`` is ``tests/``).
"""

from __future__ import annotations

import shutil
import subprocess
import sys

import pytest

from bench.harness import measure
from bench.spec import PROBES, ROOT, WORKLOADS, load_benchmark_json

MINI = {
    "figures-rw": {"kind": "figures-rw", "table2": ("gzip_graphic",),
                   "benches": ("gzip_graphic",), "sizes": (128, 256),
                   "scale": 0.05},
    "figures-smt": {"kind": "figures-smt", "smt_k": (1, 1, 1),
                    "sizes": (128, 256), "scale": 0.05},
    "sampled-sweep": {
        "kind": "sampled-sweep", "models": ("vca-rw",), "sizes": (256,),
        "benches": ("gzip_graphic",), "scale": 1.0,
        "fixed": {"sample_mode": "systematic", "sample_interval": 1000,
                  "sample_count": 2},
        "adaptive": {"sample_mode": "bbv", "sample_interval": 1000,
                     "sample_count": 2, "sample_rse": 0.05,
                     "sample_rse_metrics": ["ipc"], "sample_max": 4}},
    "service-roundtrip": {"kind": "service", "benches": ("gzip_graphic",),
                          "models": ("baseline", "vca-rw"),
                          "sizes": (128,), "scale": 0.05, "resubmit": 1,
                          "poll": 0.05},
}

MINI_PROBES = {
    "pipeline": dict(PROBES["pipeline"], scale=0.05, smt_scale=0.05,
                     repeats=1),
    "functional": dict(PROBES["functional"], scale=0.25, min_seconds=0.01),
    "sampling": {"model": "vca-rw", "bench": "gzip_graphic",
                 "phys_regs": 256, "scale": 1.0,
                 "fixed": MINI["sampled-sweep"]["fixed"],
                 "adaptive": MINI["sampled-sweep"]["adaptive"]},
    "build": dict(PROBES["build"], scale=0.05, repeats=1, select_k=1),
    "service": MINI["service-roundtrip"],
}

BENCH = load_benchmark_json()


def _emitted(result: dict, declared: list) -> None:
    assert result["correct"], result["errors"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in declared}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_mini_specs_cover_every_workload():
    assert set(MINI) == set(WORKLOADS)
    assert {w["name"] for w in BENCH["workloads"]} == set(WORKLOADS)
    for name, spec in MINI.items():
        assert set(spec) == set(WORKLOADS[name])


@pytest.mark.parametrize("workload", sorted(MINI))
def test_untraced_run_emits_end_to_end_metrics_seed_free(workload):
    first = measure(MINI[workload], seed=0, seconds=0, traced=False,
                    pin=None, min_units=1)
    _emitted(first, BENCH["end_to_end"])
    pinned = first["units"][0]["digest"]
    second = measure(MINI[workload], seed=1, seconds=0, traced=False,
                     pin=pinned, min_units=1)
    _emitted(second, BENCH["end_to_end"])
    assert second["units"][0]["digest"] == pinned


@pytest.mark.parametrize("workload", sorted(MINI))
def test_traced_run_emits_per_layer_metrics(workload):
    result = measure(MINI[workload], seed=0, seconds=0, traced=True,
                     pin=None, probes=MINI_PROBES)
    _emitted(result, BENCH["per_layer"])
    values = {k: m["value"] for k, m in result["metrics"].items()}
    profiled = [k.rsplit(".", 1)[1] for k in values
                if k.startswith("pipeline.outside_stage_share.")]
    assert profiled
    for model in profiled:
        shares = [v for k, v in values.items()
                  if k.startswith("pipeline.") and "stage_share" in k
                  and k.endswith(f".{model}")]
        assert sum(shares) == pytest.approx(1.0, abs=0.01)


def test_corrupted_pin_counts_as_failure():
    result = measure(MINI["figures-rw"], seed=0, seconds=0, traced=False,
                     pin="0" * 64, min_units=1)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert not any(check["ok"] for check in result["checks"])


#: Prints the simulator's source hash, then the output digest of each
#: named miniature workload, one per line.
_DIGESTS = """
import sys
sys.path.insert(0, "src")
from repro.experiments.runner import source_hash
from bench.harness import measure
from bench.test_harness import MINI
print(source_hash())
for name in sys.argv[1:]:
    result = measure(MINI[name], seed=0, seconds=0, traced=False,
                     pin=None, min_units=1)
    assert result["correct"], result["errors"]
    print(result["units"][0]["digest"])
"""


def _digests(root, workloads):
    proc = subprocess.run([sys.executable, "-c", _DIGESTS, *workloads],
                          cwd=root, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    source, *digests = proc.stdout.split()
    return source, digests


def test_digest_ignores_source_edits_that_keep_results(tmp_path):
    """A comment added to a hashed simulator file changes every cache
    key, but no result, so it must not change any digest."""
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=ignore)
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=ignore)
    with (tmp_path / "src" / "repro" / "pipeline" / "core.py").open("a") as f:
        f.write("# a comment changes the source hash, not the results\n")
    workloads = ["figures-rw", "service-roundtrip"]
    source, digests = _digests(ROOT, workloads)
    edited_source, edited_digests = _digests(tmp_path, workloads)
    assert edited_source != source
    assert edited_digests == digests


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", "figures-rw",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
