"""Tests for the SMT experiment drivers (workload selection, weighted
speedup plumbing).  Runs at reduced scale; results are cached."""

import pytest

from repro.analysis import weighted_speedup
from repro.experiments.runner import (
    RunResult, path_ratio, path_ratios, run_point,
)
from repro.experiments.smt import (
    benchmark_vectors, select_workloads, smt_speedup_series,
)
from repro.workloads import ALL_BENCHMARKS

SCALE = 0.3


class TestWorkloadSelection:
    def test_vectors_cover_all_benchmarks(self):
        vectors = benchmark_vectors(scale=SCALE)
        assert set(vectors) == set(ALL_BENCHMARKS)
        assert all(len(v) == 11 for v in vectors.values())

    def test_pair_selection(self):
        wl = select_workloads(2, 4, scale=SCALE)
        assert len(wl) == 4
        assert all(len(w) == 2 for w in wl)
        assert all(b in ALL_BENCHMARKS for w in wl for b in w)
        assert len(set(wl)) == 4

    def test_quad_selection(self):
        wl = select_workloads(4, 3, scale=SCALE)
        assert len(wl) == 3
        assert all(len(w) == 4 for w in wl)

    def test_single_selection(self):
        wl = select_workloads(1, 3, scale=SCALE)
        assert all(len(w) == 1 for w in wl)

    def test_bad_thread_count(self):
        with pytest.raises(ValueError):
            select_workloads(3, 2, scale=SCALE)


class TestSpeedup:
    def test_weighted_speedup_flat(self):
        r = RunResult(model="vca", benches=("a", "b"), phys_regs=256,
                      dl1_ports=2, scale=1.0, cycles=100,
                      committed=(50, 50), thread_ipcs=(0.5, 0.5))
        assert path_ratios(r) == [1.0, 1.0]
        ws = weighted_speedup(r.thread_ipcs, path_ratios(r), [1.0, 0.5])
        assert ws == pytest.approx(0.5 / 1.0 + 0.5 / 0.5)

    def test_weighted_speedup_windowed(self):
        # A windowed model's IPC is divided by the benchmark's
        # path-length ratio: the same work in flat instructions.
        r = RunResult(model="vca-rw", benches=("gzip_graphic",),
                      phys_regs=256, dl1_ports=2, scale=1.0, cycles=100,
                      committed=(50,), thread_ipcs=(0.5,))
        ratio = path_ratio("gzip_graphic")
        assert path_ratios(r) == [ratio] and ratio < 1.0
        ws = weighted_speedup(r.thread_ipcs, path_ratios(r), [0.5])
        assert ws == pytest.approx(0.5 / ratio / 0.5)
        assert ws > 1.0

    def test_series_single_size(self):
        wl = [("gzip_graphic", "crafty")]
        col = smt_speedup_series("vca", wl, sizes=(256,), scale=SCALE)
        assert col[256] is not None and col[256] > 0

    def test_series_marks_unrunnable(self):
        wl = [("gzip_graphic", "crafty")]
        col = smt_speedup_series("baseline", wl, sizes=(128,),
                                 scale=SCALE)
        assert col[128] is None


class TestSmtRuns:
    def test_two_thread_beats_single_throughput(self):
        single = run_point("baseline", ("gzip_graphic",), 256,
                           scale=SCALE)
        pair = run_point("baseline", ("gzip_graphic", "crafty"), 320,
                         scale=SCALE)
        assert sum(pair.thread_ipcs) > single.ipc * 0.8

    def test_vca_runs_below_logical_register_count(self):
        r = run_point("vca", ("gzip_graphic", "crafty"), 96,
                      scale=SCALE)
        assert not r.unrunnable
        assert r.committed[0] > 0 and r.committed[1] > 0
