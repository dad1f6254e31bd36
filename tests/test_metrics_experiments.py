"""Tests for metrics, the experiment runner and report rendering."""

import math

import pytest

from repro.analysis import flat_equivalent, geomean, weighted_speedup
from repro.experiments.report import render_series, render_table
from repro.experiments.runner import RunResult, path_ratio, run_point


class TestMetrics:
    def test_geomean_basics(self):
        assert geomean([2, 8]) == pytest.approx(4.0)
        assert geomean([1.0]) == 1.0
        with pytest.raises(ValueError):
            geomean([])
        with pytest.raises(ValueError):
            geomean([0.0, 1.0])

    def test_weighted_speedup_definition(self):
        # Each thread's IPC over its single-thread reference, summed.
        ws = weighted_speedup([0.6, 0.4], [1.0, 1.0], [1.0, 0.5])
        assert ws == pytest.approx(0.6 / 1.0 + 0.4 / 0.5)
        # A windowed thread's IPC counts as flat-equivalent work.
        ws = weighted_speedup([0.45, 0.4], [0.9, 1.0], [1.0, 0.5])
        assert ws == pytest.approx(0.5 / 1.0 + 0.4 / 0.5)

    def test_weighted_speedup_requires_matching_refs(self):
        with pytest.raises(ValueError):
            weighted_speedup([0.5], [1.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            weighted_speedup([0.5, 0.5], [1.0], [1.0, 1.0])

    def test_accesses_per_work_adjusts_for_path_ratio(self):
        flat = 45 / sum(flat_equivalent([90], [1.0]))
        windowed = 45 / sum(flat_equivalent([90], [0.9]))
        assert flat == pytest.approx(0.5)
        # The windowed binary's 90 instructions equal 100 flat ones.
        assert windowed == pytest.approx(0.45)


class TestRunner:
    def test_cached_rerun_identical(self):
        a = run_point("baseline", ("gzip_graphic",), 256)
        b = run_point("baseline", ("gzip_graphic",), 256)
        assert a == b

    def test_unrunnable_flagged_not_raised(self):
        r = run_point("baseline", ("gzip_graphic",), 64)
        assert r.unrunnable
        assert r.cycles == 0

    def test_result_fields_populated(self):
        r = run_point("vca", ("gzip_graphic",), 256)
        assert r.cycles > 0
        assert r.committed[0] > 0
        assert 0 < r.ipc <= 4
        assert r.dl1_accesses > 0
        assert len(r.thread_ipcs) == 1

    def test_path_ratio_cached_and_sane(self):
        r1 = path_ratio("gzip_graphic")
        r2 = path_ratio("gzip_graphic")
        assert r1 == r2
        assert 0.8 < r1 < 1.0

    def test_run_result_derived_properties(self):
        r = RunResult(model="m", benches=("a",), phys_regs=1,
                      dl1_ports=2, scale=1.0, cycles=100,
                      committed=(50,), dl1_accesses=25)
        assert r.ipc == 0.5
        assert r.dl1_per_instr == 0.5


class TestReport:
    def test_render_table_alignment_and_floats(self):
        text = render_table(["name", "x"], [["abc", 1.5], ["d", None]])
        lines = text.splitlines()
        assert "abc" in lines[2] and "1.500" in lines[2]
        assert "--" in lines[3]

    def test_render_series_merges_x_values(self):
        text = render_series("T", "regs",
                             {"a": {64: 1.0, 128: 2.0},
                              "b": {128: 3.0}})
        assert "T" in text
        rows = text.splitlines()
        assert rows[1].split() == ["regs", "a", "b"]
        assert "--" in text  # b has no 64 point
