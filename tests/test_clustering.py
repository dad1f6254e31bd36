"""Tests for the workload-clustering methodology (Section 3.2)."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.workloads.clustering import (
    all_pairs, all_quads, cluster_and_select, workload_vector,
)


class TestCombinatorics:
    def test_pair_count_matches_paper(self):
        names = [f"b{i}" for i in range(23)]
        assert len(all_pairs(names)) == 253

    def test_pairs_are_unordered_and_distinct(self):
        pairs = all_pairs(["a", "b", "c"])
        assert pairs == [("a", "b"), ("a", "c"), ("b", "c")]

    def test_quads_capped_at_127(self):
        pairs = all_pairs([f"b{i}" for i in range(23)])
        quads = all_quads(pairs)
        assert len(quads) == 127
        assert all(len(q) == 4 for q in quads)

    def test_quads_deduplicated(self):
        pairs = all_pairs(["a", "b", "c", "d"])
        quads = all_quads(pairs, limit=100)
        assert len({tuple(sorted(q)) for q in quads}) == len(quads)


class TestClustering:
    def blobs(self, k=3, per=20, dim=6, seed=0):
        rng = np.random.default_rng(seed)
        centers = rng.normal(size=(k, dim)) * 10
        points = np.concatenate([
            centers[i] + rng.normal(scale=0.4, size=(per, dim))
            for i in range(k)])
        return points, np.repeat(np.arange(k), per)

    def test_recovers_well_separated_clusters(self):
        x, truth = self.blobs()
        result = cluster_and_select(x, n_clusters=3)
        # Every cluster the algorithm forms is pure w.r.t. the truth.
        for c in set(result.labels):
            members = truth[result.labels == c]
            assert len(set(members)) == 1

    def test_one_representative_per_cluster(self):
        x, _ = self.blobs()
        result = cluster_and_select(x, n_clusters=3)
        assert len(result.representatives) == 3
        reps_clusters = {result.labels[r] for r in result.representatives}
        assert len(reps_clusters) == 3

    def test_representative_is_a_member_index(self):
        x, _ = self.blobs()
        result = cluster_and_select(x, n_clusters=3)
        assert all(0 <= r < len(x) for r in result.representatives)

    def test_pca_reduces_dimensionality(self):
        x, _ = self.blobs(dim=10)
        result = cluster_and_select(x, n_clusters=3, var_target=0.9)
        assert 1 <= result.n_components <= 10
        assert result.explained_variance >= 0.9 or result.n_components == 10

    def test_clusters_capped_at_population(self):
        x = np.random.default_rng(1).normal(size=(4, 3))
        result = cluster_and_select(x, n_clusters=10)
        assert len(result.representatives) == 4

    def test_constant_columns_handled(self):
        x = np.ones((10, 4))
        x[:, 0] = np.arange(10)
        result = cluster_and_select(x, n_clusters=2)
        assert len(result.representatives) == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cluster_and_select(np.zeros((0, 3)), 2)


class TestVectors:
    def test_workload_vector_mean_and_spread(self):
        a = np.array([1.0, 0.0])
        b = np.array([3.0, 0.0])
        v = workload_vector([a, b])
        assert v.tolist() == [2.0, 0.0, 2.0, 0.0]

    def test_homogeneous_pair_has_zero_spread(self):
        a = np.array([1.0, 2.0])
        v = workload_vector([a, a])
        assert v[2:].tolist() == [0.0, 0.0]

    def test_benchmark_vector_from_run(self):
        from repro.experiments.runner import run_point
        r = run_point("baseline", ("gzip_graphic",), 256)
        assert len(r.stats_vector) == 11
        assert r.stats_vector[0] > 0  # IPC


class TestBlasThreads:
    """``import repro`` gives numpy's BLAS no thread pool unless the
    caller set one: points already run in parallel worker processes,
    and the pool's idle threads spin after every tiny LAPACK call."""

    @staticmethod
    def _python(code, blas_threads=None):
        env = {k: v for k, v in os.environ.items()
               if k != "OPENBLAS_NUM_THREADS"}
        if blas_threads is not None:
            env["OPENBLAS_NUM_THREADS"] = blas_threads
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        return subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True,
                              check=True).stdout.strip()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                        reason="counts threads in /proc/self/task")
    def test_one_os_thread_after_numpy_loads(self):
        code = ("import os, repro, numpy; "
                "print(len(os.listdir('/proc/self/task')))")
        assert self._python(code) == "1"

    def test_caller_value_is_kept(self):
        code = ("import os, repro, numpy; "
                "print(os.environ['OPENBLAS_NUM_THREADS'])")
        assert self._python(code, blas_threads="2") == "2"
