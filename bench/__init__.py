"""Benchmark harness for the repro simulator: end-to-end and per-layer
metrics over four workloads.  See ``bench/README.md``."""
