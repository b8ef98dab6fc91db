"""Benchmark harness for dirough; see perfbench/README.md."""
