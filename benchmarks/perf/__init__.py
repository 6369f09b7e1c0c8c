"""The repository's performance benchmark: four workloads through the whole stack.

See ``README.md`` in this directory.  Entry point: ``run.py`` (also
``python -m benchmarks.perf``); the contract the driver checks is
``BENCHMARK.json`` at the repository root.
"""
