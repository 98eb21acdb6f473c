"""The real-platform end-to-end benchmark (see README.md in this directory).

``python3 benchmarks/e2e/run.py`` is the contract entry point named by the
root ``BENCHMARK.json``; ``PYTHONPATH=src python -m benchmarks.e2e`` is the
richer interface (run / compare / check).
"""
