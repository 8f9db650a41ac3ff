"""The repository's benchmark: three workloads, end-to-end and per layer.

Run ``python3 perfbench/run.py --help`` from the repository root; see
``perfbench/README.md`` for the workloads and metrics.
"""
