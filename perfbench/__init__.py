"""The repository benchmark: ``python3 perfbench/run.py --workload NAME``.

See ``perfbench/README.md`` for the workloads, the metrics and how the
per-layer numbers map onto the end-to-end ones.
"""
