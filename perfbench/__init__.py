"""Benchmark for pvit: three workloads driven through pvit's public API.

``python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1``
runs each workload in a fresh worker process and prints its metrics.
See ``perfbench/METRICS.md`` for what each workload and metric measures.
"""
