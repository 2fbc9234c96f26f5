"""The repository benchmark: workloads through the public front doors,
end-to-end host-time metrics, and a traced run for per-layer metrics.

Run ``python3 perfbench/run.py --help`` from the repository root.
"""
