"""The repository benchmark: four paper workloads, end-to-end and per-layer metrics.

Run one workload with ``python3 perfbench/run.py --workload mem-lowp --seed 1
--seconds 20 --trace 0``; see ``perfbench/README.md`` for the workloads,
metrics and the correctness gate.
"""
