"""End-to-end, layer-attributed benchmark of the ``repro`` package.

Run ``python3 perfbench/run.py --workload <name> --seed <n>`` from the
root of a checkout; ``perfbench/README.md`` describes the workloads, the
metrics and the layer each per-layer metric attributes time to.
"""
