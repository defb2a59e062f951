"""The repository benchmark: workloads, correctness gates, tracing and
host-speed calibration (see ``perfbench/README.md``)."""
