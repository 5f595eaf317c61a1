"""Five-workload host benchmark for the DRAM-less reproduction.

Run ``python3 bench/run.py`` from the repository root; see
``bench/README.md`` for the workloads, metrics and run protocol.
"""

#: The benchmark's workloads, in run order (why each: README.md).
WORKLOADS = ("fig13-read", "fig13-write", "system-pram",
             "system-baselines", "suite-quick")
