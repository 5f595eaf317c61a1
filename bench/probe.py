"""Set-up probe: ``python -m bench.probe WORKLOAD SEED``.

Run in a fresh interpreter, it times importing the reproduction
(``repro.experiments.cli`` comes in through :mod:`bench.workloads`)
and building the workload's trace bundles and configs, and prints the
time in reference seconds (:mod:`bench.calibration`).
``bench/run.py`` reports the median of five probes as ``setup_s``.
"""

import sys
import time

from bench import calibration


def main(argv) -> int:
    workload, seed = argv
    before = calibration.measure()
    start = time.perf_counter()
    from bench import workloads
    workloads.build(workload, int(seed))
    elapsed = time.perf_counter() - start
    print(calibration.normalize(elapsed, before, calibration.measure()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
