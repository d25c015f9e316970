"""Time one benchmark set-up in a fresh process.

Usage: setup_probe.py WORKLOAD SEED [--smoke]; prints the nanoseconds
from process start to a built job list (import, fixtures, inputs).
"""

import sys
import time

T0 = time.perf_counter_ns()


def main():
    import run
    run.build(sys.argv[1], int(sys.argv[2]), "--smoke" in sys.argv[3:])
    print(time.perf_counter_ns() - T0)


if __name__ == "__main__":
    main()
