"""Set-up time of one workload in a fresh interpreter.

Usage: python3 perfbench/setup_child.py WORKLOAD SEED

Times ``import dpgames``, building the workload's config and constructing
its ``World`` (config validation and, with analytic sensitivity, the
eigenvector-floor pre-run), then the reference kernel, and prints both
times in seconds on the last line.
"""

import time

t0 = time.perf_counter()

import sys  # noqa: E402

import env  # noqa: E402

env.prepare()

from dpgames import engine  # noqa: E402

import reference  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

if __name__ == "__main__":
    cfg = WORKLOADS[sys.argv[1]].config(int(sys.argv[2]))
    engine.World(cfg)
    setup_s = time.perf_counter() - t0
    reference.kernel()  # first run pays for lazy numpy set-up
    print(setup_s, reference.seconds())
