"""Times a fixed kernel over and over, as a gauge of the machine's speed.

    python3 perfbench/pacer.py <file>

run.py starts it next to the workers and stops it with SIGTERM.  Each
repetition appends ``<start_ns> <end_ns>`` (CLOCK_MONOTONIC) to the file.

On a shared machine every pass speeds up and slows down with its
neighbours' load, by 10-60 % over seconds to minutes, and the two CPUs of
the machine this was built on slow down together (their kernel times
correlate at 0.85).  The kernel never changes, so a pass's wall time
divided by the kernel time measured over the same window moves with the
program, not with the neighbours.  It mixes what the workloads do:
vectorised affine maps, cell indices, a bitmap scatter, a sort and
interpreter-bound Python, on 4 MB of arrays.
"""

from __future__ import annotations

import sys
import time

import numpy as np


def kernel(pts: np.ndarray) -> int:
    for _ in range(8):
        cells = np.floor((0.7 * pts + 0.1) * 1024).astype(np.int64)
        flat = cells[0] * 1024 + cells[1]
        grid = np.zeros(1 << 20, dtype=bool)
        grid[flat] = True
        np.sort(flat)
    acc = 0
    for i in range(200_000):
        acc += i % 7
    return acc


def main() -> int:
    pts = np.random.default_rng(0).random((2, 1 << 18))
    with open(sys.argv[1], "w", buffering=1) as out:
        while True:
            start = time.monotonic_ns()
            kernel(pts)
            out.write(f"{start} {time.monotonic_ns()}\n")


if __name__ == "__main__":
    sys.exit(main())
