"""Machine-speed reference, run beside a workload on the other core.

    python perfbench/speed.py

The shared host this benchmark was built on changes speed by up to 1.6x in
phases lasting minutes, for every process alike, so wall times taken in a
slow phase cannot be compared with wall times taken in a fast one.  While a
workload runs, ``run.py`` keeps this process running a fixed reference
kernel back to back on the second core (the workload itself uses one), and
reports the op times at a nominal speed: a wall time ``t`` measured
while the kernel ran at ``r`` kernels per second is reported as
``t * r / NOMINAL_RATE``, the time it would have taken on a machine where
the kernel runs at ``NOMINAL_RATE``.  The raw wall times are printed beside
them.

The kernel builds a list of exact fractions, reads it in a shuffled order
and sorts it: pure-Python arithmetic on a working set of megabytes, the kind
of work and memory traffic that dominates ``epgate``.  It uses only the
standard library, so a change to ``epgate`` does not change it.

Runs kernels until a line arrives on standard input, then prints the
``perf_counter`` time at which each kernel ended, as one JSON list, and
exits.
"""

from __future__ import annotations

import json
import random
import select
import sys
import time
from fractions import Fraction

# kernels per second on the nominal machine, a fixed unit: on a 2-core
# x86_64 host, with a workload on the other core, the rate read 2.9 to 5.4
NOMINAL_RATE = 3.0
_SIZE = 20000


def kernel() -> None:
    rng = random.Random(1)
    xs = [Fraction(rng.randrange(1, 10 ** 6), rng.randrange(1, 10 ** 6))
          for _ in range(_SIZE)]
    order = list(range(_SIZE))
    rng.shuffle(order)
    acc = 0
    for i in order:
        acc += xs[i].numerator * xs[i - 1].denominator % 1000003
    xs.sort()


def rate(ends: list[float], start: float, stop: float) -> float:
    """Kernels per second completed between ``start`` and ``stop``."""
    inside = [t for t in ends if start <= t <= stop]
    if len(inside) < 2:
        raise ValueError("too few reference kernels inside the interval")
    return (len(inside) - 1) / (inside[-1] - inside[0])


def main() -> int:
    ends = []
    while not select.select([sys.stdin], [], [], 0)[0]:
        kernel()
        ends.append(time.perf_counter())
    print(json.dumps(ends))
    return 0


if __name__ == "__main__":
    sys.exit(main())
