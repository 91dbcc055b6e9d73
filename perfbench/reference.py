"""Fixed reference kernel that gauges the machine's current speed.

Prints the seconds the kernel took, timed inside the process after its
imports. The kernel never changes and does not touch the program under
test. It mixes the kinds of work the workloads do: indexed Python list
loops over a small and a large list (the jump chain at n=100 and n=100000),
numpy exponentials over a large array (the KDE) and growing ``Fraction``
sums (the exact moment table). On a shared host the
speed available to one process drifts by tens of percent over minutes.
Dividing a workload's time by the mean of reference runs taken between
its commands removes most of that drift.
"""

import time
from fractions import Fraction

import numpy as np


def jumps(size: int, steps: int) -> float:
    """Indexed list updates, like the jump loop, over ``size`` entries."""
    mask = size - 1
    x = [0.0] * size
    for i in range(steps):
        x[(i * 40503) & mask] = x[(i * 9973) & mask] + 1.0
    return x[0]


def kernel() -> float:
    # a cache-resident list and one well outside L2, as at n=100 and n=100000
    small = jumps(1 << 7, 500_000)
    large = jumps(1 << 18, 250_000)
    grid = np.linspace(-4.0, 4.0, 1 << 20)
    total = 0.0
    for _ in range(8):
        total += float(np.exp(-0.5 * grid * grid).sum())
    harmonic = Fraction(0)
    for k in range(1, 6000):
        harmonic += Fraction(1, k)
    return small + large + total + float(harmonic)


if __name__ == "__main__":
    start = time.perf_counter()
    kernel()
    print(repr(time.perf_counter() - start))
