"""A fixed pure-Python kernel that measures how fast the host runs now.

On a shared host the speed of the CPU this process gets moves by up to a
factor of two over tens of seconds, with the load of other tenants. The
kernel runs between queries, in the same process; the ratio of a query's
time to the kernel's time around it stays put when the host speeds up or
slows down, where the query's time alone does not.

The kernel touches nothing of the program: integer arithmetic, short
tuples and lookups in a small dict of its own, with the garbage collector
off, so that neither the program's heap nor its caches change its time.
"""

import gc
from time import perf_counter

_TABLE = {(i, i % 7): i * 31 for i in range(64)}


def kernel() -> int:
    acc = 0
    for i in range(4000):
        key = (i & 63, (i & 63) % 7)
        acc = (acc * 1103515245 + _TABLE[key] + i) & 0xFFFFFFFF
    return acc


def kernel_seconds() -> float:
    """Seconds one run of the kernel takes, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        kernel()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
