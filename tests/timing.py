"""Best-of-n wall timing for the suite's speed-ratio tests.

A ratio test compares two code paths timed in the same process, so host
speed cancels out; taking each side's fastest run drops the runs a
scheduler hiccup slowed down.
"""

import time


def fastest(fn, repeats=3):
    """``fn()``'s last result and its fastest wall time over ``repeats`` calls."""
    seconds = []
    for __ in range(repeats):
        started = time.perf_counter()
        result = fn()
        seconds.append(time.perf_counter() - started)
    return result, min(seconds)
