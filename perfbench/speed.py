"""A fixed probe of the machine's current speed, to scale measured times by.

The machines the benchmark runs on are shared, and their speed flips between
states tens of percent apart, within seconds to minutes.  Interpreted code,
small numpy calls and matrix products slow down together.  The program
cannot change the probe, so scaling a time by REF_S over the mean of the
probes taken just before and after it cancels most of the drift.  It cancels
less of it for calls longer than a second, because the speed can flip while
they run.
"""

import statistics
import time

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
REPS = 5
REF_S = 0.004  # the probe's median time on the reference machine


def pin_blas(env) -> None:
    """One BLAS thread; takes effect only if set before numpy is imported."""
    env.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))


def _call(x, y):
    return x * y + 1.0


def probe() -> float:
    """Median time of REPS repetitions of a fixed mix of the work the program
    does: interpreted loops and calls, many small numpy calls, and a complex
    matrix product."""
    import numpy as np

    small = np.eye(4, dtype=complex) * (1 + 1j)
    big = (np.arange(160 * 160).reshape(160, 160) % 5 - 2.0) * (1 - 0.25j) / 160
    times = []
    for _ in range(REPS):
        start = time.perf_counter()
        acc, seen = 0.0, {}
        for i in range(10_000):
            acc += i * 0.5
        for i in range(3000):
            acc += _call(i, 0.5)
            seen[i & 63] = acc
        for _ in range(60):
            k = np.kron(small, small)
            z = np.zeros((16, 16), dtype=complex)
            z[:4, :4] = k[:4, :4]
        big @ big
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scaled(seconds: float, before: float, after: float) -> float:
    """A time measured between two probes, at the reference machine's speed."""
    return seconds * REF_S / ((before + after) / 2)
