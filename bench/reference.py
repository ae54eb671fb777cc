"""Machine-speed reference for the benchmark's time metrics.

On a shared host the same work can run 30-50 % slower for a minute or
more while neighbours are busy, which swamps any change worth measuring.
The benchmark therefore times a fixed piece of work that does not touch
gpme before every set-up probe, before every timed operation and once
after the last.  Each phase's time is rescaled by REFERENCE_S / (mean
reference time in that phase): the mean, because a run's time sums the
host's slowdown over it.  A change to gpme still moves the rescaled
figures in full; only the host's speed cancels.  Over 10 seeds per
workload this cut the quartile spread of the wall time per pass from
0.17-0.33 of the median to 0.06-0.16, and that of set-up time from
0.28-0.29 to 0.14-0.17.  The raw seconds and both factors are printed
with every result.

The work mixes the kinds of code gpme spends its time in: small-array
numpy calls (Jacobi sweeps), FFT products (dense stencils), float
formatting (field CSVs) and tuple-keyed dict updates (stencil builds).
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# median time of reference_work on the 2-core VM (Python 3.11, numpy 2.4)
# where the benchmark was defined; it only sets the scale of the figures
REFERENCE_S = 0.2


def reference_work():
    x = np.linspace(-1.0, 1.0, 769)
    for _ in range(3000):
        y = np.where(x > 0.0, x * 1.0001, x - 1e-4)
        x = np.minimum(np.maximum(y, -1.0), 1.0)
    k = np.fft.rfft(np.linspace(0.0, 1.0, 16384))
    for _ in range(150):
        np.fft.irfft(k * k)
    # small working sets, so the reference adds nothing to peak memory
    chars = 0
    for i in range(80000):
        chars += len(f"{i},{i * 0.1!r}")
    seen = {}
    for i in range(100000):
        key = (i % 1000, -(i % 1000))
        seen[key] = seen.get(key, 0.0) + 1.0
    return chars + len(seen)


class HostSpeed:
    """Reference timings taken through one phase of a benchmark run."""

    def __init__(self):
        self.samples = []

    def sample(self):
        t0 = perf_counter()
        reference_work()
        self.samples.append(perf_counter() - t0)

    def factor(self):
        """Multiply a time measured in this phase by this to express it at
        reference speed."""
        return REFERENCE_S / statistics.fmean(self.samples)
