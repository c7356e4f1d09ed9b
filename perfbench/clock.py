"""Machine-speed calibration for timings taken on a shared host.

On a host whose cores are shared with other tenants, the speed of one
thread flips between two levels about 1.8x apart within seconds, and CPU
time follows it.
The benchmark therefore runs a fixed reference kernel (small numpy calls
from a Python loop, touching nothing in finslerkit) between jobs, and
scales each job's time by ``NOMINAL_S`` over the mean kernel time
measured just before and just after the job.  Reported end-to-end times
are seconds at the nominal kernel speed; raw times go to the result file.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

KERNEL_STEPS = 600
# Median kernel time on the 2-vCPU x86-64 VM (Xeon, 2.1 GHz) the baseline was taken on.
NOMINAL_S = 0.0056


class Calibrator:
    def __init__(self):
        self._vecs = np.random.default_rng(12345).normal(size=(KERNEL_STEPS, 2))
        for _ in range(3):
            self.sample()  # first calls pay one-off costs

    def _kernel(self) -> float:
        # Many small numpy calls from Python, the mix that dominates finslerkit's
        # per-call cost; it tracks the host's speed better than a pure loop,
        # a BLAS call or a large sort do.
        acc = 0.0
        for v in self._vecs:
            a = np.asarray(v, dtype=float)
            w = np.where(a > 0.0, a, -a)
            acc += float(np.einsum("i,i->", w, a)) + float(np.linalg.norm(a))
        return acc

    def sample(self) -> float:
        """Seconds one run of the reference kernel takes now."""
        t0 = time.perf_counter()
        self._kernel()
        return time.perf_counter() - t0

    def factor(self) -> float:
        """Scale from raw to nominal seconds, from the median of five samples."""
        return NOMINAL_S / statistics.median(self.sample() for _ in range(5))
