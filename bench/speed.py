"""Speed normalization against a fixed calibration kernel.

The benchmark machine shares its cores with other tenants, and the speed of
one core drifts by up to a factor of about 1.8 over seconds to minutes; the
two cores drift independently.  Raw wall times of runs made minutes apart
therefore differ by far more than any change worth detecting.

`SpeedSampler` measures the speed of the core the timed region runs on, at
the same moments: every `INTERVAL_S` a SIGALRM handler runs a fixed kernel,
none of it from `minlag`, and records how long each of its components took.
The components are the kinds of work the workloads spend their time in, and
contention slows them by different factors, so each workload weighs them by
its own mix of work.  A timed region's seconds are reported at reference
speed:

    normalized = (elapsed - kernel runs inside it) * scale,
    scale = sum over components c of mix[c] * REFERENCE_S[c] / median t_c

A change to `minlag` leaves the kernel and the mix untouched, so it moves
the normalized time as it moves the raw time at constant machine speed.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np
import scipy.sparse as sp
# bound by name so that the tracer, which wraps scipy.sparse.linalg.splu,
# never records the kernel's factorizations
from scipy.sparse.linalg import splu

INTERVAL_S = 0.04
CALIBRATIONS = 25          # kernel runs when a region was too short to sample
# Kernel components, each a kind of work the workloads spend their time in,
# with about their warm time on a quiet core of the 2-core benchmark machine
# (Intel Xeon, 2.1 GHz); these only fix the unit of normalized seconds.
REFERENCE_S = {
    "interpreter": 1.0e-4,   # Python loop over numpy scalars
    "dense": 2.5e-4,         # LAPACK symmetric eigensolver, n = 48
    "sparse": 1.7e-4,        # SuperLU factorization and solve, n = 100
    "vector": 5.5e-5,        # elementwise numpy on 32768 doubles
}


def _kernel_data():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((48, 48))
    n = 10
    lap1 = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    lap = (sp.kron(lap1, sp.eye(n)) + sp.kron(sp.eye(n), lap1)).tocsc()
    labels = rng.integers(0, 200, 500)
    return a + a.T, lap, rng.standard_normal(32768), labels


class SpeedSampler:
    """Samples the calibration kernel's time while it is active.

    `mix` weighs the kernel's components by the share of each kind of work
    in the timed region.
    """

    def __init__(self, mix: dict):
        self.mix = mix
        self._sym, self._lap, self._vec, self._labels = _kernel_data()
        self._first = np.empty(200, dtype=int)
        self.starts = []           # start of each sample, ascending
        self.warm = []             # timed (warm) component seconds per sample
        self._spent = [0.0]        # cumulative seconds spent sampling

    def kernel(self) -> dict:
        """Seconds of each kernel component in one run."""
        t0 = time.perf_counter()
        first = self._first
        first.fill(-1)
        for i, label in enumerate(self._labels):
            if first[label] < 0:
                first[label] = i
        t1 = time.perf_counter()
        np.linalg.eigh(self._sym)
        t2 = time.perf_counter()
        splu(self._lap).solve(self._vec[:self._lap.shape[0]])
        t3 = time.perf_counter()
        float(np.exp(-self._vec * self._vec) @ self._vec)
        t4 = time.perf_counter()
        return {"interpreter": t1 - t0, "dense": t2 - t1, "sparse": t3 - t2,
                "vector": t4 - t3}

    def _on_alarm(self, signum, frame):
        # the first run reloads the kernel's code and data into the caches
        # that the interrupted work evicted; only the second, warm, run is
        # timed, so the sample does not depend on the work's memory use
        start = time.perf_counter()
        self.kernel()
        self.warm.append(self.kernel())
        self.starts.append(start)
        self._spent.append(self._spent[-1] + time.perf_counter() - start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, exc_type, exc, tb):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def kernel_seconds(self, start: float, end: float) -> float:
        """Time spent in samples that began between `start` and `end`."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        return self._spent[hi] - self._spent[lo]

    def scale(self) -> float:
        """Mix-weighted ratio of reference to median sampled speed.

        Without samples, the kernel is timed now, warm, `CALIBRATIONS`
        times.
        """
        if not self.warm:
            self.kernel()
            self.warm = [self.kernel() for _ in range(CALIBRATIONS)]
        return sum(w * REFERENCE_S[c] / statistics.median(
                       k[c] for k in self.warm)
                   for c, w in self.mix.items())
