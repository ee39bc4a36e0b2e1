"""Host-speed probe: a fixed reference kernel timed between experiments.

On a shared host the same computation can take 40% longer for seconds to
minutes at a time.  The benchmark times this kernel, which calls no ncym code,
between experiments and reports each experiment's time scaled to a host on
which the kernel takes ``NOMINAL_S``:

    reported = measured * NOMINAL_S / (median of the kernel times around it)

A change to ncym moves the measured time and leaves the kernel alone, so it
moves the reported time by the same factor.  The raw times are kept in every
run record.  ``NOMINAL_S`` only fixes the scale; it must never change, or
reported times stop being comparable across commits.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: about the median kernel time on the 2-core Intel Xeon virtual machine the benchmark was
#: defined on (Python 3.11, numpy 2.4, one BLAS thread)
NOMINAL_S = 0.025
#: a new sample is taken before an experiment once this much time has passed
#: since the last one, and always at the end of a pass.
INTERVAL_S = 0.25
#: samples on each side of an experiment that enter its scale
WINDOW = 2


class HostSpeed:
    """Times the reference kernel; its arrays are made once, outside any timing."""

    def __init__(self):
        gen = np.random.default_rng(0)
        self._keys = gen.integers(0, 40_000, size=80_000)
        self._values = gen.normal(size=80_000)
        self._dense = gen.normal(size=(96, 96)) + 1j * gen.normal(size=(96, 96))
        self._svd = np.linalg.svd  # bound now, so a tracer wrapping numpy later never sees the probe
        self.samples: list[float] = []
        self._taken_at = 0.0

    def _kernel(self) -> None:
        # dict-of-tuples work like the library's element loops ...
        acc = {}
        for i in range(24_000):
            key = (i % 97, i % 89)
            acc[key] = acc.get(key, 0j) + 1.5j
        # ... sort/group/exp work like its vectorized star product ...
        _, inverse = np.unique(self._keys, return_inverse=True)
        np.bincount(inverse, weights=self._values)
        np.exp(1j * self._values)
        # ... and a dense complex SVD like its finite form spaces
        self._svd(self._dense)

    def sample(self) -> float:
        start = time.perf_counter()
        self._kernel()
        end = time.perf_counter()
        self._taken_at = end
        self.samples.append(end - start)
        return end - start

    def mark(self) -> int:
        """Index of the latest sample."""
        return len(self.samples) - 1

    def due(self) -> bool:
        return time.perf_counter() - self._taken_at >= INTERVAL_S

    def scale(self, first: int, last: int) -> float:
        """Factor from measured seconds to seconds at nominal host speed for
        work done between samples ``first`` and ``last``.

        Uses the median of the samples from WINDOW before ``first`` to WINDOW
        after ``last``: a slow spell lasts seconds or more, while a single
        sample can be off by a burst shorter than the kernel.
        """
        return NOMINAL_S / statistics.median(self.samples[max(0, first - WINDOW) : last + WINDOW + 1])

    def summary(self) -> dict:
        return {
            "nominal_s": NOMINAL_S,
            "samples": len(self.samples),
            "median_s": statistics.median(self.samples),
            "min_s": min(self.samples),
            "max_s": max(self.samples),
        }
