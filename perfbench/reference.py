"""Machine-speed reference for the end-to-end timings.

The benchmark runs on shared hosts whose speed drifts by a fifth or more
over minutes, which moves every wall-clock timing together.  A run times a
fixed numpy kernel every half second between ops and scales its op timings
by NOMINAL_S / (median kernel time): they then read as seconds on a
machine where the kernel takes NOMINAL_S.  Set-up is short, so each
set-up, and the import before the first, is scaled by a kernel timing
taken right before it.

The kernel mixes the two kinds of work the program does, BLAS
contractions over a dense volume and a large sort.  It is pure numpy,
independent of rmae, so a change to the program cannot move it.  It must
never change, or scaled timings stop being comparable across commits.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_S = 0.025
EVERY_S = 0.5


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._volume = rng.normal(size=(16, 32, 32, 16))
        self._taps = rng.normal(size=(27, 16, 16))
        self._values = rng.normal(size=200_000)
        self.seconds: list[float] = []
        self._last = float("-inf")
        self.measure()  # the first run pays one-off allocation costs
        self.seconds.clear()
        self._last = float("-inf")

    def measure(self) -> None:
        t0 = time.perf_counter()
        out = np.zeros((16, 30, 30, 14))
        for k in range(27):
            a, b, c = k // 9, (k // 3) % 3, k % 3
            out += np.tensordot(
                self._taps[k],
                self._volume[:, a : a + 30, b : b + 30, c : c + 14],
                axes=([0], [0]),
            )
        np.sort(self._values)
        self._last = time.perf_counter()
        self.seconds.append(self._last - t0)

    def maybe_measure(self) -> None:
        """Measure if EVERY_S has passed since the last measurement."""
        if time.perf_counter() - self._last >= EVERY_S:
            self.measure()

    @property
    def scale(self) -> float:
        """Factor from this machine's seconds to nominal seconds, over the
        run."""
        return NOMINAL_S / statistics.median(self.seconds)

    @property
    def local_scale(self) -> float:
        """The same factor from the latest measurement alone, for work
        timed next to it."""
        return NOMINAL_S / self.seconds[-1]
