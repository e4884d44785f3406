"""A fixed reference kernel that gauges the machine's speed during a run.

The shared 2-vCPU machine described in perfbench/README.md changes speed by
up to 1.7x in episodes that last from seconds to minutes, and CPU time tracks wall
time, so the slow-downs are not descheduling.  Timed as measured, seven
50-second detect runs spread by 0.37 of their median docs/s.  The kernel
below is timed in short samples between the workload's rounds, and every
time metric is reported at the reference speed:

    reported time = measured time * NOMINAL_S / (kernel time per call,
                                                  measured alongside)

The kernel shares no code with xmlad.  It mixes the two kinds of work the
workloads do: a Python loop of small numpy calls on 2,000-element arrays
(as ``adifa.classify`` does per attribute) and one pass over a 4 MB array
(as ``adifa.score_batch`` and the baselines' distances do).  Those two
parts, and a pure-Python loop, slowed down together: over 3-second windows
their ratios varied by about 3% while each of them varied by 5-7%.  See
"Reference speed" in perfbench/README.md.
"""

import time

import numpy as np

# the kernel's time per call that counts as the reference speed; about its
# time on the machine in perfbench/README.md
NOMINAL_S = 8.0e-3

_RNG = np.random.default_rng(0)
_COLUMNS = [_RNG.normal(size=2000) for _ in range(121)]
_MATRIX = _RNG.normal(size=(1000, 500))
_ROW = _RNG.normal(size=500)


def kernel():
    total = 0.0
    for column in _COLUMNS:
        d = 0.3 - column
        total += float(np.exp(-0.5 * d * d).mean())
    d = _MATRIX - _ROW[None, :]
    return total + float(np.exp(-0.5 * d * d).mean(axis=1).sum())


class Gauge:
    """Timed samples of the kernel, taken between the things it gauges."""

    def __init__(self):
        self.samples = []  # (seconds, calls)
        kernel()  # the first call pays for page faults; it is not counted

    def sample(self, seconds):
        """Whole kernel calls until `seconds` have passed (at least one)."""
        start = now = time.perf_counter()
        calls = 0
        while calls == 0 or now - start < seconds:
            kernel()
            calls += 1
            now = time.perf_counter()
        self.samples.append((now - start, calls))

    def scale(self):
        """Factor that turns a time measured alongside into reference time:
        NOMINAL_S over the time per call of all the samples pooled.  A
        factor per round, from the samples on either side of it, spread
        `evaluate`'s latency_p50_ms more (0.19 against 0.12 over ten runs):
        samples at the ends of a 10-second round say little about the speed
        in between."""
        return NOMINAL_S * sum(c for _, c in self.samples) / sum(
            t for t, _ in self.samples)
