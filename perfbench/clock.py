"""Lap timing scaled to a fixed host speed.

The shared machines this benchmark runs on switch between speed states
for seconds to minutes at a time: the same loop takes up to 1.6 times as
long in one state as in another, process CPU time included, and a run of
a few dozen seconds can sit in either.  So every time the end-to-end
metrics use is a lap of a ``LapClock``.  Each lap boundary runs a short
fixed probe, and a lap's time is scaled by the probe times at its two
ends:

    scaled = raw * REF_PROBE_S / mean(probe at start, probe at end)

The probe is the geometric mean of two kernels: small matmuls, which
track the host as pvit's compute does, and a pass over arrays larger
than the L2 cache, which tracks it as pvit's memory traffic does.  In
long runs of `train-desk`, `score-bulk` and `eval-large`, the spread of
30-second medians of step time was 0.063, 0.101 and 0.146 unscaled and
0.027, 0.037 and 0.046 scaled.  Either kernel alone, a pure-Python loop
or a loop of small numpy calls did worse on at least one workload
(perfbench/METRICS.md has the table).  Probe time is not part of any lap.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# a round figure near the probe's time on the machine the baseline was
# measured on, so that scaled times read close to that machine's seconds
REF_PROBE_S = 0.5e-3
_MATRIX = np.random.default_rng(0).random((64, 64))
_STREAM_IN = np.random.default_rng(1).random(1 << 18)  # 2 MiB
_STREAM_OUT = np.empty_like(_STREAM_IN)


def _matmuls() -> float:
    start = time.perf_counter()
    for _ in range(13):
        _MATRIX @ _MATRIX
    return time.perf_counter() - start


def _stream() -> float:
    start = time.perf_counter()
    np.multiply(_STREAM_IN, 1.0001, out=_STREAM_OUT)
    return time.perf_counter() - start


def probe() -> float:
    """Seconds the fixed probe takes now.  Each kernel runs three times
    and counts with its median, so that one interrupted run does not."""
    runs = [(_matmuls(), _stream()) for _ in range(3)]
    return 3 * math.sqrt(statistics.median(m for m, _ in runs) * statistics.median(s for _, s in runs))


class LapClock:
    """Splits an operation into laps; ``lap`` closes the running lap and
    returns its scaled seconds.  ``total`` sums the laps."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.total = 0.0
        self.probes: list[float] = []
        self._probe = self._run_probe()
        self._start = time.perf_counter()

    def _run_probe(self) -> float:
        with self.tracer.span("probe.host"):
            p = probe()
        self.probes.append(p)
        return p

    def scale(self, raw_s: float, probe_s: float) -> float:
        return raw_s * REF_PROBE_S / probe_s

    def lap(self) -> float:
        raw = time.perf_counter() - self._start
        p = self._run_probe()
        scaled = self.scale(raw, (self._probe + p) / 2)
        self._probe = p
        self.total += scaled
        self._start = time.perf_counter()
        return scaled
