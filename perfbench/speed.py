"""Machine-speed probe that puts times from a shared machine on one scale.

On a shared VM the same work runs up to ~35% faster or slower for tens of
seconds at a time. A one-minute run cannot average those phases out. So
the benchmark times a fixed piece of its own work at a steady cadence
between documents. The work mixes exact fractions, dict updates, float
Horner loops and small numpy arrays, as jacmate does. Times are then
reported in nominal seconds:

    nominal = wall * NOMINAL_S / (mean probe time over the same window)

The probe shares no code with jacmate, so a change to jacmate moves only the
wall time. Garbage collection is off during the probe, so the size of the
program's heap does not leak into it.
"""

from __future__ import annotations

import gc
import statistics
from fractions import Fraction
from time import perf_counter

import numpy as np

NOMINAL_S = 0.027  # probe time on the machine the benchmark was tuned on, in a calm phase


def probe_work() -> float:
    total = Fraction(0)
    for i in range(1, 5000):
        total += Fraction(i % 7 + 1, i % 11 + 1)
    counts: dict[int, float] = {}
    for i in range(30000):
        counts[i % 97] = counts.get(i % 97, 0.0) + i * 1.5
    horner = 0.0
    coeffs = (3.0, -1.5, 0.25, 2.0, -0.75, 1.0)
    for i in range(6000):
        x = i * 1e-3
        v = 0.0
        for c in coeffs:
            v = v * x + c
        horner += v
    a = np.linspace(-1.0, 1.0, 200)
    acc = 0.0
    for _ in range(30):
        acc += float((a[:, None] ** 3 + a[None, :] * 2.0).sum())
    return float(total) + sum(counts.values()) + horner + acc


class SpeedProbe:
    """Probe samples taken at least ``every_s`` apart, and their averages."""

    def __init__(self, every_s: float):
        self.every_s = every_s
        self.samples: list[float] = []
        self._last = float("-inf")

    def take(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            probe_work()
            self.samples.append(perf_counter() - start)
        finally:
            if enabled:
                gc.enable()
        self._last = perf_counter()

    def take_if_due(self) -> None:
        if perf_counter() - self._last >= self.every_s:
            self.take()

    def factor(self, since: int = 0) -> float:
        """Mean probe time of the samples from index ``since`` on, over NOMINAL_S."""
        return statistics.fmean(self.samples[since:]) / NOMINAL_S
