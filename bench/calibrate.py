"""A calibration loop that measures how fast the host runs at the moment.

On a shared host the same code runs at two speeds: a fixed Python loop
takes about 7 ms or about 12 ms on either vCPU of the reference machine,
switching every few seconds and staying slow for up to tens of seconds.
A 30 s run can land mostly in one state, so raw medians of interpreted
workloads differ by up to 1.5x between runs.  For those workloads the
benchmark times this loop between rounds and scales each round's time by
``NOMINAL_S / measured``, which reports the round at the loop's nominal
speed.  The slow state hits numpy array code much less, and scaling an
array-bound workload by this loop made its figures less steady, so such
a workload is reported unscaled.  Raw times are printed alongside.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

NOMINAL_S = 0.010
"""Reference time of one loop.  Scaled figures are what a round would
take on a host where the loop runs in this time; on the reference
machine the loop took between about 7 and 11 ms."""


@dataclass(frozen=True)
class _Point:
    x: float
    y: float


def _step(p: _Point) -> float:
    return math.log2(p.x + 1.0) * math.sqrt(p.y) - p.x / (p.y + 1.0)


def _loop() -> float:
    """Scalar code shaped like the package's rate formulas: small calls,
    float math and frozen-dataclass fields."""
    total = 0.0
    for i in range(1, 8000):
        total += _step(_Point(i * 1e-3, 2.0))
    return total


def scale(repeats: int = 3) -> float:
    """NOMINAL_S / measured time of the loop, the mean of ``repeats`` runs:
    below 1 while the host runs slower than nominal."""
    start = time.perf_counter()
    for _ in range(repeats):
        _loop()
    return NOMINAL_S * repeats / (time.perf_counter() - start)
