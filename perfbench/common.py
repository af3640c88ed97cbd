"""Statistics and host measurements shared by the benchmark workloads."""

from __future__ import annotations

import heapq
import math
import resource
import statistics
import sys
import time
from statistics import median
from typing import Dict, List, Sequence, Tuple

#: Candidate tail percentiles, highest first.  A tail is reported at the
#: highest one that still leaves at least ``TAIL_MIN_BEYOND`` samples
#: beyond it, so the tail is always backed by real observations.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in percent) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """``(value, percentile, n)`` at the highest percentile that has at
    least ``TAIL_MIN_BEYOND`` samples beyond it (the median if none)."""
    n = len(values)
    for q in TAIL_CANDIDATES:
        if n * (1.0 - q / 100.0) >= TAIL_MIN_BEYOND:
            return percentile(values, q), q, n
    return percentile(values, 50.0), 50.0, n


def slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of ``ys`` against ``xs``."""
    n = len(xs)
    if n < 2:
        return 0.0
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0:
        return 0.0
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def jain(shares: Sequence[float]) -> float:
    """Jain's fairness index: 1.0 is perfectly equal, 1/n is one hog."""
    values = [float(v) for v in shares]
    if not values or not any(values):
        return 0.0
    return sum(values) ** 2 / (len(values) * sum(v * v for v in values))


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB (10^6 B)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    scale = 1 if sys.platform == "darwin" else 1024
    return peak * scale / 1e6


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        v = float(values[0])
        return {"q1": v, "median": v, "q3": v}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": q2, "q3": q3}


def family_sum(registry, name: str) -> float:
    """Sum of one metric family's values across every label set."""
    total = 0.0
    for family, _kind, metrics in registry.families():
        if family == name:
            total += sum(float(m.value) for m in metrics)
    return total


def mismatches(a: Dict[str, float], b: Dict[str, float]) -> List[str]:
    """Keys whose values differ between two runs, in sorted order."""
    return [
        key for key in sorted(set(a) | set(b)) if a.get(key) != b.get(key)
    ]


#: Reference-loop duration that defines one normalized host second: the
#: loop's median on the 2-core host the baseline was recorded on.
REFERENCE_NOMINAL_S = 4.0e-3


def _steps(n: int):
    for i in range(n):
        yield i


def _reference_loop() -> int:
    """Fixed pure-Python work shaped like an event loop (timed entries
    through a heap, generator resumes) that never touches the program
    under test.  It tracks the program's speed on a shared host better
    than plain integer arithmetic does."""
    heap = []
    for i in range(3000):
        heapq.heappush(heap, ((i * 7919) % 1000, i))
    total = 0
    while heap:
        total += heapq.heappop(heap)[1]
    for i in _steps(3000):
        total += i
    return total


class SpeedProbe:
    """Tracks the host's speed while a round runs.

    A shared host's speed drifts by tens of percent over minutes: a fixed
    CPU loop alone varies that much between 20-second windows.  The probe
    times a fixed reference loop between operations (at most once per
    ``every_s`` host seconds, about 2% of the run) and yields the factor
    that rescales measured host seconds to the nominal reference speed.
    Probe time is kept in ``spent`` so callers can leave it out.
    """

    def __init__(self, every_s: float = 0.2):
        self.every_s = every_s
        self.samples: List[float] = []
        self.spent = 0.0
        self._last = time.perf_counter()

    def measure(self) -> None:
        start = time.perf_counter()
        _reference_loop()
        end = time.perf_counter()
        self.samples.append(end - start)
        self.spent += end - start
        self._last = end

    def maybe(self) -> None:
        if time.perf_counter() - self._last >= self.every_s:
            self.measure()

    def factor(self) -> float:
        """Nominal over measured reference time: below 1 on a slow host."""
        return REFERENCE_NOMINAL_S / median(self.samples)
