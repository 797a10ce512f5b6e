"""Small measurement helpers: percentiles, peak memory, op tallies."""

from __future__ import annotations

import resource
import sys
import threading
from typing import Dict, List, Sequence


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linearly interpolated percentile (``fraction`` in [0, 1]); 0 if empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 0.5)


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes
    return peak / (1024.0 * 1024.0) if sys.platform == "darwin" else peak / 1024.0


class Tally:
    """Thread-safe record of one timed phase: per-kind latencies and failures.

    ``latency`` holds every user-visible operation; ``extra`` holds samples
    that are not operations of their own (a churn step's ingest call and
    freshness).  ``failures`` lists one line per failed or wrong operation
    or reference check; ``attempted`` counts both.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.latency: Dict[str, List[float]] = {}
        self.extra: Dict[str, List[float]] = {}
        self.failures: List[str] = []
        self.attempted = 0

    def op(self, kind: str, ms: float) -> None:
        with self._lock:
            self.attempted += 1
            self.latency.setdefault(kind, []).append(ms)

    def sample(self, name: str, ms: float) -> None:
        with self._lock:
            self.extra.setdefault(name, []).append(ms)

    def fail(self, message: str) -> None:
        with self._lock:
            self.failures.append(message)

    def crashed(self, message: str) -> None:
        """An operation that raised: attempted, failed, and never timed."""
        with self._lock:
            self.attempted += 1
            self.failures.append(message)

    def check(self, label: str, ok: bool) -> None:
        """A verification query: attempted, and failed unless *ok*."""
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failures.append(
                    f"{label}: answer differs from the serial uncached reference")

    def all_latencies(self) -> List[float]:
        with self._lock:
            return [ms for samples in self.latency.values() for ms in samples]

    def p50(self, name: str) -> float:
        """Median of one op kind's latencies, or of a derived sample."""
        with self._lock:
            return median(self.latency.get(name) or self.extra.get(name, []))
