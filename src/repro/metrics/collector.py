"""A lightweight counters + latency-series collector.

One :class:`Metrics` instance is shared by every component of a
cluster; experiment harnesses read it after ``env.run()`` to build the
rows of each reproduced figure.
"""

from __future__ import annotations

import math
import typing as _t
from collections import defaultdict


def percentile(data: _t.Iterable[float], q: float) -> float:
    """Nearest-rank percentile of ``data``, q in [0, 100]; nan if empty."""
    ordered = sorted(data)
    if not ordered:
        return math.nan
    if not (0 <= q <= 100):
        raise ValueError(f"percentile out of range: {q}")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


class Metrics:
    """Named counters and named series of float samples."""

    def __init__(self) -> None:
        self.counters: dict[str, int] = defaultdict(int)
        self.series: dict[str, list[float]] = defaultdict(list)

    # -- counters ----------------------------------------------------------
    def inc(self, name: str, n: int = 1) -> None:
        """Add ``n`` to a counter."""
        self.counters[name] += n

    def count(self, name: str) -> int:
        """Current value of a counter (0 if never bumped)."""
        return self.counters.get(name, 0)

    # -- samples -----------------------------------------------------------
    def record(self, name: str, value: float) -> None:
        """Append one sample to a named series."""
        self.series[name].append(float(value))

    def samples(self, name: str) -> list[float]:
        """The raw samples of a series ([] if absent)."""
        return self.series.get(name, [])

    def mean(self, name: str) -> float:
        """Mean of a series (NaN when empty)."""
        data = self.series.get(name)
        if not data:
            return math.nan
        return sum(data) / len(data)

    def total(self, name: str) -> float:
        """Sum of a series (0 when empty)."""
        return sum(self.series.get(name, ()))

    def percentile(self, name: str, q: float) -> float:
        """Nearest-rank percentile of a series, q in [0, 100]."""
        return percentile(self.series.get(name, ()), q)

    def summary(self, name: str) -> dict[str, float]:
        """n/mean/p50/p95/min/max of a series."""
        data = self.series.get(name, [])
        if not data:
            return {"n": 0, "mean": math.nan, "p50": math.nan,
                    "p95": math.nan, "min": math.nan, "max": math.nan}
        return {
            "n": len(data),
            "mean": self.mean(name),
            "p50": self.percentile(name, 50),
            "p95": self.percentile(name, 95),
            "min": min(data),
            "max": max(data),
        }

    def ratio(self, hit_counter: str, miss_counter: str) -> float:
        """hits / (hits + misses), 0.0 when no events."""
        hits = self.count(hit_counter)
        total = hits + self.count(miss_counter)
        return hits / total if total else 0.0

    def snapshot(self) -> dict[str, _t.Any]:
        """Plain-dict dump (counters + per-series summaries)."""
        return {
            "counters": dict(self.counters),
            "series": {k: self.summary(k) for k in self.series},
        }

    # -- service instrumentation -------------------------------------------
    def attach_bus(self, bus: _t.Any) -> _t.Callable[[], None]:
        """Mirror a service-runtime instrumentation bus into counters.

        Every :class:`~repro.svc.events.ServiceEvent` becomes a bump of
        ``svc.<service>.<kind>``.  Returns the detach callable; leave
        detached (the default) for counter-free hot paths.
        """

        def on_event(record: _t.Any) -> None:
            self.inc(f"svc.{record.service}.{record.kind}")

        return bus.subscribe(on_event)
