"""Labelled metric instruments: counters, gauges, histograms.

A :class:`MetricsRegistry` owns every series.  A *series* is one
instrument identified by ``(name, labels)``; asking for the same pair
twice returns the same object, so hot paths can resolve an instrument
once (one dict lookup) and then call ``inc``/``set``/``observe`` — a
plain attribute update — per event.

Instruments are deliberately dependency-free and in-process only; the
exporters in :mod:`repro.obs.export` turn a registry into JSONL rows.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator

#: Power-of-two-ish buckets suit most machine quantities the simulators
#: record (stall lengths, issue widths, wall milliseconds).
DEFAULT_BUCKETS: tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024,
)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """A last-value-wins measurement."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """A bucketed distribution with count/sum/min/max.

    ``bucket_counts[i]`` counts observations ``<= bounds[i]``; the final
    slot counts overflows (observations above every bound).
    """

    __slots__ = ("bounds", "bucket_counts", "count", "sum", "min", "max")

    def __init__(self, bounds: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self.bounds = tuple(bounds)
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float, times: int = 1) -> None:
        """Record ``value``, ``times`` times over."""
        self.bucket_counts[bisect_left(self.bounds, value)] += times
        self.count += times
        self.sum += value * times
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


@dataclass(frozen=True)
class MetricSeries:
    """One (name, labels) series and its instrument, for export/report."""

    name: str
    kind: str                    # "counter" | "gauge" | "histogram"
    labels: dict
    instrument: object

    def snapshot(self) -> dict:
        """JSON-serialisable row describing the series' current value."""
        row: dict = {"name": self.name, "kind": self.kind,
                     "labels": dict(self.labels)}
        inst = self.instrument
        if self.kind == "histogram":
            assert isinstance(inst, Histogram)
            row.update(
                count=inst.count, sum=inst.sum, min=inst.min, max=inst.max,
                bounds=list(inst.bounds), bucket_counts=list(inst.bucket_counts),
            )
        else:
            row["value"] = inst.value  # type: ignore[attr-defined]
        return row


class MetricsRegistry:
    """Owns every metric series recorded through one recorder."""

    def __init__(self) -> None:
        self._series: dict[tuple, MetricSeries] = {}

    # ------------------------------------------------------------------

    def _get(self, kind: str, cls, name: str, labels: dict, **ctor):
        key = (name, tuple(sorted(labels.items())))
        series = self._series.get(key)
        if series is None:
            series = MetricSeries(name, kind, dict(labels), cls(**ctor))
            self._series[key] = series
        elif series.kind != kind:
            raise TypeError(
                f"metric {name!r} already registered as {series.kind}, "
                f"requested as {kind}"
            )
        return series.instrument

    def counter(self, name: str, **labels) -> Counter:
        return self._get("counter", Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get("gauge", Gauge, name, labels)

    def histogram(
        self, name: str, bounds: tuple[float, ...] | None = None, **labels
    ) -> Histogram:
        ctor = {"bounds": bounds} if bounds is not None else {}
        return self._get("histogram", Histogram, name, labels, **ctor)

    # ------------------------------------------------------------------

    def series(self) -> Iterator[MetricSeries]:
        """Every series, in registration order."""
        return iter(self._series.values())

    def snapshot(self) -> list[dict]:
        """JSON-serialisable rows for every series (one per
        :meth:`MetricSeries.snapshot`), in registration order — the
        payload behind the serve ``stats`` endpoint."""
        return [series.snapshot() for series in self._series.values()]

    def value(self, name: str, **labels):
        """Current value of a series, or None (test/report convenience)."""
        key = (name, tuple(sorted(labels.items())))
        series = self._series.get(key)
        if series is None:
            return None
        if series.kind == "histogram":
            return series.instrument
        return series.instrument.value  # type: ignore[attr-defined]

    def total(self, prefix: str) -> float:
        """Sum over every counter/gauge whose name extends ``prefix``."""
        return sum(
            s.instrument.value  # type: ignore[attr-defined]
            for s in self._series.values()
            if s.kind != "histogram"
            and (s.name == prefix or s.name.startswith(prefix + "."))
        )

    def __len__(self) -> int:
        return len(self._series)
