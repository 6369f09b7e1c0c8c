"""Named counters and simulated-time histograms for the whole stack.

The paper's evaluation is counter-driven — Table 1 and Figure 6 explain
X-FTL's win purely in page writes, copybacks, erases and fsyncs — so every
layer of the reproduction reports into one :class:`MetricsRegistry`.

Design rules:

- **One count per event, kept by the layer.**  A layer counts an event in
  an int field of a record of its own (``FlashStats``, ``DeviceCounters``,
  a queue's, pager's or session's counts, ...) and binds it:
  ``registry.bind(record, {"flash.page_programs": "page_programs"})``
  exports the attribute under the obs name, read when asked, so the hot
  path is one integer add.  A layer rebuilt in place (ext4 on a remount)
  binds its fresh record over the one it replaces.  A gauge kept by a
  layer binds the same way (``bind_gauge``: its current value and its
  high-water mark), and so does a histogram a layer keeps whatever the
  metrics setting (``bind_histogram``: a tenant's commit latencies).
- **A bound record holds counts only.**  No layer, no obs handle, no
  payload: the registry of a finished session (a hub keeps every one)
  keeps numbers alive, never a machine, and a dropped stack is freed by
  refcounting alone.
- **Free when disabled.**  Histograms and spans are attached by
  :mod:`repro.obs.instrument` only when the stack's obs handle is on, and
  counts are the layers' own int fields, so once built a metrics-off
  stack runs no code of :mod:`repro.obs` (a tenant's latency histogram
  aside); a disabled registry binds nothing.
- **Deterministic exports.**  All values derive from counters and the
  simulated clock, never wall time, so two same-seed runs dump identical
  metrics.

Metric names are dot-separated with the owning layer as the first segment
(``flash.``, ``ftl.``, ``fs.``, ``dev.``, ``sqlite.``); reports group on
that prefix.
"""

from __future__ import annotations

from typing import Iterable

# Histogram bucket upper bounds in simulated microseconds.  Covers the
# sub-microsecond syscall range up to multi-second workload phases; the
# final bucket is unbounded.
DEFAULT_LATENCY_BOUNDS_US: tuple[float, ...] = (
    10.0, 50.0, 100.0, 250.0, 500.0,
    1_000.0, 2_500.0, 5_000.0, 10_000.0, 50_000.0,
    100_000.0, 1_000_000.0, 10_000_000.0,
)

# Unitless bucket bounds for size/count distributions (flush sizes, GC
# victim validity, journal frame pages, ...).
DEFAULT_SIZE_BOUNDS: tuple[float, ...] = (
    0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 1024.0,
)


class Histogram:
    """Fixed-bucket histogram of simulated-time durations (or sizes).

    Buckets are cumulative-free: ``counts[i]`` holds observations with
    ``value <= bounds[i]`` (and greater than the previous bound); the last
    slot is the overflow bucket.  Min/max/sum are tracked exactly.
    """

    __slots__ = ("name", "bounds", "counts", "count", "total", "min", "max")

    def __init__(self, name: str, bounds: tuple[float, ...] = DEFAULT_LATENCY_BOUNDS_US) -> None:
        self.name = name
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[index] += 1
                return
        self.counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "buckets": {
                **{f"le_{bound:g}": n for bound, n in zip(self.bounds, self.counts)},
                "overflow": self.counts[-1],
            },
        }


class BoundGauge:
    """A gauge a layer keeps in a record of its own (``bind_gauge``), read
    live: ``value`` and ``max_value`` read the record's attributes."""

    __slots__ = ("name", "_record", "_value", "_peak")

    def __init__(self, name: str, record: object, value: str, peak: str) -> None:
        self.name = name
        self._record = record
        self._value = value
        self._peak = peak

    @property
    def value(self) -> float:
        return float(getattr(self._record, self._value))

    @property
    def max_value(self) -> float:
        return float(getattr(self._record, self._peak))


class _MergedGauge:
    """What :meth:`MetricsRegistry.merge_from` folded in for one gauge."""

    __slots__ = ("value", "max_value")

    def __init__(self) -> None:
        self.value = 0.0
        self.max_value = 0.0


class MetricsRegistry:
    """The counts, histograms and gauges of one simulated machine, by name.

    A disabled registry binds nothing.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        # Bound counts: name -> (record, attribute), read when asked.
        self._bound: dict[str, tuple[object, str]] = {}
        # What merge_from summed: name -> value.
        self._sums: dict[str, int] = {}
        self._histograms: dict[str, Histogram] = {}
        # Bound gauges: name -> (record, value attribute, high-water attribute).
        self._bound_gauges: dict[str, tuple[object, str, str]] = {}

    # --------------------------------------------------------------- bind

    def bind(self, record: object, names: dict[str, str]) -> None:
        """Export ``record``'s counts: ``names`` maps obs name -> attribute.

        The record stays the only store; every query reads the attribute.
        A name already bound to a record of the same class is re-pointed:
        the new record replaces the old one (a remounted layer replaces the
        layer before it).  A name bound to a record of another class
        raises.  A disabled registry ignores the call (the shared
        ``NULL_OBS`` must not keep every record ever built alive).
        """
        if not self.enabled:
            return
        for name, attribute in names.items():
            held = self._bound.get(name)
            if held is not None and type(held[0]) is not type(record):
                raise ValueError(f"counter {name!r} already exists")
            self._bound[name] = (record, attribute)

    def bind_gauge(self, record: object, name: str, value: str, peak: str) -> None:
        """Export a gauge ``record`` keeps: ``value`` and ``peak`` name the
        attributes holding its current value and its high-water mark.

        The same rule as :meth:`bind`: a record of the same class replaces
        the one bound before, a record of another class raises, and a
        disabled registry ignores the call.
        """
        if not self.enabled:
            return
        held = self._bound_gauges.get(name)
        if held is not None and type(held[0]) is not type(record):
            raise ValueError(f"gauge {name!r} already exists")
        self._bound_gauges[name] = (record, value, peak)

    def bind_histogram(self, histogram: Histogram) -> None:
        """Export a histogram a layer keeps, under its own name; a disabled
        registry ignores the call."""
        if self.enabled:
            self._histograms[histogram.name] = histogram

    def histogram(
        self, name: str, bounds: tuple[float, ...] = DEFAULT_LATENCY_BOUNDS_US
    ) -> Histogram:
        """Get-or-create the histogram called ``name``."""
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(name, bounds)
        return histogram

    def gauge(self, name: str) -> BoundGauge:
        """A live, read-only view of the gauge bound as ``name``."""
        return BoundGauge(name, *self._bound_gauges[name])

    # ------------------------------------------------------------- query

    def counter_value(self, name: str) -> int:
        """Current value of a count, bound or merged (0 if neither)."""
        bound = self._bound.get(name)
        return getattr(*bound) if bound is not None else self._sums.get(name, 0)

    def counters(self) -> dict[str, int]:
        """All count values, sorted by name."""
        names = sorted(self._sums.keys() | self._bound.keys())
        return {name: self.counter_value(name) for name in names}

    def histograms(self) -> dict[str, Histogram]:
        return {name: self._histograms[name] for name in sorted(self._histograms)}

    def gauges(self) -> dict[str, BoundGauge]:
        """All gauges, sorted by name."""
        return {name: self.gauge(name) for name in sorted(self._bound_gauges)}

    def layers(self) -> list[str]:
        """Layer prefixes (text before the first dot) present in the registry."""
        seen: dict[str, None] = {}
        names = self._sums.keys() | self._bound.keys() | self._bound_gauges.keys()
        for name in sorted(names | self._histograms.keys()):
            seen.setdefault(name.split(".", 1)[0], None)
        return list(seen)

    def counters_of_layer(self, layer: str) -> dict[str, int]:
        prefix = layer + "."
        return {
            name: value for name, value in self.counters().items() if name.startswith(prefix)
        }

    # ------------------------------------------------------------- export

    def as_dict(self) -> dict:
        return {
            "counters": self.counters(),
            "histograms": {
                name: histogram.as_dict() for name, histogram in self.histograms().items()
            },
            "gauges": {
                name: {"value": gauge.value, "max": gauge.max_value}
                for name, gauge in self.gauges().items()
            },
        }

    def to_csv(self) -> str:
        """Flat ``kind,name,field,value`` rows — trivially diffable/joinable."""
        lines = ["kind,name,field,value"]
        for name, value in self.counters().items():
            lines.append(f"counter,{name},value,{value}")
        for name, histogram in self.histograms().items():
            lines.append(f"histogram,{name},count,{histogram.count}")
            lines.append(f"histogram,{name},total,{histogram.total:g}")
            lines.append(f"histogram,{name},mean,{histogram.mean:g}")
        for name, gauge in self.gauges().items():
            lines.append(f"gauge,{name},value,{gauge.value:g}")
            lines.append(f"gauge,{name},max,{gauge.max_value:g}")
        return "\n".join(lines) + "\n"

    def report(self, title: str = "metrics") -> str:
        """Human-readable per-layer report."""
        lines = [f"{title}:"]
        for layer in self.layers():
            lines.append(f"  [{layer}]")
            for name, value in self.counters_of_layer(layer).items():
                lines.append(f"    {name:<34s} {value:>12d}")
            for name, histogram in self.histograms().items():
                if not name.startswith(layer + "."):
                    continue
                lines.append(
                    f"    {name:<34s} {histogram.count:>12d} obs"
                    f"  mean {histogram.mean:.1f}  max {histogram.max or 0:.1f}"
                )
            for name, gauge in self.gauges().items():
                if not name.startswith(layer + "."):
                    continue
                lines.append(
                    f"    {name:<34s} {gauge.value:>12g}"
                    f"  max {gauge.max_value:g}"
                )
        if len(lines) == 1:
            lines.append("  (no metrics recorded)")
        return "\n".join(lines)

    # -------------------------------------------------------------- merge

    def merge_from(self, others: "Iterable[MetricsRegistry]") -> "MetricsRegistry":
        """Fold other registries into this one (sweep summaries): counts
        add up, histograms pool, a gauge keeps the highest high-water mark
        and the last value."""
        for other in others:
            for name, value in other.counters().items():
                self._sums[name] = self._sums.get(name, 0) + value
            for name, histogram in other.histograms().items():
                mine = self.histogram(name, histogram.bounds)
                if mine.bounds == histogram.bounds:
                    for index, n in enumerate(histogram.counts):
                        mine.counts[index] += n
                mine.count += histogram.count
                mine.total += histogram.total
                if histogram.min is not None and (mine.min is None or histogram.min < mine.min):
                    mine.min = histogram.min
                if histogram.max is not None and (mine.max is None or histogram.max > mine.max):
                    mine.max = histogram.max
            for name, gauge in other.gauges().items():
                held = self._bound_gauges.get(name)
                if held is None:
                    held = self._bound_gauges[name] = (_MergedGauge(), "value", "max_value")
                merged = held[0]
                merged.max_value = max(merged.max_value, gauge.max_value)
                merged.value = gauge.value
        return self
