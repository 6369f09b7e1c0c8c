"""Named counters and simulated-time histograms for the whole stack.

The paper's evaluation is counter-driven — Table 1 and Figure 6 explain
X-FTL's win purely in page writes, copybacks, erases and fsyncs — so every
layer of the reproduction reports into one :class:`MetricsRegistry`.

Design rules:

- **One count per event, kept by the layer.**  A layer counts an event in
  an int field of a record of its own (``FlashStats``, ``DeviceCounters``,
  a pager's counts, ...) and binds it: ``registry.bind(record,
  {"flash.page_programs": "page_programs"})`` exports the attribute under
  the obs name, read when asked, so the hot path is one integer add.
  ``registry.counter(name)`` remains for callers outside the storage
  layers; it hands out a handle kept by the registry.  A layer rebuilt in place (ext4
  on a remount) binds its fresh record over the one it replaces.  A gauge
  kept by a layer binds the same way (``bind_gauge``: its current value
  and its high-water mark).
- **Free when disabled.**  Histograms and spans are attached by
  :mod:`repro.obs.instrument` only when the stack's obs handle is on, and
  counts are the layers' own int fields, so a metrics-off stack calls into
  no instrument at all.  A disabled registry still hands out shared null
  singletons whose ``inc``/``observe`` are no-ops to callers outside the
  stack's layers.
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


class Counter:
    """One monotonically increasing named counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}={self.value})"


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


class Gauge:
    """A current-value instrument (queue depth, pool occupancy).

    Tracks the latest value plus the high-water mark; unlike a counter it
    may go up and down.  ``set`` takes the absolute value, ``add`` moves it
    relatively (convenient for enter/exit style call sites).
    """

    __slots__ = ("name", "value", "max_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.max_value = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.max_value:
            self.max_value = value

    def add(self, delta: float) -> None:
        self.set(self.value + delta)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name}={self.value}, max={self.max_value})"


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


class _NullCounter:
    """Shared no-op counter handed out by disabled registries."""

    __slots__ = ()
    name = "<disabled>"
    value = 0

    def inc(self, n: int = 1) -> None:
        pass


class _NullHistogram:
    """Shared no-op histogram handed out by disabled registries."""

    __slots__ = ()
    name = "<disabled>"
    count = 0
    total = 0.0
    min = None
    max = None
    mean = 0.0

    def observe(self, value: float) -> None:
        pass

    def as_dict(self) -> dict:
        return {"count": 0, "total": 0.0, "min": None, "max": None, "mean": 0.0, "buckets": {}}


class _NullGauge:
    """Shared no-op gauge handed out by disabled registries."""

    __slots__ = ()
    name = "<disabled>"
    value = 0.0
    max_value = 0.0

    def set(self, value: float) -> None:
        pass

    def add(self, delta: float) -> None:
        pass


NULL_COUNTER = _NullCounter()
NULL_HISTOGRAM = _NullHistogram()
NULL_GAUGE = _NullGauge()


class MetricsRegistry:
    """Registry of named counters and histograms for one simulated machine.

    When ``enabled`` is false every acquisition returns a shared null
    instrument and every bind is ignored.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._counters: dict[str, Counter] = {}
        # Bound counters: name -> (record, attribute), read when asked.
        self._bound: dict[str, tuple[object, str]] = {}
        self._histograms: dict[str, Histogram] = {}
        self._gauges: dict[str, Gauge] = {}
        # Bound gauges: name -> (record, value attribute, high-water attribute).
        self._bound_gauges: dict[str, tuple[object, str, str]] = {}

    # ------------------------------------------------------------ acquire

    def counter(self, name: str) -> Counter:
        """Get-or-create the counter called ``name``."""
        if not self.enabled:
            return NULL_COUNTER  # type: ignore[return-value]
        counter = self._counters.get(name)
        if counter is None:
            if name in self._bound:
                raise ValueError(f"counter {name!r} is bound to a layer's record")
            counter = self._counters[name] = Counter(name)
        return counter

    def bind(self, record: object, names: dict[str, str]) -> None:
        """Export ``record``'s counts: ``names`` maps obs name -> attribute.

        The record stays the only store; every query reads the attribute.
        A name already bound to a record of the same class is re-pointed:
        the new record replaces the old one (a remounted layer replaces the
        layer before it).  A name held by a plain counter or by a record of
        another class raises.  A disabled registry ignores the call (the
        shared ``NULL_OBS`` must not keep every record ever built alive).
        """
        if not self.enabled:
            return
        for name, attribute in names.items():
            held = self._bound.get(name)
            if name in self._counters or (held is not None and type(held[0]) is not type(record)):
                raise ValueError(f"counter {name!r} already exists")
            self._bound[name] = (record, attribute)

    def bind_gauge(self, record: object, name: str, value: str, peak: str) -> None:
        """Export a gauge ``record`` keeps: ``value`` and ``peak`` name the
        attributes holding its current value and its high-water mark.

        The same rule as :meth:`bind`: a record of the same class replaces
        the one bound before, any other holder of the name raises, and a
        disabled registry ignores the call.
        """
        if not self.enabled:
            return
        held = self._bound_gauges.get(name)
        if name in self._gauges or (held is not None and type(held[0]) is not type(record)):
            raise ValueError(f"gauge {name!r} already exists")
        self._bound_gauges[name] = (record, value, peak)

    def histogram(
        self, name: str, bounds: tuple[float, ...] = DEFAULT_LATENCY_BOUNDS_US
    ) -> Histogram:
        """Get-or-create the histogram called ``name``."""
        if not self.enabled:
            return NULL_HISTOGRAM  # type: ignore[return-value]
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(name, bounds)
        return histogram

    def gauge(self, name: str) -> Gauge:
        """Get-or-create the gauge called ``name``; a bound one is a
        read-only view of its record."""
        if not self.enabled:
            return NULL_GAUGE  # type: ignore[return-value]
        bound = self._bound_gauges.get(name)
        if bound is not None:
            return BoundGauge(name, *bound)  # type: ignore[return-value]
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name)
        return gauge

    # ------------------------------------------------------------- query

    def counter_value(self, name: str) -> int:
        """Current value of a counter, plain or bound (0 if neither)."""
        counter = self._counters.get(name)
        if counter is not None:
            return counter.value
        bound = self._bound.get(name)
        return getattr(*bound) if bound is not None else 0

    def counters(self) -> dict[str, int]:
        """All counter values, plain and bound, sorted by name."""
        names = sorted(self._counters.keys() | self._bound.keys())
        return {name: self.counter_value(name) for name in names}

    def histograms(self) -> dict[str, Histogram]:
        return {name: self._histograms[name] for name in sorted(self._histograms)}

    def gauges(self) -> dict[str, Gauge]:
        """All gauges, plain and bound, sorted by name."""
        out: dict[str, Gauge | BoundGauge] = dict(self._gauges)
        for name, bound in self._bound_gauges.items():
            out[name] = BoundGauge(name, *bound)
        return {name: out[name] for name in sorted(out)}  # type: ignore[misc]

    def layers(self) -> list[str]:
        """Layer prefixes (text before the first dot) present in the registry."""
        seen: dict[str, None] = {}
        names = self._counters.keys() | self._bound.keys() | self._bound_gauges.keys()
        for name in sorted(names | self._histograms.keys() | self._gauges.keys()):
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
        """Fold other registries' instruments into this one (sweep summaries)."""
        for other in others:
            for name, value in other.counters().items():
                self.counter(name).inc(value)
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
                mine_gauge = self.gauge(name)
                mine_gauge.set(max(mine_gauge.max_value, gauge.max_value))
                mine_gauge.value = gauge.value
        return self
