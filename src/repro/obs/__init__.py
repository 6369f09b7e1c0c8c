"""``repro.obs`` — stack-wide observability: metrics, spans, exports.

One :class:`Observability` handle travels with a simulated stack (it lives
on the :class:`~repro.flash.chip.FlashChip`, like the clock and the crash
plan, and every higher layer picks it up from the layer below).  It bundles:

- :class:`~repro.obs.registry.MetricsRegistry` — counts, histograms and
  gauges by name (``flash.page_programs``, ``fs.cache.hits``,
  ``sqlite.commit.latency_us``, ...),
- :class:`~repro.obs.tracing.Tracer` — cross-layer spans, so one SQLite
  ``COMMIT`` nests the pager writes, the ext4 fsync, the device commands
  and the NAND programs it caused.

Instrumentation is a table, :data:`repro.obs.instrument.INSTRUMENTS`: the
one place that lists what is recorded — each row names a class, a method
and the span, latency histogram or value histogram to record around it.
Each instrumented layer's constructor calls :meth:`Observability.instrument`,
which attaches the rows to that instance only when the handle is enabled;
a disabled handle (the default — see :data:`NULL_OBS`) attaches nothing,
so a metrics-off stack runs no observability code at all.  Counts are
never instruments: a layer keeps each event's count in an int field of a
record of its own (``FlashStats``, ``DeviceCounters``, a queue's, pager's,
session's or tenant's counts) and binds that record to the registry, which
reads it by name when asked.  A bound record holds counts only — no layer,
no obs handle, no payload — so a hub that keeps every session's registry
keeps no machine alive.  Records that several instances of one layer count
into (every pager and connection of a stack) are :meth:`Observability.shared`.

Usage::

    import repro

    stack = repro.open_stack("X-FTL", metrics=True)
    ...  # run a workload
    print(stack.obs.report())
    print(stack.obs.tracer.render_tree(max_spans=40))
"""

from __future__ import annotations

from typing import Any

from repro.obs.registry import (
    DEFAULT_LATENCY_BOUNDS_US,
    DEFAULT_SIZE_BOUNDS,
    Histogram,
    MetricsRegistry,
)
from repro.obs.instrument import install
from repro.obs.tracing import Span, Tracer

__all__ = [
    "DEFAULT_LATENCY_BOUNDS_US",
    "DEFAULT_SIZE_BOUNDS",
    "Histogram",
    "MetricsRegistry",
    "NULL_OBS",
    "Observability",
    "ObservabilityHub",
    "Span",
    "Tracer",
    "default_hub",
    "install_default_hub",
    "uninstall_default_hub",
]

class Observability:
    """Metrics + tracing for one simulated stack.

    ``enabled`` gates the registry; ``trace`` additionally records spans
    (span recording costs memory proportional to the workload, so it is a
    separate opt-in).  ``label`` names the session in reports — benchmark
    sweeps label each stack with its :class:`~repro.stack.Mode`.
    """

    def __init__(
        self,
        enabled: bool = True,
        trace: bool = False,
        label: str = "stack",
    ) -> None:
        self.enabled = enabled
        self.label = label
        self.registry = MetricsRegistry(enabled=enabled)
        self.tracer = Tracer(enabled=enabled and trace)
        self.meta: dict[str, Any] = {}
        self._shared: dict[type, Any] = {}

    # ------------------------------------------------------------- plumbing

    def bind_clock(self, clock) -> None:
        self.tracer.bind_clock(clock)

    def annotate(self, key: str, value: Any) -> None:
        """Attach session metadata (journal mode, geometry, seed, ...)."""
        if self.enabled:
            self.meta[key] = value

    # ----------------------------------------------------------- layers

    def instrument(self, obj: Any, clock=None) -> None:
        """Attach the instrumentation table's rows for ``obj``'s class to
        ``obj`` (latencies read ``clock``); nothing when disabled."""
        if self.enabled:
            install(obj, self, clock)

    def shared(self, record_type: type) -> Any:
        """The one ``record_type()`` every instance of a layer counts into.

        Enabled, the first call builds it and binds its ``OBS_NAMES``; later
        calls return it, so counts add up across the instances (and the
        remounts) of this stack.  Disabled, each call gets a fresh record
        nothing reads.
        """
        if not self.enabled:
            return record_type()
        record = self._shared.get(record_type)
        if record is None:
            record = self._shared[record_type] = record_type()
            self.registry.bind(record, record_type.OBS_NAMES)
        return record

    # -------------------------------------------------------------- export

    def as_dict(self) -> dict:
        out = {"label": self.label, "meta": dict(self.meta), **self.registry.as_dict()}
        if self.tracer.enabled:
            out["spans"] = self.tracer.as_dicts()
        return out

    def report(self) -> str:
        lines = [self.registry.report(title=f"metrics [{self.label}]")]
        if self.meta:
            lines.append("  meta: " + ", ".join(f"{k}={v}" for k, v in sorted(self.meta.items())))
        return "\n".join(lines)


#: Shared disabled handle — the default for every stack.  It instruments
#: nothing and binds nothing.
NULL_OBS = Observability(enabled=False, label="<disabled>")


class ObservabilityHub:
    """Collects one :class:`Observability` session per built stack.

    Benchmark sweeps build several stacks (one per mode); installing a hub
    before the sweep makes ``build_stack`` route each stack to its own
    labeled session, so per-mode metrics stay separate::

        hub = install_default_hub(trace=False)
        try:
            run_experiment(...)          # builds stacks internally
        finally:
            uninstall_default_hub()
        for session in hub.sessions:
            print(session.report())
    """

    def __init__(self, trace: bool = False) -> None:
        self.trace = trace
        self.sessions: list[Observability] = []

    def session(self, label: str) -> Observability:
        obs = Observability(enabled=True, trace=self.trace, label=label)
        self.sessions.append(obs)
        return obs

    def merged_registry(self) -> MetricsRegistry:
        return MetricsRegistry(enabled=True).merge_from(s.registry for s in self.sessions)


_default_hub: ObservabilityHub | None = None


def default_hub() -> ObservabilityHub | None:
    """The installed hub, if any — consulted by ``build_stack``."""
    return _default_hub


def install_default_hub(trace: bool = False) -> ObservabilityHub:
    """Install (and return) a hub that captures every stack built after it."""
    global _default_hub
    _default_hub = ObservabilityHub(trace=trace)
    return _default_hub


def uninstall_default_hub() -> None:
    global _default_hub
    _default_hub = None
