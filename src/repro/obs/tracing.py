"""Cross-layer span tracing on the simulated clock.

Spans nest across layers: one SQLite ``COMMIT`` span contains the pager's
page writes, the ext4 fsync, the device commands it issued, and the NAND
programs those turned into — all correlated by span id and timestamped on
the shared :class:`SimClock`.

The simulation is single-threaded, so span context is a simple stack: a
span opened while another is active becomes its child.  Which spans the
stack records is the instrumentation table's business
(:mod:`repro.obs.instrument`), which asks a tracer for spans only when it
is enabled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator


@dataclass
class Span:
    """One traced operation: an interval on the simulated clock."""

    span_id: int
    parent_id: int | None
    name: str
    layer: str
    start_us: float
    end_us: float | None = None
    lpn: int | None = None
    tid: int | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration_us(self) -> float:
        return (self.end_us or self.start_us) - self.start_us

    def as_dict(self) -> dict:
        out: dict[str, Any] = {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "layer": self.layer,
            "start_us": self.start_us,
            "end_us": self.end_us,
            "duration_us": self.duration_us,
        }
        if self.lpn is not None:
            out["lpn"] = self.lpn
        if self.tid is not None:
            out["tid"] = self.tid
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        return out

    def __str__(self) -> str:
        lpn = "" if self.lpn is None else f" lpn={self.lpn}"
        tid = "" if self.tid is None else f" tid={self.tid}"
        return (
            f"[{self.start_us / 1000.0:10.3f} ms] {self.layer}/{self.name}"
            f"{lpn}{tid} ({self.duration_us:.0f} us)"
        )


class _SpanHandle:
    """Context manager closing one live span."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer._finish(self.span)


class Tracer:
    """Span recorder over one simulated machine's clock.

    ``capacity`` bounds memory on long runs: once reached, further spans
    are counted in :attr:`dropped` instead of stored (open/close still
    maintains the context stack so nesting stays correct).
    """

    def __init__(self, enabled: bool = True, capacity: int | None = 200_000) -> None:
        self.enabled = enabled
        self.capacity = capacity
        self.spans: list[Span] = []
        self.dropped = 0
        self._clock = None
        self._next_id = 1
        self._stack: list[Span] = []

    def bind_clock(self, clock) -> None:
        """Attach the stack's simulated clock (first binding wins)."""
        if self._clock is None:
            self._clock = clock

    # ------------------------------------------------------------ recording

    def span(self, name: str, layer: str, lpn: int | None = None, tid: int | None = None):
        """Open a span; use as ``with tracer.span(...):``.

        The storage layers never call this themselves: every span the stack
        records is a row of :data:`repro.obs.instrument.INSTRUMENTS`, the
        one place that lists what is recorded, attached only to the layers
        of a handle whose tracer is on, so a disabled tracer is never
        asked.  Rich attributes can be added on the returned span object.
        """
        now = self._clock.now_us if self._clock is not None else 0.0
        span = Span(
            span_id=self._next_id,
            parent_id=self._stack[-1].span_id if self._stack else None,
            name=name,
            layer=layer,
            start_us=now,
            lpn=lpn,
            tid=tid,
        )
        self._next_id += 1
        self._stack.append(span)
        return _SpanHandle(self, span)

    def _finish(self, span: Span) -> None:
        span.end_us = self._clock.now_us if self._clock is not None else span.start_us
        # Out-of-order exits cannot happen in the single-threaded sim, but
        # be defensive: pop up to and including this span.
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
        if self.capacity is not None and len(self.spans) >= self.capacity:
            self.dropped += 1
            return
        self.spans.append(span)

    # --------------------------------------------------------------- query

    def __len__(self) -> int:
        return len(self.spans)

    def find(self, name: str) -> list[Span]:
        """All finished spans called ``name``, in completion order."""
        return [span for span in self.spans if span.name == name]

    def children_of(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    def roots(self) -> list[Span]:
        finished_ids = {span.span_id for span in self.spans}
        return [
            span
            for span in self.spans
            if span.parent_id is None or span.parent_id not in finished_ids
        ]

    # -------------------------------------------------------------- export

    def as_dicts(self) -> list[dict]:
        return [span.as_dict() for span in self.spans]

    def render_tree(self, max_spans: int | None = None) -> str:
        """Indented text rendering of the span forest, in start order."""
        lines: list[str] = []
        count = 0

        def walk(span: Span, depth: int) -> None:
            nonlocal count
            if max_spans is not None and count >= max_spans:
                return
            count += 1
            lines.append("  " * depth + str(span))
            for child in sorted(self.children_of(span), key=lambda s: (s.start_us, s.span_id)):
                walk(child, depth + 1)

        for root in sorted(self.roots(), key=lambda s: (s.start_us, s.span_id)):
            walk(root, 0)
        if self.dropped:
            lines.append(f"({self.dropped} spans dropped: capacity reached)")
        if max_spans is not None and count >= max_spans:
            lines.append(f"(rendering truncated at {max_spans} spans)")
        return "\n".join(lines)

    def __iter__(self) -> Iterator[Span]:
        return iter(self.spans)
