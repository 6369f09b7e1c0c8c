"""Outside-in tracer: timing wrappers around each layer's public entry points.

The wrappers are installed from here, at class level, around the calls
*into* each layer; nothing inside ``src/repro`` knows about them.  Each call
is a span (layer, function, start, end, parent = the enclosing span, op id
shared by all spans of one op) on a plain stack; a span's *self time* is its
duration minus the time its child spans cover.  ``flash.program`` alone runs
about a hundred times per op on ``update_rbj``, so spans are aggregated in
memory per layer x function (calls, total, self) and full span trees are kept
only for every ``sample_every``-th op, up to ``sample_cap`` ops.

What a wrapper itself costs outside its child's [start, end] is charged to
the parent's self time; ``workloads.trace_overhead_frac`` says how large
that distortion is.  End-to-end metrics are never taken from a traced run.
"""

from __future__ import annotations

from repro.device.ssd import StorageDevice
from repro.flash.array import FlashArray
from repro.flash.chip import FlashChip
from repro.fs.ext4 import Ext4, FileHandle
from repro.ftl.pagemap import PageMappingFTL
from repro.ftl.xftl import XFTL
from repro.sqlite.database import Connection

from benchmarks.perf.reference import host_clock

#: layer -> (classes that implement it, entry points).  A name is wrapped on
#: every listed class that defines it; a name none of them defines is an
#: error, never a silent zero.
ENTRY_POINTS: dict[str, tuple[tuple[type, ...], tuple[str, ...]]] = {
    "sqlite": ((Connection,), ("execute",)),
    "fs": (
        (Ext4, FileHandle),
        (
            "read_page", "write_page", "read_page_tx", "fsync", "fbarrier", "fdatabarrier",
            "fsync_group", "stage_tx", "commit_tx_group", "sync_metadata", "ioctl_abort",
            "create", "open", "unlink", "fallocate", "truncate",
        ),
    ),
    "device": (
        (StorageDevice,),
        (
            "read", "write", "trim", "flush", "barrier", "write_barrier",
            "read_tx", "write_tx", "commit", "commit_group", "abort",
        ),
    ),
    "ftl": (
        (PageMappingFTL, XFTL),
        (
            "read", "write", "trim", "barrier",
            "read_tx", "write_tx", "commit", "commit_group", "abort",
        ),
    ),
    "flash": (
        (FlashChip, FlashArray),
        ("program", "read", "read_oob", "erase", "drain", "order_barrier"),
    ),
}


class MissingEntryPoint(Exception):
    """A layer no longer has an entry point the tracer is meant to wrap."""


class Tracer:
    """Span aggregation for one traced window."""

    def __init__(self, sample_every: int, sample_cap: int) -> None:
        self.sample_every = sample_every
        self.sample_cap = sample_cap
        self.aggregates: dict[tuple[str, str], list] = {}  # -> [calls, total_s, self_s]
        self.sampled_ops: list[dict] = []
        self.enabled = False
        self._stack: list[list] = []  # open spans: [child_s, span id]
        self._next_span = 0
        self._op = -1
        self._spans: list[tuple] | None = None  # span rows of the op being sampled
        self._originals: list[tuple[type, str, object]] = []

    # ------------------------------------------------------------ wrappers

    def wrap(self, layer: str, name: str, fn):
        """``fn`` timed as span ``layer.name``; a pass-through while disabled."""
        cell = self.aggregates.setdefault((layer, name), [0, 0.0, 0.0])
        stack = self._stack
        now = host_clock
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span = tracer._next_span
            tracer._next_span = span + 1
            frame = [0.0, span]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = now()
            try:
                return fn(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
                duration = end - start
                cell[0] += 1
                cell[1] += duration
                cell[2] += duration - frame[0]
                if parent is not None:
                    parent[0] += duration
                if tracer._spans is not None:
                    tracer._spans.append(
                        (span, parent[1] if parent is not None else None, layer, name, start, end)
                    )

        return traced

    def install(self) -> None:
        """Wrap every entry point at class level; build stacks only afterwards."""
        for layer, (classes, names) in ENTRY_POINTS.items():
            for name in names:
                owners = [cls for cls in classes if name in vars(cls)]
                if not owners:
                    listed = "/".join(cls.__name__ for cls in classes)
                    raise MissingEntryPoint(f"{layer}: no {name}() on {listed}")
                for cls in owners:
                    original = vars(cls)[name]
                    self._originals.append((cls, name, original))
                    setattr(cls, name, self.wrap(layer, name, original))

    def uninstall(self) -> None:
        while self._originals:
            cls, name, original = self._originals.pop()
            setattr(cls, name, original)

    # ------------------------------------------------------------- per op

    def traced_op(self, op):
        """``op`` as the root span ``workloads.op``; each call starts a new op id."""
        root = self.wrap("workloads", "op", op)

        def run_op():
            self._op += 1
            sample = (
                self._op % self.sample_every == 0 and len(self.sampled_ops) < self.sample_cap
            )
            if not sample:
                return root()
            self._spans = []
            try:
                return root()
            finally:
                self.sampled_ops.append({"op": self._op, "spans": self._spans})
                self._spans = None

        return run_op

    # ------------------------------------------------------------ results

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """layer -> {"calls": n, "self_s": s} summed over its functions."""
        totals: dict[str, dict[str, float]] = {}
        for (layer, _name), (calls, _total, self_s) in self.aggregates.items():
            row = totals.setdefault(layer, {"calls": 0, "self_s": 0.0})
            row["calls"] += calls
            row["self_s"] += self_s
        return totals

    def as_dict(self) -> dict:
        """JSON form: aggregates per layer x function, then the sampled trees."""
        columns = ("span", "parent", "layer", "function", "start_s", "end_s")
        return {
            "aggregates": [
                {"layer": layer, "function": name, "calls": c, "total_s": t, "self_s": s}
                for (layer, name), (c, t, s) in sorted(self.aggregates.items())
                if c
            ],
            "sampled_ops": [
                {"op": sampled["op"], "spans": [dict(zip(columns, row)) for row in sampled["spans"]]}
                for sampled in self.sampled_ops
            ],
        }
