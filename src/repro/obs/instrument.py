"""What the stack records, and where: the one instrumentation table.

Every span and every histogram observation a layer of the stack makes is a
row of :data:`INSTRUMENTS`: a class, one of its methods, and what to record
around a call of it —

- :class:`Span`: a span named ``name`` in ``layer`` over the call, its
  ``lpn`` / ``tid`` read from the call's arguments;
- :class:`Latency`: the simulated time the call took, into a histogram;
- :class:`Value`: a number read from the arguments or the result, into a
  histogram (``None`` records nothing).

A layer's constructor calls ``obs.instrument(self, clock)``.  On a disabled
handle that returns at once, so a metrics-off stack runs none of the code
here and its methods hold no observability code at all.  On an enabled
handle each method the table names for the instance's class (or a base
class) is shadowed by an instance attribute that records around a call of
the class attribute, looked up at call time, so a wrapper installed on the
class later (``benchmarks/perf/trace.py`` wraps entry points) still sees
every call.  Span rows attach only when the tracer is on too.

A wrapper behaves as the ``with tracer.span(...)`` block it replaces: an
exception closes the span and propagates, and skips the observations.
Where a span or an observation used to cover part of a method, that part is
a method of its own, so the table can name it.

Counts are not rows: a layer keeps them as plain int fields bound by name
with :meth:`~repro.obs.registry.MetricsRegistry.bind`.
"""

from __future__ import annotations

import inspect
import weakref
from operator import itemgetter
from typing import Any, Callable, NamedTuple

from repro.obs.registry import DEFAULT_LATENCY_BOUNDS_US, DEFAULT_SIZE_BOUNDS


class Arg(NamedTuple):
    """A value read from one call: ``path`` is an argument's name, ``self``
    or ``result``, then attributes (``"txn.tid"``; a ``None`` on the way
    reads as ``None``); ``then`` maps what the path reads."""

    path: str
    then: Callable[[Any], Any] | None = None


class Span(NamedTuple):
    name: str | Arg
    layer: str
    lpn: Arg | None = None
    tid: Arg | None = None


class Latency(NamedTuple):
    histogram: str


class Value(NamedTuple):
    """``of`` into ``histogram``.  With ``index``, ``histogram`` has one
    ``{}`` and there is one histogram per index below the instance's
    ``count`` attribute; with ``each``, ``of`` reads a sequence of values."""

    histogram: str
    of: Arg
    bounds: tuple[float, ...] = DEFAULT_LATENCY_BOUNDS_US
    index: Arg | None = None
    count: str | None = None
    each: bool = False


class Row(NamedTuple):
    cls: str  # module and qualified name of the class
    method: str
    record: Span | Latency | Value


RESULT = Arg("result")


def _one_or_group(one: str, group: str) -> Arg:
    """The span name of a call taking member ids ``tids``: one member or a group."""
    return Arg("tids", lambda tids: one if len(tids) == 1 else group)


def _sole(tids: list[int]) -> int | None:
    return tids[0] if len(tids) == 1 else None


def _group_size(tids: list[int]) -> int | None:
    return len(tids) if len(tids) > 1 else None


_DEV = "repro.device.ssd.StorageDevice"
_QUEUE = "repro.device.queue.CommandQueue"
_CHIP = "repro.flash.chip.FlashChip"
_FTL = "repro.ftl.pagemap.PageMappingFTL"
_XFTL = "repro.ftl.xftl.XFTL"
_GC = "repro.ftl.gc.Collector"
_FS = "repro.fs.ext4.Ext4"
_JOURNAL = "repro.fs.journal.Jbd2Journal"
_PAGER = "repro.sqlite.pager.Pager"
_OFF_PAGER = "repro.sqlite.pager.OffPager"
_TXNS = "repro.stack.txn.TxnManager"

_LPN, _TID = Arg("lpn"), Arg("tid")
_BUSY = "flash.ch{}.busy_us"

#: Every span and histogram the stack records, top of the stack first.
INSTRUMENTS: tuple[Row, ...] = (
    # SQLite pager: the commit of every journal mode, and OFF mode's staged commit.
    Row(_PAGER, "_commit", Span("commit", "sqlite", tid=Arg("self._txn.tid"))),
    Row(_PAGER, "_commit", Latency("sqlite.commit.latency_us")),
    Row(_OFF_PAGER, "_stage_pages", Span("commit_stage", "sqlite", tid=Arg("txn.tid"))),
    Row(_OFF_PAGER, "_count_commit", Value("sqlite.commit.latency_us", Arg("latency_us"))),
    # The transaction manager's points: zero-length spans.
    Row(_TXNS, "_count_begin", Span("txn.begin", "stack", tid=_TID)),
    Row(_TXNS, "_count_release", Span("txn.end", "stack", tid=_TID)),
    Row(_TXNS, "_count_release", Value("txn.lifetime_us", Arg("lifetime_us"))),
    Row(_TXNS, "_count_pin", Span("txn.snapshot.pin", "stack", tid=Arg("snapshot_seq"))),
    Row(_TXNS, "_released", Span("txn.snapshot.release", "stack")),
    # ext4 and its JBD2-style journal.
    Row(_FS, "_sync_frame", Span(Arg("name"), "fs", tid=Arg("txn.tid"))),
    Row(_FS, "_sync_frame", Latency("fs.fsync.latency_us")),
    Row(_JOURNAL, "_append_frame", Span("journal_commit", "fs", tid=Arg("txid"))),
    Row(_JOURNAL, "_append_frame", Value("fs.journal.frame_pages", RESULT, DEFAULT_SIZE_BOUNDS)),
    # The device and its command queue.
    Row(_DEV, "_write", Span("write", "dev", lpn=_LPN)),
    Row(_DEV, "_flush", Span("flush", "dev")),
    Row(_DEV, "_flush", Latency("dev.flush.latency_us")),
    Row(_DEV, "_epoch_barrier", Span("barrier", "dev")),
    Row(_DEV, "_ordered_write", Span("write_barrier", "dev", lpn=_LPN)),
    Row(_DEV, "_write_tx", Span("write_tx", "dev", lpn=_LPN, tid=_TID)),
    Row(_DEV, "_commit_tids", Span(_one_or_group("commit", "commit_group"), "dev",
                                   tid=Arg("tids", _sole))),
    Row(_DEV, "_commit_tids", Latency("dev.commit.latency_us")),
    Row(_DEV, "_count_drain_stall", Value("dev.queue.barrier_stall_us", Arg("stalled"))),
    Row(_DEV, "_count_avoided_stall", Value("dev.queue.stall_avoided_us", Arg("avoided"))),
    Row(_QUEUE, "admit", Value("dev.queue.dispatch_depth", RESULT)),
    # The FTL, X-FTL and the garbage collector.
    Row(_FTL, "_barrier", Span("barrier", "ftl")),
    Row(_FTL, "_barrier", Latency("ftl.barrier.latency_us")),
    Row(_XFTL, "_commit_tids", Span(_one_or_group("xftl_commit", "xftl_commit_group"), "ftl",
                                    tid=Arg("tids", _sole))),
    Row(_XFTL, "_commit_tids", Latency("ftl.commit.latency_us")),
    Row(_XFTL, "_commit_tids", Value("ftl.group_commit.size", Arg("tids", _group_size),
                                     DEFAULT_SIZE_BOUNDS)),
    Row(_XFTL, "_write_xl2p", Value("ftl.xl2p.flush_pages", Arg("images", len),
                                    DEFAULT_SIZE_BOUNDS)),
    Row(_GC, "_collect", Span("gc_collect", "ftl")),
    Row(_GC, "_reclaim", Value("ftl.gc.pause_us", RESULT)),
    Row(_GC, "_count_victim", Value("ftl.gc.victim_valid_pages", RESULT, DEFAULT_SIZE_BOUNDS)),
    Row(_GC, "_finish_job", Value("ftl.gc.copyback_pages", Arg("job.moved"),
                                  DEFAULT_SIZE_BOUNDS)),
    Row(_GC, "_erase_spread", Value("ftl.gc.erase_spread", RESULT, DEFAULT_SIZE_BOUNDS)),
    # Flash: NAND operations and per-channel busy time.
    Row(_CHIP, "_charge_program", Span("program", "flash")),
    Row(_CHIP, "_charge_program", Value(_BUSY, Arg("self.profile.page_program_us"),
                                        index=Arg("channel"), count="num_channels")),
    Row(_CHIP, "_charge_erase", Span("erase", "flash")),
    Row(_CHIP, "_charge_flash", Value(_BUSY, Arg("duration_us"), index=Arg("channel"),
                                      count="num_channels")),
    Row(_CHIP, "_charge_run", Value(_BUSY, Arg("durations"), index=Arg("channel"),
                                    count="num_channels", each=True)),
)


# ------------------------------------------------------------------ install


def _class_name(cls: type) -> str:
    return f"{cls.__module__}.{cls.__qualname__}"


_BY_CLASS: dict[str, list[Row]] = {}
for _row in INSTRUMENTS:
    _BY_CLASS.setdefault(_row.cls, []).append(_row)


def _rows_for(cls: type) -> dict[str, list[Row]]:
    """method -> the table's rows for it, over ``cls`` and its bases."""
    methods: dict[str, list[Row]] = {}
    for base in reversed(cls.__mro__):
        for row in _BY_CLASS.get(_class_name(base), ()):
            methods.setdefault(row.method, []).append(row)
    return methods


# A wrapper reads rows' arguments from one tuple per call, its *frame*:
# ``(instance, result, *arguments)``, every parameter filled in order.
_SELF, _RESULT, _FIRST_ARGUMENT = 0, 1, 2


def _reader(arg: Arg, params: list[str], method: str) -> Callable:
    """``read(frame)`` for ``arg`` on a method taking ``params``."""
    head, *attributes = arg.path.split(".")
    if head == "self":
        position = _SELF
    elif head == "result":
        position = _RESULT
    elif head in params:
        position = _FIRST_ARGUMENT + params.index(head)
    else:
        raise TypeError(f"{method}() takes no argument {head!r}")
    get = itemgetter(position)
    then = arg.then
    if not attributes and then is None:
        return get

    def read(frame):
        value = get(frame)
        for attribute in attributes:
            if value is None:
                break
            value = getattr(value, attribute)
        return then(value) if then is not None else value

    return read


def _observer(value: Value, obj: Any, params: list[str], method: str, registry) -> Callable:
    """``observe(frame)``: one value row's observation."""
    read = _reader(value.of, params, method)
    if value.index is None:
        histograms = None
        histogram = registry.histogram(value.histogram, value.bounds)
    else:
        histograms = [
            registry.histogram(value.histogram.format(i), value.bounds)
            for i in range(getattr(obj, value.count))
        ]
        index = _reader(value.index, params, method)
    each = value.each

    def observe(frame):
        number = read(frame)
        if number is None:
            return
        target = histogram if histograms is None else histograms[index(frame)]
        if each:
            for item in number:
                target.observe(float(item))
        else:
            target.observe(float(number))

    return observe


def _wrapper(obj: Any, method: str, rows: list[Row], obs, clock) -> Callable | None:
    cls = type(obj)
    signature = inspect.signature(getattr(cls, method))
    params = list(signature.parameters)[1:]
    arity = len(params)
    registry, tracer = obs.registry, obs.tracer
    records = [row.record for row in rows]
    spans = [record for record in records if isinstance(record, Span)]
    if len(spans) > 1:
        raise TypeError(f"{cls.__name__}.{method}: more than one span row")
    span = spans[0] if spans and tracer.enabled else None
    latencies = [
        registry.histogram(record.histogram) for record in records if isinstance(record, Latency)
    ]
    observers = [
        _observer(record, obj, params, method, registry)
        for record in records
        if isinstance(record, Value)
    ]
    if span is None and not latencies and not observers:
        return None
    if latencies and clock is None:
        raise TypeError(f"{cls.__name__}.{method}: a latency row needs the layer's clock")
    if span is not None:
        readers = [
            _reader(field, params, method) if isinstance(field, Arg) else (
                lambda frame, field=field: field
            )
            for field in (span.name, span.lpn, span.tid)
        ]

    def arguments(obj, args, kwargs) -> tuple:
        """Every argument in parameter order, defaults filled in."""
        bound = signature.bind(obj, *args, **kwargs)
        bound.apply_defaults()
        return tuple(bound.arguments.values())[1:]

    # Weak, as the crash plan's subscriptions are: the wrapper lives in the
    # instance's dict, and a strong reference would make every instrumented
    # layer cyclic garbage that refcounting cannot free.
    instance = weakref.ref(obj)

    def call(*args, **kwargs):
        obj = instance()
        if latencies:
            start_us = clock.now_us
        if span is None:
            result = getattr(cls, method)(obj, *args, **kwargs)
        else:
            full = args if not kwargs and len(args) == arity else arguments(obj, args, kwargs)
            frame = (obj, None, *full)
            name, lpn, tid = [read(frame) for read in readers]
            with tracer.span(name, span.layer, lpn=lpn, tid=tid):
                result = getattr(cls, method)(obj, *args, **kwargs)
        for histogram in latencies:
            histogram.observe(clock.now_us - start_us)
        if observers:
            full = args if not kwargs and len(args) == arity else arguments(obj, args, kwargs)
            frame = (obj, result, *full)
            for observe in observers:
                observe(frame)
        return result

    return call


def install(obj: Any, obs, clock) -> None:
    """Shadow each method the table names for ``obj``'s class with a recording wrapper."""
    for method, rows in _rows_for(type(obj)).items():
        wrapper = _wrapper(obj, method, rows, obs, clock)
        if wrapper is not None:
            setattr(obj, method, wrapper)
