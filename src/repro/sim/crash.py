"""Crash-point injection and the crash-point registry.

Recovery experiments (Table 5) and crash-consistency tests need to cut power
at precise points inside the storage stack.  Components that perform
persistent-state transitions call :meth:`CrashPlan.hit` with a named crash
point; if the plan has armed that point (optionally "after N occurrences"),
the plan notifies its power-loss subscribers (the FTL and the storage device
mark themselves powered off and drop volatile state), a
:class:`~repro.errors.PowerFailure` is raised, and in-flight page programs
can be left *torn*.  After an injected crash the stack is already powered
down: recovery is a plain ``remount()`` / ``power_on()``, with no manual
``power_fail()`` required.

Crash points are *declared*, not ad-hoc string literals: each component
registers its points with :func:`register_crash_point` at import time and
uses the returned name in its ``hit()`` calls.  The registry makes the
whole crash surface enumerable — :func:`registered_crash_points` is what
``python -m repro.verify`` sweeps.

Registered points (one per persistent-state transition):

- ``flash.program.before`` / ``flash.program.after`` — around a NAND program
- ``flash.program.mid`` — during a NAND program (the only *tearable* point:
  armed with ``tear_page=True`` the in-flight page is left half-written)
- ``flash.erase.before`` — before a block erase
- ``ftl.barrier.mid`` — between mapping pages of a barrier flush
- ``xftl.commit.before-flush`` / ``xftl.commit.after-flush`` — around the
  X-L2P copy-on-write flush that is the commit point
- ``xftl.group.flush`` / ``xftl.group.publish`` — inside a group commit:
  after the batch X-L2P flush (no member durable yet) and after the root
  republish (every member durable, DRAM fold pending)
- ``gc.victim.selected`` / ``gc.copyback.page`` / ``gc.erase.before`` /
  ``gc.wear.migrate`` — inside a GC job (victim chosen, between page
  copybacks, erase pending, between wear-leveling migrations): preemption
  points under ``FtlConfig.gc_mode="background"``, mid-collection under
  ``"inline"`` (which never wear-levels)
- ``dev.queue.dispatch`` / ``dev.queue.barrier`` — around the NCQ-style
  command queue's dispatch and drain-barrier transitions
- ``fs.fsync.mid`` — between an fsync's data writes and its commit record
  (journal frame or device ``commit(t)``)
- ``sqlite.commit.mid`` — between journal sync and database-file writes
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

from repro.errors import CrashPlanError, PowerFailure


# --------------------------------------------------------------- registry


@dataclass(frozen=True)
class CrashPointSpec:
    """One declared crash point: where a component may lose power.

    Attributes:
        name: The label components pass to :meth:`CrashPlan.hit`.
        component: Dotted module-ish owner (``"flash.chip"``, ``"fs.ext4"``).
        doc: One-line description of the persistent-state transition.
        tearable: Whether arming with ``tear_page=True`` is meaningful here
            (only mid-program points can tear a page).
    """

    name: str
    component: str
    doc: str
    tearable: bool = False


_REGISTRY: dict[str, CrashPointSpec] = {}


def register_crash_point(
    name: str, component: str, doc: str, tearable: bool = False
) -> str:
    """Declare a crash point; returns ``name`` so call sites stay greppable.

    Re-registration with identical attributes is a no-op (modules may be
    reloaded); conflicting re-registration raises ``ValueError``.
    """
    spec = CrashPointSpec(name=name, component=component, doc=doc, tearable=tearable)
    existing = _REGISTRY.get(name)
    if existing is not None and existing != spec:
        raise ValueError(f"crash point {name!r} already registered as {existing}")
    _REGISTRY[name] = spec
    return name


def registered_crash_points() -> tuple[CrashPointSpec, ...]:
    """All declared crash points, by name."""
    return tuple(sorted(_REGISTRY.values(), key=lambda spec: spec.name))


# ------------------------------------------------------------------- plan


@dataclass
class CrashPoint:
    """A single armed crash point.

    Attributes:
        name: The crash-point label to match.
        after: Fire on the ``after``-th time this label is hit (1-based).
        tear_page: If the crash interrupts a NAND program, whether the page
            being programmed should be left torn (half-written).
    """

    name: str
    after: int = 1
    tear_page: bool = False
    hits: int = field(default=0, init=False)


class CrashPlan:
    """Collects armed crash points and fires :class:`PowerFailure`.

    A plan is shared by every component in one simulated machine.  A plan
    with no armed points costs a single attribute check per hit, so it is
    cheap enough to leave enabled in benchmarks.

    Components holding volatile state subscribe with :meth:`subscribe`; when
    a point fires every live subscriber is called (power loss propagates to
    the whole machine) before :class:`PowerFailure` is raised.
    """

    def __init__(self) -> None:
        self._points: list[CrashPoint] = []
        self.fired: CrashPoint | None = None
        # Weak references so sharing a module-level plan (NO_CRASH) across
        # many short-lived FTL/device instances cannot accumulate garbage.
        self._subscribers: list[weakref.WeakMethod | weakref.ref] = []

    def arm(self, name: str, after: int = 1, tear_page: bool = False) -> CrashPoint:
        """Arm a crash point; returns it so tests can inspect hit counts.

        ``after`` is 1-based: a count below 1 raises :class:`CrashPlanError`.
        """
        if after < 1:
            raise CrashPlanError(
                f"crash point {name!r} armed to fire after {after} hits; must be at least 1"
            )
        point = CrashPoint(name=name, after=after, tear_page=tear_page)
        self._points.append(point)
        return point

    def disarm_all(self) -> None:
        self._points.clear()

    def subscribe(self, callback) -> None:
        """Register a power-loss callback, invoked once when the plan fires.

        Bound methods are held via ``WeakMethod`` so subscribing never keeps
        a component alive.
        """
        try:
            ref: weakref.WeakMethod | weakref.ref = weakref.WeakMethod(callback)
        except TypeError:
            ref = weakref.ref(callback)
        self._subscribers.append(ref)

    def _notify_power_loss(self) -> None:
        live = []
        for ref in self._subscribers:
            callback = ref()
            if callback is None:
                continue
            live.append(ref)
            callback()
        self._subscribers = live

    def hit(self, name: str) -> None:
        """Record that execution reached crash point ``name``.

        Raises :class:`PowerFailure` if an armed point's occurrence count is
        reached.  Once a plan has fired it never fires again (the machine is
        already down; recovery runs with the same plan object).
        """
        if not self._points or self.fired is not None:
            return
        point = self.countdown(name)
        if point is not None:
            raise PowerFailure(f"crash point {name!r} fired (hit #{point.hits})")

    def countdown(self, name: str) -> CrashPoint | None:
        """Count one occurrence of ``name``; return the point if it fires now.

        Unlike :meth:`hit`, this does not raise — the caller applies its own
        side effects (e.g. leaving the in-flight page torn) before raising
        :class:`PowerFailure` itself.  Power-loss subscribers are notified
        here, so by the time the caller raises, the machine is already down.
        """
        if not self._points or self.fired is not None:
            return None
        for point in self._points:
            if point.name == name:
                point.hits += 1
                if point.hits >= point.after:
                    self.fired = point
                    self._notify_power_loss()
                    return point
        return None


NO_CRASH = CrashPlan()
"""A shared, never-firing plan for components created without one."""
