"""Deterministic cooperative interleaving of generator tasks.

The simulator is single-threaded by design (one :class:`SimClock`, no
real concurrency), so "N concurrent sessions" means N generator tasks
interleaved at explicit yield points.  :func:`interleave` is the one
loop that does it: weighted deficit round-robin over *lanes* of tasks,
with simulated time as the byte counter.  Every run is exactly
reproducible for a given seed — the property the verify layer and the
channel-equivalence baseline depend on.

Each round a lane banks ``QUANTUM_US x weight`` and steps its tasks
round-robin while the bank is positive, paying each step's simulated
time (a zero-cost step pays one token, so a busy-looping task cannot
hold its lane forever).  A lane with no runnable task forfeits its bank.
With one lane the bank only decides when control returns to the outer
loop, so one lane is strict round-robin whatever the quantum; that is
how sessions run, and how tenants run under the ``"round-robin"`` policy.

A task communicates with the loop through its yield value:

- ``yield None`` — plain switch point; the task is requeued at its
  lane's tail.
- ``yield Park(token)`` — the task parks until the loop *services* the
  parked tokens (e.g. a group commit), then resumes.

Service fires only when no task of any lane is runnable — the natural
group-commit coalescing point: nobody can make progress until the batch
is served.  The tokens go to ``service`` in park order and the tasks
rejoin their lanes in the same order.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable, Sequence

#: Simulated microseconds a weight-1 lane banks per round.
QUANTUM_US = 200.0

_FINISHED = object()


class Park:
    """Yield value asking the loop to hold the task for batch service."""

    __slots__ = ("token",)

    def __init__(self, token: object) -> None:
        self.token = token


def interleave(
    lanes: Sequence[tuple[float, Iterable]],
    service: Callable[[list[object]], None],
    clock,
) -> None:
    """Run ``(weight, tasks)`` lanes by deficit round-robin until all end.

    ``clock`` is anything with a ``now_us`` attribute; a step's cost is
    how far it moved.  Exceptions from tasks or from ``service``
    propagate to the caller — the verify drivers rely on
    :class:`PowerFailure` escaping mid-interleave.
    """
    queues = [deque(tasks) for _weight, tasks in lanes]
    grants = [QUANTUM_US * weight for weight, _tasks in lanes]
    deficits = [0.0] * len(queues)
    parked_tasks: list[tuple[deque, object]] = []  # (lane queue, task)
    parked_tokens: list[object] = []
    while True:
        if not any(queues):
            if not parked_tokens:
                return
            service(parked_tokens)
            for queue, task in parked_tasks:
                queue.append(task)
            parked_tasks, parked_tokens = [], []
            continue
        for index, queue in enumerate(queues):
            if not queue:
                deficits[index] = 0.0
                continue
            deficit = deficits[index] + grants[index]
            while queue and deficit > 0.0:
                task = queue.popleft()
                started = clock.now_us
                item = next(task, _FINISHED)
                cost = clock.now_us - started
                deficit -= cost if cost > 0.0 else 1.0
                if item is _FINISHED:
                    continue
                if isinstance(item, Park):
                    parked_tasks.append((queue, task))
                    parked_tokens.append(item.token)
                else:
                    queue.append(task)
            deficits[index] = deficit if queue else 0.0
