"""Deterministic millisecond clock and event scheduler.

Every bus, peripheral double, and reference driver in a virtual rig shares
one Scheduler, so all observable timestamps are reproducible run to run.
Time is integer milliseconds and only moves when someone advances it; there
is no wall-clock coupling anywhere in this module.
"""

from __future__ import annotations

import heapq
from typing import Callable

SimTime = int

Action = Callable[[], None]


class ScheduleError(ValueError):
    """Invalid scheduling request: negative delay, zero period, or time reversal."""


class _Event:
    """One queued action. A cancelled event drops its action: it may wait in
    the heap until its due time, and must not keep the object that
    scheduled it alive meanwhile."""

    __slots__ = ("due", "seq", "action", "period", "cancelled", "done")

    def __init__(self, due: int, seq: int, action: Action | None, period: int | None):
        self.due = due
        self.seq = seq
        self.action = action
        self.period = period
        self.cancelled = False
        self.done = False


class EventHandle:
    """Opaque ticket for a scheduled event; pass it to Scheduler.cancel()."""

    __slots__ = ("_event",)

    def __init__(self, event: _Event):
        self._event = event

    @property
    def pending(self) -> bool:
        return not self._event.cancelled and not self._event.done


class Scheduler:
    """Discrete-event scheduler over a virtual millisecond clock.

    Events fire strictly in (due, seq) order, where seq is the insertion
    sequence number, so simultaneous events run first-scheduled-first.
    Periodic events re-arm themselves at due + period until cancelled.
    """

    def __init__(self) -> None:
        self._now: int = 0
        self._seq: int = 0
        self._heap: list[tuple[int, int, _Event]] = []

    @property
    def now(self) -> SimTime:
        """Current simulated time in ms."""
        return self._now

    def schedule(self, delay_ms: int, action: Action, periodic: int | None = None) -> EventHandle:
        """Queue `action` to run delay_ms from now.

        With `periodic` set, the action repeats every `periodic` ms until
        cancelled. A zero period is rejected: it would livelock advance().
        """
        if delay_ms < 0:
            raise ScheduleError(f"delay must be >= 0, got {delay_ms}")
        if periodic is not None and periodic < 1:
            raise ScheduleError(f"period must be >= 1 ms, got {periodic}")
        event = _Event(self._now + delay_ms, self._next_seq(), action, periodic)
        heapq.heappush(self._heap, (event.due, event.seq, event))
        return EventHandle(event)

    def cancel(self, handle: EventHandle) -> bool:
        """Remove a pending event. Returns True iff it was still pending.

        Cancelling a periodic event stops all future recurrences. Cancelling
        an already-fired or already-cancelled handle returns False.
        """
        event = handle._event
        if event.cancelled or event.done:
            return False
        event.cancelled = True
        event.action = None
        return True

    def advance_to(self, to: SimTime) -> int:
        """Run the clock forward to `to`, firing every event due on the way.

        Events scheduled by fired actions also fire in the same pass when
        their due time is <= `to`. Returns the number of actions fired.
        Time cannot reverse: `to` must be >= now.
        """
        if to < self._now:
            raise ScheduleError(f"cannot advance backwards: now={self._now}, to={to}")
        fired = 0
        while self._heap and self._heap[0][0] <= to:
            due, _seq, event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self._now = due
            event.action()
            fired += 1
            if event.period is not None and not event.cancelled:
                event.due = due + event.period
                event.seq = self._next_seq()
                heapq.heappush(self._heap, (event.due, event.seq, event))
            else:
                event.done = True
        self._now = to
        return fired

    def advance_by(self, delta_ms: int) -> int:
        """Equivalent to advance_to(now + delta_ms)."""
        if delta_ms < 0:
            raise ScheduleError(f"delta must be >= 0, got {delta_ms}")
        return self.advance_to(self._now + delta_ms)

    def next_due(self) -> SimTime | None:
        """Due time of the earliest pending event, or None when idle."""
        while self._heap and self._heap[0][2].cancelled:
            heapq.heappop(self._heap)
        if not self._heap:
            return None
        return self._heap[0][0]

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq
