"""Deterministic millisecond clock and event scheduler.

Every bus, peripheral double, and reference driver in a virtual rig shares
one Scheduler, so all observable timestamps are reproducible run to run.
Time is integer milliseconds and only moves when someone advances it; a
delay, period or target of any other type, bool included, is a ScheduleError.
There is no wall-clock coupling anywhere in this module.
"""

from __future__ import annotations

import heapq
from typing import Callable

SimTime = int

Action = Callable[[], None]


class ScheduleError(ValueError):
    """Invalid scheduling request: a non-int time, negative delay, zero period,
    or time reversal."""


class EventHandle:
    """One queued action, as Scheduler.schedule() returns it; pass it to
    Scheduler.cancel(). Its (due, seq) key lives in the heap entry. A
    cancelled event drops its action: it may wait in the heap until its due
    time, and must not keep the object that scheduled it alive meanwhile."""

    __slots__ = ("action", "period", "cancelled", "done")

    def __init__(self, action: Action | None, period: int | None):
        self.action = action
        self.period = period
        self.cancelled = False
        self.done = False

    @property
    def pending(self) -> bool:
        return not self.cancelled and not self.done


class Scheduler:
    """Discrete-event scheduler over a virtual millisecond clock.

    Events fire strictly in (due, seq) order, where seq is the insertion
    sequence number, so simultaneous events run first-scheduled-first.
    Periodic events re-arm themselves at due + period until cancelled.

    `now` is the current simulated time in ms. It is a plain attribute,
    read on every edge, and only advance_to assigns it.
    """

    def __init__(self) -> None:
        self.now: SimTime = 0
        self._seq: int = 0
        self._heap: list[tuple[int, int, EventHandle]] = []

    def schedule(self, delay_ms: int, action: Action, periodic: int | None = None) -> EventHandle:
        """Queue `action` to run delay_ms from now.

        With `periodic` set, the action repeats every `periodic` ms until
        cancelled. A zero period is rejected: it would livelock advance().
        """
        if type(delay_ms) is not int or delay_ms < 0:
            raise ScheduleError(f"delay must be an int >= 0, got {delay_ms!r}")
        if periodic is not None and (type(periodic) is not int or periodic < 1):
            raise ScheduleError(f"period must be an int >= 1 ms, got {periodic!r}")
        self._seq += 1
        event = EventHandle(action, periodic)
        heapq.heappush(self._heap, (self.now + delay_ms, self._seq, event))
        return event

    def cancel(self, handle: EventHandle) -> bool:
        """Remove a pending event. Returns True iff it was still pending.

        Cancelling a periodic event stops all future recurrences. Cancelling
        an already-fired or already-cancelled handle returns False.
        """
        if handle.cancelled or handle.done:
            return False
        handle.cancelled = True
        handle.action = None
        return True

    def advance_to(self, to: SimTime) -> int:
        """Run the clock forward to `to`, firing every event due on the way.

        Events scheduled by fired actions also fire in the same pass when
        their due time is <= `to`. Returns the number of actions fired.
        Time cannot reverse: `to` must be >= now. This is the one method
        that assigns `now`.

        Head-run rule: a periodic event re-armed after firing takes a fresh
        seq, so it goes after every event already queued for the same ms.
        When its new due time is <= `to` and strictly before the head of
        the heap, it is still the earliest pending event, and it fires
        again without the push and pop that would return it to the same
        place. Fire order, fire times and seq numbers are those of the
        plain heap loop.

        Nesting: an action may call advance_to itself; time still never
        runs backwards. Now stays where a nested call left it, and a
        periodic event re-armed at a due time that call already passed is
        due at now instead.

        An action that raises ends its event, periodic or not: the handle is
        done, the clock rests at the event's due time (or where a nested call
        left it) and the exception propagates to whoever advanced the clock.
        """
        if type(to) is not int:
            raise ScheduleError(f"time must be an int ms, got {to!r}")
        if to < self.now:
            raise ScheduleError(f"cannot advance backwards: now={self.now}, to={to}")
        heap = self._heap
        fired = 0
        while heap and heap[0][0] <= to:
            due, _seq, event = heapq.heappop(heap)
            if event.cancelled:
                continue
            action, period = event.action, event.period
            while True:
                self.now = due
                try:
                    action()
                except BaseException:
                    event.done = True  # out of the heap for good: no longer pending
                    raise
                fired += 1
                if period is None or event.cancelled:
                    event.done = True
                    break
                due += period
                if due < self.now:  # the action advanced the clock past it
                    due = self.now
                self._seq += 1
                if due > to or (heap and heap[0][0] <= due):
                    heapq.heappush(heap, (due, self._seq, event))
                    break
        if self.now < to:
            self.now = to
        return fired

    def advance_by(self, delta_ms: int) -> int:
        """Equivalent to advance_to(now + delta_ms)."""
        if type(delta_ms) is not int or delta_ms < 0:
            raise ScheduleError(f"delta must be an int >= 0, got {delta_ms!r}")
        return self.advance_to(self.now + delta_ms)

    def run_until(self, ready: Callable[[], object], deadline: SimTime) -> bool:
        """Fire events due time by due time until ready() holds, and return
        whether it did by the deadline. ready() tests what events do; events
        due at the deadline still count. After a miss the clock rests at it."""
        while not ready():
            due = self.next_due()
            if due is None or due > deadline:
                if self.now < deadline:
                    self.advance_to(deadline)
                return False
            self.advance_to(due)
        return True

    def next_due(self) -> SimTime | None:
        """Due time of the earliest pending event, or None when idle."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        return heap[0][0] if heap else None
