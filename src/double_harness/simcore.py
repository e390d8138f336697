"""Deterministic millisecond clock and event scheduler.

Every bus, peripheral double, and reference driver in a virtual rig shares
one Scheduler, so all observable timestamps are reproducible run to run.
Time is integer milliseconds and only moves when someone advances it; a
delay, period or target of any other type, bool included, is a ScheduleError,
and so is a due time, target or deadline past MAX_SIM_MS.
There is no wall-clock coupling anywhere in this module.
"""

from __future__ import annotations

import heapq
from typing import Callable

SimTime = int

Action = Callable[[], None]

# The clock's horizon: every sim time stays exact in any JSON reader.
MAX_SIM_MS = 2**53 - 1


class ScheduleError(ValueError):
    """Invalid scheduling request: a non-int time, negative delay, zero period,
    time reversal, or a time past MAX_SIM_MS."""


class EventHandle:
    """One queued action, as Scheduler.schedule() returns it; pass it to
    Scheduler.cancel(). Its (due, seq) key lives in the heap entry. It is
    pending exactly while it holds its action: cancelling it, its last firing
    and a raise in its action drop the action and train, so a finished handle
    never keeps the object that scheduled it alive, in the heap or out of it."""

    __slots__ = ("action", "train", "period")

    def __init__(self, action: Action, period: int | None):
        self.action = action
        # A periodic bound method's train (Scheduler.advance_to). Only its own
        # function is asked: functools.wraps copies `train` onto a wrapper.
        train = getattr(getattr(action, "__func__", None), "train", None) if period else None
        self.train = train.__get__(action.__self__) if train else None
        self.period = period

    @property
    def pending(self) -> bool:
        return self.action is not None


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
        self._dead = 0  # cancels since the heap was last rebuilt: at least its dead entries

    def schedule(self, delay_ms: int, action: Action, periodic: int | None = None) -> EventHandle:
        """Queue `action` to run delay_ms from now.

        With `periodic` set, the action repeats every `periodic` ms until
        cancelled. A zero period is rejected: it would livelock advance().
        """
        if type(delay_ms) is not int or delay_ms < 0:
            raise ScheduleError(f"delay must be an int >= 0, got {delay_ms!r}")
        if periodic is not None and (type(periodic) is not int or periodic < 1):
            raise ScheduleError(f"period must be an int >= 1 ms, got {periodic!r}")
        if not callable(action):
            raise ScheduleError(f"action must be callable, got {action!r}")
        due = self.now + delay_ms
        if due > MAX_SIM_MS:
            raise ScheduleError(f"due time {due} is past MAX_SIM_MS")
        self._seq += 1
        event = EventHandle(action, periodic)
        heapq.heappush(self._heap, (due, self._seq, event))
        return event

    def cancel(self, handle: EventHandle | None) -> bool:
        """Remove a pending event. Returns True iff it was still pending.

        Cancelling a periodic event stops all future recurrences. Cancelling
        a finished handle, or None, returns False.
        """
        if handle is None or handle.action is None:
            return False
        handle.action = handle.train = None
        # Its heap entry stays until popped, so dead entries are counted; past
        # half the heap they are dropped, and the keys keep the order. The
        # event firing now is not in the heap: counting its cancel only brings
        # a rebuild early.
        self._dead += 1
        heap = self._heap
        if 2 * self._dead > len(heap):
            heap[:] = [entry for entry in heap if entry[2].action is not None]
            heapq.heapify(heap)
            self._dead = 0
        return True

    def advance_to(self, to: SimTime) -> int:
        """Run the clock forward to `to`, firing every event due on the way.

        Events scheduled by fired actions also fire in the same pass when
        their due time is <= `to`. Returns the number of actions fired.
        Time cannot reverse: `to` must be >= now. This is the one method
        that assigns `now`.

        Train rule: a periodic action that is a bound method may offer a
        train form, a `train` attribute on its function, bound to the same
        object: train(due, period, k) -> n does the first n <= k of the
        firings at due, due + period, ... in one call, exactly as n calls
        of the action would, and returns n (0: none, fire plainly).
        Before such an event fires, the scheduler counts the k firings due
        from here: those <= `to` and strictly before the head of the heap,
        the first always. When k >= 2 it offers the whole run: it calls the
        train, adds n to the count fired and takes n fresh seqs (n - 1 if the
        train cancelled the event), then re-arms or finishes as after one
        firing at the last due time. Any other action, a wrapper around such
        a method included, fires one call at a time.
        So each step of the loop is n firings, n = 1 for a plain call, and
        moves the count fired, the seq and the re-arm time once, by n.

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
        if to > MAX_SIM_MS:
            raise ScheduleError(f"time {to} is past MAX_SIM_MS")
        heap = self._heap
        pushpop = heapq.heappushpop
        fired = 0
        while heap and heap[0][0] <= to:
            due, _seq, event = heapq.heappop(heap)
            action = event.action
            while action is not None:  # fire `event` at `due` (n times when a train runs), re-arm it
                period, train = event.period, event.train
                self.now = due
                try:
                    if train is None:
                        action()
                        n = 1
                    else:  # k: the later firings that come before the heap's head and by `to`
                        last = heap[0][0] - 1 if heap else to
                        k = ((last if last < to else to) - due) // period
                        n = train(due, period, k + 1) if k > 0 else 0
                        if not n:  # no run: one plain firing
                            action()
                            n = 1
                except BaseException:
                    event.action = event.train = None  # out of the heap for good
                    raise
                fired += n
                if period is None or event.action is None:  # a one-shot, or cancelled by itself
                    self._seq += n - 1  # a run's later firings took seqs; 0 for one call
                    event.action = event.train = None
                    break
                due += n * period
                if due < self.now:  # the action advanced the clock past it
                    due = self.now
                self._seq = seq = self._seq + n
                if heap and heap[0][0] <= to:  # the earlier of the head and the event goes first
                    due, _seq, event = pushpop(heap, (due, seq, event))
                    action = event.action
                else:
                    heapq.heappush(heap, (due, seq, event))
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
        if deadline > MAX_SIM_MS:
            raise ScheduleError(f"deadline {deadline} is past MAX_SIM_MS")
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
        while heap and heap[0][2].action is None:
            heapq.heappop(heap)
        return heap[0][0] if heap else None
