"""Scheduler semantics: ordering, periodic events, cancellation, determinism."""

import heapq
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from double_harness.simcore import ScheduleError, Scheduler


class TestSchedule:
    def test_zero_delay_fires_once_at_zero(self, sched):
        fired = []
        sched.schedule(0, lambda: fired.append(sched.now))
        assert sched.advance_to(0) == 1
        assert fired == [0]
        assert sched.advance_to(0) == 0

    def test_periodic_fires_at_every_multiple(self, sched):
        """1000 ms period over a 3500 ms window: 1000, 2000, 3000."""
        fired = []
        sched.schedule(1000, lambda: fired.append(sched.now), periodic=1000)
        count = sched.advance_to(3500)
        # floor((3500 - 1000) / 1000) + 1 occurrences
        assert count == 3
        assert fired == [1000, 2000, 3000]
        assert sched.now == 3500

    def test_equal_due_times_fire_in_insertion_order(self, sched):
        order = []
        sched.schedule(5, lambda: order.append("A"))
        sched.schedule(5, lambda: order.append("B"))
        sched.advance_to(10)
        assert order == ["A", "B"]

    def test_negative_delay_rejected(self, sched):
        with pytest.raises(ScheduleError):
            sched.schedule(-1, lambda: None)

    def test_zero_period_rejected(self, sched):
        """A zero period would re-fire at the same instant forever."""
        with pytest.raises(ScheduleError):
            sched.schedule(10, lambda: None, periodic=0)


class TestAdvance:
    def test_empty_queue_just_moves_time(self, sched):
        assert sched.advance_to(100) == 0
        assert sched.now == 100

    def test_child_scheduled_during_pass_fires_in_same_pass(self, sched):
        order = []

        def parent():
            order.append(("parent", sched.now))
            sched.schedule(10, lambda: order.append(("child", sched.now)))

        sched.schedule(50, parent)
        assert sched.advance_to(100) == 2
        assert order == [("parent", 50), ("child", 60)]

    def test_advance_is_idempotent_at_same_time(self, sched):
        sched.schedule(40, lambda: None)
        assert sched.advance_to(100) == 1
        assert sched.advance_to(100) == 0

    def test_time_reversal_rejected(self, sched):
        sched.advance_to(100)
        with pytest.raises(ScheduleError):
            sched.advance_to(99)

    def test_no_event_fires_before_its_due_time(self, sched):
        fired = []
        sched.schedule(200, lambda: fired.append(sched.now))
        sched.advance_to(199)
        assert fired == []
        sched.advance_to(200)
        assert fired == [200]


class TestCancel:
    def test_cancel_pending_prevents_firing(self, sched):
        fired = []
        handle = sched.schedule(50, lambda: fired.append(1))
        assert sched.cancel(handle) is True
        sched.advance_to(100)
        assert fired == []

    def test_cancel_twice_returns_false(self, sched):
        handle = sched.schedule(50, lambda: None)
        assert sched.cancel(handle) is True
        assert sched.cancel(handle) is False

    def test_cancel_fired_oneshot_returns_false(self, sched):
        handle = sched.schedule(50, lambda: None)
        sched.advance_to(100)
        assert sched.cancel(handle) is False

    def test_cancel_periodic_after_two_firings(self, sched):
        fired = []
        handle = sched.schedule(100, lambda: fired.append(sched.now), periodic=100)
        sched.advance_to(250)
        assert fired == [100, 200]
        assert sched.cancel(handle) is True
        sched.advance_to(1000)
        assert fired == [100, 200]

    def test_periodic_can_cancel_itself(self, sched):
        fired = []
        state = {}

        def action():
            fired.append(sched.now)
            if len(fired) == 3:
                sched.cancel(state["h"])

        state["h"] = sched.schedule(10, action, periodic=10)
        sched.advance_to(1000)
        assert fired == [10, 20, 30]


    def test_cancel_drops_the_action(self, sched):
        """A cancelled event left in the heap must not pin its action."""
        oneshot = sched.schedule(5, lambda: None)
        periodic = sched.schedule(1, lambda: None, periodic=1)
        sched.advance_to(2)
        sched.cancel(oneshot)
        assert oneshot._event.action is None
        assert periodic._event.action is not None
        sched.cancel(periodic)
        assert periodic._event.action is None


class TestProperties:
    def test_determinism_identical_call_sequences(self):
        """Two schedulers fed the same script fire identical sequences."""

        def run() -> list:
            sched = Scheduler()
            log = []
            rng = random.Random(1234)
            for i in range(200):
                delay = rng.randrange(0, 50)
                periodic = rng.choice([None, None, rng.randrange(1, 20)])
                sched.schedule(delay, lambda i=i: log.append((i, sched.now)), periodic)
            sched.advance_to(120)
            return log

        assert run() == run()

    def test_conservation_of_firings(self):
        """Total firings equals scheduled non-cancelled occurrences in window."""
        sched = Scheduler()
        rng = random.Random(99)
        fired = 0
        expected = 0
        final = 3000
        for _ in range(100):
            delay = rng.randrange(0, final + 500)
            handle = sched.schedule(delay, lambda: None)
            if rng.random() < 0.3:
                sched.cancel(handle)
            elif delay <= final:
                expected += 1
        checkpoints = sorted(rng.randrange(0, final) for _ in range(5)) + [final]
        for point in checkpoints:
            fired += sched.advance_to(point)
        assert fired == expected


class _HeapLoopScheduler(Scheduler):
    """Reference model: every re-armed periodic event goes back through the
    heap before it can fire again. Time never runs backwards: a re-armed
    event whose next due time a nested advance already passed is due now,
    and a nested advance past `to` leaves now where it is."""

    def advance_to(self, to):
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
                self._seq += 1
                heapq.heappush(
                    self._heap, (max(due + event.period, self._now), self._seq, event)
                )
            else:
                event.done = True
        self._now = max(self._now, to)
        return fired


# (firing number, what the action does on that firing, argument)
_OP = st.tuples(
    st.integers(0, 3),
    st.sampled_from(
        ["cancel_self", "cancel_other", "at_now", "at_next_due", "before_next_due", "periodic_child", "nest"]
    ),
    st.integers(0, 7),
)
# (delay, period or None, ops)
_EVENT = st.tuples(st.integers(0, 12), st.none() | st.integers(1, 4), st.lists(_OP, max_size=3))
_SCENARIO = st.tuples(
    st.lists(_EVENT, min_size=1, max_size=6), st.lists(st.integers(0, 15), min_size=1, max_size=4)
)


def _play(sched, scenario):
    """Run a scenario; return everything observable about the run.

    Also checks that the clock never ran backwards in between.
    """
    events, steps = scenario
    log, handles, fires, depth, seen = [], [], {}, [0], []

    def spawn(label, delay, period, ops=()):
        def action():
            n = fires[label] = fires.get(label, -1) + 1
            seen.append(sched.now)
            log.append((label, n, sched.now))
            for j, (on, op, arg) in enumerate(ops):
                if on != n:
                    continue
                child = f"{label}.{n}.{j}"
                if op == "cancel_self":
                    log.append((child, sched.cancel(handle)))
                elif op == "cancel_other":
                    log.append((child, sched.cancel(handles[arg % len(handles)])))
                elif op == "at_now":
                    spawn(child, 0, None)
                elif op == "at_next_due":
                    spawn(child, period or arg, None)
                elif op == "before_next_due":
                    spawn(child, arg % (period or 1), None)
                elif op == "periodic_child":
                    spawn(child, arg % 3, 1)
                elif depth[0] < 2:  # nest
                    depth[0] += 1
                    log.append((child, sched.advance_to(sched.now + arg % 5), sched.now))
                    seen.append(sched.now)
                    depth[0] -= 1

        handle = sched.schedule(delay, action, periodic=period)
        handles.append(handle)

    for i, (delay, period, ops) in enumerate(events):
        spawn(f"e{i}", delay, period, ops)
    counts = []
    for step in steps:
        counts.append(sched.advance_by(step))
        seen.append(sched.now)
    assert seen == sorted(seen), "time ran backwards"
    return (
        log,
        counts,
        sched.now,
        [h.pending for h in handles],
        sched.next_due(),
        sorted((due, seq) for due, seq, _ in sched._heap),
    )


class TestHeadRunMatchesHeapLoop:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(_SCENARIO)
    def test_same_run_as_the_plain_heap_loop(self, scenario):
        assert _play(Scheduler(), scenario) == _play(_HeapLoopScheduler(), scenario)

    def test_rearmed_event_yields_to_an_older_event_at_the_same_ms(self, sched):
        """The tick re-armed for 3 ms takes a newer seq than `once`, queued at 0."""
        order = []
        sched.schedule(1, lambda: order.append(("tick", sched.now)), periodic=1)
        sched.schedule(3, lambda: order.append(("once", sched.now)))
        assert sched.advance_to(4) == 5
        assert order == [("tick", 1), ("tick", 2), ("once", 3), ("tick", 3), ("tick", 4)]


class TestRunUntil:
    def test_an_event_due_at_the_deadline_still_counts(self, sched):
        done = []
        sched.schedule(10, lambda: done.append(sched.now))
        assert sched.run_until(lambda: done, 10)
        assert sched.now == 10

    def test_a_miss_leaves_the_clock_at_the_deadline(self, sched):
        done = []
        sched.schedule(11, lambda: done.append(sched.now))
        assert not sched.run_until(lambda: done, 10)
        assert (sched.now, done, sched.next_due()) == (10, [], 11)
        assert not Scheduler().run_until(lambda: False, 0)

    def test_stops_at_the_first_event_that_makes_it_ready(self, sched):
        done = []
        for at in (3, 5, 7):
            sched.schedule(at, lambda: done.append(sched.now))
        assert sched.run_until(lambda: len(done) == 2, 100)
        assert (sched.now, done) == (5, [3, 5])
        assert sched.run_until(lambda: True, 0)
        assert sched.now == 5


class TestNestedAdvance:
    """An action that advances the clock itself never makes time run backwards."""

    def test_outer_advance_does_not_move_time_back(self, sched):
        order = []
        sched.schedule(1, lambda: sched.advance_to(10))
        sched.schedule(8, lambda: order.append(("eight", sched.now)))
        assert sched.advance_to(5) == 1  # "eight" fired in the nested call
        assert sched.now == 10
        sched.schedule(0, lambda: order.append(("zero", sched.now)))
        sched.advance_to(10)
        assert order == [("eight", 8), ("zero", 10)]

    def test_overshot_periodic_event_fires_once_at_now(self, sched):
        ticks = []

        def tick():
            ticks.append(sched.now)
            if len(ticks) == 1:
                sched.advance_to(10)

        sched.schedule(1, tick, periodic=2)
        assert sched.advance_to(5) == 1
        assert (sched.now, sched.next_due()) == (10, 10)
        assert sched.advance_to(14) == 3
        assert ticks == [1, 10, 12, 14]

    def test_next_due_inside_the_nesting_action_keeps_the_resync(self, sched):
        order = []

        def tick():
            order.append(sched.now)
            if len(order) == 1:
                sched.advance_to(10)
                assert sched.next_due() is None

        sched.schedule(1, tick, periodic=1)
        sched.advance_to(12)
        assert order == [1, 10, 11, 12]
