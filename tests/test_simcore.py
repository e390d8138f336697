"""Scheduler semantics: ordering, periodic events, cancellation, determinism."""

import random

import pytest

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
