"""Scheduler semantics: ordering, periodic events, cancellation, determinism."""

import functools
import heapq
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from double_harness import simcore
from double_harness.bus import GpioLine, I2cBus, UartLink
from double_harness.doubles import GpsDouble, RtcDouble, wrap_sentence
from double_harness.dut import Blinker
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

    def test_an_action_that_is_not_callable_is_rejected(self, sched):
        """None is what a handle that is not pending holds, so it is no action."""
        with pytest.raises(ScheduleError, match="action must be callable, got None"):
            sched.schedule(0, None)
        assert sched.next_due() is None and sched._seq == 0


class TestIntegerTime:
    """Sim time is int ms: a float or bool time is refused even when its value
    would do, and the refusal leaves the clock and the queue as they were."""

    @pytest.mark.parametrize("bad", [1.5, 2.0, True, False])
    def test_delay_must_be_an_int(self, sched, bad):
        with pytest.raises(ScheduleError):
            sched.schedule(bad, lambda: None)
        assert sched.next_due() is None

    @pytest.mark.parametrize("bad", [1.5, 2.0, True])
    def test_period_must_be_an_int(self, sched, bad):
        with pytest.raises(ScheduleError):
            sched.schedule(1, lambda: None, periodic=bad)
        assert sched.next_due() is None

    @pytest.mark.parametrize("bad", [2.25, 3.0, True, False])
    def test_target_must_be_an_int(self, sched, bad):
        with pytest.raises(ScheduleError):
            sched.advance_to(bad)
        with pytest.raises(ScheduleError):
            sched.advance_by(bad)
        assert sched.now == 0 and type(sched.now) is int


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

    def test_a_cancelled_event_is_no_longer_pending(self, sched):
        handle = sched.schedule(50, lambda: None, periodic=50)
        assert handle.pending
        sched.cancel(handle)
        assert not handle.pending

    def test_cancel_fired_oneshot_returns_false(self, sched):
        handle = sched.schedule(50, lambda: None)
        sched.advance_to(100)
        assert sched.cancel(handle) is False

    def test_cancel_none_returns_false(self, sched):
        """An owner that never armed its event cancels its None handle as is."""
        assert sched.cancel(None) is False

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
        """A cancelled event left in the heap must not pin its action or train."""

        tick = _Trained(lambda: None, lambda due, period, k: 0)
        oneshot = sched.schedule(5, lambda: None)
        periodic = sched.schedule(1, tick.fire, periodic=1)
        sched.advance_to(2)
        sched.cancel(oneshot)
        assert oneshot.action is None
        assert periodic.action is not None and periodic.train == tick._train
        sched.cancel(periodic)
        assert periodic.action is None and periodic.train is None


class TestDeadEntries:
    def test_dead_entries_past_half_the_heap_are_dropped(self, sched):
        """Three dead entries of six stay; a fourth rebuilds the heap from the
        two live ones, which then fire in their order."""
        fired = []
        handles = [sched.schedule(due, lambda due=due: fired.append(due)) for due in (4, 1, 6, 2, 5, 3)]
        for handle in handles[:3]:
            assert sched.cancel(handle)
        assert (len(sched._heap), sched._dead) == (6, 3)
        assert sched.cancel(handles[4])
        assert (sorted(due for due, _seq, _event in sched._heap), sched._dead) == ([2, 3], 0)
        assert sched.advance_to(10) == 2 and fired == [2, 3]

    def test_cancelling_the_event_that_fires_counts_it(self, sched):
        """It is out of the heap while it fires: the count runs ahead of the
        dead entries, which only brings a rebuild early."""
        handles = []
        handles.append(sched.schedule(1, lambda: sched.cancel(handles[0]), periodic=1))
        sched.schedule(5, lambda: None)
        sched.schedule(6, lambda: None)
        sched.advance_to(1)
        assert (len(sched._heap), sched._dead) == (2, 1)


class TestOneState:
    """A handle is pending exactly while it holds its action."""

    def test_every_way_an_event_ends_drops_its_action(self, sched):
        """A fired one-shot, a cancelled periodic, an isr blink that counted
        down and an RTC tick that raised each leave a handle that holds
        nothing, so it keeps no owner alive."""
        oneshot = sched.schedule(1, lambda: None)
        periodic = sched.schedule(1, lambda: None, periodic=1)
        blinker = Blinker(GpioLine(), 1, 2, sched)
        blinker.blink("isr")
        rtc = RtcDouble(I2cBus(), sched, "dynamic")
        rtc.load_registers([0x59, 0x59, 0x23, 1, 1, 1, 0xFF])  # year 165 cannot roll over
        sched.advance_to(999)
        assert sched.cancel(periodic) is True
        with pytest.raises(ValueError, match="BCD range"):
            sched.advance_to(1000)
        handles = [oneshot, periodic, blinker._isr_handle, rtc._tick_handle]
        assert [(h.pending, h.action, h.train) for h in handles] == [(False, None, None)] * 4
        assert sched.next_due() is None


class TestHorizon:
    """MAX_SIM_MS is the last time the clock reaches: a due time, target or
    deadline past it is refused before anything moves."""

    def test_the_horizon_is_exact_as_a_double(self):
        assert simcore.MAX_SIM_MS == 2**53 - 1 == int(float(simcore.MAX_SIM_MS))

    def test_every_call_takes_a_time_at_the_horizon(self, sched):
        fired = []
        sched.schedule(simcore.MAX_SIM_MS, lambda: fired.append(sched.now))
        assert sched.run_until(lambda: fired, simcore.MAX_SIM_MS)
        assert fired == [simcore.MAX_SIM_MS]
        assert sched.advance_to(simcore.MAX_SIM_MS) == 0 and sched.advance_by(0) == 0

    @pytest.mark.parametrize("call", ["schedule", "advance_to", "advance_by", "run_until"])
    def test_a_time_past_the_horizon_is_refused(self, sched, call):
        sched.advance_to(5)
        handle = sched.schedule(10, lambda: None)
        past = simcore.MAX_SIM_MS + 1
        step = {
            "schedule": lambda: sched.schedule(past - 5, lambda: None),
            "advance_to": lambda: sched.advance_to(past),
            "advance_by": lambda: sched.advance_by(past - 5),
            "run_until": lambda: sched.run_until(lambda: True, past),
        }[call]
        with pytest.raises(ScheduleError, match=f"{past} is past MAX_SIM_MS"):
            step()
        assert (sched.now, sched._seq, sched.next_due(), handle.pending) == (5, 1, 15, True)


class _Trained:
    """`fire` is a bound method that offers a train, as an isr Blinker's
    timer action does: a `train` attribute on its function."""

    def __init__(self, action, train):
        self._action, self._run = action, train

    def fire(self):
        self._action()

    def _train(self, due, period, k):
        return self._run(due, period, k)

    fire.train = _train


class TestTrainForm:
    """Only a bound method's own function offers a train; every other action,
    a wrapper around such a method included, fires one call at a time."""

    def test_a_bound_method_offers_its_train(self, sched):
        fired, runs = [], []

        def run(due, period, k):
            runs.append((due, period, k))
            fired.extend(range(due, due + k * period, period))
            return k

        handle = sched.schedule(1, _Trained(lambda: fired.append(sched.now), run).fire, periodic=1)
        assert sched.advance_to(10) == 10
        assert fired == list(range(1, 11)) and runs == [(1, 1, 10)]
        assert handle.pending and sched.next_due() == 11

    def test_a_run_of_two_or_more_firings_is_offered_whole(self, sched):
        """A run of one firing, before the head of the heap or at the target,
        is a plain call; a longer run is offered whole, in one call."""
        fired, offered = [], []

        def run(due, period, k):
            offered.append(k)
            fired.extend(range(due, due + k * period, period))
            return k

        sched.schedule(1, _Trained(lambda: fired.append(sched.now), run).fire, periodic=1)
        sched.schedule(5, lambda: fired.append(-5))
        end = 100_000
        assert sched.advance_to(end) == end + 1
        assert sched.advance_to(end + 1) == 1
        assert offered == [4, end - 4]  # 1 to 4, then 5 to end
        assert fired == [1, 2, 3, 4, -5, *range(5, end + 2)]

    def test_a_plain_function_with_a_train_attribute_fires_plainly(self, sched):
        fired = []

        def tick():
            fired.append(sched.now)

        tick.train = lambda due, period, k: pytest.fail("train called")
        sched.schedule(1, tick, periodic=1)
        assert sched._heap[0][2].train is None
        assert sched.advance_to(10) == 10 and fired == list(range(1, 11))

    def test_a_functools_wraps_spy_sees_every_firing(self, sched):
        """functools.wraps copies the method's `train` onto the spy; the spy
        still gets no train, and every firing goes through it."""
        fired, spied = [], []
        trained = _Trained(lambda: fired.append(sched.now), lambda due, period, k: pytest.fail("train called"))

        @functools.wraps(trained.fire)
        def spy():
            spied.append(sched.now)
            trained.fire()

        assert spy.train is _Trained._train
        handle = sched.schedule(1, spy, periodic=1)
        assert handle.train is None
        assert sched.advance_to(10) == 10
        assert spied == fired == list(range(1, 11))


class TestRaisingAction:
    """An action that raises ends its event: the handle is done, the clock
    rests at its due time and the exception reaches whoever advanced."""

    @staticmethod
    def _boom_on(firing):
        fired = []

        def action():
            fired.append(len(fired))
            if len(fired) == firing:
                raise RuntimeError("boom")

        return fired, action

    @pytest.mark.parametrize("period", [None, 10])
    def test_the_event_is_done_and_the_clock_rests_at_its_due_time(self, sched, period):
        fired, action = self._boom_on(2 if period else 1)
        handle = sched.schedule(10, action, periodic=period)
        later = []
        sched.schedule(35, lambda: later.append(sched.now))
        with pytest.raises(RuntimeError, match="boom"):
            sched.advance_to(100)
        assert sched.now == (20 if period else 10)
        assert not handle.pending
        assert sched.cancel(handle) is False
        assert all(entry[2] is not handle for entry in sched._heap)
        sched.advance_to(100)
        assert fired == ([0, 1] if period else [0])
        assert later == [35] and sched.now == 100

    def test_a_raise_inside_a_nested_advance_ends_each_action_it_leaves(self, sched):
        _, action = self._boom_on(1)
        inner = sched.schedule(5, action)
        outer = sched.schedule(1, lambda: sched.advance_to(8), periodic=50)
        bystander = sched.schedule(30, lambda: None)
        with pytest.raises(RuntimeError):
            sched.advance_to(20)
        assert sched.now == 5
        assert not inner.pending and not outer.pending
        assert bystander.pending and sched.next_due() == 30


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
    heap before it can fire again, and a cancelled event's entry stays there
    until it is popped. Time never runs backwards: a re-armed event whose
    next due time a nested advance already passed is due now, and a nested
    advance past `to` leaves now where it is."""

    def cancel(self, handle):
        if handle is None or handle.action is None:
            return False
        handle.action = handle.train = None
        return True

    def advance_to(self, to):
        if to < self.now:
            raise ScheduleError(f"cannot advance backwards: now={self.now}, to={to}")
        fired = 0
        while self._heap and self._heap[0][0] <= to:
            due, _seq, event = heapq.heappop(self._heap)
            if event.action is None:
                continue
            self.now = due
            event.action()
            fired += 1
            if event.period is not None and event.action is not None:
                self._seq += 1
                heapq.heappush(
                    self._heap, (max(due + event.period, self.now), self._seq, event)
                )
            else:
                event.action = event.train = None
        self.now = max(self.now, to)
        return fired


# (firing number, what the action does on that firing, argument)
_OP = st.tuples(
    st.integers(0, 3),
    st.sampled_from(
        [
            "cancel_self",
            "cancel_other",
            "at_now",
            "at_next_due",
            "before_next_due",
            "periodic_child",
            "nest",
            "watch",
            "unwatch",
        ]
    ),
    st.integers(0, 7),
)
# (delay, period or None, ops, most firings per train call or None for no train)
_EVENT = st.tuples(
    st.integers(0, 12), st.none() | st.integers(1, 4), st.lists(_OP, max_size=3), st.none() | st.integers(1, 5)
)
_SCENARIO = st.tuples(
    st.lists(_EVENT, min_size=1, max_size=6), st.lists(st.integers(0, 15), min_size=1, max_size=4)
)

# A periodic event whose first firing cancels a one-shot event due `gap` ms
# later, so one of its re-arms can meet that event at the head of the heap.
_CANCELLED_HEAD = st.builds(
    lambda delay, period, cap, gap, more, steps: (
        [(delay, period, [(0, "cancel_other", 1)], cap), (delay + gap, None, [], None), *more],
        [*steps, 16],
    ),
    st.integers(0, 3),
    st.integers(1, 4),
    st.none() | st.integers(1, 5),
    st.integers(1, 12),
    st.lists(_EVENT, max_size=3),
    st.lists(st.integers(0, 15), max_size=3),
)
# A periodic event and one-shot events due at some of its re-arm times.
# Up to ten events whose firings mostly cancel others or themselves, so
# dead entries pass half the heap and a cancel rebuilds it, mid-advance too.
_CANCEL_OP = st.tuples(
    st.integers(0, 1),
    st.sampled_from(["cancel_other", "cancel_other", "cancel_other", "cancel_self", "at_now", "periodic_child"]),
    st.integers(0, 7),
)
_CANCEL_HEAVY = st.builds(
    lambda events, steps: (events, [*steps, 16]),
    st.lists(
        st.tuples(
            st.integers(0, 6),
            st.integers(1, 4) | st.none(),
            st.lists(_CANCEL_OP, min_size=1, max_size=3),
            st.none() | st.integers(1, 5),
        ),
        min_size=4,
        max_size=10,
    ),
    st.lists(st.integers(0, 15), max_size=3),
)
_SAME_MS = st.builds(
    lambda delay, period, cap, ops, multiples, more, steps: (
        [(delay, period, ops, cap), *((delay + m * period, None, [], None) for m in multiples), *more],
        [*steps, 16],
    ),
    st.integers(0, 3),
    st.integers(1, 4),
    st.none() | st.integers(1, 5),
    st.lists(_OP, max_size=2),
    st.lists(st.integers(1, 3), min_size=1, max_size=3),
    st.lists(_EVENT, max_size=2),
    st.lists(st.integers(0, 15), max_size=3),
)


class _PushPopSpy:
    """Counts the heappushpop calls that hand advance_to a cancelled event,
    and those that hand it a one-shot event due in the ms of the re-armed
    event that went in."""

    def __init__(self):
        self.cancelled = self.same_ms = 0

    def __call__(self, heap, item, pushpop=heapq.heappushpop):
        got = pushpop(heap, item)
        self.cancelled += got[2].action is None
        self.same_ms += got[0] == item[0] and got[2].period is None
        return got


def _play(sched, scenario):
    """Run a scenario; return everything observable about the run.

    An event with a train cap offers a train, as an isr blinker does: each
    firing is also seen by every watcher subscribed at the time, so the
    train declines while anyone watches, and it stops before a firing whose
    ops would touch the scheduler other than by cancelling its own event.
    Also checks that the clock never ran backwards in between.
    """
    events, steps = scenario
    log, handles, fires, depth, seen, watchers = [], [], {}, [0], [], []

    def spawn(label, delay, period, ops=(), cap=None):
        def fire(at):
            n = fires[label] = fires.get(label, -1) + 1
            seen.append(at)
            log.append((label, n, at))
            if cap is not None:
                log.extend((watcher, label, n, at) for watcher in watchers)
            return n

        def act(n):
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
                    spawn(child, arg % 3, 1, cap=arg % 4 or None)
                elif op == "watch":
                    watchers.append(child)
                elif op == "unwatch":
                    del watchers[-1:]
                elif depth[0] < 2:  # nest
                    depth[0] += 1
                    log.append((child, sched.advance_to(sched.now + arg % 5), sched.now))
                    seen.append(sched.now)
                    depth[0] -= 1

        def action():
            act(fire(sched.now))

        def train(due, step, k):
            if watchers:
                return 0
            done = 0
            for at in range(due, due + min(k, cap) * step, step):
                upcoming = {op for on, op, _ in ops if on == fires.get(label, -1) + 1}
                if upcoming - {"cancel_self"}:
                    break
                act(fire(at))
                done += 1
                if handle.action is None:
                    break
            return done

        if cap is not None:
            action = _Trained(action, train).fire
        handle = sched.schedule(delay, action, periodic=period)
        handles.append(handle)

    for i, (delay, period, ops, cap) in enumerate(events):
        spawn(f"e{i}", delay, period, ops, cap)
    counts = []
    for step in steps:
        counts.append(sched.advance_by(step))
        seen.append(sched.now)
    assert seen == sorted(seen), "time ran backwards"
    if type(sched) is Scheduler:  # its count of cancels bounds the dead entries it keeps
        assert sum(event.action is None for _due, _seq, event in sched._heap) <= sched._dead
    return (
        log,
        counts,
        sched.now,
        sched._seq,
        [h.pending for h in handles],
        sched.next_due(),
        sorted((due, seq) for due, seq, event in sched._heap if event.action is not None),
    )


class TestAdvanceMatchesHeapLoop:
    def test_same_run_as_the_plain_heap_loop(self):
        """Trains, plain actions, watchers and cancels mixed: the run is the
        heap loop's, which fires every action one call at a time. In some
        examples a train does fewer firings than it is offered, stopped by
        its event's cap or by a firing that must run plainly, and the
        scheduler loops over the rest of the run."""
        partial = []
        train = _Trained._train

        def spy(trained, due, period, k):
            n = train(trained, due, period, k)
            partial[-1] |= 0 < n < k
            return n

        @settings(max_examples=400, deadline=None, derandomize=True, database=None)
        @given(_SCENARIO)
        def same_run(scenario):
            partial.append(False)
            with mock.patch.object(_Trained.fire, "train", spy):
                ours = _play(Scheduler(), scenario)
            assert ours == _play(_HeapLoopScheduler(), scenario)

        same_run()
        assert sum(partial) >= 20, (sum(partial), len(partial))

    @pytest.mark.parametrize("mix, seen", [(_CANCELLED_HEAD, "cancelled"), (_SAME_MS, "same_ms")])
    def test_same_run_when_a_rearm_swaps_with_the_head(self, mix, seen):
        """The head that a re-arm's heappushpop takes off is a cancelled event,
        or a one-shot event due in the same ms as the re-armed one: both mixes
        hit their case in most examples."""
        spy = _PushPopSpy()

        @settings(max_examples=100, deadline=None, derandomize=True, database=None)
        @given(mix)
        def same_run(scenario):
            with mock.patch.object(simcore.heapq, "heappushpop", spy):
                ours = _play(Scheduler(), scenario)
            assert ours == _play(_HeapLoopScheduler(), scenario)

        same_run()
        assert getattr(spy, seen) >= 50, vars(spy)

    def test_same_run_when_cancels_rebuild_the_heap(self):
        """Cancel-heavy mixes: the heap's rebuilds change no firing, and most
        examples rebuild it."""
        rebuilt = []

        @settings(max_examples=200, deadline=None, derandomize=True, database=None)
        @given(_CANCEL_HEAVY)
        def same_run(scenario):
            with mock.patch.object(simcore.heapq, "heapify", wraps=heapq.heapify) as heapify:
                ours = _play(Scheduler(), scenario)
            rebuilt.append(heapify.called)
            assert ours == _play(_HeapLoopScheduler(), scenario)

        same_run()
        assert 2 * sum(rebuilt) > len(rebuilt), (sum(rebuilt), len(rebuilt))

    def test_rearmed_event_yields_to_an_older_event_at_the_same_ms(self, sched):
        """The tick re-armed for 3 ms takes a newer seq than `once`, queued at 0."""
        order = []
        sched.schedule(1, lambda: order.append(("tick", sched.now)), periodic=1)
        sched.schedule(3, lambda: order.append(("once", sched.now)))
        assert sched.advance_to(4) == 5
        assert order == [("tick", 1), ("tick", 2), ("once", 3), ("tick", 3), ("tick", 4)]


class _CountingLine(GpioLine):
    trains = 0

    def toggle_train(self, first, period, n):
        self.trains += 1
        return super().toggle_train(first, period, n)


def _soak_mix(spy_on_blink: bool):
    """An isr blink that ends mid-run, a GPS emitter with both sentences and a
    dynamic RTC on one clock, each periodic action but the blink's (and the
    blink's too when asked) wrapped by a functools.wraps spy that logs its
    firings."""
    sched = Scheduler()
    line, link = _CountingLine(), UartLink(sched)
    fires = []
    schedule = sched.schedule

    def spied(delay, action, periodic=None):
        name = action.__qualname__
        if spy_on_blink or name != "Blinker._isr_toggle":
            inner = action

            @functools.wraps(inner)
            def action():
                fires.append((name, sched.now, len(line.edges)))
                inner()

        return schedule(delay, action, periodic)

    sched.schedule = spied
    Blinker(line, 3, 3000, sched).blink("isr")
    GpsDouble(link.b, sched)
    for body in ("PDBL,SEL,RMC,1", "PDBL,RATE,250"):
        link.a.send((wrap_sentence(body) + "\r\n").encode("ascii"))
    RtcDouble(I2cBus(), sched, mode="dynamic")
    fired = sched.advance_by(20_000)
    blinks = [at for name, at, _ in fires if name == "Blinker._isr_toggle"]
    others = [fire for fire in fires if fire[0] != "Blinker._isr_toggle"]
    return (others, list(line.edges), line.level, sched.now, sched._seq, fired), blinks, line.trains


def test_a_soak_mix_runs_the_same_whether_the_blink_is_spied_on_or_not():
    """Trains run only for the bare blink action; everything seen is the same."""
    bare, bare_blinks, bare_trains = _soak_mix(spy_on_blink=False)
    spied, blinks, spied_trains = _soak_mix(spy_on_blink=True)
    assert bare == spied
    others, edges, level, now, _seq, fired = bare
    assert blinks == edges == [3 * k for k in range(1, 6001)] and level == 0
    assert fired == 6000 + 20_000 // 250 + 20_000 // 1000 == len(others) + len(edges)
    assert now == 20_000
    assert bare_blinks == [] and spied_trains == 0 and bare_trains > 0


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
