"""Peripheral impostors: LED edge window, RTC registers, GPS talker, SPI slave, BLE central."""

import datetime
import random
import time
from functools import reduce

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from double_harness.bus import (
    BleAir,
    GpioLine,
    I2cBus,
    I2cNackError,
    NotConnectedError,
    ScanTimeoutError,
    SpiBus,
    UartLink,
)
from double_harness.doubles import (
    RTC_ADDR,
    BleCentralDouble,
    FixFormatError,
    GpsDouble,
    LedDouble,
    NotifyTimeoutError,
    NotReadyError,
    RtcDouble,
    SpiSlaveDouble,
    _sentence,
    nmea_checksum,
    split_sentence,
    wrap_sentence,
)
from double_harness.dut import BleTempSensor
from double_harness.simcore import MAX_SIM_MS, ScheduleError, Scheduler
from double_harness.suites import DOUBLE_LED_PIN
from double_harness.transport import Command, send_command

# ---------------------------------------------------------------------------
# Independent oracles


def oracle_decode_regs(regs) -> datetime.datetime:
    """Civil datetime from a 7-byte BCD register image (stdlib calendar)."""

    def dec(b):
        return (b >> 4) * 10 + (b & 0x0F)

    return datetime.datetime(
        2000 + dec(regs[6]), dec(regs[5]), dec(regs[4]), dec(regs[2]), dec(regs[1]), dec(regs[0])
    )


def oracle_encode(dt: datetime.datetime, weekday: int) -> list[int]:
    def enc(v):
        return ((v // 10) << 4) | (v % 10)

    return [
        enc(dt.second),
        enc(dt.minute),
        enc(dt.hour),
        enc(weekday),
        enc(dt.day),
        enc(dt.month),
        enc(dt.year - 2000),
    ]


def oracle_checksum(body: str) -> int:
    """XOR fold, written independently of the module under test."""
    return reduce(lambda acc, ch: acc ^ ord(ch), body, 0)


# ---------------------------------------------------------------------------
# LED


class TestLedDouble:
    def make(self, toggles=4):
        line = GpioLine()
        return line, LedDouble(line, toggles)

    def test_average_of_uniform_2000ms_toggles(self):
        line, led = self.make(4)
        led.start_acquisition()
        for i in range(1, 5):
            line.toggle(i * 2000)
        assert led.get_avg_blink_ms() == 2000.0

    def test_average_of_0_100_200_300(self):
        line, led = self.make(4)
        led.start_acquisition()
        line.write(1, 0)
        for t in (100, 200, 300):
            line.toggle(t)
        assert led.get_avg_blink_ms() == 100.0

    def test_mean_of_uneven_intervals(self):
        # intervals 90, 110, 100 -> mean 100
        line, led = self.make(4)
        led.start_acquisition()
        for t in (0, 90, 200, 300):
            line.toggle(t)
        assert led.get_avg_blink_ms() == 100.0

    def test_not_ready_before_enough_edges(self):
        line, led = self.make(4)
        led.start_acquisition()
        line.toggle(10)
        with pytest.raises(NotReadyError):
            led.get_avg_blink_ms()

    def test_edges_before_start_are_ignored(self):
        line, led = self.make(2)
        line.toggle(5)
        led.start_acquisition()
        line.toggle(100)
        line.toggle(150)
        assert led.get_avg_blink_ms() == 50.0

    def test_stops_capturing_after_expected_toggles(self):
        line, led = self.make(2)
        led.start_acquisition()
        for t in (10, 20, 30, 40):
            line.toggle(t)
        assert led.captured == [10, 20]


class _ListeningLed:
    """Reference: an LED that subscribes to the line and copies each edge time
    into its own list while an acquisition is open, and averages the
    intervals one by one."""

    def __init__(self, line, expected_toggles):
        self.line, self.expected_toggles = line, expected_toggles
        self.captured, self.acquiring = [], False
        line.subscribe(self.on_edge)

    def start_acquisition(self):
        self.captured, self.acquiring = [], True

    def on_edge(self, at, _level):
        if self.acquiring and len(self.captured) < self.expected_toggles:
            self.captured.append(at)

    def get_avg_blink_ms(self):
        if len(self.captured) < self.expected_toggles:
            raise NotReadyError(f"captured {len(self.captured)} of {self.expected_toggles} edges")
        intervals = [b - a for a, b in zip(self.captured, self.captured[1:])]
        return sum(intervals) / len(intervals)


def _reading(led):
    try:
        return list(led.captured), led.get_avg_blink_ms()
    except NotReadyError as exc:
        return list(led.captured), str(exc)


_LED_OPS = st.lists(
    st.tuples(st.just("write"), st.integers(0, 1))  # writing the current level is a no-op
    | st.tuples(st.just("sleep"), st.integers(0, 40))
    | st.tuples(st.just("burst"), st.integers(1, 30))  # toggles 1 ms apart
    | st.just(("start_acquisition",)),
    max_size=40,
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(0, 1), max_size=4), st.integers(2, 40), _LED_OPS)
@example([1], 2, [("start_acquisition",), ("burst", 3), ("start_acquisition",), ("burst", 2)])  # restarted
@example([], 40, [("start_acquisition",), ("burst", 30)])  # window longer than the log
def test_led_window_of_the_edge_log_reads_like_a_listener(before, toggles, ops):
    """Over any writes, sleeps, bursts and acquisitions, the LED double's
    window of the line's edge log captures what a subscribed
    listener would have, and its end-point average is the listener's mean of
    intervals exactly, or the same NotReadyError text."""
    line, now = GpioLine(), 0
    for level in before:  # edges logged before the LED exists
        line.write(level, now)
    led, reference = LedDouble(line, toggles), _ListeningLed(line, toggles)
    for op, *arg in ops:
        if op == "write":
            line.write(arg[0], now)
        elif op == "sleep":
            now += arg[0]
        elif op == "burst":
            for _ in range(arg[0]):
                now += 1
                line.toggle(now)
        else:
            getattr(led, op)()
            getattr(reference, op)()
        assert _reading(led) == _reading(reference)


@pytest.mark.parametrize(
    "toggles, refusal",
    [
        (2, None),
        (1, "ValueError: expected_toggles must be an int >= 2, got 1"),
        (2.5, "ValueError: expected_toggles must be an int >= 2, got 2.5"),
        (4.0, "ValueError: expected_toggles must be an int >= 2, got 4.0"),
        (True, "ValueError: expected_toggles must be an int >= 2, got True"),
    ],
    ids=["2", "1", "2.5", "4.0", "true"],
)
def test_led_toggle_count_follows_the_int_rule_on_the_wire(rig, toggles, refusal):
    """The toggle count indexes the edge log, so NEW refuses a float, a bool
    or a count under 2, as Blinker refuses its count; 2 is measured."""

    def send(verb, method, *args):
        return send_command(rig.session.double.endpoint, Command(verb, "l", method, args))

    resp = send("NEW", "Led", DOUBLE_LED_PIN, toggles)
    if refusal is not None:
        assert (resp.code, resp.message) == ("EXEC", refusal)
        return
    assert resp.ok and send("CALL", "start_acquisition").ok
    rig.led_line.toggle(10)
    rig.led_line.toggle(30)
    assert send("CALL", "get_avg_blink_ms").payload == 20.0


# ---------------------------------------------------------------------------
# RTC


@pytest.fixture
def rtc_setup(sched):
    i2c = I2cBus()
    rtc = RtcDouble(i2c, sched, mode="static")
    return i2c, rtc, sched


class TestRtcRegisters:
    def test_write_then_read_seven_registers(self, rtc_setup):
        i2c, rtc, _ = rtc_setup
        image = [0x30, 0x59, 0x23, 0x02, 0x28, 0x02, 0x21]
        i2c.write_then_read(0x68, bytes([0x00] + image), 0)
        assert list(i2c.write_then_read(0x68, b"\x00", 7)) == image

    def test_all_zero_write_reads_back_midnight(self, rtc_setup):
        i2c, _, _ = rtc_setup
        i2c.write_then_read(0x68, bytes([0x00] + [0] * 7), 0)
        assert i2c.write_then_read(0x68, b"\x00", 7) == bytes(7)

    def test_read_wraps_past_register_six(self, rtc_setup):
        i2c, rtc, _ = rtc_setup
        rtc.load_registers([1, 2, 3, 4, 5, 6, 7])
        assert list(i2c.write_then_read(0x68, b"\x05", 4)) == [6, 7, 1, 2]

    def test_pointer_out_of_range_nacks(self, rtc_setup):
        i2c, _, _ = rtc_setup
        with pytest.raises(I2cNackError):
            i2c.write_then_read(0x68, b"\x07", 1)

    def test_empty_write_zero_read(self, rtc_setup):
        i2c, _, _ = rtc_setup
        assert i2c.write_then_read(0x68, b"", 0) == b""

    def test_close_releases_the_address(self, sched):
        i2c = I2cBus()
        rtc = RtcDouble(i2c, sched)
        rtc.close()
        RtcDouble(i2c, sched)  # address free again

    def test_rejected_mode_leaves_the_address_free(self, sched):
        """The mode is checked before the part goes on the bus: a double that
        failed to build is never hosted, so nothing would close it."""
        i2c = I2cBus()
        with pytest.raises(ValueError, match="static or dynamic"):
            RtcDouble(i2c, sched, mode="bogus")
        RtcDouble(i2c, sched)


class TestRtcModes:
    def test_static_mode_holds_time(self, rtc_setup):
        i2c, rtc, sched = rtc_setup
        image = [0x30, 0x59, 0x23, 0x02, 0x28, 0x02, 0x21]
        rtc.load_registers(image)
        sched.advance_by(3_600_000)
        assert rtc.read_registers() == image

    def test_dynamic_advance_rolls_midnight_and_month(self, rtc_setup):
        """23:59:30 on 2021-02-28 plus 30 s is 00:00:00 on 2021-03-01."""
        _, rtc, sched = rtc_setup
        rtc.load_registers([0x30, 0x59, 0x23, 0x02, 0x28, 0x02, 0x21])
        rtc.set_mode("dynamic")
        sched.advance_by(30_000)
        assert rtc.read_registers() == [0x00, 0x00, 0x00, 0x03, 0x01, 0x03, 0x21]

    def test_mode_changes_are_idempotent_and_preserve_registers(self, rtc_setup):
        _, rtc, sched = rtc_setup
        rtc.load_registers([0x15, 0x30, 0x12, 0x04, 0x10, 0x06, 0x21])
        rtc.set_mode("dynamic")
        rtc.set_mode("dynamic")
        rtc.set_mode("static")
        rtc.set_mode("static")
        before = rtc.read_registers()
        sched.advance_by(10_000)
        assert rtc.read_registers() == before

    def test_static_to_dynamic_to_static_leaves_no_ticks(self, rtc_setup):
        _, rtc, sched = rtc_setup
        rtc.set_mode("dynamic")
        rtc.set_mode("static")
        assert sched.next_due() is None

    def test_weekday_counter_wraps_seven_to_one(self, rtc_setup):
        _, rtc, _ = rtc_setup
        rtc.load_registers([0x59, 0x59, 0x23, 0x07, 0x01, 0x01, 0x21])
        rtc.advance_seconds(1)
        assert rtc.read_registers()[3] == 0x01


class TestRtcCalendarOracle:
    def test_random_datetimes_against_stdlib_calendar(self):
        """advance_seconds agrees with datetime+timedelta across 2000-2099."""
        rng = random.Random(2024)
        sched = Scheduler()
        rtc = RtcDouble(I2cBus(), sched)
        for _ in range(200):
            start = datetime.datetime(
                rng.randrange(2000, 2100), rng.randrange(1, 13), 1,
                rng.randrange(0, 24), rng.randrange(0, 60), rng.randrange(0, 60),
            )
            start = start.replace(
                day=rng.randrange(1, 1 + _month_len(start.year, start.month))
            )
            delta = rng.randrange(0, 1_000_000)
            rtc.load_registers(oracle_encode(start, weekday=1))
            rtc.advance_seconds(delta)
            expected = start + datetime.timedelta(seconds=delta)
            if expected.year > 2099:
                continue  # outside the register range by construction
            assert oracle_decode_regs(rtc.read_registers()) == expected

    def test_leap_day_is_counted(self):
        sched = Scheduler()
        rtc = RtcDouble(I2cBus(), sched)
        rtc.load_registers(oracle_encode(datetime.datetime(2024, 2, 28, 23, 59, 59), 4))
        rtc.advance_seconds(1)
        assert oracle_decode_regs(rtc.read_registers()) == datetime.datetime(2024, 2, 29)

    def test_non_leap_february_skips_to_march(self):
        sched = Scheduler()
        rtc = RtcDouble(I2cBus(), sched)
        rtc.load_registers(oracle_encode(datetime.datetime(2021, 2, 28, 23, 59, 59), 7))
        rtc.advance_seconds(1)
        assert oracle_decode_regs(rtc.read_registers()) == datetime.datetime(2021, 3, 1)

    def test_scheduler_ticks_equal_bulk_advance(self):
        """Dynamic-mode 1 Hz ticking lands on the same registers as one bulk jump."""
        rng = random.Random(5)
        for _ in range(20):
            seconds = rng.randrange(1, 7200)
            start = datetime.datetime(2021, 2, 28, 23, rng.randrange(0, 60), rng.randrange(0, 60))
            image = oracle_encode(start, weekday=7)

            sched_a = Scheduler()
            ticked = RtcDouble(I2cBus(), sched_a)
            ticked.load_registers(image)
            ticked.set_mode("dynamic")
            sched_a.advance_by(seconds * 1000)

            bulk = RtcDouble(I2cBus(), Scheduler())
            bulk.load_registers(image)
            bulk.advance_seconds(seconds)

            assert ticked.read_registers() == bulk.read_registers()


def per_day_advance(rtc, n):
    """Reference: advance_seconds as a plain loop of one register step per day,
    with the time registers written only once every step has passed."""

    def dec(b):
        return (b >> 4) * 10 + (b & 0x0F)

    def enc(v):
        return ((v // 10) << 4) | (v % 10)

    tod = dec(rtc.regs[2]) * 3600 + dec(rtc.regs[1]) * 60 + dec(rtc.regs[0]) + n
    days, tod = divmod(tod, 86400)
    for _ in range(days):
        rtc._advance_one_day()
    rtc.regs[0:3] = bytes([enc(tod % 60), enc(tod // 60 % 60), enc(tod // 3600)])


def _outcome(advance, image, n):
    rtc = RtcDouble(I2cBus(), Scheduler())
    rtc.load_registers(image)
    try:
        advance(rtc, n)
    except ValueError as exc:  # a garbage year register is refused mid-step
        return "ValueError", str(exc), rtc.read_registers()
    return None, None, rtc.read_registers()


class TestRtcBulkAdvance:
    def test_matches_the_per_day_loop_on_valid_and_garbage_images(self):
        rng = random.Random(36525)
        for i in range(36):
            if i % 2:
                start = datetime.datetime(2000, 1, 1) + datetime.timedelta(
                    seconds=rng.randrange(36525 * 86400)
                )
                image = oracle_encode(start, weekday=rng.randrange(1, 8))
            else:  # any byte in the time, weekday, day and month registers
                image = [rng.randrange(256) for _ in range(6)] + [rng.choice((0x99, 0x47, 0xFF))]
            days = rng.choice(
                (rng.randrange(4), rng.randrange(800), 36525 * rng.randrange(1, 3) + rng.randrange(-2, 3))
            )
            n = days * 86400 + rng.randrange(86400)
            got = _outcome(RtcDouble.advance_seconds, image, n)
            assert got == _outcome(per_day_advance, image, n), (image, n)

    def test_a_huge_advance_takes_at_most_one_calendar_cycle_of_steps(self, monkeypatch):
        steps = []
        one_day = RtcDouble._advance_one_day

        def counting(self):
            steps.append(1)
            assert len(steps) <= 36525, "stepped past one 2000-2099 calendar cycle"
            one_day(self)

        monkeypatch.setattr(RtcDouble, "_advance_one_day", counting)
        days = 10**10
        start = datetime.datetime(2024, 2, 28, 23, 59, 59)
        rtc = RtcDouble(I2cBus(), Scheduler())
        rtc.load_registers(oracle_encode(start, weekday=3))
        rtc.advance_seconds(days * 86400)
        # 2000-01-01 + 36525 days is 2100-01-01, so the register calendar wraps there.
        epoch = datetime.datetime(2000, 1, 1)
        expected = epoch + datetime.timedelta(days=((start - epoch).days + days) % 36525)
        expected = expected.replace(hour=23, minute=59, second=59)
        assert oracle_decode_regs(rtc.read_registers()) == expected
        assert rtc.read_registers()[3] == (3 - 1 + days) % 7 + 1


@pytest.mark.parametrize("n", [True, -1, 1.5])
def test_rtc_advance_that_is_not_an_int_ge_zero_gets_err_exec(rig, n):
    def send(method, *args):
        return send_command(rig.session.double.endpoint, Command("CALL", "rtc", method, args))

    assert send_command(rig.session.double.endpoint, Command("NEW", "rtc", "Rtc", ("static",))).ok
    assert send("load_registers", [0x59, 0x59, 0x23, 0x07, 0x31, 0x12, 0x99]).ok
    before = send("read_registers").payload
    resp = send("advance_seconds", n)
    assert resp.code == "EXEC" and resp.message.startswith("ValueError: "), resp
    assert send("read_registers").payload == before


def _garbage_year_tick(rig):
    """Load 23:59:59 with year 165 into a dynamic RTC and run a blocking blink
    through its first tick; return the RTC, whose tick then failed."""
    double, dut = rig.session.double.endpoint, rig.session.dut.endpoint
    assert send_command(double, Command("NEW", "rtc", "Rtc", ("dynamic",))).ok
    garbage = [0x59, 0x59, 0x23, 1, 1, 1, 0xFF]  # [89,89,35,1,1,1,255] on the wire
    assert send_command(double, Command("CALL", "rtc", "load_registers", (garbage,))).ok
    assert send_command(dut, Command("NEW", "b", "Blinker", (13, 10, 300))).ok
    resp = send_command(dut, Command("CALL", "b", "blink", ("blocking",)))
    assert resp.code == "EXEC" and resp.message.startswith("ValueError: BCD range"), resp
    assert rig.scheduler.now == 1000
    return rig.session.double.registry.objects["rtc"]


def test_a_tick_on_a_garbage_year_ends_the_tick_and_writes_no_register(rig):
    """The tick at 1000 ms rolls 23:59:59 over midnight and cannot encode year
    165: the command that moved the clock answers ERR EXEC, the tick is done
    (not pending, not queued) and all seven registers are as loaded."""
    rtc = _garbage_year_tick(rig)
    tick = rtc._tick_handle
    assert not tick.pending
    assert all(entry[2] is not tick for entry in rig.scheduler._heap)
    assert rtc.read_registers() == [0x59, 0x59, 0x23, 1, 1, 1, 0xFF]


def test_set_mode_dynamic_rearms_a_tick_that_a_garbage_year_ended(rig):
    """After the failed tick, a valid image plus set_mode("dynamic") ticks
    again, and a second set_mode("dynamic") on the ticking RTC arms no
    second tick: 5 s of sim time adds 5 s."""

    def send(method, *args):
        return send_command(rig.session.double.endpoint, Command("CALL", "rtc", method, args))

    _garbage_year_tick(rig)
    assert send("load_registers", [0, 0, 0, 1, 1, 1, 36]).ok
    assert send("set_mode", "dynamic").ok
    assert send("set_mode", "dynamic").ok
    rig.scheduler.advance_by(5000)
    assert send("read_registers").payload == [5, 0, 0, 1, 1, 1, 36]


class TestRtcOnTheWire:
    """An RTC double on the rig: its registers loaded and read over the
    command channel, or clocked on the rig's I2C bus as a driver would."""

    IMAGE = [0x10, 0x11, 0x12, 0x13, 0x14, 0x15, 0x16]

    @pytest.fixture
    def rtc(self, rig):
        def send(method, *args):
            return send_command(rig.session.double.endpoint, Command("CALL", "rtc", method, args))

        assert send_command(rig.session.double.endpoint, Command("NEW", "rtc", "Rtc", ("static",))).ok
        assert send("load_registers", self.IMAGE).ok
        return send, rig.i2c

    def test_advance_by_zero_seconds_is_a_no_op(self, rtc):
        """`n < 0` to `<= 0` refuses it."""
        send, _ = rtc
        assert send("advance_seconds", 0).ok
        assert send("read_registers").payload == self.IMAGE

    @pytest.mark.parametrize(
        "wbytes, nread, then, expected",
        [
            ([3], 0, 2, [0x13, 0x14]),  # a pointer-only write leaves the pointer there
            ([6, 0xA6, 0xA0, 0xA1], 0, 2, [0x12, 0x13]),  # past the write: (6 + 3) % 7
            ([5], 4, 3, [0x12, 0x13, 0x14]),  # past the read: (5 + 4) % 7
            ([6, 0xA6], 3, 1, [0x13]),  # past both: (6 + 1 + 3) % 7
        ],
    )
    def test_the_next_read_goes_on_from_the_register_pointer(self, rtc, wbytes, nread, then, expected):
        """A transaction that writes no pointer reads on from where the last
        one left it, as on the real part, wrapping past register 6. The
        pointer moves past every byte written and read, modulo 7."""
        send, i2c = rtc
        i2c.write_then_read(RTC_ADDR, bytes(wbytes), nread)
        assert list(i2c.write_then_read(RTC_ADDR, b"", then)) == expected
        written = {(wbytes[0] + i) % 7: v for i, v in enumerate(wbytes[1:])}
        assert send("read_registers").payload == [written.get(i, v) for i, v in enumerate(self.IMAGE)]

    @pytest.mark.parametrize("mode", ["static", "dynamic"])
    def test_a_bad_mode_is_refused_and_the_clock_keeps_its_mode(self, rtc, rig, mode):
        send, _ = rtc
        assert send("set_mode", mode).ok
        resp = send("set_mode", "Dynamic")
        assert resp.code == "EXEC"
        assert resp.message == "ValueError: mode must be static or dynamic, got 'Dynamic'"
        rig.scheduler.advance_by(2000)
        assert send("read_registers").payload[0] == (0x12 if mode == "dynamic" else 0x10)

    @pytest.mark.parametrize(
        "values, message",
        [
            ([0] * 6, "expected 7 bytes, got 6"),
            ([0] * 8, "expected 7 bytes, got 8"),
            ([0, 0, 0, 1, 1, 1, 256], "byte out of range: 256"),
            ([-1, 0, 0, 1, 1, 1, 0], "byte out of range: -1"),
            ([True, 0, 0, 1, 1, 1, 0], "byte out of range: True"),
            ([0, 0, 0, 1, 1, 1, 1.0], "byte out of range: 1.0"),
            ([0, 0, 0, 1, 1, 1, "1"], "byte out of range: '1'"),
            ("0123456", "values must be a list of byte values, got str"),
            ({"0": 0}, "values must be a list of byte values, got dict"),
            (7, "values must be a list of byte values, got int"),
        ],
    )
    def test_a_bad_register_image_is_refused_whole(self, rtc, values, message):
        """Only a list of seven ints in 0..255 loads; a bool, float or str
        byte, or an image that is no list, leaves every register as it was."""
        send, _ = rtc
        resp = send("load_registers", values)
        assert (resp.code, resp.message) == ("EXEC", f"ValueError: {message}")
        assert send("read_registers").payload == self.IMAGE

    def test_the_byte_bounds_load(self, rtc):
        send, _ = rtc
        assert send("load_registers", [0, 0xFF, 0, 0xFF, 0, 0xFF, 0]).ok
        assert send("read_registers").payload == [0, 0xFF, 0, 0xFF, 0, 0xFF, 0]


def _tick(rtc, n):
    assert n == 1
    rtc._tick()


class TestRtcTickFastPath:
    """A tick is advance_seconds(1), whatever the register bytes: the fast
    path's byte store and the long way agree, errors and all."""

    def test_every_seconds_byte_beside_every_minute_byte(self):
        """23:mm:ss on 2024-02-28, so a carry out of a valid minute ends the day."""
        for second in range(256):
            for minute in range(256):
                image = [second, minute, 0x23, 3, 0x28, 0x02, 0x24]
                assert _outcome(_tick, image, 1) == _outcome(RtcDouble.advance_seconds, image, 1), image

    @pytest.mark.parametrize("year", [0x24, 0xFF])  # a garbage year refuses the day step
    def test_every_hour_byte(self, year):
        for hour in range(256):
            for second, minute in ((0x00, 0x00), (0x58, 0x59), (0x59, 0x00), (0x59, 0x59)):
                image = [second, minute, hour, 7, 0x31, 0x12, year]
                assert _outcome(_tick, image, 1) == _outcome(RtcDouble.advance_seconds, image, 1), image


def _month_len(year, month):
    if month == 12:
        return 31
    return (datetime.date(year, month + 1, 1) - datetime.date(year, month, 1)).days


# ---------------------------------------------------------------------------
# GPS


@pytest.fixture
def gps_setup(sched):
    link = UartLink(sched)
    gps = GpsDouble(link.b, sched)
    return link, gps, sched


def _config(link, body):
    link.a.send((wrap_sentence(body) + "\r\n").encode("ascii"))


class TestGpsConfig:
    def test_rate_command_arms_periodic_emission(self, gps_setup):
        link, gps, sched = gps_setup
        _config(link, "PDBL,RATE,1000")
        sched.advance_by(5000)
        assert gps.get_emit_count() == 5

    def test_corrupted_checksum_changes_nothing_but_the_counter(self, gps_setup):
        link, gps, sched = gps_setup
        link.a.send(b"$PDBL,RATE,1000*00\r\n")  # wrong checksum
        assert gps.get_update_period() is None
        assert gps.get_reject_count() == 1
        sched.advance_by(5000)
        assert gps.get_emit_count() == 0

    def test_missing_checksum_is_rejected(self, gps_setup):
        link, gps, _ = gps_setup
        link.a.send(b"$PDBL,RATE,1000\r\n")
        assert gps.get_reject_count() == 1
        assert gps.get_update_period() is None

    def test_sel_disables_gga(self, gps_setup):
        link, gps, sched = gps_setup
        _config(link, "PDBL,SEL,GGA,0")
        _config(link, "PDBL,RATE,500")
        sched.advance_by(2000)
        assert gps.get_emit_count() == 0

    def test_sel_enables_rmc_alongside_gga(self, gps_setup):
        link, gps, _ = gps_setup
        _config(link, "PDBL,SEL,RMC,1")
        assert gps.get_enabled() == ["GGA", "RMC"]

    def test_foreign_sentences_are_ignored_silently(self, gps_setup):
        link, gps, _ = gps_setup
        _config(link, "GPXTE,A,A,0.67,L,N")
        assert gps.get_reject_count() == 0
        assert gps.get_enabled() == ["GGA"]

    def test_rate_reconfiguration_rearms_the_timer(self, gps_setup):
        link, gps, sched = gps_setup
        _config(link, "PDBL,RATE,1000")
        sched.advance_by(1000)
        _config(link, "PDBL,RATE,200")
        sched.advance_by(1000)
        assert gps.get_emit_count() == 1 + 5


class TestGpsOnTheWire:
    """Config sentences framed by the DUT's GpsDriver, or raw bytes, on the
    rig's UART; what the double made of them is read over its command
    channel. Each case names the mutant of the double that it kills."""

    @pytest.fixture
    def gps(self, rig):
        dut, double = rig.session.dut.endpoint, rig.session.double.endpoint
        assert send_command(double, Command("NEW", "gps", "Gps", ())).ok
        assert send_command(dut, Command("NEW", "drv", "GpsDriver", ())).ok

        def config(body):
            resp = send_command(dut, Command("CALL", "drv", "send_command", (body,)))
            assert resp.ok, resp

        def ask(method, *args):
            return send_command(double, Command("CALL", "gps", method, args))

        def state():
            return tuple(ask(m).payload for m in ("get_reject_count", "get_update_period", "get_enabled"))

        return config, ask, state, rig.uart.a

    @pytest.mark.parametrize(
        "body, rejects, period, enabled",
        [
            ("PDBL,RATE,250", 0, 250, ["GGA"]),
            ("PDBL,RATE,1", 0, 1, ["GGA"]),  # period < 1 to <= 1
            ("PDBL,RATE,abc", 1, None, ["GGA"]),  # not an int: += 1 to -= 1
            ("PDBL,RATE,0", 1, None, ["GGA"]),  # below 1 ms: += 1 to -= 1
            ("PDBL,RATE,-5", 1, None, ["GGA"]),
            ("PDBL,RATE,9007199254740991", 0, MAX_SIM_MS, ["GGA"]),  # due at the clock's horizon
            ("PDBL,RATE,9007199254740992", 1, None, ["GGA"]),  # past it: the clock would refuse it
            ("PDBL,RATE,+1000", 1, None, ["GGA"]),  # int() alone takes each of these four
            ("PDBL,RATE, 1000", 1, None, ["GGA"]),
            ("PDBL,RATE,1000 ", 1, None, ["GGA"]),
            ("PDBL,RATE,1_000", 1, None, ["GGA"]),
            ("PDBL,RATE,00000000000001000", 1, None, ["GGA"]),  # 17 digits: past any unpadded period
            ("PDBL,SEL,XYZ,1", 1, None, ["GGA"]),  # += 1 to -= 1; its guard's or to and
            ("PDBL,SEL,RMC,2", 1, None, ["GGA"]),  # the same guard's or to and
            ("PDBL,SEL,RMC,1", 0, None, ["GGA", "RMC"]),
            ("PDBL,SEL,GGA,0", 0, None, []),
            ("PDBL", 0, None, ["GGA"]),  # the talker guard's or to and: fields[1] raises
            ("GPXXX,RATE,250", 0, None, ["GGA"]),  # the talker guard's or to and
            ("PDBL,RATE,250,9", 0, None, ["GGA"]),  # RATE guard's and to or: arms
            ("PDBL,SEL,GGA", 0, None, ["GGA"]),  # RATE guard's and to or: rejects
            ("PDBL,SEL,RMC,1,9", 0, None, ["GGA"]),  # SEL guard's and to or: enables
            ("PDBL,FOO,RMC,1", 0, None, ["GGA"]),  # SEL guard's and to or: enables
        ],
    )
    def test_a_config_sentence_changes_what_it_should_and_counts_its_reject(
        self, gps, body, rejects, period, enabled
    ):
        config, _, state, _ = gps
        config(body)
        assert state() == (rejects, period, enabled)

    def test_rejects_add_up_and_leave_the_armed_rate(self, gps):
        config, _, state, _ = gps
        config("PDBL,RATE,250")
        for body in ("PDBL,RATE,abc", "PDBL,RATE,0", "PDBL,SEL,XYZ,1", "PDBL,RATE,9007199254740992"):
            config(body)
        assert state() == (4, 250, ["GGA"])

    @pytest.mark.parametrize(
        "raw",
        [
            b"$PDBL,SEL,RMC,1*1\r\n",  # its checksum is 0x01: a one-digit tail
            b"$PDBL,SEL,RMC,1*001\r\n",  # three digits of the right value
            b"$PDBL,SEL,RMC,1*ZZ\r\n",  # not hex: split_sentence must not raise
            b"$PDBL,SEL,RMC,1*\r\n",
            b"$PDBL,SEL,RMC,1*+1\r\n",  # int(tail, 16) reads a sign or a space as 0x01
            b"$PDBL,SEL,RMC,1* 1\r\n",
        ],
    )
    def test_a_checksum_tail_that_is_not_two_hex_digits_is_a_reject(self, gps, raw):
        """The tail-length check's `!= 2` to any other comparison accepts the
        one-digit or the three-digit tail; without the non-hex check the
        double raises, and `int(tail, 16)` alone takes "+1" and " 1"."""
        _, _, state, wire = gps
        wire.send(raw)
        assert state() == (1, None, ["GGA"])
        wire.send(b"$PDBL,SEL,RMC,1*01\r\n")
        assert state() == (1, None, ["GGA", "RMC"])

    @pytest.mark.parametrize(
        "fix, error",
        [
            (("9000.000", "N", "18000.000", "W"), None),  # the pole and the antimeridian
            (("9100.000", "N", "01131.000", "E"), "bad latitude '9100.000'"),
            (("9000.001", "N", "01131.000", "E"), "bad latitude '9000.001'"),  # past the pole
            (("9059.999", "N", "01131.000", "E"), "bad latitude '9059.999'"),
            (("4807.038", "N", "18000.001", "W"), "bad longitude '18000.001'"),
            (("4859.999", "S", "01159.999", "E"), None),  # the last minute, both
            (("4860.000", "N", "01131.000", "E"), "bad latitude '4860.000'"),
            (("4807.038", "N", "18100.000", "E"), "bad longitude '18100.000'"),
            (("4807.038", "N", "01160.000", "E"), "bad longitude '01160.000'"),
            (("4807.038", "N", "1131.000", "E"), "bad longitude '1131.000'"),  # four degree digits
            (("4807.038", "N", "01131", "E"), "bad longitude '01131'"),
        ],
    )
    def test_set_fix_takes_the_bounds_and_refuses_past_them(self, gps, fix, error):
        _, ask, _, _ = gps
        resp = ask("set_fix", *fix)
        if error is None:
            assert resp.ok, resp
        else:
            assert (resp.code, resp.message) == ("EXEC", f"FixFormatError: {error}")

    @pytest.mark.parametrize(
        "lat, lon, message",
        [
            # Arabic-Indic digits, which \d takes; the reply shows each as a space
            ("\u0664\u066807.038", "01131.000", "bad latitude '  07.038'"),
            ("4807.038", "\u0660\u0661131.000", "bad longitude '  131.000'"),
            # `$` matches before a final newline
            ("4807.038\n", "01131.000", "bad latitude '4807.038\\n'"),
            ("4807.038", "01131.000\n", "bad longitude '01131.000\\n'"),
        ],
    )
    def test_set_fix_refuses_text_no_sentence_may_carry_and_the_emitter_runs_on(
        self, gps, rig, lat, lon, message
    ):
        """Such a fix would end the emitter on its next emit (a non-ASCII digit)
        or split each GGA in two (a newline). It is refused, and the driver
        goes on reading the fix that was there."""
        config, ask, _, _ = gps
        resp = ask("set_fix", lat, "N", lon, "E")
        assert (resp.code, resp.message) == ("EXEC", f"FixFormatError: {message}")
        config("PDBL,RATE,1000")
        for _ in range(2):
            resp = send_command(rig.session.dut.endpoint, Command("CALL", "drv", "get_latitude", (3000,)))
            assert resp.ok and abs(resp.payload - 48.1173) < 1e-9, resp


class TestGpsSentences:
    def test_emitted_gga_carries_the_fix_verbatim(self, gps_setup):
        link, gps, sched = gps_setup
        gps.set_fix("4807.038", "N", "01131.000", "E")
        _config(link, "PDBL,RATE,1000")
        sched.advance_by(1000)
        line = link.a.recv_line(10).decode("ascii")
        assert "4807.038,N,01131.000,E" in line
        assert line.startswith("$GPGGA,")

    def test_southern_hemisphere_round_trips(self, gps_setup):
        link, gps, sched = gps_setup
        gps.set_fix("2233.500", "S", "04312.250", "W")
        _config(link, "PDBL,RATE,1000")
        sched.advance_by(1000)
        assert b"2233.500,S,04312.250,W" in link.a.recv_line(10)

    def test_malformed_fix_rejected(self, gps_setup):
        _, gps, _ = gps_setup
        with pytest.raises(FixFormatError):
            gps.set_fix("48O7.038", "N", "01131.000", "E")
        with pytest.raises(FixFormatError):
            gps.set_fix("4807.038", "X", "01131.000", "E")
        with pytest.raises(FixFormatError):
            gps.set_fix("9907.038", "N", "01131.000", "E")

    def test_every_emitted_sentence_passes_the_checksum_oracle(self, gps_setup):
        link, gps, sched = gps_setup
        _config(link, "PDBL,SEL,RMC,1")
        _config(link, "PDBL,RATE,700")
        sched.advance_by(7000)
        lines = []
        while True:
            pending = link.a.pending()
            if b"\n" not in pending:
                break
            lines.append(link.a.recv_line(0).decode("ascii").strip())
        assert len(lines) == 20  # 10 periods, 2 sentence types
        for line in lines:
            body, tail = line[1:].rsplit("*", 1)
            assert int(tail, 16) == oracle_checksum(body)
            assert split_sentence(line) == body

    def test_emission_count_formula(self, gps_setup):
        """count = floor((window - first) / period) + 1 once emitting."""
        rng = random.Random(11)
        for _ in range(20):
            sched = Scheduler()
            link = UartLink(sched)
            gps = GpsDouble(link.b, sched)
            period = rng.randrange(50, 1500)
            window = rng.randrange(period, 20_000)
            _config(link, f"PDBL,RATE,{period}")
            sched.advance_by(window)
            assert gps.get_emit_count() == (window - period) // period + 1


_FIXES = [
    ("4807.038", "N", "01131.000", "E"),
    ("2233.500", "S", "04312.250", "W"),
    ("0000.000", "N", "18000.000", "W"),
]
_GPS_OPS = st.lists(
    st.tuples(st.just("fix"), st.sampled_from(_FIXES))
    | st.tuples(st.just("sel"), st.sampled_from(["GGA", "RMC"]), st.sampled_from("01"))
    # 125, 200, 250 and 1000 divide a second; the others do not
    | st.tuples(st.just("rate"), st.sampled_from([7, 125, 200, 250, 300, 333, 700, 1000, 1500]))
    | st.tuples(st.just("sleep"), st.integers(0, 1500)),
    max_size=12,
)


def _gps_body(stype, fix, second):
    """A sentence body with its clock field from the stdlib."""
    lat, ns, lon, ew = fix
    hhmmss = time.strftime("%H%M%S", time.gmtime(second))
    if stype == "GGA":
        return f"GPGGA,{hhmmss},{lat},{ns},{lon},{ew},1,08,0.9,10.0,M,0.0,M,,"
    return f"GPRMC,{hhmmss},A,{lat},{ns},{lon},{ew},0.0,0.0,010100,,"


def _gps_line(stype, fix, at_ms):
    """A sentence built from scratch: stdlib clock field, XOR-fold checksum."""
    body = _gps_body(stype, fix, at_ms // 1000)
    return f"${body}*{oracle_checksum(body):02X}\r\n".encode("ascii")


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.just(0) | st.integers(86_398_000, 86_400_000), _GPS_OPS)
@example(0, [("rate", 250), ("sleep", 1100), ("fix", _FIXES[1]), ("sel", "RMC", "1"), ("sleep", 900)])
@example(86_399_000, [("rate", 300), ("sel", "RMC", "1"), ("sleep", 1500)])  # wraps at 86,400 s
@example(998, [("rate", 1), ("sleep", 2)])  # a second boundary between two emits
def test_every_emitted_sentence_is_a_fresh_build(start, ops):
    """Whatever fixes, selections and rates change inside one simulated
    second or across seconds, and across the wrap at 86,400 s, each emitted
    line is the sentence built from scratch for its type, the fix at that
    moment and its second of day, in sorted type order."""
    sched = Scheduler()
    sched.advance_to(start)
    link = UartLink(sched)
    gps = GpsDouble(link.b, sched)
    fix, enabled, armed, period, expected = gps.fix, {"GGA"}, None, None, []
    for op, *arg in ops:
        if op == "fix":
            gps.set_fix(*arg[0])
            fix = arg[0]
        elif op == "sel":
            _config(link, f"PDBL,SEL,{arg[0]},{arg[1]}")
            (enabled.add if arg[1] == "1" else enabled.discard)(arg[0])
        elif op == "rate":
            _config(link, f"PDBL,RATE,{arg[0]}")
            armed, period = sched.now, arg[0]
        else:
            if period is not None:  # emits due in (now, now + sleep], from the last arming
                first = sched.now + period - (sched.now - armed) % period
                for at in range(first, sched.now + arg[0] + 1, period):
                    expected += [_gps_line(stype, fix, at) for stype in sorted(enabled)]
            sched.advance_by(arg[0])
    assert link.a.pending() == b"".join(expected)
    assert gps.get_emit_count() == len(expected)


@pytest.mark.parametrize(
    "change, fix, types",
    [
        ("PDBL,SEL,RMC,1", _FIXES[0], ["GGA", "RMC"]),
        ("PDBL,SEL,GGA,0", _FIXES[0], []),
        (_FIXES[1], _FIXES[1], ["GGA"]),
    ],
)
def test_a_sel_or_set_fix_inside_a_second_changes_the_next_emit(gps_setup, monkeypatch, change, fix, types):
    """The burst built by the emit at 100 ms would serve the rest of second 0.
    A SEL or set_fix at 150 ms makes the emit at 200 ms build its own: one
    send of its lines, or none when no type is enabled."""
    link, gps, sched = gps_setup
    _config(link, "PDBL,RATE,100")
    sched.advance_by(150)
    assert link.a.pending() == _gps_line("GGA", _FIXES[0], 100)
    link.a.flush()
    if isinstance(change, tuple):
        gps.set_fix(*change)
    else:
        _config(link, change)
    sends = []
    monkeypatch.setattr(link.b, "send", sends.append)
    sched.advance_by(50)
    assert sends == ([b"".join(_gps_line(stype, fix, 200) for stype in types)] if types else [])
    assert gps.get_emit_count() == 1 + len(types)


@pytest.mark.parametrize("stype", ["GGA", "RMC"])
def test_the_sentence_template_is_exact_at_every_second_of_the_day(gps_setup, stype):
    """Each second's line from the (type, fix) template and its six digits is
    the wrapped full body, and the double's own check accepts it."""
    fix = gps_setup[1].fix
    for second in range(86_400):
        body = _gps_body(stype, fix, second)
        line = _sentence(stype, fix, second).decode("ascii")
        assert line == wrap_sentence(body) + "\r\n"
        assert split_sentence(line) == body


@pytest.mark.parametrize("fix", _FIXES[1:])
@pytest.mark.parametrize("stype", ["GGA", "RMC"])
def test_the_sentence_template_is_exact_for_other_fixes(stype, fix):
    """Sampled seconds, the hour and day ends among them, checked against
    the XOR-fold oracle."""
    for second in [*range(0, 86_400, 997), 59, 3599, 43_199, 86_399]:
        line = _sentence(stype, fix, second)
        body = _gps_body(stype, fix, second)
        assert line == f"${body}*{oracle_checksum(body):02X}\r\n".encode("ascii")
        assert split_sentence(line.decode("ascii")) == body


class TestNmeaHelpers:
    def test_checksum_matches_independent_fold(self):
        for body in ("GPGGA,123519,4807.038,N", "PDBL,RATE,1000", ""):
            assert nmea_checksum(body) == oracle_checksum(body)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.text())
    @example("\x7f")
    @example("caf\u00e9")
    @example("EUR \u20ac")
    @example("GPGGA,\x00\x7f\u00e9\u20ac\U0001f600")
    def test_checksum_is_the_xor_fold_of_any_text(self, body):
        """ASCII and non-ASCII text alike: the fold of every code point."""
        expected = 0
        for ch in body:
            expected ^= ord(ch)
        assert nmea_checksum(body) == expected

    def test_wrap_produces_two_uppercase_hex_digits(self):
        sentence = wrap_sentence("PDBL,RATE,1000")
        assert sentence == f"$PDBL,RATE,1000*{oracle_checksum('PDBL,RATE,1000'):02X}"

    def test_split_refuses_a_line_without_the_leading_dollar(self):
        body = "GPGGA,123519,4807.038,N"
        assert split_sentence("X" + wrap_sentence(body)[1:]) is None
        assert split_sentence(wrap_sentence(body)) == body

    def test_split_rejects_any_single_character_flip(self):
        sentence = wrap_sentence("GPGGA,123519,4807.038,N,01131.000,E,1,08,0.9,10.0,M,0.0,M,,")
        body = sentence[1 : sentence.rindex("*")]
        assert split_sentence(sentence) == body
        for i in range(1, sentence.rindex("*")):
            flipped = sentence[:i] + chr(ord(sentence[i]) ^ 0x01) + sentence[i + 1 :]
            assert split_sentence(flipped) != body


# ---------------------------------------------------------------------------
# SPI slave


class TestSpiSlaveDouble:
    def test_preload_is_served_in_order(self):
        spi = SpiBus()
        slave = SpiSlaveDouble(spi)
        slave.preload_tx([1, 2, 3])
        spi.assert_cs()
        assert spi.transfer(bytes(3)) == bytes([1, 2, 3])

    def test_exhausted_fifo_pads_with_zeros(self):
        spi = SpiBus()
        slave = SpiSlaveDouble(spi)
        slave.preload_tx([0xAA, 0xBB])
        spi.assert_cs()
        assert spi.transfer(bytes(5)) == bytes([0xAA, 0xBB, 0, 0, 0])

    def test_rx_log_captures_and_clears(self):
        spi = SpiBus()
        slave = SpiSlaveDouble(spi)
        spi.assert_cs()
        spi.transfer(bytes([9, 9]))
        assert slave.get_rx() == [9, 9]
        assert slave.get_rx() == []

    def test_rx_log_equals_all_mosi_bytes_in_order(self):
        """Property: conservation between transfers and the captured log."""
        rng = random.Random(17)
        spi = SpiBus()
        slave = SpiSlaveDouble(spi)
        sent = []
        spi.assert_cs()
        for _ in range(200):
            chunk = [rng.randrange(256) for _ in range(rng.randrange(0, 6))]
            sent.extend(chunk)
            spi.transfer(bytes(chunk))
        assert slave.get_rx() == sent



# ---------------------------------------------------------------------------
# BLE central


class TestBleCentralDouble:
    def test_scan_connect_to_live_peripheral(self, sched):
        air = BleAir(sched)
        air.advertise("TempSensor", {"temp": 23.5})
        central = BleCentralDouble(air, "phone")
        assert central.scan_connect("TempSensor", 100) is True
        assert air.link("phone") == "TempSensor"

    def test_scan_timeout_when_peripheral_never_appears(self, sched):
        air = BleAir(sched)
        central = BleCentralDouble(air, "phone")
        with pytest.raises(ScanTimeoutError):
            central.scan_connect("TempSensor", 5000)
        assert air.link("phone") is None

    def test_a_scan_window_past_the_horizon_is_refused_and_leaves_it_idle(self, sched):
        air = BleAir(sched)
        central = BleCentralDouble(air, "phone")
        with pytest.raises(ScheduleError, match="past MAX_SIM_MS"):
            central.scan_connect("TempSensor", MAX_SIM_MS + 1)
        assert air.link("phone") is None and sched.now == 0

    def test_a_negative_scan_window_times_out_over_the_wire_with_the_clock_unmoved(self, rig):
        double = rig.session.double.endpoint
        assert send_command(double, Command("NEW", "phone", "BleCentral", ())).ok
        before = rig.scheduler.now
        resp = send_command(double, Command("CALL", "phone", "scan_connect", ("TempSensor", -1)))
        assert (resp.code, resp.message.partition(":")[0]) == ("EXEC", "ScanTimeoutError")
        assert rig.scheduler.now == before

    def test_read_returns_characteristic_value(self, sched):
        air = BleAir(sched)
        air.advertise("TempSensor", {"temp": 23.5})
        central = BleCentralDouble(air, "phone")
        central.scan_connect("TempSensor", 10)
        assert central.read("temp") == 23.5

    def test_read_before_connect_is_an_error(self, sched):
        central = BleCentralDouble(BleAir(sched), "phone")
        with pytest.raises(NotConnectedError):
            central.read("temp")

    def test_await_notify_pops_in_order(self, sched):
        air = BleAir(sched)
        air.advertise("TempSensor", {"temp": 0.0})
        central = BleCentralDouble(air, "phone")
        central.scan_connect("TempSensor", 10)
        air.notify("TempSensor", "temp", 1.5)
        air.notify("TempSensor", "temp", 2.5)
        assert central.await_notify(10) == 1.5
        assert central.await_notify(10) == 2.5

    @pytest.mark.parametrize("at", [300, 500], ids=["inside", "at-deadline"])
    def test_await_notify_waits_in_sim_time_for_a_later_notification(self, sched, at):
        air = BleAir(sched)
        air.advertise("TempSensor", {"temp": 0.0})
        central = BleCentralDouble(air, "phone")
        central.scan_connect("TempSensor", 10)
        start = sched.now
        sched.schedule(at, lambda: air.notify("TempSensor", "temp", 7.5))
        assert central.await_notify(500) == 7.5
        assert sched.now == start + at

    def test_disconnect_stops_the_sensors_notifications_reaching_the_central(self, sched):
        air = BleAir(sched)
        sensor = BleTempSensor(air, sched)
        sensor.start()
        central = BleCentralDouble(air, "phone")
        central.scan_connect("TempSensor", 10)
        assert sensor.notify() == 1
        central.disconnect()
        assert sensor.notify() == 0
        assert air.link("phone") is None
        with pytest.raises(NotConnectedError):
            central.read("temp")
        central.disconnect()  # not connected: nothing to do
        assert air.link("phone") is None

    def test_a_failed_rescan_leaves_a_connected_central_its_link(self, sched):
        """A scan that times out changes nothing: the central keeps its link
        on the air, reads it, and gets its notifications."""
        air = BleAir(sched)
        air.advertise("TempSensor", {"temp": 21.0})
        central = BleCentralDouble(air, "phone")
        central.scan_connect("TempSensor", 10)
        with pytest.raises(ScanTimeoutError):
            central.scan_connect("Clock", 100)
        assert air.link("phone") == "TempSensor"
        assert central.read("temp") == 21.0
        assert air.notify("TempSensor", "temp", 22.5) == 1
        assert central.await_notify(10) == 22.5

    def test_a_rescan_to_another_name_replaces_the_link(self, sched):
        """A central holds one link. Scan-connecting to B once kept the link
        to A too, so A's notifications reached the central as if from B, and
        disconnect() left the link to A on the air."""
        air = BleAir(sched)
        air.advertise("A", {"temp": 1.0})
        air.advertise("B", {"temp": 2.0})
        central = BleCentralDouble(air, "phone")
        central.scan_connect("A", 10)
        central.scan_connect("B", 10)
        assert (air.notify("A", "temp", 1.5), air.notify("B", "temp", 2.5)) == (0, 1)
        assert air.link("phone") == "B"
        assert central.read("temp") == 2.0
        assert central.await_notify(10) == 2.5
        central.disconnect()
        assert air.link("phone") is None
        assert air.notify("A", "temp", 1.5) == 0

    def test_await_notify_times_out_quietly_connected(self, sched):
        air = BleAir(sched)
        air.advertise("TempSensor", {"temp": 0.0})
        central = BleCentralDouble(air, "phone")
        central.scan_connect("TempSensor", 10)
        with pytest.raises(NotifyTimeoutError):
            central.await_notify(500)

    def test_close_removes_central_from_the_air(self, sched):
        air = BleAir(sched)
        air.advertise("TempSensor", {"temp": 0.0})
        central = BleCentralDouble(air, "phone")
        central.scan_connect("TempSensor", 10)
        central.close()
        assert air.notify("TempSensor", "temp", 9.0) == 0


@pytest.mark.parametrize(
    "obj, method, args",
    [("rtc", "handle_i2c", ([0], 10_000_000)), ("gps", "on_uart_line", ([36],))],
)
def test_the_doubles_bus_callbacks_are_not_served_on_the_wire(rig, obj, method, args):
    """The RTC double's I2C handler and the GPS double's line handler are
    private, so the wire reaches each double only through its API. A CALL of
    `handle_i2c`, even for ten million bytes, or of `on_uart_line` answers
    NO_METHOD before any handler runs: the registers, the register pointer,
    the reject count and the clock stay as they were."""
    double = rig.session.double
    assert send_command(double.endpoint, Command("NEW", "rtc", "Rtc", ())).ok
    assert send_command(double.endpoint, Command("NEW", "gps", "Gps", ())).ok
    rtc, gps = double.registry.objects["rtc"], double.registry.objects["gps"]

    def state():
        return bytes(rtc.regs), rtc._pointer, gps.reject_count, rig.scheduler.now

    before = state()
    resp = send_command(double.endpoint, Command("CALL", obj, method, args))
    assert (resp.code, resp.message) == ("NO_METHOD", f"no method '{method}' on '{obj}'")
    assert state() == before
