"""Reference drivers, with and without their deliberate faults armed."""

import datetime
import operator
import random
import tracemalloc
from decimal import Decimal
from functools import reduce

import pytest

from double_harness import suites
from double_harness.bus import (
    BleAir,
    GpioLine,
    I2cBus,
    I2cNackError,
    ScanTimeoutError,
    SpiBus,
    UartLink,
    UartTimeoutError,
)
from double_harness.doubles import GpsDouble, RtcDouble, SpiSlaveDouble, nmea_checksum, wrap_sentence
from double_harness.dut import (
    Blinker,
    BleTempSensor,
    MAX_SPI_READ,
    GpsDriver,
    NotStartedError,
    RtcDriver,
    SpiMaster,
)
from double_harness.simcore import MAX_SIM_MS, TRAIN_MAX, ScheduleError, Scheduler
from double_harness.transport import Command, send_command


def ddmm_oracle(raw: str, hemisphere: str) -> float:
    """ddmm.mmmm to signed decimal degrees, via exact decimal arithmetic."""
    value = Decimal(raw)
    degrees = int(value // 100)
    minutes = value - degrees * 100
    decimal = Decimal(degrees) + minutes / Decimal(60)
    return float(-decimal if hemisphere in ("S", "W") else decimal)


# ---------------------------------------------------------------------------
# Blinker


class TestBlinker:
    def test_blocking_mode_edges(self, sched):
        """Period 2000, count 2: edges at 2000, 4000, 6000, 8000."""
        line = GpioLine()
        Blinker(line, 2000, 2, sched).blink("blocking")
        assert list(line.edges) == [2000, 4000, 6000, 8000]
        assert line.level == 0
        assert sched.now == 8000

    def test_isr_mode_produces_identical_edge_times(self):
        sched_a, sched_b = Scheduler(), Scheduler()
        line_a, line_b = GpioLine(), GpioLine()
        Blinker(line_a, 300, 3, sched_a).blink("blocking")
        blinker = Blinker(line_b, 300, 3, sched_b)
        blinker.blink("isr")
        sched_b.advance_to(sched_a.now)
        assert list(line_a.edges) == list(line_b.edges) == [300 * k for k in range(1, 7)]
        assert line_a.level == line_b.level == 0

    def test_edge_count_is_twice_the_blink_count(self, sched):
        line = GpioLine()
        Blinker(line, 10, 7, sched).blink("blocking")
        assert len(line.edges) == 14

    def test_isr_timer_stops_after_the_pattern(self, sched):
        line = GpioLine()
        Blinker(line, 100, 2, sched).blink("isr")
        sched.advance_by(10_000)
        assert len(line.edges) == 4

    def test_period_skew_fault_shifts_the_average(self, sched):
        from double_harness.harness import close_to

        line = GpioLine()
        Blinker(line, 2000, 2, sched, fault="period_skew_ms").blink("blocking")
        intervals = [b - a for a, b in zip(line.edges, line.edges[1:])]
        average = sum(intervals) / len(intervals)
        assert average == 2002.0
        assert not close_to(2000, 1).check(average)

    def test_close_cancels_pending_isr_toggles(self, sched):
        line = GpioLine()
        blinker = Blinker(line, 100, 5, sched)
        blinker.blink("isr")
        blinker.close()
        sched.advance_by(10_000)
        assert list(line.edges) == []

    def test_second_isr_blink_restarts_the_pattern(self, sched):
        """Re-arming cancels the first timer: 2*count edges at the period from the restart."""
        line = GpioLine()
        blinker = Blinker(line, 100, 3, sched)
        blinker.blink("isr")
        sched.advance_by(250)
        blinker.blink("isr")
        sched.advance_by(10_000)
        assert list(line.edges) == [100, 200] + [250 + 100 * k for k in range(1, 7)]
        assert sched.next_due() is None

    def test_bad_mode_rejected(self, sched):
        with pytest.raises(ValueError):
            Blinker(GpioLine(), 100, 1, sched).blink("turbo")

    def test_isr_trains_stop_while_the_line_has_a_listener(self, sched):
        """Each edge reaches a listener subscribed mid-run; the log is the same."""
        line = GpioLine()
        Blinker(line, 3, 50, sched).blink("isr")
        heard = []

        def listener(at, level):
            heard.append((at, level))

        sched.schedule(30, lambda: line.subscribe(listener))
        sched.schedule(60, lambda: line.unsubscribe(listener))
        assert sched.advance_by(1000) == 100 + 2
        assert list(line.edges) == [3 * k for k in range(1, 101)]
        assert heard == [(3 * k, k % 2) for k in range(10, 20)]
        assert line.level == 0 and sched.next_due() is None

    def test_a_listener_that_stays_hears_every_edge_to_the_last(self, sched):
        """Every train the blink offers, its last included, declines."""
        line = GpioLine()
        Blinker(line, 3, 50, sched).blink("isr")
        heard = []
        sched.schedule(30, lambda: line.subscribe(lambda at, level: heard.append((at, level))))
        assert sched.advance_by(1000) == 100 + 1
        assert list(line.edges) == [3 * k for k in range(1, 101)]
        assert heard == [(3 * k, k % 2) for k in range(10, 101)]
        assert line.level == 0 and sched.next_due() is None


@pytest.mark.parametrize("spied", [False, True], ids=["train", "plain"])
def test_an_isr_edge_before_the_last_edge_ends_the_blink_alike(spied):
    """A line written ahead of the blink refuses the first isr edge, in a
    train or alone: the event ends and the clock rests at its due time."""
    sched, line = Scheduler(), GpioLine()
    line.write(1, 50)
    blinker = Blinker(line, 10, 5, sched)
    if spied:
        schedule = sched.schedule
        sched.schedule = lambda delay, action, periodic=None: schedule(delay, lambda: action(), periodic)
    blinker.blink("isr")
    with pytest.raises(ValueError, match="edge time regression: 10 < 50"):
        sched.advance_to(100)
    assert (sched.now, list(line.edges), line.level) == (10, [50], 1)
    assert not blinker._isr_handle.pending and sched.next_due() is None


def test_an_endless_isr_blink_is_written_in_bounded_trains(rig, monkeypatch):
    """A 1 ms blink with no end, advanced 100,000 ms: one edge per ms, written
    by a few train calls of at most TRAIN_MAX edges each."""
    runs = []
    toggle_train = GpioLine.toggle_train

    def spy(line, first, period, n):
        runs.append(n)
        return toggle_train(line, first, period, n)

    monkeypatch.setattr(GpioLine, "toggle_train", spy)
    assert _send_dut(rig, "NEW", "b", "Blinker", 13, 1, 10**18).ok
    assert _send_dut(rig, "CALL", "b", "blink", "isr").ok
    assert rig.scheduler.advance_by(100_000) == 100_000
    assert list(rig.led_line.edges) == list(range(1, 100_001))
    assert rig.led_line.level == 0
    assert max(runs) == TRAIN_MAX and sum(runs) == 100_000
    assert len(runs) == -(-100_000 // TRAIN_MAX)


def test_a_million_edges_in_one_command_are_held_as_three_runs(rig):
    """A 1 ms isr blink with no end, and a blocking blink on the same line
    whose two toggles move the clock 1,000,000 ms inside one command. The
    1,000,002 edges are kept as runs, so that command holds next to no
    memory, where one int per edge would take about 39 MB."""
    assert _send_dut(rig, "NEW", "a", "Blinker", 13, 1, 10**18).ok
    assert _send_dut(rig, "CALL", "a", "blink", "isr").ok
    assert _send_dut(rig, "NEW", "b", "Blinker", 13, 500_000, 1).ok
    tracemalloc.start()
    try:
        resp = send_command(rig.session.dut.endpoint, Command("CALL", "b", "blink", ("blocking",)), 10**7)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert resp.ok
    edges = rig.led_line.edges
    assert (len(edges), edges[-1]) == (1_000_002, 1_000_000)
    # the isr run to 500,000; b's edge there, which the isr edges then follow; b's last edge
    assert (edges.starts, edges.firsts, edges.periods) == ([0, 500_000, 1_000_001], [1, 500_000, 1_000_000], [1, 1, -1])
    assert held < 64 * 1024


def test_blinkers_deleted_before_their_first_edge_leave_no_heap_behind(rig):
    """20,000 rounds of an isr blink whose first edge is 10**12 ms away, then
    DEL. Each DEL leaves a dead entry that is the whole heap, past half of
    it, so the heap is rebuilt empty every round. The clock does not move."""
    heap = rig.scheduler._heap
    assert not heap
    for _ in range(20_000):
        assert _send_dut(rig, "NEW", "b", "Blinker", 13, 10**12, 1).ok
        assert _send_dut(rig, "CALL", "b", "blink", "isr").ok
        assert _send_dut(rig, "DEL", "b").ok
        assert not heap
    assert rig.scheduler.now == 0


def test_the_isr_train_is_not_served_on_the_wire(rig):
    assert _send_dut(rig, "NEW", "b", "Blinker", 13, 1, 5).ok
    assert not _send_dut(rig, "CALL", "b", "_isr_train", 1, 1, 2).ok
    assert list(rig.led_line.edges) == []


def _send_dut(rig, verb, obj, method=None, *args):
    return send_command(rig.session.dut.endpoint, Command(verb, obj, method, args))


@pytest.mark.parametrize(
    "period_ms, count, refusal",
    [
        (1, 1, None),
        (0, 1, "ValueError: period must be an int >= 1 ms, got 0"),
        (10, 0, "ValueError: count must be an int >= 1, got 0"),
    ],
    ids=["period-1-count-1", "period-0", "count-0"],
)
def test_blinker_period_and_count_boundaries_on_the_wire(rig, period_ms, count, refusal):
    """NEW takes the smallest period and count, 1 ms and 1 blink, and refuses 0."""
    resp = _send_dut(rig, "NEW", "b", "Blinker", 13, period_ms, count)
    if refusal is not None:
        assert (resp.code, resp.message) == ("EXEC", refusal)
        return
    assert resp.ok
    assert _send_dut(rig, "CALL", "b", "blink", "blocking").ok
    assert list(rig.led_line.edges) == [1, 2]


@pytest.mark.parametrize("mode", ["blocking", "isr"])
def test_blinker_smallest_period_with_the_skew_armed_on_the_wire(mode):
    """With period_skew_ms armed, a 1 ms period toggles every 3 ms in both modes."""
    rig = suites.build_virtual_rig("period_skew_ms")
    try:
        assert _send_dut(rig, "NEW", "b", "Blinker", 13, 1, 2).ok
        assert _send_dut(rig, "CALL", "b", "blink", mode).ok
        rig.scheduler.advance_by(20)
        assert list(rig.led_line.edges) == [3, 6, 9, 12]
    finally:
        rig.close()


# ---------------------------------------------------------------------------
# RTC driver


@pytest.fixture
def rtc_pair(sched):
    i2c = I2cBus()
    rtc = RtcDouble(i2c, sched, mode="static")
    return RtcDriver(i2c), rtc


class TestRtcDriver:
    def test_set_writes_the_expected_bcd_image(self, rtc_pair):
        # 2021-02-28 is a Sunday, so the weekday register holds 7.
        driver, rtc = rtc_pair
        driver.set_datetime([2021, 2, 28, 23, 59, 30])
        assert rtc.read_registers() == [0x30, 0x59, 0x23, 0x07, 0x28, 0x02, 0x21]

    def test_get_decodes_a_loaded_image(self, rtc_pair):
        driver, rtc = rtc_pair
        rtc.load_registers([0x30, 0x20, 0x10, 0x01, 0x04, 0x07, 0x22])
        assert driver.get_datetime() == [2022, 7, 4, 10, 20, 30]

    def test_get_set_identity_for_random_datetimes(self, rtc_pair):
        driver, _ = rtc_pair
        rng = random.Random(77)
        for _ in range(1000):
            year = rng.randrange(2000, 2100)
            month = rng.randrange(1, 13)
            day = rng.randrange(1, 29)
            dt = [year, month, day, rng.randrange(24), rng.randrange(60), rng.randrange(60)]
            driver.set_datetime(dt)
            assert driver.get_datetime() == dt

    def test_nack_propagates_when_rtc_is_missing(self, sched):
        driver = RtcDriver(I2cBus())
        with pytest.raises(I2cNackError):
            driver.get_datetime()

    def test_invalid_datetimes_rejected(self, rtc_pair):
        driver, _ = rtc_pair
        for dt in (
            [1999, 1, 1, 0, 0, 0],
            [2100, 1, 1, 0, 0, 0],
            [2021, 13, 1, 0, 0, 0],
            [2021, 2, 29, 0, 0, 0],  # not a leap year
            [2021, 1, 1, 24, 0, 0],
            [2021, 1, 1, 0, 60, 0],
        ):
            with pytest.raises(ValueError):
                driver.set_datetime(dt)

    def test_leap_day_accepted_on_leap_years(self, rtc_pair):
        driver, _ = rtc_pair
        driver.set_datetime([2024, 2, 29, 0, 0, 0])
        assert driver.get_datetime() == [2024, 2, 29, 0, 0, 0]

    def test_nibble_swap_fault_stores_the_swapped_pattern(self, sched):
        """set(12:34:56) lands as the 21:43:65 pattern in the registers."""
        i2c = I2cBus()
        rtc = RtcDouble(i2c, sched)
        driver = RtcDriver(i2c, fault="swap_bcd_nibbles")
        driver.set_datetime([2021, 6, 15, 12, 34, 56])
        regs = rtc.read_registers()
        assert regs[0] == 0x65  # seconds 0x56 swapped
        assert regs[1] == 0x43  # minutes 0x34 swapped
        assert regs[2] == 0x21  # hours   0x12 swapped

    def test_nibble_swap_fault_breaks_the_set_get_autotest(self, sched):
        i2c = I2cBus()
        RtcDouble(i2c, sched)
        driver = RtcDriver(i2c, fault="swap_bcd_nibbles")
        driver.set_datetime([2021, 6, 15, 12, 34, 56])
        assert driver.get_datetime() != [2021, 6, 15, 12, 34, 56]


@pytest.mark.parametrize("year", [2000, 2024, 2099])  # century leap, leap, common
def test_weekday_register_over_the_wire_for_every_month(rig, year):
    """Set the 1st and the 28th of each month through the command channel;
    the weekday register the double holds is the ISO weekday of that date."""

    def send(device, verb, obj, method=None, args=()):
        resp = send_command(getattr(rig.session, device).endpoint, Command(verb, obj, method, args))
        assert resp.ok, resp
        return resp.payload

    send("dut", "NEW", "rtc_drv", "RtcDriver")
    send("double", "NEW", "rtc", "Rtc", ("static",))
    for month in range(1, 13):
        for day in (1, 28):
            send("dut", "CALL", "rtc_drv", "set_datetime", ([year, month, day, 12, 0, 0],))
            weekday = send("double", "CALL", "rtc", "read_registers")[3]
            assert weekday == datetime.date(year, month, day).isoweekday(), (month, day)


@pytest.mark.parametrize(
    "dt",
    [
        [2021.9, 2, 28.7, 23, 59, 30],
        [2021, 2, 28, True, 59, 30],
        ["2021", "2", "28", "23", "59", "30"],
    ],
    ids=["float", "bool", "str"],
)
def test_a_datetime_field_that_is_not_an_int_gets_err_exec(rig, dt):
    """set_datetime refuses a field it would otherwise coerce with int(), and
    the RTC's registers keep the image they held."""

    def send(device, verb, obj, method=None, *args):
        return send_command(getattr(rig.session, device).endpoint, Command(verb, obj, method, args))

    assert send("double", "NEW", "rtc", "Rtc", "static").ok
    assert send("dut", "NEW", "rtc_drv", "RtcDriver").ok
    before = send("double", "CALL", "rtc", "read_registers").payload
    resp = send("dut", "CALL", "rtc_drv", "set_datetime", dt)
    assert resp.code == "EXEC" and resp.message.startswith("ValueError: "), resp
    assert send("double", "CALL", "rtc", "read_registers").payload == before


def test_float_times_from_the_wire_get_err_exec_and_leave_the_clock(rig):
    """A float the drivers pass on to the clock is refused there: the command
    answers ERR EXEC ScheduleError and sim time stays an int."""

    def send(verb, obj, method=None, *args):
        return send_command(rig.session.dut.endpoint, Command(verb, obj, method, args))

    assert send("NEW", "g", "GpsDriver").ok
    resp = send("CALL", "g", "get_latitude", 2.25)
    assert (resp.code, resp.message) == ("EXEC", "ScheduleError: time must be an int ms, got 2.25")
    assert send("NEW", "c", "Blinker", 13, 1.5, 4).ok
    resp = send("CALL", "c", "blink", "blocking")
    assert (resp.code, resp.message) == ("EXEC", "ScheduleError: delta must be an int >= 0, got 1.5")
    assert rig.scheduler.now == 0 and type(rig.scheduler.now) is int


_BLE_LINKED = [
    ("dut", "NEW", "t", "BleTempSensor", 0),
    ("dut", "CALL", "t", "start"),
    ("double", "NEW", "p", "BleCentral"),
    ("double", "CALL", "p", "scan_connect", "TempSensor", 100),
]


@pytest.mark.parametrize(
    "setup, step",
    [
        ([], ("dut", "NEW", "b", "Blinker", 13, True, 3)),
        ([], ("dut", "NEW", "t", "BleTempSensor", 1e308)),
        ([("dut", "NEW", "g", "GpsDriver")], ("dut", "CALL", "g", "get_latitude", True)),
        (
            [("double", "NEW", "p", "BleCentral")],
            ("double", "CALL", "p", "scan_connect", "TempSensor", True),
        ),
        (_BLE_LINKED, ("double", "CALL", "p", "await_notify", True)),
    ],
    ids=["blinker-period", "ble-init-delay", "gps-timeout", "ble-scan", "ble-notify"],
)
def test_a_wire_time_that_is_not_an_int_gets_err_exec_and_leaves_the_clock(rig, setup, step):
    """A driver refuses a bool or a coerced float it would turn into clock time."""

    def send(device, verb, obj, method=None, *args):
        return send_command(getattr(rig.session, device).endpoint, Command(verb, obj, method, args))

    for command in setup:
        assert send(*command).ok
    now = rig.scheduler.now
    resp = send(*step)
    assert resp.code == "EXEC" and resp.message.startswith("ValueError: "), resp
    assert rig.scheduler.now == now and rig.scheduler.next_due() is None


@pytest.mark.parametrize(
    "setup, step",
    [
        ([("dut", "NEW", "b", "Blinker", 13, 10**30, 1)], ("dut", "CALL", "b", "blink", "blocking")),
        ([("dut", "NEW", "b", "Blinker", 13, 10**300, 1)], ("dut", "CALL", "b", "blink", "isr")),
        ([("dut", "NEW", "g", "GpsDriver")], ("dut", "CALL", "g", "get_latitude", 10**30)),
        (
            [("double", "NEW", "p", "BleCentral")],
            ("double", "CALL", "p", "scan_connect", "TempSensor", 10**30),
        ),
    ],
    ids=["blocking-blink", "isr-blink", "gps-timeout", "ble-scan"],
)
def test_a_wire_time_past_the_horizon_gets_err_exec_and_leaves_the_clock(rig, setup, step):
    """The clock refuses a time past MAX_SIM_MS before it moves or queues anything."""

    def send(device, verb, obj, method=None, *args):
        return send_command(getattr(rig.session, device).endpoint, Command(verb, obj, method, args))

    for command in setup:
        assert send(*command).ok
    resp = send(*step)
    assert resp.code == "EXEC" and resp.message.startswith("ScheduleError: "), resp
    assert "past MAX_SIM_MS" in resp.message
    assert rig.scheduler.now == 0 and rig.scheduler.next_due() is None


def test_a_wire_timeout_that_ends_at_the_horizon_is_waited_out(rig):
    """A GPS fix with no emitter waits until MAX_SIM_MS exactly, then times out."""
    dut = rig.session.dut.endpoint
    assert send_command(dut, Command("NEW", "g", "GpsDriver")).ok
    resp = send_command(dut, Command("CALL", "g", "get_latitude", (MAX_SIM_MS,)), timeout_ms=MAX_SIM_MS)
    assert resp.code == "EXEC" and resp.message.startswith("UartTimeoutError: "), resp
    assert rig.scheduler.now == MAX_SIM_MS


# ---------------------------------------------------------------------------
# GPS driver


@pytest.fixture
def gps_pair(sched):
    link = UartLink(sched)
    gps = GpsDouble(link.b, sched)
    driver = GpsDriver(link.a, sched)
    return driver, gps, link, sched


class TestGpsDriverSend:
    def test_command_reaches_the_module_with_a_valid_checksum(self, gps_pair):
        driver, gps, _, _ = gps_pair
        driver.send_command("PDBL,RATE,1000")
        assert gps.get_update_period() == 1000
        assert gps.get_reject_count() == 0

    def test_empty_body_rejected(self, gps_pair):
        driver, _, _, _ = gps_pair
        with pytest.raises(ValueError):
            driver.send_command("")

    def test_framing_characters_rejected(self, gps_pair):
        driver, _, _, _ = gps_pair
        with pytest.raises(ValueError):
            driver.send_command("PDBL*RATE")
        with pytest.raises(ValueError):
            driver.send_command("$PDBL,RATE,1")

    def test_omit_checksum_fault_gets_the_command_dropped(self, sched):
        link = UartLink(sched)
        gps = GpsDouble(link.b, sched)
        driver = GpsDriver(link.a, sched, fault="omit_checksum")
        driver.send_command("PDBL,RATE,1000")
        assert gps.get_reject_count() == 1
        assert gps.get_update_period() is None


class TestGpsDriverLatitude:
    def test_known_fix_decodes_to_decimal_degrees(self, gps_pair):
        driver, gps, _, _ = gps_pair
        gps.set_fix("4807.038", "N", "01131.000", "E")
        driver.send_command("PDBL,RATE,500")
        latitude = driver.get_latitude(2000)
        assert abs(latitude - ddmm_oracle("4807.038", "N")) < 1e-9
        assert abs(latitude - 48.1173) < 1e-9

    def test_southern_fix_is_negative(self, gps_pair):
        driver, gps, _, _ = gps_pair
        gps.set_fix("4807.038", "S", "01131.000", "E")
        driver.send_command("PDBL,RATE,500")
        assert abs(driver.get_latitude(2000) + 48.1173) < 1e-9

    def test_corrupted_line_is_skipped_then_good_line_wins(self, gps_pair):
        driver, _, link, _ = gps_pair
        good = wrap_sentence("GPGGA,000001,4807.038,N,01131.000,E,1,08,0.9,10.0,M,0.0,M,,")
        link.b.send(b"$GPGGA,000000,9999.999,N*00\r\n")  # bad checksum
        link.b.send(good.encode("ascii") + b"\r\n")
        assert abs(driver.get_latitude(1000) - 48.1173) < 1e-9
        assert driver.get_parse_errors() == 1

    def test_a_wrong_checksum_hides_a_well_formed_fix(self, gps_pair):
        driver, _, link, _ = gps_pair
        body = "GPGGA,000000,5107.038,N,01131.000,E,1,08,0.9,10.0,M,0.0,M,,"
        wrong = f"${body}*{nmea_checksum(body) ^ 1:02X}"
        link.b.send(wrong.encode("ascii") + b"\r\n")
        link.b.send(wrap_sentence(body.replace("5107.038", "4807.038")).encode("ascii") + b"\r\n")
        assert abs(driver.get_latitude(1000) - 48.1173) < 1e-9
        assert driver.get_parse_errors() == 1

    def test_timeout_without_any_valid_gga(self, gps_pair):
        driver, _, _, sched = gps_pair
        before = sched.now
        with pytest.raises(UartTimeoutError):
            driver.get_latitude(1500)
        assert sched.now == before + 1500

    def test_non_gga_sentences_are_ignored(self, gps_pair):
        driver, _, link, _ = gps_pair
        link.b.send(wrap_sentence("GPRMC,000001,A,4807.038,N,01131.000,E,0.0,0.0,010100,,").encode() + b"\r\n")
        with pytest.raises(UartTimeoutError):
            driver.get_latitude(100)
        assert driver.get_parse_errors() == 0

    def test_driver_init_flushes_stale_bytes(self, sched):
        link = UartLink(sched)
        link.b.send(b"$GPGGA,stale,0000.000,N*00\r\n")
        driver = GpsDriver(link.a, sched)
        with pytest.raises(UartTimeoutError):
            driver.get_latitude(100)


def _nmea(body, lead="$"):
    """A line with its checksum from an XOR fold, not from the double."""
    cs = reduce(operator.xor, map(ord, body), 0)
    return f"{lead}{body}*{cs:02X}\r\n".encode("ascii")


def _gga(lat, lead="$"):
    return _nmea(f"GPGGA,000001,{lat},N,01131.000,E,1,08,0.9,10.0,M,0.0,M,,", lead)


@pytest.fixture
def gps_drv(rig):
    assert _send_dut(rig, "NEW", "g", "GpsDriver").ok
    return rig


def test_gps_send_refuses_a_body_with_del_on_the_wire(gps_drv):
    """DEL (0x7f) is not printable: the command is refused and no byte moves."""
    resp = _send_dut(gps_drv, "CALL", "g", "send_command", "PDBL,RATE,1000\x7f")
    assert (resp.code, resp.message) == ("EXEC", "ValueError: body must be printable ASCII")
    assert gps_drv.uart.b.pending() == b""


@pytest.mark.parametrize("body", ["PDBL,RATE,1000é", "PDBL,RATE,\t1000"])
def test_gps_send_refuses_a_body_outside_printable_ascii(gps_drv, body):
    """Printable but not ASCII, or ASCII but not printable: refused, and no byte moves."""
    resp = _send_dut(gps_drv, "CALL", "g", "send_command", body)
    assert (resp.code, resp.message) == ("EXEC", "ValueError: body must be printable ASCII")
    assert gps_drv.uart.b.pending() == b""


@pytest.mark.parametrize("body", [["P", "D"], {"x": 1}])
def test_gps_send_refuses_a_body_that_is_not_a_str(gps_drv, body):
    """A JSON array or object is no sentence body. Framed, it would put a
    sentence on the UART whose checksum does not match its text."""
    resp = _send_dut(gps_drv, "CALL", "g", "send_command", body)
    assert (resp.code, resp.message) == ("EXEC", f"ValueError: body must be a str, got {type(body).__name__}")
    assert gps_drv.uart.b.pending() == b""


def test_gps_latitude_with_no_time_left_still_reads_a_buffered_line(gps_drv):
    """A zero timeout takes a GGA that is already buffered; it does not time out."""
    gps_drv.uart.b.send(_gga("4807.038"))
    resp = _send_dut(gps_drv, "CALL", "g", "get_latitude", 0)
    assert resp.ok and abs(resp.payload - ddmm_oracle("4807.038", "N")) < 1e-9
    assert gps_drv.scheduler.now == 0


def test_gps_latitude_with_a_negative_timeout_times_out_unread(gps_drv):
    """Less than no time left: the call times out before it reads, and the
    buffered GGA waits for the next call."""
    gps_drv.uart.b.send(_gga("4807.038"))
    resp = _send_dut(gps_drv, "CALL", "g", "get_latitude", -1)
    assert (resp.code, resp.message) == ("EXEC", "UartTimeoutError: no valid GGA within -1 ms")
    assert gps_drv.scheduler.now == 0
    resp = _send_dut(gps_drv, "CALL", "g", "get_latitude", 0)
    assert resp.ok and abs(resp.payload - ddmm_oracle("4807.038", "N")) < 1e-9


def test_gps_latitude_reads_a_gga_cut_after_the_hemisphere(gps_drv):
    """Latitude and hemisphere are all get_latitude needs: four fields are enough."""
    gps_drv.uart.b.send(_nmea("GPGGA,000001,4807.038,S"))
    resp = _send_dut(gps_drv, "CALL", "g", "get_latitude", 0)
    assert resp.ok and abs(resp.payload - ddmm_oracle("4807.038", "S")) < 1e-9
    assert _send_dut(gps_drv, "CALL", "g", "get_parse_errors").payload == 0


# Its checksum is 0x04, one hex digit, so "*+4", "* 4", "*4" and "*004" all
# state its value to int(tail, 16).
_GGA_CS_04 = "GPGGA,000001,4807.038,N,AB"
assert reduce(operator.xor, map(ord, _GGA_CS_04), 0) == 0x04


@pytest.mark.parametrize(
    "bad",
    [
        _gga("4807.038", lead="#"),
        _gga("4860.000"),
        _nmea("GPGGA,000001,4807.038"),
        _nmea("GPGGA,000001,4807.038,X,01131.000,E,1,08,0.9,10.0,M,0.0,M,,"),
        f"${_GGA_CS_04}*+4\r\n".encode("ascii"),
        f"${_GGA_CS_04}* 4\r\n".encode("ascii"),
        f"${_GGA_CS_04}*4\r\n".encode("ascii"),
        f"${_GGA_CS_04}*004\r\n".encode("ascii"),
    ],
    ids=[
        "no-dollar-valid-checksum",
        "60-minutes",
        "no-hemisphere",
        "bad-hemisphere",
        "signed-tail",
        "space-tail",
        "one-digit-tail",
        "three-digit-tail",
    ],
)
def test_gps_latitude_counts_a_bad_line_and_reads_the_next(gps_drv, bad):
    """A line that does not start with '$', even with a checksum valid over its
    body, a minutes field of 60, a GGA without a hemisphere field or with
    one that is neither N nor S, and a checksum tail that is not two hex
    digits are parse errors; the next GGA is read."""
    gps_drv.uart.b.send(bad + _gga("4859.999"))
    resp = _send_dut(gps_drv, "CALL", "g", "get_latitude", 1000)
    assert resp.ok and abs(resp.payload - ddmm_oracle("4859.999", "N")) < 1e-9
    assert _send_dut(gps_drv, "CALL", "g", "get_parse_errors").payload == 1


# ---------------------------------------------------------------------------
# SPI master


@pytest.fixture
def spi_pair(sched):
    spi = SpiBus(sched)
    slave = SpiSlaveDouble(spi)
    return SpiMaster(spi), slave, spi


class TestSpiMaster:
    def test_read_pulls_preloaded_bytes(self, spi_pair):
        master, slave, _ = spi_pair
        slave.preload_tx([0x12, 0x34])
        assert master.read(2) == [0x12, 0x34]

    def test_write_is_captured_by_the_slave(self, spi_pair):
        master, slave, _ = spi_pair
        master.write([7, 8, 9])
        assert slave.get_rx() == [7, 8, 9]

    def test_write_read_is_full_duplex(self, spi_pair):
        master, slave, _ = spi_pair
        slave.preload_tx([0xA0, 0xA1])
        assert master.write_read([1, 2, 3]) == [0xA0, 0xA1, 0x00]
        assert slave.get_rx() == [1, 2, 3]

    def test_cs_released_after_each_operation(self, spi_pair):
        master, _, spi = spi_pair
        master.write([1])
        assert spi.cs_asserted is False

    def test_read_beyond_preload_pads_with_zeros(self, spi_pair):
        master, slave, _ = spi_pair
        slave.preload_tx([5, 6])
        assert master.read(5) == [5, 6, 0, 0, 0]

    def test_drop_first_byte_fault_shifts_reads(self, sched):
        """Faulted read(2) of [0x12, 0x34] comes back as [0x34, 0x00]."""
        spi = SpiBus(sched)
        slave = SpiSlaveDouble(spi)
        master = SpiMaster(spi, fault="drop_first_byte")
        slave.preload_tx([0x12, 0x34])
        assert master.read(2) == [0x34, 0x00]

    def test_read_up_to_the_limit_is_served(self, spi_pair):
        master, _, spi = spi_pair
        assert master.read(MAX_SPI_READ) == [0] * MAX_SPI_READ
        assert len(spi.transfers[-1][0]) == MAX_SPI_READ

    def test_random_write_read_conservation(self, sched):
        """Property: the slave's log is exactly the concatenated writes."""
        rng = random.Random(101)
        spi = SpiBus(sched)
        slave = SpiSlaveDouble(spi)
        master = SpiMaster(spi)
        written = []
        for _ in range(100):
            if rng.random() < 0.5:
                chunk = [rng.randrange(256) for _ in range(rng.randrange(0, 8))]
                master.write(chunk)
                written.extend(chunk)
            else:
                n = rng.randrange(0, 8)
                master.read(n)
                written.extend([0] * n)  # reads clock dummy zeros
        assert slave.get_rx() == written


@pytest.mark.parametrize(
    "step",
    [
        ("dut", "master", "write", 5),
        ("double", "slave", "preload_tx", 5),
        ("dut", "master", "write_read", 3),
        ("dut", "master", "read", True),
        ("dut", "master", "read", 200_000),
        ("dut", "master", "read", MAX_SPI_READ + 1),
    ],
    ids=["write-int", "preload-int", "write_read-int", "read-bool", "read-huge", "read-past-limit"],
)
def test_spi_wire_arguments_out_of_shape_are_refused_before_a_byte_moves(rig, step):
    """bytes(n) of an int n is n zero bytes: an int where a byte list belongs,
    or a read longer than any reply frame holds, must not clock anything."""

    def send(device, verb, obj, method=None, *args):
        return send_command(getattr(rig.session, device).endpoint, Command(verb, obj, method, args))

    assert send("dut", "NEW", "master", "SpiMaster").ok
    assert send("double", "NEW", "slave", "SpiSlave").ok
    assert send("double", "CALL", "slave", "preload_tx", [1, 2]).ok
    assert send("dut", "CALL", "master", "write", [9]).ok
    slave = rig.session.double.registry.objects["slave"]
    before = (len(rig.spi.transfers), bytes(slave.rx_log), bytes(slave.tx_fifo))
    device, obj, method, arg = step
    resp = send(device, "CALL", obj, method, arg)
    assert resp.code == "EXEC" and resp.message.startswith("ValueError: "), resp
    assert (len(rig.spi.transfers), bytes(slave.rx_log), bytes(slave.tx_fifo)) == before


# ---------------------------------------------------------------------------
# BLE temperature sensor


class TestBleTempSensor:
    def test_start_with_zero_delay_is_immediately_scannable(self, sched):
        air = BleAir(sched)
        sensor = BleTempSensor(air, sched)
        sensor.start()
        air.scan("TempSensor", 100)

    def test_set_and_read_temperature(self, sched):
        air = BleAir(sched)
        sensor = BleTempSensor(air, sched)
        sensor.start()
        sched.advance_by(0)
        air.attach_central("phone")
        air.connect("phone", "TempSensor")
        sensor.set_temperature(23.5)
        assert air.read("phone", "TempSensor", "temp") == 23.5

    def test_notify_pushes_to_connected_centrals(self, sched):
        air = BleAir(sched)
        sensor = BleTempSensor(air, sched)
        sensor.start()
        sched.advance_by(0)
        air.attach_central("phone")
        air.connect("phone", "TempSensor")
        sensor.set_temperature(24.0)
        assert sensor.notify() == 1
        assert air.inbox("phone").popleft() == 24.0

    def test_slow_bringup_defeats_a_short_scan(self, sched):
        air = BleAir(sched)
        BleTempSensor(air, sched, init_delay_ms=6000).start()
        with pytest.raises(ScanTimeoutError):
            air.scan("TempSensor", 5000)

    @pytest.mark.parametrize("window_ms", [5999, 6000])
    def test_armed_fault_brings_the_radio_up_at_6000_ms(self, sched, window_ms):
        """A scan one millisecond short of the bring-up times out; one that
        reaches it finds the sensor exactly then."""
        air = BleAir(sched)
        BleTempSensor(air, sched, fault="ble_init_delay_ms").start()
        if window_ms < 6000:
            with pytest.raises(ScanTimeoutError):
                air.scan("TempSensor", window_ms)
        else:
            air.scan("TempSensor", window_ms)
        assert sched.now == window_ms
        assert air.is_advertising("TempSensor") == (window_ms == 6000)

    def test_explicit_delay_wins_over_the_fault_override(self, sched):
        air = BleAir(sched)
        assert BleTempSensor(air, sched, fault="ble_init_delay_ms").init_delay_ms == 6000
        sensor = BleTempSensor(air, sched, fault="ble_init_delay_ms", init_delay_ms=0)
        assert sensor.init_delay_ms == 0
        sensor.start()
        air.scan("TempSensor", 0)
        assert sched.now == 0

    def test_operations_require_start(self, sched):
        sensor = BleTempSensor(BleAir(sched), sched)
        with pytest.raises(NotStartedError):
            sensor.set_temperature(20.0)
        with pytest.raises(NotStartedError):
            sensor.notify()

    def test_a_second_start_keeps_the_one_pending_bringup(self, sched):
        air = BleAir(sched)
        sensor = BleTempSensor(air, sched, init_delay_ms=500)
        sensor.start()
        sched.advance_by(200)
        sensor.start()
        assert sched.next_due() == 500
        assert sched.advance_by(1000) == 1
        assert air.is_advertising("TempSensor")

    @pytest.mark.parametrize("delay", [-1, MAX_SIM_MS + 1])
    def test_a_bringup_the_clock_refuses_leaves_it_stopped(self, sched, delay):
        sensor = BleTempSensor(BleAir(sched), sched, init_delay_ms=delay)
        with pytest.raises(ScheduleError):
            sensor.start()
        assert not sensor.started and sched.next_due() is None

    def test_close_cancels_pending_bringup(self, sched):
        air = BleAir(sched)
        sensor = BleTempSensor(air, sched, init_delay_ms=500)
        sensor.start()
        sensor.close()
        sched.advance_by(1000)
        assert not air.is_advertising("TempSensor")
