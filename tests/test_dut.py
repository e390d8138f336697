"""Reference drivers, with and without their deliberate faults armed."""

import datetime
import random
from decimal import Decimal

import pytest

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
from double_harness.doubles import GpsDouble, RtcDouble, SpiSlaveDouble, wrap_sentence
from double_harness.dut import (
    Blinker,
    BleTempSensor,
    FaultConfig,
    MAX_SPI_READ,
    GpsDriver,
    NotStartedError,
    RtcDriver,
    SpiMaster,
)
from double_harness.simcore import Scheduler
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
        assert [t for t, _ in line.edges] == [2000, 4000, 6000, 8000]
        assert sched.now == 8000

    def test_isr_mode_produces_identical_edge_times(self):
        sched_a, sched_b = Scheduler(), Scheduler()
        line_a, line_b = GpioLine(), GpioLine()
        Blinker(line_a, 300, 3, sched_a).blink("blocking")
        blinker = Blinker(line_b, 300, 3, sched_b)
        blinker.blink("isr")
        sched_b.advance_to(sched_a.now)
        assert line_a.edges == line_b.edges

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
        Blinker(line, 2000, 2, sched, FaultConfig(period_skew_ms=5)).blink("blocking")
        intervals = [b[0] - a[0] for a, b in zip(line.edges, line.edges[1:])]
        average = sum(intervals) / len(intervals)
        assert average == 2005.0
        assert not close_to(2000, 1).check(average)

    def test_close_cancels_pending_isr_toggles(self, sched):
        line = GpioLine()
        blinker = Blinker(line, 100, 5, sched)
        blinker.blink("isr")
        blinker.close()
        sched.advance_by(10_000)
        assert line.edges == []

    def test_second_isr_blink_restarts_the_pattern(self, sched):
        """Re-arming cancels the first timer: 2*count edges at the period from the restart."""
        line = GpioLine()
        blinker = Blinker(line, 100, 3, sched)
        blinker.blink("isr")
        sched.advance_by(250)
        blinker.blink("isr")
        sched.advance_by(10_000)
        assert [t for t, _ in line.edges] == [100, 200] + [250 + 100 * k for k in range(1, 7)]
        assert sched.next_due() is None

    def test_bad_mode_rejected(self, sched):
        with pytest.raises(ValueError):
            Blinker(GpioLine(), 100, 1, sched).blink("turbo")


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
        driver = RtcDriver(i2c, FaultConfig(swap_bcd_nibbles=True))
        driver.set_datetime([2021, 6, 15, 12, 34, 56])
        regs = rtc.read_registers()
        assert regs[0] == 0x65  # seconds 0x56 swapped
        assert regs[1] == 0x43  # minutes 0x34 swapped
        assert regs[2] == 0x21  # hours   0x12 swapped

    def test_nibble_swap_fault_breaks_the_set_get_autotest(self, sched):
        i2c = I2cBus()
        RtcDouble(i2c, sched)
        driver = RtcDriver(i2c, FaultConfig(swap_bcd_nibbles=True))
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
        driver = GpsDriver(link.a, sched, FaultConfig(omit_checksum=True))
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
        master = SpiMaster(spi, FaultConfig(drop_first_byte=True))
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

    def test_explicit_delay_wins_over_the_fault_override(self, sched):
        air = BleAir(sched)
        faults = FaultConfig(ble_init_delay_ms=6000)
        assert BleTempSensor(air, sched, faults).init_delay_ms == 6000
        assert BleTempSensor(air, sched, faults, init_delay_ms=0).init_delay_ms == 0

    def test_operations_require_start(self, sched):
        sensor = BleTempSensor(BleAir(sched), sched)
        with pytest.raises(NotStartedError):
            sensor.set_temperature(20.0)
        with pytest.raises(NotStartedError):
            sensor.notify()

    def test_close_cancels_pending_bringup(self, sched):
        air = BleAir(sched)
        sensor = BleTempSensor(air, sched, init_delay_ms=500)
        sensor.start()
        sensor.close()
        sched.advance_by(1000)
        assert not air.is_advertising("TempSensor")
