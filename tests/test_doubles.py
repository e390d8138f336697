"""Peripheral impostors: LED listener, RTC registers, GPS talker, SPI slave, BLE central."""

import datetime
import random
from functools import reduce

import pytest

from double_harness.bus import (
    BleAir,
    GpioLine,
    I2cBus,
    I2cNackError,
    ScanTimeoutError,
    SpiBus,
    UartLink,
)
from double_harness.doubles import (
    BleCentralDouble,
    FixFormatError,
    GpsDouble,
    LedDouble,
    NotifyTimeoutError,
    NotReadyError,
    RtcDouble,
    SpiSlaveDouble,
    nmea_checksum,
    split_sentence,
    wrap_sentence,
)
from double_harness.simcore import Scheduler
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

    def test_close_unsubscribes(self):
        line, led = self.make(2)
        led.start_acquisition()
        led.close()
        line.toggle(10)
        assert led.captured == []


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
    """Reference: advance_seconds as a plain loop of one register step per day."""

    def dec(b):
        return (b >> 4) * 10 + (b & 0x0F)

    def enc(v):
        return ((v // 10) << 4) | (v % 10)

    tod = dec(rtc.regs[2]) * 3600 + dec(rtc.regs[1]) * 60 + dec(rtc.regs[0]) + n
    days, tod = divmod(tod, 86400)
    rtc.regs[0:3] = bytes([enc(tod % 60), enc(tod // 60 % 60), enc(tod // 3600)])
    for _ in range(days):
        rtc._advance_one_day()


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


class TestNmeaHelpers:
    def test_checksum_matches_independent_fold(self):
        for body in ("GPGGA,123519,4807.038,N", "PDBL,RATE,1000", ""):
            assert nmea_checksum(body) == oracle_checksum(body)

    def test_wrap_produces_two_uppercase_hex_digits(self):
        sentence = wrap_sentence("PDBL,RATE,1000")
        assert sentence == f"$PDBL,RATE,1000*{oracle_checksum('PDBL,RATE,1000'):02X}"

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
    def test_preload_is_served_in_order(self, sched):
        spi = SpiBus(sched)
        slave = SpiSlaveDouble(spi)
        slave.preload_tx([1, 2, 3])
        spi.assert_cs()
        assert spi.transfer(bytes(3)) == bytes([1, 2, 3])

    def test_exhausted_fifo_pads_with_zeros(self, sched):
        spi = SpiBus(sched)
        slave = SpiSlaveDouble(spi)
        slave.preload_tx([0xAA, 0xBB])
        spi.assert_cs()
        assert spi.transfer(bytes(5)) == bytes([0xAA, 0xBB, 0, 0, 0])

    def test_rx_log_captures_and_clears(self, sched):
        spi = SpiBus(sched)
        slave = SpiSlaveDouble(spi)
        spi.assert_cs()
        spi.transfer(bytes([9, 9]))
        assert slave.get_rx() == [9, 9]
        assert slave.get_rx() == []

    def test_rx_log_equals_all_mosi_bytes_in_order(self, sched):
        """Property: conservation between transfers and the captured log."""
        rng = random.Random(17)
        spi = SpiBus(sched)
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
        assert central.state == "connected"

    def test_scan_timeout_when_peripheral_never_appears(self, sched):
        air = BleAir(sched)
        central = BleCentralDouble(air, "phone")
        with pytest.raises(ScanTimeoutError):
            central.scan_connect("TempSensor", 5000)
        assert central.state == "idle"

    def test_read_returns_characteristic_value(self, sched):
        air = BleAir(sched)
        air.advertise("TempSensor", {"temp": 23.5})
        central = BleCentralDouble(air, "phone")
        central.scan_connect("TempSensor", 10)
        assert central.read("temp") == 23.5

    def test_read_before_connect_is_an_error(self, sched):
        from double_harness.bus import NotConnectedError

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
