"""Virtual media: GPIO edge log, I2C transactions, UART lines, SPI, BLE air."""

import random

import pytest

from double_harness.bus import (
    BleAir,
    CsNotAssertedError,
    GpioLine,
    I2cBus,
    I2cNackError,
    NotConnectedError,
    ScanTimeoutError,
    SpiBus,
    UartLink,
    UartTimeoutError,
)
class TestGpioLine:
    def test_edges_recorded_with_timestamps(self):
        line = GpioLine()
        line.write(1, 0)
        line.write(0, 100)
        assert line.edges == [(0, 1), (100, 0)]

    def test_writing_same_level_is_a_noop(self):
        line = GpioLine()
        line.write(1, 0)
        line.write(1, 50)
        assert line.edges == [(0, 1)]

    def test_ten_toggles_at_fixed_spacing(self):
        line = GpioLine()
        for i in range(1, 11):
            line.toggle(i * 100)
        assert len(line.edges) == 10
        deltas = [b[0] - a[0] for a, b in zip(line.edges, line.edges[1:])]
        assert deltas == [100] * 9

    def test_time_regression_rejected(self):
        line = GpioLine()
        line.write(1, 100)
        with pytest.raises(ValueError):
            line.write(0, 99)

    def test_listeners_see_each_edge(self):
        line = GpioLine()
        seen = []
        line.subscribe(lambda t, level: seen.append((t, level)))
        line.toggle(10)
        line.toggle(20)
        line.unsubscribe(seen.append)  # unknown listener: ignored
        assert seen == [(10, 1), (20, 0)]

    def test_alternation_and_monotonicity_hold_for_random_sequences(self):
        """Property: any mix of writes keeps the edge log alternating."""
        rng = random.Random(7)
        for _ in range(50):
            line = GpioLine()
            t = 0
            for _ in range(rng.randrange(1, 40)):
                t += rng.randrange(0, 10)
                line.write(rng.randint(0, 1), t)
            levels = [lv for _, lv in line.edges]
            times = [at for at, _ in line.edges]
            assert all(a != b for a, b in zip(levels, levels[1:]))
            assert times == sorted(times)


class TestI2cBus:
    def test_write_then_read_reaches_the_handler(self):
        bus = I2cBus()
        seen = {}

        def handler(wbytes, nread):
            seen["w"] = wbytes
            return bytes(range(nread))

        bus.add_device(0x68, handler)
        result = bus.write_then_read(0x68, b"\x00\x05", 3)
        assert seen["w"] == b"\x00\x05"
        assert result == b"\x00\x01\x02"

    def test_missing_device_nacks(self):
        bus = I2cBus()
        with pytest.raises(I2cNackError):
            bus.write_then_read(0x50, b"\x00", 1)

    def test_empty_write_empty_read(self):
        bus = I2cBus()
        bus.add_device(0x30, lambda w, n: b"")
        assert bus.write_then_read(0x30, b"", 0) == b""

    def test_address_bounds_and_uniqueness(self):
        bus = I2cBus()
        bus.add_device(0x08, lambda w, n: bytes(n))
        with pytest.raises(ValueError):
            bus.add_device(0x07, lambda w, n: bytes(n))
        with pytest.raises(ValueError):
            bus.add_device(0x78, lambda w, n: bytes(n))
        with pytest.raises(ValueError):
            bus.add_device(0x08, lambda w, n: bytes(n))


class TestUartLink:
    def test_line_loopback(self, sched):
        link = UartLink(sched)
        link.a.send(b"$GPGGA,123519,4807.038,N*11\r\n")
        assert link.b.recv_line(100) == b"$GPGGA,123519,4807.038,N*11\r\n"

    def test_two_lines_arrive_in_order(self, sched):
        link = UartLink(sched)
        link.a.send(b"one\n")
        link.a.send(b"two\n")
        assert link.b.recv_line(10) == b"one\n"
        assert link.b.recv_line(10) == b"two\n"

    def test_recv_timeout_advances_clock_to_deadline(self, sched):
        link = UartLink(sched)
        with pytest.raises(UartTimeoutError):
            link.b.recv_line(250)
        assert sched.now == 250

    def test_recv_waits_for_scheduled_sender(self, sched):
        link = UartLink(sched)
        sched.schedule(40, lambda: link.a.send(b"late\n"))
        assert link.b.recv_line(100) == b"late\n"
        assert sched.now == 40

    def test_subscriber_gets_complete_lines_only(self, sched):
        link = UartLink(sched)
        lines = []
        link.b.subscribe_lines(lines.append)
        link.a.send(b"par")
        assert lines == []
        link.a.send(b"tial\nnext\n")
        assert lines == [b"partial\n", b"next\n"]

    def test_per_direction_byte_order_preserved(self, sched):
        """Property: received bytes are always a prefix of sent bytes."""
        link = UartLink(sched)
        rng = random.Random(21)
        sent = bytearray()
        got = bytearray()
        for _ in range(100):
            chunk = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 8)))
            sent.extend(chunk)
            link.a.send(chunk)
            take = rng.randrange(0, 6)
            pending = link.b.pending()
            got.extend(pending[:take])
            link.b.flush()
            link.a.send(pending[take:])  # requeue what we did not consume
        assert bytes(sent).startswith(bytes(got))

    def test_closed_link_drops_bytes_in_both_directions(self, sched):
        link = UartLink(sched)
        link.a.send(b"kept\n")
        link.close()
        link.a.send(b"lost\n")
        link.b.send(b"lost\n")
        assert link.b.pending() == b"kept\n"
        assert link.a.pending() == b""


class TestSpiBus:
    def test_transfer_requires_cs(self, sched):
        bus = SpiBus(sched)
        with pytest.raises(CsNotAssertedError):
            bus.transfer(b"\x01")

    def test_slave_preload_echo(self, sched):
        bus = SpiBus(sched)
        fifo = bytearray(b"\xaa\xbb")
        bus.set_slave(lambda mosi: bytes(fifo.pop(0) if fifo else 0 for _ in mosi))
        bus.assert_cs()
        assert bus.transfer(b"\x00\x00") == b"\xaa\xbb"

    def test_clear_slave_matches_a_fresh_bound_method(self, sched):
        """obj.method is a new object on each access; clearing must still match."""

        class Slave:
            def handle(self, mosi):
                return b"\xff" * len(mosi)

        bus = SpiBus(sched)
        slave = Slave()
        bus.set_slave(slave.handle)
        bus.clear_slave(Slave().handle)  # another instance's handler: kept
        bus.assert_cs()
        assert bus.transfer(b"\x00") == b"\xff"
        bus.clear_slave(slave.handle)
        assert bus.transfer(b"\x00") == b"\x00"

    def test_zero_length_transfer(self, sched):
        bus = SpiBus(sched)
        bus.assert_cs()
        assert bus.transfer(b"") == b""

    def test_full_duplex_length_equality_logged(self, sched):
        bus = SpiBus(sched)
        bus.set_slave(lambda mosi: bytes(len(mosi)))
        bus.assert_cs()
        rng = random.Random(3)
        for _ in range(50):
            n = rng.randrange(0, 16)
            bus.transfer(bytes(n))
        assert all(len(mosi) == len(miso) for mosi, miso, _ in bus.transfers)


class TestBleAir:
    def test_scan_finds_live_advertiser(self, sched):
        air = BleAir(sched)
        air.advertise("TempSensor", {"temp": 1.0})
        air.scan("TempSensor", 10)  # no exception

    def test_scan_times_out_when_peripheral_is_late(self, sched):
        """Bring-up at 6000 ms against a 5000 ms window: never found."""
        air = BleAir(sched)
        sched.schedule(6000, lambda: air.advertise("TempSensor", {}))
        with pytest.raises(ScanTimeoutError):
            air.scan("TempSensor", 5000)
        assert sched.now == 5000

    def test_scan_window_is_inclusive_at_the_boundary(self, sched):
        air = BleAir(sched)
        sched.schedule(5000, lambda: air.advertise("TempSensor", {}))
        air.scan("TempSensor", 5000)
        assert sched.now == 5000

    def test_read_returns_last_written_value(self, sched):
        air = BleAir(sched)
        chars = {"temp": 20.0}
        air.advertise("TempSensor", chars)
        air.attach_central("phone")
        air.connect("phone", "TempSensor")
        chars["temp"] = 23.5
        assert air.read("phone", "TempSensor", "temp") == 23.5

    def test_read_requires_connection(self, sched):
        air = BleAir(sched)
        air.advertise("TempSensor", {"temp": 0.0})
        air.attach_central("phone")
        with pytest.raises(NotConnectedError):
            air.read("phone", "TempSensor", "temp")

    def test_notify_reaches_exactly_the_connected_centrals(self, sched):
        air = BleAir(sched)
        air.advertise("TempSensor", {"temp": 0.0})
        for central in ("a", "b", "c"):
            air.attach_central(central)
        air.connect("a", "TempSensor")
        air.connect("b", "TempSensor")
        assert air.notify("TempSensor", "temp", 42.0) == 2
        assert list(air.inbox("a")) == [42.0]
        assert list(air.inbox("b")) == [42.0]
        assert list(air.inbox("c")) == []
