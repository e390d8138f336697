"""Virtual media: GPIO edge log, I2C transactions, UART lines, SPI, BLE air."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from double_harness.bus import (
    BleAir,
    BusError,
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


class _ListLine:
    """The edge log as one int per edge in a list, the reference for the
    run-keeping GpioLine. It keeps each edge's level apart from its time."""

    def __init__(self):
        self.edges, self.levels = [], []

    @property
    def level(self):
        return self.levels[-1] if self.levels else 0

    def write(self, level, at):
        if level not in (0, 1):
            raise ValueError(f"level must be 0 or 1, got {level!r}")
        if self.edges and at < self.edges[-1]:
            raise ValueError(f"edge time regression: {at} < {self.edges[-1]}")
        if level != self.level:
            self.edges.append(at)
            self.levels.append(level)

    def toggle(self, at):
        self.write(1 - self.level, at)

    def toggle_train(self, first, period, n):
        if self.edges and first < self.edges[-1]:
            raise ValueError(f"edge time regression: {first} < {self.edges[-1]}")
        for at in range(first, first + n * period, period):
            self.toggle(at)
        return True


# (op, time after the last edge, level to write, train period, train length)
_LINE_STEPS = st.lists(
    st.tuples(
        st.sampled_from(["write", "toggle", "train"]),
        st.integers(-2, 7),
        st.integers(0, 2),
        st.integers(1, 5),
        st.integers(0, 5),
    ),
    max_size=30,
)
_SLICES = [slice(None), slice(1, None), slice(None, -1), slice(2, 5), slice(None, None, 2), slice(1, None, 3)]
_SLICES += [slice(None, None, -1), slice(-2, None, -2), slice(5, 1, -3)]


class TestGpioLine:
    def test_edges_recorded_with_timestamps(self):
        line = GpioLine()
        line.write(1, 0)
        line.write(0, 100)
        assert list(line.edges) == [0, 100]
        assert line.edges != [0, 100]  # a view of runs: like a range, never equal to a list
        with pytest.raises(TypeError):
            line.edges[1.0]
        assert line.level == 0

    def test_count_and_index_answer_as_on_a_list(self):
        """The log's edge count is private, so Sequence's count and index
        work: here over three runs, with an edge time held twice."""
        line = GpioLine()
        line.toggle_train(5, 5, 3)
        line.toggle(15)
        line.toggle_train(16, 2, 4)
        want = list(line.edges)
        assert want == [5, 10, 15, 15, 16, 18, 20, 22]
        for t in (0, 5, 15, 16, 22, 23):
            assert line.edges.count(t) == want.count(t)
        for t in (5, 15, 22):
            assert line.edges.index(t) == want.index(t)
        with pytest.raises(ValueError):
            line.edges.index(17)

    def test_writing_same_level_is_a_noop(self):
        line = GpioLine()
        line.write(1, 0)
        line.write(1, 50)
        assert list(line.edges) == [0]
        assert line.level == 1

    def test_ten_toggles_at_fixed_spacing(self):
        line = GpioLine()
        for i in range(1, 11):
            line.toggle(i * 100)
        assert len(line.edges) == 10
        deltas = [b - a for a, b in zip(line.edges, line.edges[1:])]
        assert deltas == [100] * 9

    def test_time_regression_rejected(self):
        """Also for a same-level write, which would otherwise be a no-op."""
        line = GpioLine()
        line.write(1, 100)
        with pytest.raises(ValueError):
            line.write(0, 99)
        with pytest.raises(ValueError, match="edge time regression: 99 < 100"):
            line.write(1, 99)
        line.write(1, 100)  # the same ms is not a regression
        assert list(line.edges) == [100]
        assert line.level == 1

    @pytest.mark.parametrize("level", [2, -1, "1", None])
    def test_a_level_other_than_0_or_1_is_refused_and_writes_nothing(self, level):
        line = GpioLine()
        line.write(1, 5)
        with pytest.raises(ValueError, match=re.escape(f"level must be 0 or 1, got {level!r}")):
            line.write(level, 10)
        assert (list(line.edges), line.level) == ([5], 1)

    def test_the_level_is_read_from_the_edge_log(self):
        line = GpioLine()
        line.toggle_train(10, 5, 3)
        assert line.level == 1
        line.write(0, 30)
        assert (list(line.edges), line.level) == ([10, 15, 20, 30], 0)
        with pytest.raises(AttributeError):
            line.level = 1

    def test_listeners_see_each_edge(self):
        line = GpioLine()
        seen = []
        line.subscribe(lambda t, level: seen.append((t, level)))
        line.toggle(10)
        line.toggle(20)
        line.unsubscribe(seen.append)  # unknown listener: ignored
        assert seen == [(10, 1), (20, 0)]

    def test_a_listener_subscribed_twice_hears_each_edge_once(self):
        line = GpioLine()
        seen = []

        def listener(t, level):
            seen.append((t, level))

        line.subscribe(listener)
        line.subscribe(listener)
        line.toggle(10)
        assert seen == [(10, 1)]

    def test_listener_set_is_fixed_when_the_edge_is_written(self):
        """Unsubscribed during an edge: still gets it. Subscribed during it: does not."""
        line = GpioLine()
        seen = []

        def late(t, level):
            seen.append(("late", t))

        def first(t, level):
            seen.append(("first", t))
            line.unsubscribe(second)
            line.subscribe(late)

        def second(t, level):
            seen.append(("second", t))

        line.subscribe(first)
        line.subscribe(second)
        line.toggle(10)
        assert seen == [("first", 10), ("second", 10)]
        line.unsubscribe(first)
        line.toggle(20)
        assert seen[2:] == [("late", 20)]

    @pytest.mark.parametrize("start_level", [0, 1])
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_a_toggle_train_is_that_many_toggles(self, start_level, n):
        plain, train = GpioLine(), GpioLine()
        for line in (plain, train):
            line.write(start_level, 3)
        for k in range(n):
            plain.toggle(10 + 7 * k)
        assert train.toggle_train(10, 7, n) is True
        assert (list(train.edges), train.level) == (list(plain.edges), plain.level)
        last = 10 + 7 * (n - 1)
        with pytest.raises(ValueError, match=f"edge time regression: {last - 1} < {last}"):
            train.write(1 - train.level, last - 1)

    def test_a_toggle_train_refuses_a_time_regression_and_writes_nothing(self):
        line = GpioLine()
        line.toggle(100)
        with pytest.raises(ValueError, match="edge time regression: 99 < 100"):
            line.toggle_train(99, 5, 3)
        assert (list(line.edges), line.level) == ([100], 1)
        assert line.toggle_train(100, 5, 2)  # the same ms is not a regression
        assert (list(line.edges), line.level) == ([100, 100, 105], 1)

    def test_a_line_with_listeners_declines_a_toggle_train(self):
        line = GpioLine()
        seen = []
        line.subscribe(lambda t, level: seen.append((t, level)))
        assert line.toggle_train(10, 5, 4) is False
        assert (list(line.edges), line.level, seen) == ([], 0, [])

    def test_toggle_goes_through_write(self):
        writes = []

        class WatchedLine(GpioLine):
            def write(self, level, at):
                writes.append((at, level))
                super().write(level, at)

        line = WatchedLine()
        for at in (1, 2, 3):
            line.toggle(at)
        assert writes == [(1, 1), (2, 0), (3, 1)]
        assert list(line.edges) == [1, 2, 3]

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_LINE_STEPS)
    def test_the_run_log_reads_as_a_plain_list_after_every_step(self, steps):
        """Differential property: writes (levels 0, 1 and 2), toggles and
        trains at times drawn around the last edge, so equal times and
        regressions occur, on a GpioLine and on _ListLine. After each step
        both answer alike: outcome or ValueError message, level, length,
        the last edge's time, every index either way, IndexError just past
        each end, slices and iteration, count and index. The model's levels
        start at 1 and alternate."""
        line, model = GpioLine(), _ListLine()
        for op, dt, level, period, n in steps:
            at = (model.edges[-1] if model.edges else 0) + dt
            name, *args = {
                "write": ("write", level, at),
                "toggle": ("toggle", at),
                "train": ("toggle_train", at, period, n),
            }[op]
            outcomes = []
            for target in (line, model):
                try:
                    outcomes.append(getattr(target, name)(*args))
                except ValueError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1]
            edges, want = line.edges, model.edges
            assert (len(edges), line.level, edges.last) == (len(want), model.level, want[-1] if want else None)
            assert [edges[i] for i in range(-len(want), len(want))] == want + want
            for i in (len(want), -len(want) - 1):
                with pytest.raises(IndexError):
                    edges[i]
            for cut in _SLICES:
                assert edges[cut] == want[cut]
            assert list(edges) == want
            for t in {*want[:2], *want[-3:]}:
                assert (edges.count(t), edges.index(t)) == (want.count(t), want.index(t))
            absent = want[-1] + 1 if want else 0
            assert edges.count(absent) == 0
            with pytest.raises(ValueError):
                edges.index(absent)
            assert model.levels == [(k + 1) % 2 for k in range(len(want))]


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

    def test_a_negative_read_length_is_refused_before_the_device_is_reached(self):
        bus = I2cBus()
        calls = []
        bus.add_device(0x68, lambda w, n: calls.append((w, n)) or bytes(n))
        with pytest.raises(ValueError, match="nread must be >= 0, got -1"):
            bus.write_then_read(0x68, b"\x00", -1)
        assert calls == []

    @pytest.mark.parametrize("length", [2, 4])
    def test_a_reply_of_another_length_than_clocked_is_a_bus_error(self, length):
        bus = I2cBus()
        bus.add_device(0x68, lambda w, n: bytes(length))
        with pytest.raises(BusError, match=f"device 0x68 returned {length} of 3 bytes"):
            bus.write_then_read(0x68, b"\x00", 3)

    def test_address_bounds_and_uniqueness(self):
        bus = I2cBus()
        bus.add_device(0x08, lambda w, n: bytes(n))
        bus.add_device(0x77, lambda w, n: bytes(n))  # both ends of 0x08..0x77 are usable
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

    def test_an_empty_line_that_arrives_first_is_still_a_line(self, sched):
        link = UartLink(sched)
        lines = []
        link.b.subscribe_lines(lines.append)
        link.a.send(b"\nabc\n")
        assert lines == [b"\n", b"abc\n"]
        link.b.send(b"\nabc\n")
        assert link.a.recv_line(10) == b"\n"
        assert link.a.recv_line(10) == b"abc\n"

    def test_a_sent_bytearray_changed_afterwards_is_received_as_sent(self, sched):
        """Both ways, with and without a line listener: the receiver keeps
        the bytes of the send, not the sender's buffer."""
        link = UartLink(sched)
        lines = []
        link.b.subscribe_lines(lines.append)
        buf = bytearray(b"one\ntw")
        link.a.send(buf)
        link.b.send(buf)
        buf[:] = b"XXXXXXX\n"
        assert lines == [b"one\n"] and link.b.pending() == b"tw"
        assert link.a.recv_line(0) == b"one\n" and link.a.pending() == b"tw"

    def test_a_line_listener_gets_each_line_within_the_send_that_ends_it(self, sched):
        """Each line is delivered as it forms, before the next send, and the
        listener sees the bytes after it still buffered."""
        link = UartLink(sched)
        seen = []
        link.b.subscribe_lines(lambda line: seen.append((line, link.b.pending())))
        link.a.send(b"$A")
        assert seen == []
        link.a.send(b"*1\r\n$B*2\r\n$C")
        assert seen == [(b"$A*1\r\n", b"$B*2\r\n$C"), (b"$B*2\r\n", b"$C")]
        link.a.send(b"*3\n")
        assert seen[2:] == [(b"$C*3\n", b"")]

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

    def test_subscribing_none_leaves_a_buffered_line_for_recv_line(self, sched):
        link = UartLink(sched)
        link.a.send(b"one\n")
        link.b.subscribe_lines(None)
        assert link.b.recv_line(0) == b"one\n"

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
    def test_transfer_requires_cs(self):
        bus = SpiBus()
        with pytest.raises(CsNotAssertedError):
            bus.transfer(b"\x01")

    def test_slave_preload_echo(self):
        bus = SpiBus()
        fifo = bytearray(b"\xaa\xbb")
        bus.set_slave(lambda mosi: bytes(fifo.pop(0) if fifo else 0 for _ in mosi))
        bus.assert_cs()
        assert bus.transfer(b"\x00\x00") == b"\xaa\xbb"

    def test_clear_slave_matches_a_fresh_bound_method(self):
        """obj.method is a new object on each access; clearing must still match."""

        class Slave:
            def handle(self, mosi):
                return b"\xff" * len(mosi)

        bus = SpiBus()
        slave = Slave()
        bus.set_slave(slave.handle)
        bus.clear_slave(Slave().handle)  # another instance's handler: kept
        bus.assert_cs()
        assert bus.transfer(b"\x00") == b"\xff"
        bus.clear_slave(slave.handle)
        assert bus.transfer(b"\x00") == b"\x00"

    @pytest.mark.parametrize("miso", [b"\x01", b"\x01\x02\x03"])
    def test_a_slave_reply_of_another_length_is_a_bus_error(self, miso):
        bus = SpiBus()
        bus.set_slave(lambda mosi: miso)
        bus.assert_cs()
        with pytest.raises(BusError, match=f"slave returned {len(miso)} bytes for 2 clocked"):
            bus.transfer(b"\xaa\xbb")

    def test_zero_length_transfer(self):
        bus = SpiBus()
        bus.assert_cs()
        assert bus.transfer(b"") == b""

    def test_full_duplex_length_equality_logged(self):
        bus = SpiBus()
        bus.set_slave(lambda mosi: bytes(len(mosi)))
        bus.assert_cs()
        rng = random.Random(3)
        for _ in range(50):
            n = rng.randrange(0, 16)
            assert len(bus.transfer(bytes(n))) == n


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

    def test_connect_needs_an_advertiser_and_a_known_central(self, sched):
        air = BleAir(sched)
        air.attach_central("phone")
        with pytest.raises(NotConnectedError, match="'TempSensor' is not advertising"):
            air.connect("phone", "TempSensor")
        air.advertise("TempSensor", {"temp": 0.0})
        with pytest.raises(NotConnectedError, match="unknown central 'tablet'"):
            air.connect("tablet", "TempSensor")
        assert air.notify("TempSensor", "temp", 1.0) == 0

    def test_disconnect_ends_only_that_connection(self, sched):
        air = BleAir(sched)
        air.advertise("TempSensor", {"temp": 0.0})
        for central in ("a", "b"):
            air.attach_central(central)
            air.connect(central, "TempSensor")
        air.disconnect("a", "TempSensor")
        air.disconnect("a", "TempSensor")  # no longer connected: ignored
        assert air.notify("TempSensor", "temp", 5.0) == 1
        assert (list(air.inbox("a")), list(air.inbox("b"))) == ([], [5.0])
        with pytest.raises(NotConnectedError):
            air.read("a", "TempSensor", "temp")

    def test_dropping_a_peripheral_keeps_the_other_connections(self, sched):
        air = BleAir(sched)
        air.advertise("TempSensor", {"temp": 20.0})
        air.advertise("Clock", {"time": 7})
        air.attach_central("phone")
        air.connect("phone", "TempSensor")
        air.connect("phone", "Clock")
        air.drop_peripheral("TempSensor")
        assert air.read("phone", "Clock", "time") == 7
        with pytest.raises(NotConnectedError):
            air.read("phone", "TempSensor", "temp")

    def test_reading_a_characteristic_the_peripheral_lacks_is_a_bus_error(self, sched):
        air = BleAir(sched)
        air.advertise("TempSensor", {"temp": 20.0})
        air.attach_central("phone")
        air.connect("phone", "TempSensor")
        with pytest.raises(BusError, match="no characteristic 'humidity'"):
            air.read("phone", "TempSensor", "humidity")
        air.stop_advertising("TempSensor")  # still connected, but the store is gone
        with pytest.raises(BusError, match="no characteristic 'temp'"):
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
