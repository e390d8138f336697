"""Virtual media standing in for the jumper wires between two dev boards.

A GPIO line with an edge log, an I2C bus with addressed devices, a UART
link, an SPI bus, and a BLE "air" medium. All of them are logical
transaction models (values and timing, not waveforms), timestamped by the
shared Scheduler.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from collections.abc import Sequence
from typing import Any, Callable, Iterator

from .simcore import Scheduler, SimTime


class BusError(Exception):
    """Base for all virtual-bus faults."""


class I2cNackError(BusError):
    """No device acknowledged the addressed transaction (miswired bus)."""


class UartTimeoutError(BusError):
    """No complete line arrived before the deadline."""


class CsNotAssertedError(BusError):
    """SPI transfer attempted while chip-select was released."""


class ScanTimeoutError(BusError):
    """The peripheral never showed up on the air within the scan window."""


class NotConnectedError(BusError):
    """GATT operation attempted without an open connection."""


# ---------------------------------------------------------------------------
# GPIO


class EdgeLog(Sequence):
    """A GpioLine's edge times, oldest first, kept as arithmetic runs: run r
    starts at edge index starts[r] and time firsts[r], and steps by
    periods[r] (-1 until its second edge). New edges extend the last run
    while each step is its period and above 0, else start a run, so a train
    costs O(1) time and memory. A read-only sequence of int times: a slice
    is a list, and like a range it never equals a list."""

    __slots__ = ("starts", "firsts", "periods", "count", "last")

    def __init__(self) -> None:
        self.starts, self.firsts, self.periods = [], [], []  # one entry per run
        self.count, self.last = 0, None  # edges (not Sequence.count), and the last one's time or None

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(self.count)[i]]
        i = range(self.count)[i]  # one index in range, else IndexError or TypeError
        r = bisect_right(self.starts, i) - 1
        return self.firsts[r] + (i - self.starts[r]) * self.periods[r]

    def __iter__(self) -> Iterator[SimTime]:
        ends = self.starts[1:] + [self.count]
        for start, end, first, period in zip(self.starts, ends, self.firsts, self.periods):
            yield from range(first, first + (end - start) * period, period)  # period -1: [first]

    def _add(self, first: SimTime, period: int, n: int) -> None:
        """Append n edges from first, period >= 1 apart, after last."""
        if n < 1:
            return
        step = first - self.last if self.count else 0
        if step > 0 and (n == 1 or step == period) and self.periods[-1] in (step, -1):
            self.periods[-1] = period = step
        else:
            self.starts.append(self.count)
            self.firsts.append(first)
            self.periods.append(period if n > 1 else -1)
        self.count += n
        self.last = first + (n - 1) * period


class GpioLine:
    """A single digital line. Records the time of every level change.

    Writing the current level again is a no-op and the line starts low, so
    consecutive edges alternate and each edge's level follows from its index
    in the log: edge k (from 0) rises when k is even and falls when k is odd.
    So `edges`, an EdgeLog, keeps times only, as runs, and they never
    decrease. It is the line's one record: the level is its length's parity.
    """

    def __init__(self) -> None:
        self.edges = EdgeLog()
        # Replaced, never mutated, by (un)subscribe: an edge is delivered to
        # the listeners subscribed when it was written.
        self._listeners: tuple[Callable[[SimTime, int], None], ...] = ()

    @property
    def level(self) -> int:
        """The level after the last edge: the parity of the edge count."""
        return self.edges.count & 1

    def write(self, level: int, at: SimTime) -> None:
        if level not in (0, 1):
            raise ValueError(f"level must be 0 or 1, got {level!r}")
        log = self.edges
        if log.count and at < log.last:
            raise ValueError(f"edge time regression: {at} < {log.last}")
        if level == log.count & 1:
            return
        log._add(at, 1, 1)
        for listener in self._listeners:
            listener(at, level)

    def toggle(self, at: SimTime) -> None:
        self.write(1 - self.level, at)

    def toggle_train(self, first: SimTime, period: int, n: int) -> bool:
        """Toggle n >= 0 times, at first, first + period, ..., as n toggle()
        calls would, and return True. A line with listeners does nothing and
        returns False: they must see each edge as it happens."""
        if self._listeners:
            return False
        log = self.edges
        if log.count and first < log.last:
            raise ValueError(f"edge time regression: {first} < {log.last}")
        if log.count and first - log.last == period == log.periods[-1]:  # it continues the last run
            log.count += n
            log.last += n * period
        else:
            log._add(first, period, n)
        return True

    def subscribe(self, listener: Callable[[SimTime, int], None]) -> None:
        if listener not in self._listeners:
            self._listeners += (listener,)

    def unsubscribe(self, listener: Callable[[SimTime, int], None]) -> None:
        self._listeners = tuple(known for known in self._listeners if known != listener)


# ---------------------------------------------------------------------------
# I2C

I2cHandler = Callable[[bytes, int], bytes]

I2C_MIN_ADDR = 0x08
I2C_MAX_ADDR = 0x77


class I2cBus:
    """Addressed bus carrying atomic write-then-read transactions."""

    def __init__(self) -> None:
        self._devices: dict[int, I2cHandler] = {}

    def add_device(self, addr: int, handler: I2cHandler) -> None:
        if not I2C_MIN_ADDR <= addr <= I2C_MAX_ADDR:
            raise ValueError(f"address 0x{addr:02x} outside 0x08..0x77")
        if addr in self._devices:
            raise ValueError(f"address 0x{addr:02x} already occupied")
        self._devices[addr] = handler

    def remove_device(self, addr: int) -> None:
        self._devices.pop(addr, None)

    def write_then_read(self, addr: int, wbytes: bytes, nread: int) -> bytes:
        """Send wbytes to the device at addr, then clock nread bytes back.

        Raises I2cNackError when nothing answers at that address, which is
        how a miswired or absent part shows up to a driver.
        """
        if nread < 0:
            raise ValueError(f"nread must be >= 0, got {nread}")
        handler = self._devices.get(addr)
        if handler is None:
            raise I2cNackError(f"no ack from address 0x{addr:02x}")
        result = bytes(handler(bytes(wbytes), nread))
        if len(result) != nread:
            raise BusError(f"device 0x{addr:02x} returned {len(result)} of {nread} bytes")
        return result


# ---------------------------------------------------------------------------
# UART


class UartLink:
    """Full-duplex byte link with two ends, `a` and `b`.

    Bytes sent from one end appear, in order, at the other. Line-oriented
    receive can wait in simulated time, letting scheduler-driven senders
    (like a periodic NMEA emitter) feed a blocked reader.
    """

    def __init__(self, scheduler: Scheduler) -> None:
        self.a = UartEnd(scheduler)
        self.b = UartEnd(scheduler)
        self.a._peer = self.b
        self.b._peer = self.a

    def close(self) -> None:
        """Cut the wire: each end forgets its peer, so bytes sent from now on
        go nowhere and the two ends no longer keep each other alive."""
        self.a._peer = None
        self.b._peer = None


class UartEnd:
    def __init__(self, scheduler: Scheduler) -> None:
        self._scheduler = scheduler
        self._peer: UartEnd | None = None
        self._rx = bytearray()
        self._line_listener: Callable[[bytes], None] | None = None

    def send(self, data: bytes) -> None:
        """Transmit bytes toward the other end (dropped once the link is closed)."""
        peer = self._peer
        if peer is not None:
            peer._rx += data  # copies: a later change to data is not received
            if peer._line_listener is not None:
                peer._drain_lines()

    def recv_line(self, timeout_ms: int) -> bytes:
        """Return buffered bytes up to and including the next LF.

        Waits in simulated time: the scheduler is advanced event by event
        until a full line exists or the deadline passes, in which case the
        clock rests at the deadline and UartTimeoutError is raised.
        """
        sched = self._scheduler
        if not sched.run_until(lambda: b"\n" in self._rx, sched.now + timeout_ms):
            raise UartTimeoutError(f"no line within {timeout_ms} ms")
        return self._take_line()

    def pending(self) -> bytes:
        """Snapshot of bytes received and not yet consumed."""
        return bytes(self._rx)

    def flush(self) -> None:
        """Drop any buffered received bytes (a driver init typically does this)."""
        self._rx.clear()

    def subscribe_lines(self, listener: Callable[[bytes], None] | None) -> None:
        """Deliver each complete received line to `listener` as it forms."""
        self._line_listener = listener
        self._drain_lines()

    def _drain_lines(self) -> None:
        if self._line_listener is None:
            return
        while True:
            line = self._take_line()
            if line is None:
                return
            self._line_listener(line)

    def _take_line(self) -> bytes | None:
        idx = self._rx.find(b"\n")
        if idx < 0:
            return None
        line = bytes(self._rx[: idx + 1])
        del self._rx[: idx + 1]
        return line


# ---------------------------------------------------------------------------
# SPI

SpiSlaveHandler = Callable[[bytes], bytes]


class SpiBus:
    """Single-slave SPI bus with full-duplex, CS-gated transfers.

    Every transfer is logged as (mosi, miso, time); |mosi| always equals
    |miso|. With no slave attached the MISO line floats low (0x00).
    """

    def __init__(self, scheduler: Scheduler) -> None:
        self.scheduler = scheduler
        self.cs_asserted = False
        self.transfers: list[tuple[bytes, bytes, SimTime]] = []
        self._slave: SpiSlaveHandler | None = None

    def set_slave(self, handler: SpiSlaveHandler) -> None:
        self._slave = handler

    def clear_slave(self, handler: SpiSlaveHandler) -> None:
        # Equality, not identity: each access to obj.method makes a new bound
        # method object, and two of them are equal when they bind the same
        # function to the same instance.
        if self._slave == handler:
            self._slave = None

    def assert_cs(self) -> None:
        self.cs_asserted = True

    def release_cs(self) -> None:
        self.cs_asserted = False

    def transfer(self, mosi: bytes) -> bytes:
        if not self.cs_asserted:
            raise CsNotAssertedError("transfer with CS released")
        mosi = bytes(mosi)
        if self._slave is None:
            miso = bytes(len(mosi))
        else:
            miso = bytes(self._slave(mosi))
            if len(miso) != len(mosi):
                raise BusError(f"slave returned {len(miso)} bytes for {len(mosi)} clocked")
        self.transfers.append((mosi, miso, self.scheduler.now))
        return miso


# ---------------------------------------------------------------------------
# BLE


class BleAir:
    """Shared radio medium carrying the GATT verbs the rig needs.

    Peripherals advertise by name; centrals scan (waiting in simulated
    time), connect, read characteristics, and receive notifications.
    Notifications reach exactly the centrals currently connected to the
    notifying peripheral.
    """

    def __init__(self, scheduler: Scheduler) -> None:
        self.scheduler = scheduler
        self._advertisers: dict[str, dict[str, Any]] = {}
        self._connections: set[tuple[str, str]] = set()
        self._inboxes: dict[str, deque] = {}

    # -- peripheral side

    def advertise(self, name: str, characteristics: dict[str, Any]) -> None:
        """Make `name` discoverable; `characteristics` is a live value store."""
        self._advertisers[name] = characteristics

    def stop_advertising(self, name: str) -> None:
        self._advertisers.pop(name, None)

    def is_advertising(self, name: str) -> bool:
        return name in self._advertisers

    def drop_peripheral(self, name: str) -> None:
        """Remove a peripheral entirely: advertisement and open connections."""
        self.stop_advertising(name)
        self._connections = {(c, p) for (c, p) in self._connections if p != name}

    def notify(self, name: str, char: str, value: Any) -> int:
        """Push `value` to every central connected to `name`. Returns count."""
        targets = sorted(c for (c, p) in self._connections if p == name)
        for central_id in targets:
            self._inboxes[central_id].append(value)
        return len(targets)

    # -- central side

    def attach_central(self, central_id: str) -> None:
        self._inboxes.setdefault(central_id, deque())

    def detach_central(self, central_id: str) -> None:
        self._inboxes.pop(central_id, None)
        self._connections = {(c, p) for (c, p) in self._connections if c != central_id}

    def scan(self, name: str, window_ms: int) -> None:
        """Wait (in simulated time) until `name` advertises.

        Raises ScanTimeoutError when the window closes first; the clock then
        rests at the end of the window. The window is inclusive: a peripheral
        going live exactly at the deadline is still found.
        """
        deadline = self.scheduler.now + window_ms
        if not self.scheduler.run_until(lambda: name in self._advertisers, deadline):
            raise ScanTimeoutError(f"'{name}' not advertising within {window_ms} ms")

    def connect(self, central_id: str, name: str) -> None:
        if name not in self._advertisers:
            raise NotConnectedError(f"'{name}' is not advertising")
        if central_id not in self._inboxes:
            raise NotConnectedError(f"unknown central '{central_id}'")
        self._connections.add((central_id, name))

    def disconnect(self, central_id: str, name: str) -> None:
        self._connections.discard((central_id, name))

    def read(self, central_id: str, name: str, char: str) -> Any:
        if (central_id, name) not in self._connections:
            raise NotConnectedError(f"'{central_id}' is not connected to '{name}'")
        store = self._advertisers.get(name)
        if store is None or char not in store:
            raise BusError(f"no characteristic '{char}' on '{name}'")
        return store[char]

    def inbox(self, central_id: str) -> deque:
        return self._inboxes[central_id]
