"""Virtual media standing in for the jumper wires between two dev boards.

A GPIO line with an edge log, an I2C bus with addressed devices, a UART
link, an SPI bus, and a BLE "air" medium. All of them are logical
transaction models (values and timing, not waveforms), timestamped by the
shared Scheduler.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable

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


class GpioLine:
    """A single digital line. Records every level change as (time, level).

    Writing the current level again is a no-op, so consecutive logged edges
    always alternate and their timestamps never decrease.
    """

    def __init__(self) -> None:
        self.level: int = 0
        self.edges: list[tuple[SimTime, int]] = []
        self._last_at: float = float("-inf")
        # Replaced, never mutated, by (un)subscribe: an edge is delivered to
        # the listeners subscribed when it was written.
        self._listeners: tuple[Callable[[SimTime, int], None], ...] = ()

    def write(self, level: int, at: SimTime) -> None:
        if level not in (0, 1):
            raise ValueError(f"level must be 0 or 1, got {level!r}")
        if at < self._last_at:
            raise ValueError(f"edge time regression: {at} < {self._last_at}")
        if level == self.level:
            return
        self.level = level
        self._last_at = at
        self.edges.append((at, level))
        for listener in self._listeners:
            listener(at, level)

    def toggle(self, at: SimTime) -> None:
        self.write(1 - self.level, at)

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

    def has_device(self, addr: int) -> bool:
        return addr in self._devices

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
        self.scheduler = scheduler
        self.a = UartEnd(scheduler, "a")
        self.b = UartEnd(scheduler, "b")
        self.a._peer = self.b
        self.b._peer = self.a

    def close(self) -> None:
        """Cut the wire: each end forgets its peer, so bytes sent from now on
        go nowhere and the two ends no longer keep each other alive."""
        self.a._peer = None
        self.b._peer = None


class UartEnd:
    def __init__(self, scheduler: Scheduler, name: str) -> None:
        self._scheduler = scheduler
        self._name = name
        self._peer: UartEnd | None = None
        self._rx = bytearray()
        self._line_listener: Callable[[bytes], None] | None = None

    def send(self, data: bytes) -> None:
        """Transmit bytes toward the other end (dropped once the link is closed)."""
        if self._peer is not None:
            self._peer._deliver(bytes(data))

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

    def _deliver(self, data: bytes) -> None:
        self._rx.extend(data)
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

    def clear_slave(self, handler: SpiSlaveHandler | None = None) -> None:
        # Equality, not identity: each access to obj.method makes a new bound
        # method object, and two of them are equal when they bind the same
        # function to the same instance.
        if handler is None or self._slave == handler:
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

    def is_connected(self, central_id: str, name: str) -> bool:
        return (central_id, name) in self._connections

    def read(self, central_id: str, name: str, char: str) -> Any:
        if (central_id, name) not in self._connections:
            raise NotConnectedError(f"'{central_id}' is not connected to '{name}'")
        store = self._advertisers.get(name)
        if store is None or char not in store:
            raise BusError(f"no characteristic '{char}' on '{name}'")
        return store[char]

    def inbox(self, central_id: str) -> deque:
        return self._inboxes[central_id]
