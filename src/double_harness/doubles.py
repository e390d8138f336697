"""Peripheral impostors that sit on the far side of the virtual buses.

Each class mimics one external part well enough that the driver talking to
it cannot tell it from the real thing: an edge-counting LED listener, a
DS3231-style RTC with BCD registers, a NEO-6M-style GPS emitting NMEA
sentences, a generic SPI slave, and a BLE central playing smartphone.
All of them expose plain methods so they can be instantiated and driven
remotely through the command channel.
"""

from __future__ import annotations

import re
from typing import Any

from . import bus as _bus
from .simcore import EventHandle, Scheduler


class NotReadyError(Exception):
    """Asked for a result before enough signal was captured."""


class FixFormatError(ValueError):
    """Latitude/longitude text not in ddmm.mmmm / dddmm.mmmm shape."""


class NotifyTimeoutError(Exception):
    """No notification arrived before the deadline."""


# ---------------------------------------------------------------------------
# LED listener (GPIO)


class LedDouble:
    """Pretends to be an LED: watches a GPIO line and times the toggles."""

    def __init__(self, line: _bus.GpioLine, expected_toggles: int) -> None:
        if expected_toggles < 2:
            raise ValueError("need at least 2 toggles to measure an interval")
        self.line = line
        self.expected_toggles = expected_toggles
        self.captured: list[int] = []
        self.acquiring = False
        line.subscribe(self._on_edge)

    def start_acquisition(self) -> None:
        self.captured = []
        self.acquiring = True

    def get_avg_blink_ms(self) -> float:
        """Mean interval between consecutive captured edges, in ms."""
        if len(self.captured) < self.expected_toggles:
            raise NotReadyError(
                f"captured {len(self.captured)} of {self.expected_toggles} edges"
            )
        intervals = [b - a for a, b in zip(self.captured, self.captured[1:])]
        return sum(intervals) / len(intervals)

    def close(self) -> None:
        self.line.unsubscribe(self._on_edge)

    def _on_edge(self, at: int, _level: int) -> None:
        if not self.acquiring:
            return
        captured = self.captured
        missing = self.expected_toggles - len(captured)
        if missing > 0:
            captured.append(at)
            if missing == 1:
                self.acquiring = False


# ---------------------------------------------------------------------------
# RTC (I2C, DS3231-style register map)

RTC_ADDR = 0x68
RTC_NUM_REGS = 7  # 0x00 sec, 0x01 min, 0x02 hour, 0x03 weekday, 0x04 day, 0x05 month, 0x06 year

_DAYS_IN_MONTH = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)


def _bcd_encode(value: int) -> int:
    if not 0 <= value <= 99:
        raise ValueError(f"BCD range is 0..99, got {value}")
    return ((value // 10) << 4) | (value % 10)


def _bcd_decode(byte: int) -> int:
    return (byte >> 4) * 10 + (byte & 0x0F)


def _days_in_month(month: int, year2: int) -> int:
    # year2 is the two-digit register value, i.e. 2000..2099; every fourth
    # year in that window is a leap year (2100 is out of range by design).
    if month == 2 and year2 % 4 == 0:
        return 29
    return _DAYS_IN_MONTH[month - 1]


class RtcDouble:
    """DS3231 stand-in: seven BCD time/date registers behind address 0x68.

    Static mode holds whatever was written. Dynamic mode arms a 1000 ms
    tick that advances the registers like the real part: BCD carries,
    month lengths, the leap rule, and the free-running 1..7 weekday counter.
    """

    def __init__(self, i2c: _bus.I2cBus, scheduler: Scheduler, mode: str = "static") -> None:
        if mode not in ("static", "dynamic"):
            raise ValueError(f"mode must be static or dynamic, got {mode!r}")
        self.addr = RTC_ADDR
        self.regs = bytearray(RTC_NUM_REGS)
        self.regs[3] = 1  # weekday counter starts at 1 like the real chip
        self._pointer = 0
        self._i2c = i2c
        self._scheduler = scheduler
        self._tick_handle: EventHandle | None = None
        self.mode = "static"
        i2c.add_device(self.addr, self.handle_i2c)
        self.set_mode(mode)

    def set_mode(self, mode: str) -> None:
        if mode not in ("static", "dynamic"):
            raise ValueError(f"mode must be static or dynamic, got {mode!r}")
        if mode == self.mode:
            return
        if mode == "dynamic":
            self._tick_handle = self._scheduler.schedule(1000, self._tick, periodic=1000)
        elif self._tick_handle is not None:
            self._scheduler.cancel(self._tick_handle)
            self._tick_handle = None
        self.mode = mode

    def handle_i2c(self, wbytes: bytes, nread: int) -> bytes:
        # First written byte is the register pointer; the rest are data.
        # Reads continue from the pointer and wrap past register 0x06.
        if wbytes:
            pointer = wbytes[0]
            if pointer >= RTC_NUM_REGS:
                raise _bus.I2cNackError(f"register pointer 0x{pointer:02x} out of range")
            self._pointer = pointer
            for i, value in enumerate(wbytes[1:]):
                self.regs[(pointer + i) % RTC_NUM_REGS] = value
            self._pointer = (pointer + max(0, len(wbytes) - 1)) % RTC_NUM_REGS
        out = bytearray()
        for i in range(nread):
            out.append(self.regs[(self._pointer + i) % RTC_NUM_REGS])
        self._pointer = (self._pointer + nread) % RTC_NUM_REGS
        return bytes(out)

    def load_registers(self, values: list[int]) -> None:
        """Direct register image load, bypassing the bus (test injection)."""
        if len(values) != RTC_NUM_REGS:
            raise ValueError(f"expected {RTC_NUM_REGS} bytes, got {len(values)}")
        for value in values:
            if not 0 <= value <= 0xFF:
                raise ValueError(f"byte out of range: {value}")
        self.regs = bytearray(values)

    def read_registers(self) -> list[int]:
        return list(self.regs)

    def advance_seconds(self, n: int) -> None:
        """Move the stored date/time forward n seconds (the tick does n=1)."""
        if type(n) is not int or n < 0:
            raise ValueError(f"seconds must be an int >= 0, got {n!r}")
        sec = _bcd_decode(self.regs[0])
        minute = _bcd_decode(self.regs[1])
        hour = _bcd_decode(self.regs[2])
        tod = hour * 3600 + minute * 60 + sec + n
        days, tod = divmod(tod, 86400)
        hour, rem = divmod(tod, 3600)
        minute, sec = divmod(rem, 60)
        self.regs[0] = _bcd_encode(sec)
        self.regs[1] = _bcd_encode(minute)
        self.regs[2] = _bcd_encode(hour)
        if days:  # the first day also re-synchronizes garbage date registers
            self._advance_one_day()
            # From a valid date the calendar repeats every 36525 days (2000-2099,
            # a leap year every fourth) and the weekday every 7: skip the cycles.
            skipped = (days - 1) // 36525 * 36525
            self.regs[3] = _bcd_encode((_bcd_decode(self.regs[3]) - 1 + skipped) % 7 + 1)
            for _ in range((days - 1) % 36525):
                self._advance_one_day()

    def close(self) -> None:
        if self._tick_handle is not None:
            self._scheduler.cancel(self._tick_handle)
            self._tick_handle = None
        self._i2c.remove_device(self.addr)

    def _tick(self) -> None:
        self.advance_seconds(1)

    def _advance_one_day(self) -> None:
        weekday = _bcd_decode(self.regs[3])
        day = _bcd_decode(self.regs[4])
        month = _bcd_decode(self.regs[5])
        year2 = _bcd_decode(self.regs[6])
        weekday = weekday % 7 + 1
        day += 1
        if month < 1 or month > 12:
            month = 1  # re-synchronize from a garbage write
        if day > _days_in_month(month, year2):
            day = 1
            month += 1
            if month > 12:
                month = 1
                year2 = (year2 + 1) % 100
        self.regs[3] = _bcd_encode(weekday)
        self.regs[4] = _bcd_encode(day)
        self.regs[5] = _bcd_encode(month)
        self.regs[6] = _bcd_encode(year2)


# ---------------------------------------------------------------------------
# GPS (UART, NEO-6M-style NMEA talker)


def nmea_checksum(body: str) -> int:
    """XOR of all characters between '$' and '*'."""
    cs = 0
    for ch in body:
        cs ^= ord(ch)
    return cs


def wrap_sentence(body: str) -> str:
    return f"${body}*{nmea_checksum(body):02X}"


def split_sentence(line: str) -> str | None:
    """Return the sentence body iff framing and checksum are valid."""
    text = line.strip()
    if not text.startswith("$") or "*" not in text:
        return None
    body, _, tail = text[1:].rpartition("*")
    if len(tail) != 2:
        return None
    try:
        stated = int(tail, 16)
    except ValueError:
        return None
    if stated != nmea_checksum(body):
        return None
    return body

_LAT_RE = re.compile(r"^(\d{4})\.(\d+)$")
_LON_RE = re.compile(r"^(\d{5})\.(\d+)$")

GGA = "GGA"
RMC = "RMC"


class GpsDouble:
    """NEO-6M stand-in: accepts config sentences, emits fixes on a timer.

    Configuration rides in a proprietary talker:

        $PDBL,RATE,<ms>*CS        arm/re-arm the periodic emitter
        $PDBL,SEL,<GGA|RMC>,<0|1>*CS   enable/disable a sentence type

    Sentences with a bad checksum are dropped silently (real modules do the
    same) and counted, so a test can see that its command never landed.
    """

    def __init__(self, uart_end: _bus.UartEnd, scheduler: Scheduler) -> None:
        self._uart = uart_end
        self._scheduler = scheduler
        self.enabled: set[str] = {GGA}
        self.update_period_ms: int | None = None
        self.fix = ("4807.038", "N", "01131.000", "E")
        self.reject_count = 0
        self.emit_count = 0
        self._emit_handle: EventHandle | None = None
        uart_end.subscribe_lines(self.on_uart_line)

    def on_uart_line(self, raw: bytes) -> None:
        body = split_sentence(raw.decode("ascii", errors="replace"))
        if body is None:
            self.reject_count += 1
            return
        fields = body.split(",")
        if fields[0] != "PDBL" or len(fields) < 2:
            return  # not for us; a real module ignores foreign sentences
        if fields[1] == "RATE" and len(fields) == 3:
            try:
                period = int(fields[2])
            except ValueError:
                self.reject_count += 1
                return
            if period < 1:
                self.reject_count += 1
                return
            self.update_period_ms = period
            self._arm_emitter(period)
        elif fields[1] == "SEL" and len(fields) == 4:
            stype, flag = fields[2], fields[3]
            if stype not in (GGA, RMC) or flag not in ("0", "1"):
                self.reject_count += 1
                return
            if flag == "1":
                self.enabled.add(stype)
            else:
                self.enabled.discard(stype)

    def set_fix(self, lat_ddmm: str, ns: str, lon_dddmm: str, ew: str) -> None:
        lat_m = _LAT_RE.match(lat_ddmm)
        lon_m = _LON_RE.match(lon_dddmm)
        if lat_m is None or int(lat_ddmm[:2]) > 90 or int(lat_ddmm[2:4]) > 59:
            raise FixFormatError(f"bad latitude {lat_ddmm!r}")
        if lon_m is None or int(lon_dddmm[:3]) > 180 or int(lon_dddmm[3:5]) > 59:
            raise FixFormatError(f"bad longitude {lon_dddmm!r}")
        if ns not in ("N", "S") or ew not in ("E", "W"):
            raise FixFormatError(f"bad hemisphere {ns!r}/{ew!r}")
        self.fix = (lat_ddmm, ns, lon_dddmm, ew)

    def get_reject_count(self) -> int:
        return self.reject_count

    def get_emit_count(self) -> int:
        return self.emit_count

    def get_update_period(self) -> int | None:
        return self.update_period_ms

    def get_enabled(self) -> list[str]:
        return sorted(self.enabled)

    def close(self) -> None:
        if self._emit_handle is not None:
            self._scheduler.cancel(self._emit_handle)
            self._emit_handle = None
        self._uart.subscribe_lines(None)

    def _arm_emitter(self, period: int) -> None:
        if self._emit_handle is not None:
            self._scheduler.cancel(self._emit_handle)
        self._emit_handle = self._scheduler.schedule(period, self._emit, periodic=period)

    def _emit(self) -> None:
        for stype in sorted(self.enabled):
            sentence = self._build(stype)
            self._uart.send(sentence.encode("ascii") + b"\r\n")
            self.emit_count += 1

    def _build(self, stype: str) -> str:
        lat, ns, lon, ew = self.fix
        hhmmss = self._clock_field()
        if stype == GGA:
            body = f"GPGGA,{hhmmss},{lat},{ns},{lon},{ew},1,08,0.9,10.0,M,0.0,M,,"
        else:
            body = f"GPRMC,{hhmmss},A,{lat},{ns},{lon},{ew},0.0,0.0,010100,,"
        return wrap_sentence(body)

    def _clock_field(self) -> str:
        total = (self._scheduler.now // 1000) % 86400
        h, rem = divmod(total, 3600)
        m, s = divmod(rem, 60)
        return f"{h:02d}{m:02d}{s:02d}"


# ---------------------------------------------------------------------------
# SPI slave


class SpiSlaveDouble:
    """Generic SPI slave: serves a preloaded TX FIFO, logs everything on MOSI.

    When the FIFO runs dry the MISO line pads with 0x00, so reads past the
    preload have defined contents.
    """

    def __init__(self, spi: _bus.SpiBus) -> None:
        self._spi = spi
        self.tx_fifo = bytearray()
        self.rx_log = bytearray()
        spi.set_slave(self._handler)

    def preload_tx(self, data: list[int]) -> None:
        if type(data) is not list:
            raise ValueError(f"data must be a list of byte values, got {type(data).__name__}")
        self.tx_fifo.extend(bytes(data))

    def get_rx(self) -> list[int]:
        out = list(self.rx_log)
        self.rx_log.clear()
        return out

    def close(self) -> None:
        self._spi.clear_slave(self._handler)

    def _handler(self, mosi: bytes) -> bytes:
        self.rx_log += mosi
        miso = bytes(self.tx_fifo[: len(mosi)])
        del self.tx_fifo[: len(mosi)]
        return miso + bytes(len(mosi) - len(miso))


# ---------------------------------------------------------------------------
# BLE central


class BleCentralDouble:
    """Smartphone stand-in: scans, connects, reads, and awaits notifications."""

    def __init__(self, air: _bus.BleAir, central_id: str) -> None:
        self._air = air
        self.central_id = central_id
        self.state = "idle"
        self.peripheral: str | None = None
        air.attach_central(central_id)

    def scan_connect(self, name: str, timeout_ms: int) -> bool:
        """Scan for `name` and connect; True on success, ScanTimeoutError if
        the peripheral never starts advertising inside the window."""
        if type(timeout_ms) is not int:
            raise ValueError(f"timeout must be an int ms, got {timeout_ms!r}")
        self.state = "scanning"
        try:
            self._air.scan(name, timeout_ms)
        except _bus.ScanTimeoutError:
            self.state = "idle"
            raise
        self._air.connect(self.central_id, name)
        self.peripheral = name
        self.state = "connected"
        return True

    def read(self, char: str) -> Any:
        self._require_connected()
        return self._air.read(self.central_id, self.peripheral, char)

    def await_notify(self, timeout_ms: int) -> Any:
        """Next notified value, waiting in simulated time up to the deadline."""
        if type(timeout_ms) is not int:
            raise ValueError(f"timeout must be an int ms, got {timeout_ms!r}")
        self._require_connected()
        inbox = self._air.inbox(self.central_id)
        sched = self._air.scheduler
        if not sched.run_until(lambda: inbox, sched.now + timeout_ms):
            raise NotifyTimeoutError(f"no notification within {timeout_ms} ms")
        return inbox.popleft()

    def disconnect(self) -> None:
        if self.peripheral is not None:
            self._air.disconnect(self.central_id, self.peripheral)
        self.peripheral = None
        self.state = "idle"

    def close(self) -> None:
        self._air.detach_central(self.central_id)
        self.peripheral = None
        self.state = "idle"

    def _require_connected(self) -> None:
        if self.state != "connected" or self.peripheral is None:
            raise _bus.NotConnectedError("central is not connected")
