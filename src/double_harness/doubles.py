"""Peripheral impostors that sit on the far side of the virtual buses.

Each class mimics one external part well enough that the driver talking to
it cannot tell it from the real thing: an LED that times its window of
the GPIO line's edge log (it subscribes to nothing), a DS3231-style RTC
with BCD registers, a NEO-6M-style GPS emitting NMEA sentences, a generic
SPI slave, and a BLE central playing smartphone.
All of them expose plain methods so they can be instantiated and driven
remotely through the command channel.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Any

from . import bus as _bus
from .simcore import MAX_SIM_MS, EventHandle, Scheduler


class NotReadyError(Exception):
    """Asked for a result before enough signal was captured."""


class FixFormatError(ValueError):
    """Latitude/longitude text not in ddmm.mmmm / dddmm.mmmm shape."""


class NotifyTimeoutError(Exception):
    """No notification arrived before the deadline."""


# ---------------------------------------------------------------------------
# LED (reads the GPIO line's edge log)


class LedDouble:
    """Pretends to be an LED: times the toggles on a GPIO line.

    The line's edge log already holds every edge with its time, so the
    double keeps no copy and hooks nothing into the line: an acquisition is
    the window of that log from start_acquisition() to the expected toggle
    count.
    """

    def __init__(self, line: _bus.GpioLine, expected_toggles: int) -> None:
        # type(), not int(): the count is a log index, so a bool or float is refused
        if type(expected_toggles) is not int or expected_toggles < 2:
            raise ValueError(f"expected_toggles must be an int >= 2, got {expected_toggles!r}")
        self.line = line
        self.expected_toggles = expected_toggles
        self._first: int | None = None  # log index of the window's first edge

    def _window(self) -> tuple[int, int]:
        """Log index of the acquisition's first edge, and how many it captured."""
        first = self._first
        if first is None:
            return 0, 0
        end = min(len(self.line.edges), first + self.expected_toggles)
        return first, max(0, end - first)

    @property
    def captured(self) -> list[int]:
        """Times of the edges captured by the last acquisition, oldest first."""
        first, n = self._window()
        return self.line.edges[first : first + n]

    def start_acquisition(self) -> None:
        self._first = len(self.line.edges)

    def get_avg_blink_ms(self) -> float:
        """Mean interval between consecutive captured edges, in ms.

        The mean telescopes to the window's end points. Edge times are ints,
        so this is the same float as the sum of the intervals over their count.
        """
        first, n = self._window()
        if n < self.expected_toggles:
            raise NotReadyError(f"captured {n} of {self.expected_toggles} edges")
        edges = self.line.edges
        return (edges[first + n - 1] - edges[first]) / (n - 1)


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


# The tick's fast path (RtcDouble._tick): the seconds byte one second on, 0
# where that step would carry into the minutes; and 1 at each minute or hour
# byte that advance_seconds writes back as it was, the canonical BCD bytes.
_NEXT_SECOND = bytes(_bcd_encode(_bcd_decode(b) + 1) if _bcd_decode(b) < 59 else 0 for b in range(256))
_MINUTE_KEPT = bytes(_bcd_decode(b) < 60 and _bcd_encode(_bcd_decode(b)) == b for b in range(256))
_HOUR_KEPT = bytes(_bcd_decode(b) < 24 and _bcd_encode(_bcd_decode(b)) == b for b in range(256))


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
        i2c.add_device(self.addr, self._handle_i2c)
        self.set_mode(mode)

    def set_mode(self, mode: str) -> None:
        if mode not in ("static", "dynamic"):
            raise ValueError(f"mode must be static or dynamic, got {mode!r}")
        if mode == "dynamic":
            # Arm a tick whenever none is pending: also after a tick that raised.
            if self._tick_handle is None or not self._tick_handle.pending:
                self._tick_handle = self._scheduler.schedule(1000, self._tick, periodic=1000)
        else:
            self._scheduler.cancel(self._tick_handle)

    def _handle_i2c(self, wbytes: bytes, nread: int) -> bytes:
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
        if type(values) is not list:
            raise ValueError(f"values must be a list of byte values, got {type(values).__name__}")
        if len(values) != RTC_NUM_REGS:
            raise ValueError(f"expected {RTC_NUM_REGS} bytes, got {len(values)}")
        for value in values:
            if type(value) is not int or not 0 <= value <= 0xFF:  # a bool is no byte
                raise ValueError(f"byte out of range: {value!r}")
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
        time_regs = bytes(map(_bcd_encode, (sec, minute, hour)))
        if days:  # the first day also re-synchronizes garbage date registers
            self._advance_one_day()
            # From a valid date the calendar repeats every 36525 days (2000-2099,
            # a leap year every fourth) and the weekday every 7: skip the cycles.
            skipped = (days - 1) // 36525 * 36525
            self.regs[3] = _bcd_encode((_bcd_decode(self.regs[3]) - 1 + skipped) % 7 + 1)
            for _ in range((days - 1) % 36525):
                self._advance_one_day()
        # Written after the day step, the one part that can raise (on a garbage
        # year): a step that fails writes no register.
        self.regs[0:3] = time_regs

    def close(self) -> None:
        self._scheduler.cancel(self._tick_handle)
        self._i2c.remove_device(self.addr)

    def _tick(self) -> None:
        """advance_seconds(1): a seconds step that does not carry, beside
        canonical minute and hour bytes, stores one byte; the rest go the long way."""
        regs = self.regs
        second = _NEXT_SECOND[regs[0]]
        if second and _MINUTE_KEPT[regs[1]] and _HOUR_KEPT[regs[2]]:
            regs[0] = second
        else:
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
        # Encode all four before writing any: a garbage year leaves them as they were.
        self.regs[3:7] = bytes(map(_bcd_encode, (weekday, day, month, year2)))


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


_HEX2_RE = re.compile(r"[0-9A-Fa-f]{2}")  # int(tail, 16) alone also takes "+1" and " 1"


def split_sentence(line: str) -> str | None:
    """Return the sentence body iff framing and checksum are valid."""
    text = line.strip()
    if not text.startswith("$") or "*" not in text:
        return None
    body, _, tail = text[1:].rpartition("*")
    if _HEX2_RE.fullmatch(tail) is None or int(tail, 16) != nmea_checksum(body):
        return None
    return body


# A fix field: degrees, minutes below 60 and a fraction, no further than the
# pole (9000.0) or the antimeridian (18000.0). ASCII digits only: \d takes
# any Unicode digit, which no sentence may carry.
_LAT_RE = re.compile(r"[0-8][0-9][0-5][0-9]\.[0-9]+|9000\.0+")
_LON_RE = re.compile(r"(?:0[0-9]|1[0-7])[0-9][0-5][0-9]\.[0-9]+|18000\.0+")
# A RATE period: at most 16 digits, which every period within the clock's
# horizon fits unpadded; int() would also take "+1", " 1" and "1_0".
_RATE_RE = re.compile(r"[0-9]{1,16}")

GGA = "GGA"
RMC = "RMC"


# Two-digit fields of hhmmss as ASCII, the XOR of each field's two
# characters, and each checksum as its "*CS" tail's two hex digits plus CRLF.
_DIGITS2 = tuple(b"%02d" % n for n in range(100))
_XOR2 = tuple(digits[0] ^ digits[1] for digits in _DIGITS2)
_HEX2_CRLF = tuple(b"%02X\r\n" % cs for cs in range(256))


@lru_cache(maxsize=8)
def _template(stype: str, fix: tuple[str, str, str, str]) -> tuple[bytes, bytes, int]:
    """The text of a (type, fix) line before and after its hhmmss field, and
    the XOR of the body's fixed characters: hhmmss is 000000 here, and six
    equal characters XOR to 0."""
    lat, ns, lon, ew = fix
    if stype == GGA:
        body = f"GPGGA,000000,{lat},{ns},{lon},{ew},1,08,0.9,10.0,M,0.0,M,,"
    else:
        body = f"GPRMC,000000,A,{lat},{ns},{lon},{ew},0.0,0.0,010100,,"
    line = f"${body}*".encode("ascii")  # a non-ASCII fix fails as the whole line would
    return line[:7], line[13:], nmea_checksum(body)  # hhmmss follows "$GPxxx,"


def _sentence(stype: str, fix: tuple[str, str, str, str], second: int) -> bytes:
    """One NMEA line, CRLF included: a pure function of type, fix and second
    of day. The second's hhmmss goes between the template's two texts, and
    only its six digits are XORed into the template's checksum."""
    head, tail, fixed = _template(stype, fix)
    h, rem = divmod(second, 3600)
    m, s = divmod(rem, 60)
    cs = fixed ^ _XOR2[h] ^ _XOR2[m] ^ _XOR2[s]
    return b"".join((head, _DIGITS2[h], _DIGITS2[m], _DIGITS2[s], tail, _HEX2_CRLF[cs]))


class GpsDouble:
    """NEO-6M stand-in: accepts config sentences, emits fixes on a timer.

    Configuration rides in a proprietary talker:

        $PDBL,RATE,<ms>*CS        arm/re-arm the periodic emitter
        $PDBL,SEL,<GGA|RMC>,<0|1>*CS   enable/disable a sentence type

    Sentences with a bad checksum are dropped silently (real modules do the
    same) and counted, so a test can see that its command never landed.

    An emit sends the burst of its second: the lines of the enabled types,
    joined in sorted type order. It is built by the first emit of each
    simulated second and by the first after a SEL or set_fix.
    """

    def __init__(self, uart_end: _bus.UartEnd, scheduler: Scheduler) -> None:
        self._uart = uart_end
        self._scheduler = scheduler
        self.enabled: set[str] = {GGA}
        self.fix = ("4807.038", "N", "01131.000", "E")
        self.reject_count = 0
        self.emit_count = 0
        self._emit_handle: EventHandle | None = None
        self._burst = b""
        self._burst_end = 0  # the clock time from which the burst must be rebuilt
        uart_end.subscribe_lines(self._on_uart_line)

    def _on_uart_line(self, raw: bytes) -> None:
        body = split_sentence(raw.decode("ascii", errors="replace"))
        if body is None:
            self.reject_count += 1
            return
        fields = body.split(",")
        if fields[0] != "PDBL" or len(fields) < 2:
            return  # not for us; a real module ignores foreign sentences
        if fields[1] == "RATE" and len(fields) == 3:
            if _RATE_RE.fullmatch(fields[2]) is None:
                self.reject_count += 1
                return
            period = int(fields[2])
            if period < 1 or self._scheduler.now + period > MAX_SIM_MS:  # the clock's horizon
                self.reject_count += 1
                return
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
            self._burst_end = 0

    def set_fix(self, lat_ddmm: str, ns: str, lon_dddmm: str, ew: str) -> None:
        if _LAT_RE.fullmatch(lat_ddmm) is None:
            raise FixFormatError(f"bad latitude {lat_ddmm!r}")
        if _LON_RE.fullmatch(lon_dddmm) is None:
            raise FixFormatError(f"bad longitude {lon_dddmm!r}")
        if ns not in ("N", "S") or ew not in ("E", "W"):
            raise FixFormatError(f"bad hemisphere {ns!r}/{ew!r}")
        self.fix = (lat_ddmm, ns, lon_dddmm, ew)
        self._burst_end = 0

    def get_reject_count(self) -> int:
        return self.reject_count

    def get_emit_count(self) -> int:
        return self.emit_count

    def get_update_period(self) -> int | None:
        return None if self._emit_handle is None else self._emit_handle.period

    def get_enabled(self) -> list[str]:
        return sorted(self.enabled)

    def close(self) -> None:
        self._scheduler.cancel(self._emit_handle)
        self._uart.subscribe_lines(None)

    def _arm_emitter(self, period: int) -> None:
        self._scheduler.cancel(self._emit_handle)
        self._emit_handle = self._scheduler.schedule(period, self._emit, periodic=period)

    def _emit(self) -> None:
        now = self._scheduler.now
        if now >= self._burst_end:  # the clock never runs back, so the burst is this second's
            second = now // 1000
            lines = [_sentence(stype, self.fix, second % 86400) for stype in sorted(self.enabled)]
            self._burst = b"".join(lines)
            self._burst_end = (second + 1) * 1000
        if self._burst:  # built since enabled last changed, so one line per enabled type
            self._uart.send(self._burst)
            self.emit_count += len(self.enabled)


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
        if bool in set(map(type, data)):  # bytes() would take it as 0 or 1; the set is built in C
            raise ValueError(f"byte out of range: {next(b for b in data if type(b) is bool)!r}")
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
        air.attach_central(central_id)

    def scan_connect(self, name: str, timeout_ms: int) -> bool:
        """Scan for `name` and connect, replacing any link; True on success,
        ScanTimeoutError if the peripheral never starts advertising inside the window."""
        if type(timeout_ms) is not int:
            raise ValueError(f"timeout must be an int ms, got {timeout_ms!r}")
        self._air.scan(name, timeout_ms)
        self._air.connect(self.central_id, name)
        return True

    def read(self, char: str) -> Any:
        return self._air.read(self.central_id, char)

    def await_notify(self, timeout_ms: int) -> Any:
        """Next notified value, waiting in simulated time up to the deadline.
        A central with no link is refused at once."""
        if type(timeout_ms) is not int:
            raise ValueError(f"timeout must be an int ms, got {timeout_ms!r}")
        if self._air.link(self.central_id) is None:
            raise _bus.NotConnectedError(f"'{self.central_id}' is not connected")
        inbox = self._air.inbox(self.central_id)
        sched = self._air.scheduler
        if not sched.run_until(lambda: inbox, sched.now + timeout_ms):
            raise NotifyTimeoutError(f"no notification within {timeout_ms} ms")
        return inbox.popleft()

    def disconnect(self) -> None:
        self._air.disconnect(self.central_id)

    def close(self) -> None:
        self._air.detach_central(self.central_id)
