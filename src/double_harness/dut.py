"""Reference drivers: the production-code side of the rig.

Each driver talks to its peripheral through a virtual bus and knows nothing
about the double on the far side. A deliberate bug is armed by passing its
name as a driver's `fault` at construction time only; nothing on the command
channel can reach it, so with no fault armed the drivers behave exactly like
a fault-free build. The faults exist to prove the harness catches real
driver mistakes: a blink period skewed by PERIOD_SKEW_MS, a BCD encode bug,
a missing NMEA checksum, an off-by-one in the SPI receive path, and a BLE
bring-up that takes SLOW_BRINGUP_MS.
"""

from __future__ import annotations

from . import bus as _bus
from .simcore import EventHandle, Scheduler


class NotStartedError(Exception):
    """Operation needs start() first."""


# The armable faults, one per driver, and the sizes of the two that have one:
# the blink period's skew and the BLE radio's bring-up time.
FAULTS = ("period_skew_ms", "swap_bcd_nibbles", "omit_checksum", "drop_first_byte", "ble_init_delay_ms")
PERIOD_SKEW_MS = 2
SLOW_BRINGUP_MS = 6000


def _armed(fault: str | None, own: str) -> bool:
    """Whether the armed fault is the driver's own; any name but None or one
    of FAULTS is refused, so a misspelt fault cannot build a clean driver."""
    if fault is not None and fault not in FAULTS:
        raise ValueError(f"unknown fault {fault!r}")
    return fault == own


# ---------------------------------------------------------------------------
# GPIO blinker


class Blinker:
    """Toggles a GPIO line `count` times on, `count` times off.

    period_ms is the toggle interval (time spent at each level), so a
    listener measuring toggle-to-toggle spacing reads back period_ms
    directly. Blocking mode burns simulated time inside the call; isr mode
    arms a periodic timer event and returns immediately, and arming it
    again restarts the pattern. Both produce the same edge times.
    """

    def __init__(
        self,
        line: _bus.GpioLine,
        period_ms: int,
        count: int,
        scheduler: Scheduler,
        fault: str | None = None,
    ) -> None:
        if type(period_ms) is bool or period_ms < 1:  # a float is left for the clock to refuse
            raise ValueError(f"period must be an int >= 1 ms, got {period_ms!r}")
        if type(count) is not int or count < 1:
            raise ValueError(f"count must be an int >= 1, got {count!r}")
        self.line = line
        self.period_ms = period_ms
        self.count = count
        self._scheduler = scheduler
        self._skew = PERIOD_SKEW_MS if _armed(fault, "period_skew_ms") else 0
        self._isr_handle: EventHandle | None = None
        self._isr_remaining = 0

    def blink(self, mode: str) -> None:
        if mode not in ("blocking", "isr"):
            raise ValueError(f"mode must be blocking or isr, got {mode!r}")
        period = self.period_ms + self._skew
        if mode == "blocking":
            for _ in range(2 * self.count):
                self._scheduler.advance_by(period)
                self.line.toggle(self._scheduler.now)
        else:
            self._scheduler.cancel(self._isr_handle)
            self._isr_remaining = 2 * self.count
            self._isr_handle = self._scheduler.schedule(period, self._isr_toggle, periodic=period)

    def close(self) -> None:
        self._scheduler.cancel(self._isr_handle)

    def _isr_toggle(self) -> None:
        self.line.toggle(self._scheduler.now)
        self._count_down(1)

    def _isr_train(self, first: int, period: int, k: int) -> int:
        """The next n = min(k, remaining) toggles in one call; 0 when the line
        has listeners. See Scheduler.advance_to's train rule."""
        remaining = self._isr_remaining
        if k < remaining:  # the run ends before the blink does
            if not self.line.toggle_train(first, period, k):
                return 0
            self._isr_remaining = remaining - k
            return k
        if not self.line.toggle_train(first, period, remaining):
            return 0
        self._count_down(remaining)
        return remaining

    def _count_down(self, n: int) -> None:
        """n isr edges written: the timer cancels itself after the last."""
        remaining = self._isr_remaining = self._isr_remaining - n
        if remaining <= 0:
            self._scheduler.cancel(self._isr_handle)

    _isr_toggle.train = _isr_train


# ---------------------------------------------------------------------------
# RTC driver (I2C)

_RTC_ADDR = 0x68
_MONTH_DAYS = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)
# Sakamoto's offsets for day-of-week computation.
_SAKAMOTO = (0, 3, 2, 5, 0, 3, 5, 1, 4, 6, 2, 4)


def _enc(value: int) -> int:
    return ((value // 10) << 4) | (value % 10)


def _dec(byte: int) -> int:
    return (byte >> 4) * 10 + (byte & 0x0F)


def _swap_nibbles(byte: int) -> int:
    return ((byte & 0x0F) << 4) | (byte >> 4)


class RtcDriver:
    """Sets and gets the date/time of a DS3231-style RTC over I2C.

    One transaction per operation: set writes the register pointer plus all
    seven BCD registers, get writes the pointer and reads seven back.
    Datetimes are [year, month, day, hour, minute, second] with the year in
    2000..2099; the weekday register is maintained internally (ISO, 1=Mon).
    """

    def __init__(self, i2c: _bus.I2cBus, fault: str | None = None) -> None:
        self.i2c = i2c
        self.addr = _RTC_ADDR
        self._swap = _armed(fault, "swap_bcd_nibbles")

    def set_datetime(self, dt: list[int]) -> None:
        year, month, day, hour, minute, second = self._validate(dt)
        regs = [
            _enc(second),
            _enc(minute),
            _enc(hour),
            _enc(self._weekday(year, month, day)),
            _enc(day),
            _enc(month),
            _enc(year - 2000),
        ]
        if self._swap:
            regs = [_swap_nibbles(b) for b in regs]
        self.i2c.write_then_read(self.addr, bytes([0x00] + regs), 0)

    def get_datetime(self) -> list[int]:
        raw = self.i2c.write_then_read(self.addr, b"\x00", 7)
        return [
            2000 + _dec(raw[6]),
            _dec(raw[5]),
            _dec(raw[4]),
            _dec(raw[2]),
            _dec(raw[1]),
            _dec(raw[0]),
        ]

    @staticmethod
    def _validate(dt: list[int]) -> tuple[int, int, int, int, int, int]:
        # type(), not int(): a bool, float or str field is refused, not coerced
        if len(dt) != 6 or any(type(v) is not int for v in dt):
            raise ValueError(f"datetime needs 6 int fields, got {dt!r}")
        year, month, day, hour, minute, second = dt
        if not 2000 <= year <= 2099:
            raise ValueError(f"year {year} outside 2000..2099")
        if not 1 <= month <= 12:
            raise ValueError(f"month {month} invalid")
        max_day = _MONTH_DAYS[month - 1] + (1 if month == 2 and year % 4 == 0 else 0)
        if not 1 <= day <= max_day:
            raise ValueError(f"day {day} invalid for {year}-{month:02d}")
        if not (0 <= hour <= 23 and 0 <= minute <= 59 and 0 <= second <= 59):
            raise ValueError(f"time {hour:02d}:{minute:02d}:{second:02d} invalid")
        return year, month, day, hour, minute, second

    @staticmethod
    def _weekday(year: int, month: int, day: int) -> int:
        y = year - 1 if month < 3 else year
        w = (y + y // 4 - y // 100 + y // 400 + _SAKAMOTO[month - 1] + day) % 7
        return 7 if w == 0 else w  # 0 is Sunday in Sakamoto's scheme


# ---------------------------------------------------------------------------
# GPS driver (UART)


def _nmea_xor(body: str) -> int:
    """The NMEA checksum of a sentence body: the XOR of its characters."""
    cs = 0
    for ch in body:
        cs ^= ord(ch)
    return cs


class GpsDriver:
    """Configures a GPS module and parses the NMEA stream it sends back."""

    def __init__(self, uart_end: _bus.UartEnd, scheduler: Scheduler, fault: str | None = None) -> None:
        self.uart = uart_end
        self._scheduler = scheduler
        self._omit_checksum = _armed(fault, "omit_checksum")
        self.parse_errors = 0
        uart_end.flush()  # stale bytes from before this driver existed

    def send_command(self, body: str) -> None:
        """Frame `body` as an NMEA sentence and transmit it."""
        if not isinstance(body, str):
            raise ValueError(f"body must be a str, got {type(body).__name__}")
        if not body:
            raise ValueError("empty command body")
        if "$" in body or "*" in body:
            raise ValueError("body must not contain '$' or '*'")
        if not (body.isascii() and body.isprintable()):
            raise ValueError("body must be printable ASCII")
        if self._omit_checksum:
            line = f"${body}\r\n"
        else:
            line = f"${body}*{_nmea_xor(body):02X}\r\n"
        self.uart.send(line.encode("ascii"))

    def get_latitude(self, timeout_ms: int) -> float:
        """Signed decimal degrees from the next valid GGA sentence.

        Lines with a bad checksum or an unparseable latitude are counted
        and skipped; raises UartTimeoutError when the window closes without
        a usable fix.
        """
        if type(timeout_ms) is bool:  # True + now is an int; a float is left for the clock
            raise ValueError(f"timeout must be an int ms, got {timeout_ms!r}")
        deadline = self._scheduler.now + timeout_ms
        while True:
            remaining = deadline - self._scheduler.now
            if remaining < 0:
                raise _bus.UartTimeoutError(f"no valid GGA within {timeout_ms} ms")
            raw = self.uart.recv_line(remaining)
            body = self._checked_body(raw)
            if body is None:
                self.parse_errors += 1
                continue
            fields = body.split(",")
            if not fields[0].endswith("GGA"):
                continue
            if len(fields) < 4:
                self.parse_errors += 1
                continue
            try:
                return self._to_degrees(fields[2], fields[3])
            except ValueError:
                self.parse_errors += 1

    def get_parse_errors(self) -> int:
        return self.parse_errors

    @staticmethod
    def _checked_body(raw: bytes) -> str | None:
        text = raw.decode("ascii", errors="replace").strip()
        if not text.startswith("$") or "*" not in text:
            return None
        body, _, tail = text[1:].rpartition("*")
        # two hex digits: strip() leaves what is not one, int() alone takes "+1"
        if len(tail) != 2 or tail.strip("0123456789ABCDEFabcdef"):
            return None
        if int(tail, 16) != _nmea_xor(body):
            return None
        return body

    @staticmethod
    def _to_degrees(raw: str, hemisphere: str) -> float:
        value = float(raw)
        degrees = int(value // 100)
        minutes = value - degrees * 100
        if minutes >= 60:
            raise ValueError(f"minutes field out of range in {raw!r}")
        decimal = degrees + minutes / 60.0
        if hemisphere == "S":
            return -decimal
        if hemisphere == "N":
            return decimal
        raise ValueError(f"bad hemisphere {hemisphere!r}")


# ---------------------------------------------------------------------------
# SPI master driver


# Longest read one SPI command may clock. No reply to a longer read fits one
# wire frame, so clocking it would only burn host time before the ERR.
MAX_SPI_READ = 4096


def _spi_bytes(data: list[int]) -> bytes:
    if type(data) is not list:
        raise ValueError(f"data must be a list of byte values, got {type(data).__name__}")
    return bytes(data)


class SpiMaster:
    """Plain SPI master: write, read-without-address, and full-duplex.

    CS is asserted around every operation. read(n) clocks n dummy 0x00
    bytes and returns whatever the slave supplied. Data must be a list and
    n an int in 0..MAX_SPI_READ; anything else is refused before a byte moves.
    """

    def __init__(self, spi: _bus.SpiBus, fault: str | None = None) -> None:
        self.spi = spi
        self._drop_first = _armed(fault, "drop_first_byte")

    def write(self, data: list[int]) -> int:
        self._transfer(_spi_bytes(data))
        return len(data)

    def read(self, n: int) -> list[int]:
        if type(n) is not int or not 0 <= n <= MAX_SPI_READ:
            raise ValueError(f"read length must be an int in 0..{MAX_SPI_READ}, got {n!r}")
        return list(self._receive(self._transfer(bytes(n))))

    def write_read(self, data: list[int]) -> list[int]:
        return list(self._receive(self._transfer(_spi_bytes(data))))

    def _transfer(self, mosi: bytes) -> bytes:
        self.spi.assert_cs()
        try:
            return self.spi.transfer(mosi)
        finally:
            self.spi.release_cs()

    def _receive(self, miso: bytes) -> bytes:
        if self._drop_first and miso:
            return miso[1:] + b"\x00"
        return miso


# ---------------------------------------------------------------------------
# BLE temperature sensor


class BleTempSensor:
    """BLE peripheral exposing one float characteristic, "temp".

    start() brings the radio up after init_delay_ms of simulated time and
    begins advertising as "TempSensor"; until then the device is invisible
    to scans. An explicit init_delay_ms wins over the armed fault's
    SLOW_BRINGUP_MS, so cases that pin the delay stay unaffected by it.
    """

    def __init__(
        self,
        air: _bus.BleAir,
        scheduler: Scheduler,
        fault: str | None = None,
        init_delay_ms: int | None = None,
    ) -> None:
        self.air = air
        self.name = "TempSensor"
        self._scheduler = scheduler
        self.init_delay_ms = SLOW_BRINGUP_MS if _armed(fault, "ble_init_delay_ms") else 0
        if init_delay_ms is not None:
            if type(init_delay_ms) is not int:
                raise ValueError(f"init delay must be an int ms, got {init_delay_ms!r}")
            self.init_delay_ms = init_delay_ms
        self.characteristics: dict[str, float | None] = {"temp": None}
        self.started = False
        self._adv_handle: EventHandle | None = None

    def start(self) -> None:
        if self.started:
            return
        self._adv_handle = self._scheduler.schedule(self.init_delay_ms, self._go_live)
        self.started = True  # only once the clock took the bring-up

    def set_temperature(self, celsius: float) -> None:
        self._require_started()
        self.characteristics["temp"] = float(celsius)

    def notify(self) -> int:
        self._require_started()
        return self.air.notify(self.name, "temp", self.characteristics["temp"])

    def close(self) -> None:
        self._scheduler.cancel(self._adv_handle)
        self.air.drop_peripheral(self.name)
        self.started = False

    def _go_live(self) -> None:
        self.air.advertise(self.name, self.characteristics)

    def _require_started(self) -> None:
        if not self.started:
            raise NotStartedError("call start() first")
