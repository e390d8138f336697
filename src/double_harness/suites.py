"""The shipped driver test suites and the virtual rig they run on.

Five suites, one per protocol: blink (GPIO), rtc (I2C), gps (UART),
spi, and ble. build_virtual_rig() wires a complete desk: one scheduler,
the virtual buses standing in for jumper wires, a DUT device hosting the
reference drivers, a double device hosting the peripheral impostors, and a
controller endpoint pair for the harness.

Named faults arm one deliberate driver bug each: the rig hands the name to
every driver it builds, and only the driver whose bug it names arms it. It
is fixed when the rig is built and cannot be reached over the command
channel, so a fault-free rig is bit-identical to a production build.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from . import doubles as _doubles
from . import dut as _dut
from .bus import BleAir, GpioLine, I2cBus, SpiBus, UartLink
from .harness import (
    CaseContext,
    CodeManifest,
    DeviceLink,
    Session,
    Suite,
    TestCase,
    close_to,
    equal,
    is_true,
)
from .simcore import Scheduler
from .transport import DEFAULT_TIMEOUT_MS, ObjectRegistry, open_virtual_pair, serve

# Wiring constants: which pin each board uses for the LED line.
DUT_LED_PIN = 13
DOUBLE_LED_PIN = 4

# Blink parameters. The period is the toggle interval, so the listener's
# average should read it back exactly; tolerance on that average is 1 ms.
BLINK_PERIOD_MS = 2000
BLINK_COUNT = 2
BLINK_TOLERANCE_MS = 1.0
EXPECTED_TOGGLES = 2 * BLINK_COUNT
# A blocking blink burns the whole pattern inside one call, so that one
# command gets a patience larger than the default 5000 ms budget.
BLINK_CALL_TIMEOUT_MS = BLINK_PERIOD_MS * EXPECTED_TOGGLES + 2000
BLINK_SETTLE_MS = BLINK_PERIOD_MS * EXPECTED_TOGGLES + 500

# RTC scenario values (register images are raw byte lists, BCD-encoded).
RTC_SET_DT = [2021, 2, 28, 23, 59, 30]
RTC_SET_IMAGE = [0x30, 0x59, 0x23, 0x07, 0x28, 0x02, 0x21]  # Sunday=7 (ISO)
RTC_DYNAMIC_WAIT_S = 30
RTC_AFTER_IMAGE = [0x00, 0x00, 0x00, 0x01, 0x01, 0x03, 0x21]  # 2021-03-01 Mon
RTC_GET_IMAGE = [0x30, 0x20, 0x10, 0x01, 0x04, 0x07, 0x22]  # 2022-07-04 10:20:30 Mon
RTC_GET_DT = [2022, 7, 4, 10, 20, 30]
RTC_AUTOTEST_DT = [2024, 2, 29, 6, 7, 8]  # leap day round trip

# GPS scenario values.
GPS_FIX = ("4807.038", "N", "01131.000", "E")
GPS_RATE_MS = 1000
GPS_WINDOW_MS = 5000
GPS_EXPECTED_SENTENCES = 5
GPS_EXPECTED_LATITUDE = 48.1173  # 48 deg + 7.038 min / 60
GPS_LATITUDE_TOL = 1e-9
GPS_READ_TIMEOUT_MS = 3000

# SPI scenario values.
SPI_TX_DATA = [7, 8, 9]
SPI_PRELOAD = [0x12, 0x34]

# BLE scenario values. The connection case leaves the sensor's bring-up
# delay at its build default so a slow radio shows up as a harness timeout;
# the read/notify cases pin the delay to zero because bring-up is not what
# they test.
BLE_SCAN_PATIENCE_MS = 30000
BLE_QUICK_SCAN_MS = 1000
BLE_TEMPERATURE = 23.5
BLE_NOTIFY_VALUE = 24.0


# ---------------------------------------------------------------------------
# Shipped faults


class ShippedFault(NamedTuple):
    """One armable driver bug and the cases designed to catch it."""

    name: str
    suite: str
    designated: tuple[str, ...]


SHIPPED_FAULTS: dict[str, ShippedFault] = {
    fault.name: fault
    for fault in (
        ShippedFault(
            "period_skew_ms",
            "blink",
            ("test_blink_blocking", "test_blink_isr"),
        ),
        ShippedFault(
            "swap_bcd_nibbles",
            "rtc",
            (
                "test_set_date_time_static",
                "test_set_date_time_dynamic",
                "test_set_get_date_time",
            ),
        ),
        ShippedFault(
            "omit_checksum",
            "gps",
            (
                "test_send_command_configuration",
                "test_send_command_update_rate",
                "test_get_latitude",
            ),
        ),
        ShippedFault(
            "drop_first_byte",
            "spi",
            ("test_reading_registers_without_indicating_address",),
        ),
        ShippedFault(
            "ble_init_delay_ms",
            "ble",
            ("test_connection",),
        ),
    )
}


# ---------------------------------------------------------------------------
# Virtual rig


class VirtualRig(NamedTuple):
    """A fully wired desk: clock, buses, both devices, and the session."""

    scheduler: Scheduler
    session: Session
    led_line: GpioLine
    i2c: I2cBus
    uart: UartLink
    spi: SpiBus
    air: BleAir

    def close(self) -> None:
        """Decommission everything both devices host, then close the channels
        and the UART link.

        Afterwards no reference cycle is left inside the rig, so it is freed
        by reference counting once the last reference to it drops. The
        session's log, the line's edges and the SPI transfers stay readable.
        """
        for link in (self.session.dut, self.session.double):
            link.registry.decommission_all()
            link.endpoint.close()
        self.uart.close()


def build_virtual_rig(fault: str | None = None, timeout_ms: int = DEFAULT_TIMEOUT_MS) -> VirtualRig:
    """Assemble the simulated DUT + double pair behind two controller endpoints."""
    if fault is not None and fault not in SHIPPED_FAULTS:
        raise KeyError(f"unknown fault {fault!r}; known: {sorted(SHIPPED_FAULTS)}")
    scheduler = Scheduler()

    led_line = GpioLine()
    i2c = I2cBus()
    uart = UartLink(scheduler)
    spi = SpiBus(scheduler)
    air = BleAir(scheduler)

    dut_pins = {DUT_LED_PIN: led_line}
    double_pins = {DOUBLE_LED_PIN: led_line}

    dut_registry = ObjectRegistry()
    dut_registry.register_class(
        "Blinker",
        lambda pin, period_ms, count: _dut.Blinker(
            _pin(dut_pins, pin), period_ms, count, scheduler, fault
        ),
    )
    dut_registry.register_class("RtcDriver", lambda: _dut.RtcDriver(i2c, fault))
    dut_registry.register_class("GpsDriver", lambda: _dut.GpsDriver(uart.a, scheduler, fault))
    dut_registry.register_class("SpiMaster", lambda: _dut.SpiMaster(spi, fault))
    dut_registry.register_class(
        "BleTempSensor",
        lambda init_delay_ms=None: _dut.BleTempSensor(air, scheduler, fault, init_delay_ms),
    )

    central_ids = itertools.count(1)
    double_registry = ObjectRegistry()
    double_registry.register_class(
        "Led",
        lambda pin, expected_toggles: _doubles.LedDouble(
            _pin(double_pins, pin), expected_toggles
        ),
    )
    double_registry.register_class(
        "Rtc", lambda mode="static": _doubles.RtcDouble(i2c, scheduler, mode)
    )
    double_registry.register_class("Gps", lambda: _doubles.GpsDouble(uart.b, scheduler))
    double_registry.register_class("SpiSlave", lambda: _doubles.SpiSlaveDouble(spi))
    double_registry.register_class(
        "BleCentral", lambda: _doubles.BleCentralDouble(air, f"central{next(central_ids)}")
    )

    dut_ctl, dut_dev = open_virtual_pair(scheduler, timeout_ms)
    double_ctl, double_dev = open_virtual_pair(scheduler, timeout_ms)
    serve(dut_dev, dut_registry)
    serve(double_dev, double_registry)

    session = Session(
        dut=DeviceLink("dut", dut_ctl, dut_registry),
        double=DeviceLink("double", double_ctl, double_registry),
        scheduler=scheduler,
    )
    return VirtualRig(scheduler, session, led_line, i2c, uart, spi, air)


def _pin(pins: dict[int, GpioLine], number: int) -> GpioLine:
    try:
        return pins[number]
    except KeyError:
        raise ValueError(f"no line wired to pin {number}") from None


# ---------------------------------------------------------------------------
# Blink suite (GPIO)


def _blink_blocking(ctx: CaseContext) -> None:
    led = ctx.new_on_double("Led", "led", DOUBLE_LED_PIN, EXPECTED_TOGGLES)
    blinker = ctx.new_on_dut("Blinker", "blinker", DUT_LED_PIN, BLINK_PERIOD_MS, BLINK_COUNT)
    ctx.call(led, "start_acquisition")
    ctx.call(blinker, "blink", "blocking", timeout_ms=BLINK_CALL_TIMEOUT_MS)
    average = ctx.gather(led, "get_avg_blink_ms")
    ctx.expect(average, close_to(BLINK_PERIOD_MS, BLINK_TOLERANCE_MS))
    ctx.decommission(led)
    ctx.decommission(blinker)


def _blink_isr(ctx: CaseContext) -> None:
    led = ctx.new_on_double("Led", "led", DOUBLE_LED_PIN, EXPECTED_TOGGLES)
    blinker = ctx.new_on_dut("Blinker", "blinker", DUT_LED_PIN, BLINK_PERIOD_MS, BLINK_COUNT)
    ctx.call(led, "start_acquisition")
    ctx.call(blinker, "blink", "isr")
    ctx.sleep(BLINK_SETTLE_MS)
    average = ctx.gather(led, "get_avg_blink_ms")
    ctx.expect(average, close_to(BLINK_PERIOD_MS, BLINK_TOLERANCE_MS))
    ctx.decommission(led)
    ctx.decommission(blinker)


BLINK_SUITE = Suite(
    name="blink",
    cases=(
        TestCase("test_blink_blocking", _blink_blocking),
        TestCase("test_blink_isr", _blink_isr),
    ),
    dut_code=CodeManifest("dut_blink", ("Blinker",)),
    double_code=CodeManifest("Double_led", ("Led",)),
)


# ---------------------------------------------------------------------------
# RTC suite (I2C)


def _rtc_set_static(ctx: CaseContext) -> None:
    rtc = ctx.new_on_double("Rtc", "rtc", "static")
    driver = ctx.new_on_dut("RtcDriver", "rtc_drv")
    ctx.call(driver, "set_datetime", RTC_SET_DT)
    ctx.sleep(3_600_000)  # a full hour; static registers must not move
    image = ctx.gather(rtc, "read_registers")
    ctx.expect(image, equal(RTC_SET_IMAGE))


def _rtc_set_dynamic(ctx: CaseContext) -> None:
    rtc = ctx.new_on_double("Rtc", "rtc", "dynamic")
    driver = ctx.new_on_dut("RtcDriver", "rtc_drv")
    ctx.call(driver, "set_datetime", RTC_SET_DT)
    ctx.sleep(RTC_DYNAMIC_WAIT_S * 1000)
    image = ctx.gather(rtc, "read_registers")
    ctx.expect(image, equal(RTC_AFTER_IMAGE))


def _rtc_get(ctx: CaseContext) -> None:
    # Injecting the registers directly lets get() be tested before set()
    # even exists on the driver.
    rtc = ctx.new_on_double("Rtc", "rtc", "static")
    ctx.call(rtc, "load_registers", RTC_GET_IMAGE)
    driver = ctx.new_on_dut("RtcDriver", "rtc_drv")
    value = ctx.gather(driver, "get_datetime")
    ctx.expect(value, equal(RTC_GET_DT))


def _rtc_set_get(ctx: CaseContext) -> None:
    ctx.new_on_double("Rtc", "rtc", "static")
    driver = ctx.new_on_dut("RtcDriver", "rtc_drv")
    ctx.call(driver, "set_datetime", RTC_AUTOTEST_DT)
    value = ctx.gather(driver, "get_datetime")
    ctx.expect(value, equal(RTC_AUTOTEST_DT))


RTC_SUITE = Suite(
    name="rtc",
    cases=(
        TestCase("test_set_date_time_static", _rtc_set_static),
        TestCase("test_set_date_time_dynamic", _rtc_set_dynamic),
        TestCase("test_get_date_time", _rtc_get),
        TestCase("test_set_get_date_time", _rtc_set_get),
    ),
    dut_code=CodeManifest("dut_rtc", ("RtcDriver",)),
    double_code=CodeManifest("Double_rtc", ("Rtc",)),
)


# ---------------------------------------------------------------------------
# GPS suite (UART)


def _gps_send_command_configuration(ctx: CaseContext) -> None:
    gps = ctx.new_on_double("Gps", "gps")
    driver = ctx.new_on_dut("GpsDriver", "gps_drv")
    ctx.call(driver, "send_command", "PDBL,SEL,RMC,1")
    enabled = ctx.gather(gps, "get_enabled")
    rejected = ctx.gather(gps, "get_reject_count")
    ctx.expect(enabled, equal(["GGA", "RMC"]))
    ctx.expect(rejected, equal(0))


def _gps_send_command_update_rate(ctx: CaseContext) -> None:
    gps = ctx.new_on_double("Gps", "gps")
    driver = ctx.new_on_dut("GpsDriver", "gps_drv")
    ctx.call(driver, "send_command", f"PDBL,RATE,{GPS_RATE_MS}")
    ctx.sleep(GPS_WINDOW_MS)
    emitted = ctx.gather(gps, "get_emit_count")
    ctx.expect(emitted, equal(GPS_EXPECTED_SENTENCES))


def _gps_get_latitude(ctx: CaseContext) -> None:
    gps = ctx.new_on_double("Gps", "gps")
    ctx.call(gps, "set_fix", *GPS_FIX)
    driver = ctx.new_on_dut("GpsDriver", "gps_drv")
    ctx.call(driver, "send_command", f"PDBL,RATE,{GPS_RATE_MS}")
    latitude = ctx.gather(driver, "get_latitude", GPS_READ_TIMEOUT_MS)
    ctx.expect(latitude, close_to(GPS_EXPECTED_LATITUDE, GPS_LATITUDE_TOL))


GPS_SUITE = Suite(
    name="gps",
    cases=(
        TestCase("test_send_command_configuration", _gps_send_command_configuration),
        TestCase("test_send_command_update_rate", _gps_send_command_update_rate),
        TestCase("test_get_latitude", _gps_get_latitude),
    ),
    dut_code=CodeManifest("dut_gps", ("GpsDriver",)),
    double_code=CodeManifest("Double_gps", ("Gps",)),
)


# ---------------------------------------------------------------------------
# SPI suite


def _spi_sending_data(ctx: CaseContext) -> None:
    slave = ctx.new_on_double("SpiSlave", "slave")
    master = ctx.new_on_dut("SpiMaster", "master")
    ctx.call(master, "write", SPI_TX_DATA)
    received = ctx.gather(slave, "get_rx")
    ctx.expect(received, equal(SPI_TX_DATA))


def _spi_reading_without_address(ctx: CaseContext) -> None:
    slave = ctx.new_on_double("SpiSlave", "slave")
    ctx.call(slave, "preload_tx", SPI_PRELOAD)
    master = ctx.new_on_dut("SpiMaster", "master")
    data = ctx.gather(master, "read", len(SPI_PRELOAD))
    ctx.expect(data, equal(SPI_PRELOAD))


SPI_SUITE = Suite(
    name="spi",
    cases=(
        TestCase("test_sending_data", _spi_sending_data),
        TestCase(
            "test_reading_registers_without_indicating_address",
            _spi_reading_without_address,
        ),
    ),
    dut_code=CodeManifest("dut_spi", ("SpiMaster",)),
    double_code=CodeManifest("Double_spi_slave", ("SpiSlave",)),
)


# ---------------------------------------------------------------------------
# BLE suite


def _ble_connection(ctx: CaseContext) -> None:
    sensor = ctx.new_on_dut("BleTempSensor", "sensor")
    phone = ctx.new_on_double("BleCentral", "phone")
    ctx.call(sensor, "start")
    connected = ctx.gather(phone, "scan_connect", "TempSensor", BLE_SCAN_PATIENCE_MS)
    ctx.expect(connected, is_true())


def _ble_read(ctx: CaseContext) -> None:
    sensor = ctx.new_on_dut("BleTempSensor", "sensor", 0)
    phone = ctx.new_on_double("BleCentral", "phone")
    ctx.call(sensor, "start")
    ctx.call(phone, "scan_connect", "TempSensor", BLE_QUICK_SCAN_MS)
    ctx.call(sensor, "set_temperature", BLE_TEMPERATURE)
    value = ctx.gather(phone, "read", "temp")
    ctx.expect(value, equal(BLE_TEMPERATURE))


def _ble_notify(ctx: CaseContext) -> None:
    sensor = ctx.new_on_dut("BleTempSensor", "sensor", 0)
    phone = ctx.new_on_double("BleCentral", "phone")
    ctx.call(sensor, "start")
    ctx.call(phone, "scan_connect", "TempSensor", BLE_QUICK_SCAN_MS)
    ctx.call(sensor, "set_temperature", BLE_NOTIFY_VALUE)
    ctx.call(sensor, "notify")
    value = ctx.gather(phone, "await_notify", BLE_QUICK_SCAN_MS)
    ctx.expect(value, equal(BLE_NOTIFY_VALUE))


BLE_SUITE = Suite(
    name="ble",
    cases=(
        TestCase("test_connection", _ble_connection),
        TestCase("test_read", _ble_read),
        TestCase("test_notify", _ble_notify),
    ),
    dut_code=CodeManifest("dut_ble_temp_sensor", ("BleTempSensor",)),
    double_code=CodeManifest("Double_ble_central", ("BleCentral",)),
)


SUITES: dict[str, Suite] = {
    suite.name: suite
    for suite in (BLINK_SUITE, RTC_SUITE, GPS_SUITE, SPI_SUITE, BLE_SUITE)
}

SUITE_ORDER = tuple(SUITES)  # the dict order is the run order
