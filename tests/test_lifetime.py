"""Object lifetime on the rig: RESET leaves nothing behind on the media, and a
closed rig is freed by reference counting alone."""

import gc
import weakref

import pytest

from double_harness.harness import PASS, run_suite
from double_harness.suites import (
    DOUBLE_LED_PIN,
    DUT_LED_PIN,
    SUITE_ORDER,
    SUITES,
    build_virtual_rig,
)
from double_harness.transport import Command, send_command


def _wire(rig, steps):
    """Send (device, verb, obj, method, args) steps; every one must answer OK."""
    for device, verb, obj, method, args in steps:
        endpoint = getattr(rig.session, device).endpoint
        resp = send_command(endpoint, Command(verb, obj=obj, method=method, args=tuple(args)))
        assert resp.ok, (verb, obj, method, resp)


# For each class the rig registers: the wire steps that host it with every
# callback it can hand to the media armed (plus any partner it needs for that).
HOSTING = {
    "Blinker": [
        ("dut", "NEW", "blinker", "Blinker", [DUT_LED_PIN, 10, 50]),
        ("dut", "CALL", "blinker", "blink", ["isr"]),
    ],
    "RtcDriver": [("dut", "NEW", "rtc_drv", "RtcDriver", [])],
    "GpsDriver": [
        ("dut", "NEW", "gps_drv", "GpsDriver", []),
        ("dut", "CALL", "gps_drv", "send_command", ["PDBL,SEL,RMC,1"]),
    ],
    "SpiMaster": [("dut", "NEW", "master", "SpiMaster", [])],
    "BleTempSensor": [
        ("dut", "NEW", "sensor", "BleTempSensor", [1000]),
        ("dut", "CALL", "sensor", "start", []),
    ],
    "Led": [
        ("double", "NEW", "led", "Led", [DOUBLE_LED_PIN, 4]),
        ("double", "CALL", "led", "start_acquisition", []),
    ],
    "Rtc": [("double", "NEW", "rtc", "Rtc", ["dynamic"])],
    "Gps": [
        ("double", "NEW", "gps", "Gps", []),
        ("dut", "NEW", "gps_drv", "GpsDriver", []),
        ("dut", "CALL", "gps_drv", "send_command", ["PDBL,RATE,100"]),
    ],
    "SpiSlave": [
        ("double", "NEW", "slave", "SpiSlave", []),
        ("double", "CALL", "slave", "preload_tx", [[1, 2]]),
    ],
    "BleCentral": [
        ("dut", "NEW", "sensor", "BleTempSensor", [0]),
        ("dut", "CALL", "sensor", "start", []),
        ("double", "NEW", "phone", "BleCentral", []),
        ("double", "CALL", "phone", "scan_connect", ["TempSensor", 100]),
    ],
}


def _media_callbacks(rig):
    """Every callable the rig's media and scheduler currently hold."""
    yield from rig.led_line._listeners
    yield rig.spi._slave
    yield from rig.i2c._devices.values()
    yield rig.uart.a._line_listener
    yield rig.uart.b._line_listener
    for _due, _seq, event in rig.scheduler._heap:
        yield event.action


def test_hosting_table_covers_every_registered_class(rig):
    registered = set(rig.session.dut.registry.classes) | set(rig.session.double.registry.classes)
    assert registered == set(HOSTING)


@pytest.mark.parametrize("cls", sorted(HOSTING))
def test_reset_leaves_no_media_reference_to_decommissioned_objects(rig, cls):
    _wire(rig, HOSTING[cls])
    hosted = [
        obj
        for link in (rig.session.dut, rig.session.double)
        for obj in link.registry.objects.values()
    ]
    _wire(rig, [("dut", "RESET", None, None, []), ("double", "RESET", None, None, [])])
    holders = [
        cb
        for cb in _media_callbacks(rig)
        if any(getattr(cb, "__self__", None) is obj for obj in hosted)
    ]
    assert holders == []


def test_deleted_spi_slave_no_longer_answers_on_the_bus(rig):
    _wire(
        rig,
        [
            ("double", "NEW", "s1", "SpiSlave", []),
            ("double", "CALL", "s1", "preload_tx", [[7, 8, 9]]),
            ("double", "DEL", "s1", None, []),
            ("dut", "NEW", "master", "SpiMaster", []),
        ],
    )
    resp = send_command(
        rig.session.dut.endpoint, Command("CALL", obj="master", method="read", args=(3,))
    )
    assert resp.ok and resp.payload == [0, 0, 0]


def test_closed_rig_is_freed_by_reference_counting():
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        rig = build_virtual_rig()
        for name in SUITE_ORDER:
            results = run_suite(SUITES[name], rig.session)
            assert [r.verdict for r in results] == [PASS] * len(results)
        # Leave one of everything running when the rig closes.
        _wire(
            rig,
            HOSTING["Led"]
            + HOSTING["Blinker"]
            + HOSTING["Rtc"]
            + HOSTING["Gps"]
            + HOSTING["SpiSlave"]
            + HOSTING["BleCentral"],
        )
        rig.scheduler.advance_by(250)
        refs = {
            name: weakref.ref(getattr(rig, name))
            for name in ("scheduler", "led_line", "spi", "uart", "session")
        }
        rig.close()
        assert rig.session.log.entries and rig.led_line.edges  # still readable
        del rig
        assert [name for name, ref in refs.items() if ref() is not None] == []
    finally:
        if was_enabled:
            gc.enable()
