"""Object lifetime on the rig: every slot on a medium takes one holder, RESET
leaves nothing behind on the media, and a closed rig is freed by reference
counting alone."""

import gc
import weakref

import pytest

from double_harness.bus import BleAir, GpioLine
from double_harness.dut import Blinker, BleTempSensor
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
    air = rig.air  # holds names, not callbacks: no peripheral name or advertisement, link or inbox
    assert (air._peripherals, air._links, air._inboxes) == ({}, {}, {})


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


def test_deleted_blinker_armed_twice_leaves_no_timer(rig):
    _wire(
        rig,
        [
            ("dut", "NEW", "b", "Blinker", [DUT_LED_PIN, 10, 100]),
            ("dut", "CALL", "b", "blink", ["isr"]),
            ("dut", "CALL", "b", "blink", ["isr"]),
        ],
    )
    blinker = rig.session.dut.registry.objects["b"]
    _wire(rig, [("dut", "DEL", "b", None, [])])
    edges_before = len(rig.led_line.edges)
    rig.scheduler.advance_by(1000)
    assert len(rig.led_line.edges) == edges_before
    assert [
        event for _due, _seq, event in rig.scheduler._heap
        if getattr(event.action, "__self__", None) is blinker
    ] == []


def _send(rig, device, verb, obj=None, method=None, *args):
    return send_command(getattr(rig.session, device).endpoint, Command(verb, obj, method, args))


def _held_by(rig, obj):
    """The media and scheduler callbacks that belong to obj."""
    return [cb for cb in _media_callbacks(rig) if getattr(cb, "__self__", None) is obj]


# On each device, a class whose NEW claims no slot: built over a hosted name,
# it closes what held the name.
CLAIMS_NOTHING = {"dut": ("SpiMaster", ()), "double": ("Led", (DOUBLE_LED_PIN, 2))}


@pytest.mark.parametrize("closer", ["DEL", "NEW", "RESET"])
@pytest.mark.parametrize("cls", sorted(HOSTING))
def test_close_is_not_served_and_del_new_and_reset_close_once(rig, cls, closer, monkeypatch):
    """A CALL of close answers NO_METHOD on every hosted class, the seven
    that define close included, and runs nothing: the object keeps what it
    holds. DEL, a NEW over its name or RESET then closes it, once."""
    _wire(rig, HOSTING[cls])
    device, _, name, _, _ = next(step for step in HOSTING[cls] if step[1] == "NEW" and step[3] == cls)
    obj = getattr(rig.session, device).registry.objects[name]
    closes = []
    close = getattr(type(obj), "close", None)
    if close is not None:
        monkeypatch.setattr(type(obj), "close", lambda self: closes.append(self) or close(self))
    held = _held_by(rig, obj)
    resp = _send(rig, device, "CALL", name, "close")
    assert (resp.code, resp.message) == ("NO_METHOD", "'close' is not callable remotely")
    assert (closes, _held_by(rig, obj)) == ([], held)
    if closer == "NEW":
        other, args = CLAIMS_NOTHING[device]
        assert _send(rig, device, "NEW", name, other, *args).ok
    else:
        assert _send(rig, device, closer, *([name] if closer == "DEL" else [])).ok
    assert (closes, _held_by(rig, obj)) == ([obj] if close else [], [])


def test_a_wire_close_cannot_free_the_rtc_address_for_a_second_rtc(rig):
    """NEW rtc, CALL rtc.close, NEW rtc2, DEL rtc once left rtc2 hosted but
    off the bus. The close is refused, so is rtc2, and the driver reads rtc."""
    assert _send(rig, "double", "NEW", "rtc", "Rtc").ok
    assert _send(rig, "double", "CALL", "rtc", "close").code == "NO_METHOD"
    resp = _send(rig, "double", "NEW", "rtc2", "Rtc")
    assert (resp.code, resp.message) == ("EXEC", "ValueError: address 0x68 already occupied")
    assert _send(rig, "dut", "NEW", "drv", "RtcDriver").ok
    assert _send(rig, "dut", "CALL", "drv", "get_datetime").ok


def _gps_hears_the_driver(rig, gps):
    """The driver's RATE reaches the GPS double named gps, and a fix arrives."""
    assert _send(rig, "dut", "NEW", "drv", "GpsDriver").ok
    assert _send(rig, "dut", "CALL", "drv", "send_command", "PDBL,RATE,1000").ok
    assert _send(rig, "double", "CALL", gps, "get_update_period").payload == 1000
    assert _send(rig, "dut", "CALL", "drv", "get_latitude", 3000).ok


def test_a_second_gps_is_refused_and_the_first_keeps_the_uart(rig):
    """NEW g1, NEW g2, DEL g1 once left both deaf: g2's listener replaced
    g1's, and g1's close cleared it. The UART end takes one listener, and a
    DEL frees it for the next."""
    assert _send(rig, "double", "NEW", "g1", "Gps").ok
    resp = _send(rig, "double", "NEW", "g2", "Gps")
    assert (resp.code, resp.message) == ("EXEC", "ValueError: UART line listener already occupied")
    assert _send(rig, "double", "DEL", "g2").code == "NO_OBJECT"
    _gps_hears_the_driver(rig, "g1")
    assert _send(rig, "double", "DEL", "g1").ok
    assert _send(rig, "double", "NEW", "g2", "Gps").ok
    assert _send(rig, "dut", "DEL", "drv").ok
    _gps_hears_the_driver(rig, "g2")


def test_a_second_spi_slave_is_refused_and_the_first_keeps_the_bus(rig):
    """NEW s1, preload, NEW s2, DEL s2 once left no slave: the master read
    zeros and s1 saw nothing. The bus takes one slave."""
    assert _send(rig, "double", "NEW", "s1", "SpiSlave").ok
    assert _send(rig, "double", "CALL", "s1", "preload_tx", [1, 2]).ok
    resp = _send(rig, "double", "NEW", "s2", "SpiSlave")
    assert (resp.code, resp.message) == ("EXEC", "ValueError: SPI slave already occupied")
    assert _send(rig, "double", "DEL", "s2").code == "NO_OBJECT"
    assert _send(rig, "dut", "NEW", "master", "SpiMaster").ok
    assert _send(rig, "dut", "CALL", "master", "read", 2).payload == [1, 2]
    assert _send(rig, "double", "CALL", "s1", "get_rx").payload == [0, 0]


def _sensor_is_read(rig, sensor, celsius):
    """The BLE sensor named sensor starts, and a new central reads its temperature."""
    assert _send(rig, "dut", "CALL", sensor, "start").ok
    assert _send(rig, "dut", "CALL", sensor, "set_temperature", celsius).ok
    assert _send(rig, "double", "NEW", "phone", "BleCentral").ok
    assert _send(rig, "double", "CALL", "phone", "scan_connect", "TempSensor", 100).ok
    assert _send(rig, "double", "CALL", "phone", "read", "temp").payload == celsius


def test_a_second_ble_sensor_is_refused_and_the_first_keeps_its_name(rig):
    """NEW t2 beside a started t once answered OK, and DEL t then dropped the
    name both used, so a new central's scan timed out. The air takes one
    holder per name: t2 is refused, t stays discoverable and readable, and
    once t is deleted a new sensor takes the name."""
    assert _send(rig, "dut", "NEW", "t", "BleTempSensor", 0).ok
    assert _send(rig, "dut", "CALL", "t", "start").ok
    resp = _send(rig, "dut", "NEW", "t2", "BleTempSensor", 0)
    assert (resp.code, resp.message) == ("EXEC", "ValueError: BLE name 'TempSensor' already occupied")
    assert _send(rig, "dut", "DEL", "t2").code == "NO_OBJECT"
    _sensor_is_read(rig, "t", 21.5)
    assert _send(rig, "dut", "DEL", "t").ok
    resp = _send(rig, "double", "CALL", "phone", "read", "temp")  # the link went with t
    assert (resp.code, resp.message) == ("EXEC", "NotConnectedError: 'central1' is not connected")
    assert _send(rig, "dut", "NEW", "t2", "BleTempSensor", 0).ok
    _sensor_is_read(rig, "t2", 19.0)


def test_a_central_whose_sensor_was_deleted_refuses_read_and_await_notify_at_once(rig):
    """DEL of the sensor drops the central's link on the air. read already
    answered NotConnectedError, but await_notify once waited out its whole
    window and answered NotifyTimeoutError: two answers about one link. Both
    now ask the air and refuse at once, with the clock where it was."""
    assert _send(rig, "dut", "NEW", "t", "BleTempSensor", 0).ok
    assert _send(rig, "dut", "CALL", "t", "start").ok
    assert _send(rig, "double", "NEW", "c", "BleCentral").ok
    assert _send(rig, "double", "CALL", "c", "scan_connect", "TempSensor", 100).ok
    assert _send(rig, "dut", "DEL", "t").ok
    before = rig.scheduler.now
    for method, arg in (("read", "temp"), ("await_notify", 1000)):
        resp = _send(rig, "double", "CALL", "c", method, arg)
        assert (resp.code, resp.message.partition(":")[0]) == ("EXEC", "NotConnectedError"), method
        assert rig.scheduler.now == before, method


@pytest.mark.parametrize(
    "cls, message",
    [
        ("BleTempSensor", "BLE name 'TempSensor' already occupied"),
        ("Gps", "UART line listener already occupied"),
        ("Rtc", "address 0x68 already occupied"),
        ("SpiSlave", "SPI slave already occupied"),
    ],
)
def test_a_new_over_a_hosted_name_that_would_take_its_slot_keeps_the_old_object(rig, cls, message):
    """execute builds before it closes, so a NEW whose build is refused
    leaves the object under that name hosted and holding its slot. A second
    NEW g Gps once answered OK and left g deaf. A BLE sensor's slot is a
    name, not a callback, so it shows in that a central reads the old one."""
    device = "dut" if cls == "BleTempSensor" else "double"
    registry = getattr(rig.session, device).registry
    assert _send(rig, device, "NEW", "x", cls).ok
    old = registry.objects["x"]
    held = _held_by(rig, old)
    resp = _send(rig, device, "NEW", "x", cls)
    assert (resp.code, resp.message) == ("EXEC", f"ValueError: {message}")
    assert registry.objects["x"] is old
    assert _held_by(rig, old) == held
    if cls == "BleTempSensor":
        _sensor_is_read(rig, "x", 20.0)
    else:
        assert held != []
    if cls == "Gps":
        _gps_hears_the_driver(rig, "x")


def _live_sensor(sched):
    """A BLE sensor whose one-shot bring-up event has fired."""
    sensor = BleTempSensor(BleAir(sched), sched)
    sensor.start()
    sched.advance_to(0)
    return sensor, sensor._adv_handle


def _failed_blinker(sched):
    """An isr Blinker whose first edge was refused, which ended its timer."""
    line = GpioLine()
    line.write(1, 50)
    blinker = Blinker(line, 10, 5, sched)
    blinker.blink("isr")
    with pytest.raises(ValueError, match="edge time regression"):
        sched.advance_to(10)
    return blinker, blinker._isr_handle


@pytest.mark.parametrize("make", [_live_sensor, _failed_blinker], ids=["fired", "raised"])
def test_a_held_handle_that_is_done_does_not_keep_its_owner_alive(sched, make):
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        owner, handle = make(sched)
        ref = weakref.ref(owner)
        del owner
        assert ref() is None and not handle.pending
    finally:
        if was_enabled:
            gc.enable()


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
