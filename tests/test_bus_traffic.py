"""SPI, I2C, UART and BLE traffic of the shipped suites, their LED edges
and their transport log, pinned by digest.

The buses keep no record of what they carry, so this test records it: it
wraps SpiBus.transfer and I2cBus.write_then_read, as the work-count tests
wrap functions, and notes each call's sim time, the bytes in and the bytes
out. It wraps UartEnd.send the same way, noting the sending end, the sim
time and the bytes of each send. BLE air traffic is noted by meaning, not
by each verb's arguments, so a change of arity leaves the pin where it
was. One run is the five suites on one rig,
clean or with one shipped fault armed. Each run is pinned by its number of
calls, the clock at its end and one sha256 of its records, so a byte that
moves, or a call that moves in time or order, moves the digest. The LED
line's edge times and the session's transport log, every line either
controller sent or received, are pinned the same way. A change that moves
one updates the pin and names the records that moved.
"""

import hashlib

import pytest

from double_harness import bus, harness, suites


@pytest.fixture
def five_suite_run(monkeypatch):
    """run(fault) runs the five suites on a new rig and returns the rig, its
    bus records, its UART stream and its BLE air events. The records are
    ("spi", now, mosi, miso) per SPI transfer and ("i2c", now, addr, written,
    read) per I2C transaction; a call that raises leaves no record. The
    stream is (end, now, data) per UartEnd.send, with end "a" for the GPS
    driver's and "b" for the double's. The air events are:
    - ("scan", start, name, window, end, found) per scan, found or not
    - ("connect", now, central, name), ("read", now, central, char, value)
      and ("notify", now, name, value, count) per verb that answers
    - ("drop", now, name) per drop_peripheral and ("detach", now, central)
      per detach_central"""
    records, stream, air_events = [], [], []
    current = []  # the rig being run
    transfer, write_then_read, send = bus.SpiBus.transfer, bus.I2cBus.write_then_read, bus.UartEnd.send
    air = bus.BleAir
    scan, connect, notify, read = air.scan, air.connect, air.notify, air.read
    drop_peripheral, detach_central = air.drop_peripheral, air.detach_central

    def record(entry, call, *args):
        out = call(*args)
        records.append((*entry, out))
        return out

    def spi_transfer(spi, mosi):
        return record(("spi", current[0].scheduler.now, bytes(mosi)), transfer, spi, mosi)

    def i2c_write_then_read(i2c, addr, wbytes, nread):
        entry = ("i2c", current[0].scheduler.now, addr, bytes(wbytes))
        return record(entry, write_then_read, i2c, addr, wbytes, nread)

    def uart_send(end, data):
        rig = current[0]
        stream.append(("a" if end is rig.uart.a else "b", rig.scheduler.now, bytes(data)))
        return send(end, data)

    def ble_scan(air, name, window_ms):
        start, found = air.scheduler.now, False
        try:
            scan(air, name, window_ms)
            found = True
        finally:
            air_events.append(("scan", start, name, window_ms, air.scheduler.now, found))

    def ble_connect(air, central_id, name):
        connect(air, central_id, name)
        air_events.append(("connect", air.scheduler.now, central_id, name))

    def ble_notify(air, name, char, value):
        count = notify(air, name, char, value)
        air_events.append(("notify", air.scheduler.now, name, value, count))
        return count

    def ble_read(air, central_id, *rest):  # rest ends with the characteristic
        value = read(air, central_id, *rest)
        air_events.append(("read", air.scheduler.now, central_id, rest[-1], value))
        return value

    def ble_drop_peripheral(air, name):
        air_events.append(("drop", air.scheduler.now, name))
        drop_peripheral(air, name)

    def ble_detach_central(air, central_id):
        air_events.append(("detach", air.scheduler.now, central_id))
        detach_central(air, central_id)

    for verb, wrapper in (
        ("scan", ble_scan),
        ("connect", ble_connect),
        ("notify", ble_notify),
        ("read", ble_read),
        ("drop_peripheral", ble_drop_peripheral),
        ("detach_central", ble_detach_central),
    ):
        monkeypatch.setattr(air, verb, wrapper)
    monkeypatch.setattr(bus.SpiBus, "transfer", spi_transfer)
    monkeypatch.setattr(bus.I2cBus, "write_then_read", i2c_write_then_read)
    monkeypatch.setattr(bus.UartEnd, "send", uart_send)

    def run(fault):
        records.clear()
        stream.clear()
        air_events.clear()
        rig = suites.build_virtual_rig(fault)
        current[:] = [rig]
        try:
            for suite in suites.SUITES.values():
                harness.run_suite(suite, rig.session)
        finally:
            rig.close()
        return rig, list(records), list(stream), list(air_events)

    return run


def _sha256(records) -> str:
    return hashlib.sha256(repr(records).encode()).hexdigest()


# Per run: (calls, scheduler.now at its end, sha256 of the repr of its records).
# drop_first_byte corrupts what the SPI master hands back, after the bus, and
# ble_init_delay_ms only ends the run later, so their records are the clean ones.
PINNED = {
    None: (7, 3_652_500, "b2351d1805484cb94cb8df67aa019631bb4c31cc8ea6e46f314f1155af915162"),
    "period_skew_ms": (7, 3_652_508, "b82fa4b61f20dd8f96e95f469fa275872900bef20d338239475666e17b869e43"),
    "swap_bcd_nibbles": (7, 3_652_500, "e70dfc1dde0ca59a0abe9caa5e6965e818c70e104accf49d0d613e2be4757f31"),
    "omit_checksum": (7, 3_654_500, "7a222040163a133e4b63ca2f37d8b0dea2cd17b55c936e4c85d549731a563098"),
    "drop_first_byte": (7, 3_652_500, "b2351d1805484cb94cb8df67aa019631bb4c31cc8ea6e46f314f1155af915162"),
    "ble_init_delay_ms": (7, 3_658_500, "b2351d1805484cb94cb8df67aa019631bb4c31cc8ea6e46f314f1155af915162"),
}


def test_the_pins_cover_the_clean_run_and_each_shipped_fault():
    runs = [None, *suites.SHIPPED_FAULTS]
    assert list(PINNED) == list(LOG_PINNED) == list(EDGES_PINNED) == list(UART_PINNED) == list(AIR_PINNED) == runs


@pytest.mark.parametrize("fault", list(PINNED), ids=lambda fault: fault or "clean")
def test_five_suites_leave_the_pinned_spi_and_i2c_traffic(five_suite_run, fault):
    rig, records, _, _ = five_suite_run(fault)
    assert (len(records), rig.scheduler.now, _sha256(records)) == PINNED[fault]


# Per run: (log entries, scheduler.now at its end, sha256 of the repr of the
# list of each entry's (device, direction, line, sim_ms)).
LOG_PINNED = {
    None: (262, 3_652_500, "4711a4a1d2e5d6468eedb5622d7e505c2abb4bf632986c9f1daea2eca05004e0"),
    "period_skew_ms": (262, 3_652_508, "c9ab7ee61d3bf68d417041e23393e8bbb1597f4d8b82b9c485760fdfc62b4aec"),
    "swap_bcd_nibbles": (262, 3_652_500, "790f57b6749a0a75d9ad5805f7dee6c9eb119efae25845d83a578e16e47d9bdb"),
    "omit_checksum": (258, 3_654_500, "fa60e2851b8c71225e612e51bf5321364a828cae5b2cbedcacc501319f748dc8"),
    "drop_first_byte": (262, 3_652_500, "7e9a039522238b8f14c64626df233ea862d46b6ddf3ee22de65e3825fc0d6dd0"),
    "ble_init_delay_ms": (257, 3_658_500, "44c06a09c499bb58427e539a39ee546afb083d2c025911a3230ee86ef5a4b489"),
}


@pytest.mark.parametrize("fault", list(LOG_PINNED), ids=lambda fault: fault or "clean")
def test_five_suites_leave_the_pinned_transport_log(five_suite_run, fault):
    rig, _, _, _ = five_suite_run(fault)
    lines = [entry[1:] for entry in rig.session.log.entries]  # all but the sequence number
    assert (len(lines), rig.scheduler.now, _sha256(lines)) == LOG_PINNED[fault]


def test_the_clean_records_read_as_the_suites_drive_the_buses(five_suite_run):
    """The RTC suite's five transactions, all at the RTC double's address,
    then the SPI suite's write, which clocks back zeros, and its read."""
    _, records, _, _ = five_suite_run(None)
    assert [record[0] for record in records] == ["i2c"] * 5 + ["spi"] * 2
    assert {record[2] for record in records[:5]} == {0x68}
    assert records[5][2:] == (bytes(suites.SPI_TX_DATA), bytes(len(suites.SPI_TX_DATA)))
    assert records[6][2:] == (bytes(len(suites.SPI_PRELOAD)), bytes(suites.SPI_PRELOAD))


# Per run: (edges, scheduler.now at its end, sha256 of the repr of the list of
# the LED line's edge times): four blocking edges, then one isr train of four.
# The LED double reads only its window's end points, so an edge that moves
# inside the window leaves every verdict alone, and moves this digest. Only
# period_skew_ms moves an edge.
EDGES_PINNED = {
    None: (8, 3_652_500, "e6c9c8bd0ff610aedb804913fa52cfd9b0a93c9347e63cbc7dcb3d126b86c38d"),
    "period_skew_ms": (8, 3_652_508, "430bbc1c54ddaf237af2228dc8d07a64cf6d06785bc4201971b4b7926068177c"),
    "swap_bcd_nibbles": (8, 3_652_500, "e6c9c8bd0ff610aedb804913fa52cfd9b0a93c9347e63cbc7dcb3d126b86c38d"),
    "omit_checksum": (8, 3_654_500, "e6c9c8bd0ff610aedb804913fa52cfd9b0a93c9347e63cbc7dcb3d126b86c38d"),
    "drop_first_byte": (8, 3_652_500, "e6c9c8bd0ff610aedb804913fa52cfd9b0a93c9347e63cbc7dcb3d126b86c38d"),
    "ble_init_delay_ms": (8, 3_658_500, "e6c9c8bd0ff610aedb804913fa52cfd9b0a93c9347e63cbc7dcb3d126b86c38d"),
}


@pytest.mark.parametrize("fault", list(EDGES_PINNED), ids=lambda fault: fault or "clean")
def test_five_suites_leave_the_pinned_led_edges(five_suite_run, fault):
    rig, _, _, _ = five_suite_run(fault)
    edges = list(rig.led_line.edges)
    assert (len(edges), rig.scheduler.now, _sha256(edges)) == EDGES_PINNED[fault]


# Per run: (sends, scheduler.now at its end, sha256 of the repr of the list of
# each send's (end, sim time, bytes)). period_skew_ms's longer blinks start the
# GPS suite 8 ms later, and the double ignores omit_checksum's unchecked
# commands, so it never emits; the other faults send the clean stream.
UART_PINNED = {
    None: (9, 3_652_500, "892c045aa965ae027581cddaa8e1fbaa5288e1ac622708f0c9905341a5587f1e"),
    "period_skew_ms": (9, 3_652_508, "774895e1de996dccbc8b9e90fafbf034bdff7c7b7152d9d99dcc5292d5229751"),
    "swap_bcd_nibbles": (9, 3_652_500, "892c045aa965ae027581cddaa8e1fbaa5288e1ac622708f0c9905341a5587f1e"),
    "omit_checksum": (3, 3_654_500, "bbd869dd6ad24d9dbba9d863d0d92585b71acb11ee5d5cc9af54411239b1ec8b"),
    "drop_first_byte": (9, 3_652_500, "892c045aa965ae027581cddaa8e1fbaa5288e1ac622708f0c9905341a5587f1e"),
    "ble_init_delay_ms": (9, 3_658_500, "892c045aa965ae027581cddaa8e1fbaa5288e1ac622708f0c9905341a5587f1e"),
}


@pytest.mark.parametrize("fault", list(UART_PINNED), ids=lambda fault: fault or "clean")
def test_five_suites_leave_the_pinned_uart_stream(five_suite_run, fault):
    rig, _, stream, _ = five_suite_run(fault)
    assert (len(stream), rig.scheduler.now, _sha256(stream)) == UART_PINNED[fault]


# Per run: (air events, scheduler.now at its end, sha256 of the repr of the
# list of events). Each BLE case scans, connects, does its verb, then drops
# its sensor and detaches its central. ble_init_delay_ms moves the first
# scan's end and everything after it by the slow bring-up; period_skew_ms and
# omit_checksum move only when the BLE suite starts.
AIR_PINNED = {
    None: (14, 3_652_500, "9a9968960817d0a9512e6e6e400eda4c8defaed25f7ea35faea4912777db17c0"),
    "period_skew_ms": (14, 3_652_508, "bb7aed8f43d038f4c2913ff66cfa19200cf57a138c8782d8c7d1f4c39d561aff"),
    "swap_bcd_nibbles": (14, 3_652_500, "9a9968960817d0a9512e6e6e400eda4c8defaed25f7ea35faea4912777db17c0"),
    "omit_checksum": (14, 3_654_500, "9960ec93ad78befb06881052ebe77ec02e44d9512b28f97a8a0a576f86e71f37"),
    "drop_first_byte": (14, 3_652_500, "9a9968960817d0a9512e6e6e400eda4c8defaed25f7ea35faea4912777db17c0"),
    "ble_init_delay_ms": (14, 3_658_500, "3906fd435a579f79dec478455679d8de595db0aa41dce7d925709d2d0aa23212"),
}


@pytest.mark.parametrize("fault", list(AIR_PINNED), ids=lambda fault: fault or "clean")
def test_five_suites_leave_the_pinned_ble_air_traffic(five_suite_run, fault):
    rig, _, _, events = five_suite_run(fault)
    assert (len(events), rig.scheduler.now, _sha256(events)) == AIR_PINNED[fault]
