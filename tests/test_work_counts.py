"""Interpreter-independent work counts, pinned.

One clean five-suite pass on a fresh rig makes a fixed number of command
round trips, frames, frame checks, JSON encodes and decodes, clock
advances, scheduler events, GPIO edges, UART bytes and I2C transactions,
whatever Python runs it. The counts come from wrapping module functions
inside the test, as the traced benchmark does. A change that moves one
updates the pin and says why.
"""

import datetime

import pytest

from double_harness import bus, harness, simcore, suites, transport
from double_harness.transport import Command

SOAK_MS = 20_000


@pytest.fixture
def counts(monkeypatch):
    """Round trips; frames written on the virtual channel, each way, and
    check_frame calls; JSON texts through the wire gate, encoded and
    decoded; advance_to calls, nested ones included, and events fired
    (summed over them, so a train's firings count one each); GPIO edges,
    whether write or a train adds them; bytes sent on either UART end and
    I2C transactions."""
    keys = "round_trips frames frame_checks json_out json_in advances events edges uart_bytes i2c_txns"
    tally = dict.fromkeys(keys.split(), 0)
    advance_to = simcore.Scheduler.advance_to
    uart_send = bus.UartEnd.send

    def tallied(key, fn):
        def counted(*args, **kwargs):
            tally[key] += 1
            return fn(*args, **kwargs)

        return counted

    def counted_advance(scheduler, to):
        tally["advances"] += 1
        fired = advance_to(scheduler, to)
        tally["events"] += fired
        return fired

    def edge_counter(method):
        def counted(line, *args):
            before = len(line.edges)
            try:
                return method(line, *args)
            finally:
                tally["edges"] += len(line.edges) - before

        return counted

    def counted_uart_send(end, data):
        tally["uart_bytes"] += len(data)
        return uart_send(end, data)

    monkeypatch.setattr(transport, "send_command", tallied("round_trips", transport.send_command))
    write_line = transport.VirtualEndpoint.write_line
    monkeypatch.setattr(transport.VirtualEndpoint, "write_line", tallied("frames", write_line))
    monkeypatch.setattr(transport, "check_frame", tallied("frame_checks", transport.check_frame))
    monkeypatch.setattr(transport, "_to_json", tallied("json_out", transport._to_json))
    monkeypatch.setattr(transport, "_from_json", tallied("json_in", transport._from_json))
    monkeypatch.setattr(bus.UartEnd, "send", counted_uart_send)
    monkeypatch.setattr(bus.I2cBus, "write_then_read", tallied("i2c_txns", bus.I2cBus.write_then_read))
    monkeypatch.setattr(simcore.Scheduler, "advance_to", counted_advance)
    for name in ("write", "toggle_train"):
        monkeypatch.setattr(bus.GpioLine, name, edge_counter(getattr(bus.GpioLine, name)))
    return tally


def _five_suite_pass(fault=None):
    rig = suites.build_virtual_rig(fault)
    try:
        results = [r for suite in suites.SUITES.values() for r in harness.run_suite(suite, rig.session)]
    finally:
        rig.close()
    return results, len(rig.led_line.edges)


def test_one_five_suite_pass(counts):
    results, edges = _five_suite_pass()
    assert all(r.verdict == harness.PASS for r in results)
    assert edges == 8
    assert counts == {
        "round_trips": 131,
        "frames": 262,  # a command and its reply: each is checked once, when written
        "frame_checks": 262,
        "json_out": 50,  # 31 CALL/NEW args and 19 replies; the rest are [] or null, or carry no JSON
        "json_in": 50,
        "advances": 12,
        "events": 43,
        "edges": 8,
        "uart_bytes": 450,
        "i2c_txns": 5,
    }


def test_one_pass_clean_and_one_per_shipped_fault(counts):
    """The benchmark's suite_matrix set: 6 x 8 edges and 6 x 5 I2C
    transactions, fewer round trips and events where a fault fails a case
    early, and 5 x 450 + 51 UART bytes: the GPS double rejects the config
    sentences that omit_checksum sends, so it never emits. One reply is
    encoded and never decoded: with ble_init_delay_ms, scan_connect's `OK
    true` comes later than its budget and the controller drops it unread."""
    for fault in (None, *suites.SHIPPED_FAULTS):
        _five_suite_pass(fault)
    assert counts == {
        "round_trips": 782,
        "frames": 1564,
        "frame_checks": 1564,
        "json_out": 299,
        "json_in": 298,
        "advances": 72,
        "events": 252,
        "edges": 48,
        "uart_bytes": 2301,
        "i2c_txns": 30,
    }


def _registers(moment: datetime.datetime) -> list[int]:
    """The RTC's BCD register image of `moment`, weekday 1 = Monday."""
    fields = (moment.second, moment.minute, moment.hour, moment.isoweekday())
    fields += (moment.day, moment.month, moment.year - 2000)
    return [(v // 10) << 4 | v % 10 for v in fields]


@pytest.mark.parametrize("period, rate, rmc", [(7, 300, True), (1, 1000, False), (20, 64, True)])
def test_a_soak_case_fires_the_closed_form_count(counts, period, rate, rmc):
    """SOAK_MS of an isr blink, a GPS emitter and a ticking RTC, set up by
    commands as the benchmark's soak does: one event per edge, per emit and
    per second."""
    start = datetime.datetime(2031, 12, 31, 23, 59, 50)
    count = SOAK_MS // (2 * period)
    rig = suites.build_virtual_rig()
    dut, double = rig.session.dut.endpoint, rig.session.double.endpoint

    def send(endpoint, verb, obj, method=None, *args):
        resp = transport.send_command(endpoint, Command(verb, obj, method, args))
        assert resp.ok, resp
        return resp.payload

    try:
        send(double, "NEW", "led", "Led", suites.DOUBLE_LED_PIN, 2 * count)
        send(dut, "NEW", "blinker", "Blinker", suites.DUT_LED_PIN, period, count)
        send(double, "CALL", "led", "start_acquisition")
        send(dut, "CALL", "blinker", "blink", "isr")
        send(double, "NEW", "gps", "Gps")
        send(dut, "NEW", "gps_drv", "GpsDriver")
        send(dut, "CALL", "gps_drv", "send_command", f"PDBL,SEL,RMC,{int(rmc)}")
        send(dut, "CALL", "gps_drv", "send_command", f"PDBL,RATE,{rate}")
        send(double, "NEW", "rtc", "Rtc", "dynamic")
        send(dut, "NEW", "rtc_drv", "RtcDriver")
        stamp = [start.year, start.month, start.day, start.hour, start.minute, start.second]
        send(dut, "CALL", "rtc_drv", "set_datetime", stamp)
        events_before = counts["events"]
        fired = rig.scheduler.advance_by(SOAK_MS)
        assert fired == 2 * count + SOAK_MS // rate + SOAK_MS // 1000
        assert counts["events"] - events_before == fired
        assert counts["edges"] == 2 * count
        config = len(f"$PDBL,SEL,RMC,{int(rmc)}*CS\r\n") + len(f"$PDBL,RATE,{rate}*CS\r\n")
        gga, rmc_line = 65, 60  # "$GPGGA,hhmmss,4807.038,...*CS\r\n" and its RMC twin
        assert counts["uart_bytes"] == config + SOAK_MS // rate * (gga + rmc * rmc_line)
        assert counts["i2c_txns"] == 1  # set_datetime; the image is read over the command channel
        assert send(double, "CALL", "led", "get_avg_blink_ms") == float(period)
        assert send(double, "CALL", "gps", "get_emit_count") == (1 + rmc) * (SOAK_MS // rate)
        image = send(double, "CALL", "rtc", "read_registers")
        assert image == _registers(start + datetime.timedelta(seconds=SOAK_MS // 1000))
    finally:
        rig.close()
