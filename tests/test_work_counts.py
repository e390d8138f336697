"""Interpreter-independent work counts, pinned.

One clean five-suite pass on a fresh rig makes a fixed number of command
round trips, frames, frame checks, JSON encodes and decodes, clock
advances, scheduler events, GPIO edges, UART bytes, I2C transactions and
dispatch arity checks, whatever Python runs it. The counts come from
wrapping module functions inside the test, as the traced benchmark does.
The same pass also makes a fixed number of Python calls into the package,
of record-tuple constructions and of Python calls into the stdlib's json
package, counted by a profile hook: the per-hop work of the command round
trip.
Soak cases also pin how their LED edges are kept and, by digest, every edge
time and the clock, and every UART byte with its arrival time. A change
that moves one updates the pin and says why.
"""

import datetime
import hashlib
import json
import os
import random
import sys

import pytest

from double_harness import bus, cli, doubles, dut, harness, simcore, suites, transport
from double_harness.transport import Command

SOAK_MS = 20_000
SOAK_START = datetime.datetime(2031, 12, 31, 23, 59, 50)  # the RTC crosses midnight and a new year
SOAK_CASES = [(7, 300, True), (1, 1000, False), (20, 64, True)]  # (blink period, GPS rate, RMC on)


@pytest.fixture
def counts(monkeypatch):
    """Round trips; frames written on the virtual channel, each way, and
    check_frame calls; JSON texts through the wire gate, encoded and
    decoded; advance_to calls, nested ones included, and events fired
    (summed over them, so a train's firings count one each); GPIO edges,
    whether write or a train adds them; bytes sent on either UART end and
    I2C transactions; and dispatch's arity checks, which only a refused
    call asks for."""
    keys = "round_trips frames frame_checks json_out json_in advances events edges uart_bytes i2c_txns binds"
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
    monkeypatch.setattr(transport, "_binds", tallied("binds", transport._binds))
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
    return results, rig.led_line.edges


def test_one_five_suite_pass(counts):
    results, edges = _five_suite_pass()
    assert all(r.verdict == harness.PASS for r in results)
    assert len(edges) == 8
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
        "binds": 0,  # every call fits: no arity check runs
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
        "binds": 0,
    }


def _package_work(run):
    """Python calls into the package, record-tuple constructions, and
    Python calls into the stdlib's json package, made by run(). A call is a
    profile "call" event of code from the package's source; a generator's
    every step is one. List, dict and set comprehensions are not counted,
    since Python 3.12 inlines them. A construction is a call of the
    generated __new__ of one of the package's NamedTuples, which lives
    outside the package's source. A json call is a "call" event of code
    from the json package's source; its C accelerator makes none."""
    package = os.path.dirname(transport.__file__) + os.sep
    stdlib_json = os.path.dirname(json.__file__) + os.sep
    constructors = set()
    for module in (bus, cli, doubles, dut, harness, simcore, suites, transport):
        for value in vars(module).values():
            if isinstance(value, type) and issubclass(value, tuple):
                constructors.update(k.__new__.__code__ for k in value.__mro__ if "_fields" in vars(k))
    inlined = ("<listcomp>", "<dictcomp>", "<setcomp>")
    work = {"calls": 0, "records": 0, "json_calls": 0}

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code in constructors:
                work["records"] += 1
            elif code.co_filename.startswith(package) and code.co_name not in inlined:
                work["calls"] += 1
            elif code.co_filename.startswith(stdlib_json):
                work["json_calls"] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return work


def test_one_five_suite_pass_makes_the_pinned_python_calls():
    """The first pass in a process also fills the GPS double's sentence
    templates, a per-process cache, so a warm-up pass runs first. Of the
    calls, 3,536 are generator steps, 3,513 of them check_frame's, and 326
    are _is_ident's, 158 of them parse_command's: two names in each of the
    37 CALL and 28 NEW lines and one in each of the 28 DEL lines. The
    records are rig and case bookkeeping: 2 DeviceLinks, a VirtualRig, 15
    Matchers and the 14 cases' TestResult rows. A row is a NamedTuple, so
    its constructor counts as a record and not as a call, and a check
    stores nothing but a failure's message.
    Commands and Responses are built by tuple.__new__ or shared as
    constants, so none is counted. The wire gate's 50 encodes and 50
    decodes call the C coder from the package's own _encode and _decode;
    the only json frames left are the decodes' 50 raw_decode calls. A
    driver reads its armed fault from the name the rig passes it, so
    building the rig makes no call to map that name to a record. Every one
    of the 131 replies goes through format_response and parse_response,
    the only code that knows `OK null` (112 replies take that shape);
    every one of the 28 NEWs hands _close_quietly whatever held its name,
    None included; each of the 14 drivers built checks its fault name
    with _armed once; and each of the 50 NEW and CALL steps and the 15
    gathers of a case records a copy through _wire_form, which is called
    once per value at any depth: 165 calls, for the 50 args tuples, the
    15 payloads and the 100 values inside them, none of them bytes."""
    _five_suite_pass()
    assert _package_work(_five_suite_pass) == {"calls": 7323, "records": 32, "json_calls": 50}


def _registers(moment: datetime.datetime) -> list[int]:
    """The RTC's BCD register image of `moment`, weekday 1 = Monday."""
    fields = (moment.second, moment.minute, moment.hour, moment.isoweekday())
    fields += (moment.day, moment.month, moment.year - 2000)
    return [(v // 10) << 4 | v % 10 for v in fields]


def _send(endpoint, verb, obj=None, method=None, *args):
    resp = transport.send_command(endpoint, Command(verb, obj, method, args))
    assert resp.ok, resp
    return resp.payload


def _start_soak_case(rig, period, rate, rmc, start=SOAK_START):
    """Set up a soak case by commands, as the benchmark's soak does: an isr
    blink for SOAK_MS, a GPS emitter at `rate` with RMC on or off, and a
    dynamic RTC from `start`."""
    count = SOAK_MS // (2 * period)
    dut, double = rig.session.dut.endpoint, rig.session.double.endpoint
    _send(double, "NEW", "led", "Led", suites.DOUBLE_LED_PIN, 2 * count)
    _send(dut, "NEW", "blinker", "Blinker", suites.DUT_LED_PIN, period, count)
    _send(double, "CALL", "led", "start_acquisition")
    _send(dut, "CALL", "blinker", "blink", "isr")
    _send(double, "NEW", "gps", "Gps")
    _send(dut, "NEW", "gps_drv", "GpsDriver")
    _send(dut, "CALL", "gps_drv", "send_command", f"PDBL,SEL,RMC,{int(rmc)}")
    _send(dut, "CALL", "gps_drv", "send_command", f"PDBL,RATE,{rate}")
    _send(double, "NEW", "rtc", "Rtc", "dynamic")
    _send(dut, "NEW", "rtc_drv", "RtcDriver")
    stamp = [start.year, start.month, start.day, start.hour, start.minute, start.second]
    _send(dut, "CALL", "rtc_drv", "set_datetime", stamp)


@pytest.mark.parametrize("period, rate, rmc", SOAK_CASES + [(1, 50, True)])
def test_a_soak_case_fires_the_closed_form_count(counts, period, rate, rmc):
    """SOAK_MS of an isr blink, a GPS emitter and a ticking RTC, set up by
    commands as the benchmark's soak does: one event per edge, per emit and
    per second. However often the emits and ticks break the blink's trains,
    its edges stay one run of the line's log."""
    count = SOAK_MS // (2 * period)
    rig = suites.build_virtual_rig()
    double = rig.session.double.endpoint
    try:
        _start_soak_case(rig, period, rate, rmc)
        events_before = counts["events"]
        fired = rig.scheduler.advance_by(SOAK_MS)
        assert fired == 2 * count + SOAK_MS // rate + SOAK_MS // 1000
        assert counts["events"] - events_before == fired
        assert counts["edges"] == 2 * count
        assert len(rig.led_line.edges.starts) == 1
        config = len(f"$PDBL,SEL,RMC,{int(rmc)}*CS\r\n") + len(f"$PDBL,RATE,{rate}*CS\r\n")
        gga, rmc_line = 65, 60  # "$GPGGA,hhmmss,4807.038,...*CS\r\n" and its RMC twin
        assert counts["uart_bytes"] == config + SOAK_MS // rate * (gga + rmc * rmc_line)
        assert counts["i2c_txns"] == 1  # set_datetime; the image is read over the command channel
        assert _send(double, "CALL", "led", "get_avg_blink_ms") == float(period)
        assert _send(double, "CALL", "gps", "get_emit_count") == (1 + rmc) * (SOAK_MS // rate)
        image = _send(double, "CALL", "rtc", "read_registers")
        assert image == _registers(SOAK_START + datetime.timedelta(seconds=SOAK_MS // 1000))
    finally:
        rig.close()


def _benchmark_soak_set(seed):
    """The first set of cases that the benchmark's sim_soak draws for `seed`:
    each blink period 1..20 once, in a seeded order, with a GPS rate, RMC on
    or off and an RTC start for each."""
    rng = random.Random(seed)
    first, last = datetime.datetime(2001, 1, 1), datetime.datetime(2098, 12, 31)
    span_s = int((last - first).total_seconds())
    periods = list(range(1, 21))
    rng.shuffle(periods)
    cases = []
    for period in periods:
        rate, rmc = rng.randint(50, 1000), rng.random() < 0.5
        cases.append((period, rate, rmc, first + datetime.timedelta(seconds=rng.randrange(span_s))))
    return cases


def _run_soak_cases(rig, cases):
    """Each case in turn on one rig, both ends reset first, as in a benchmark set."""
    for case in cases:
        _send(rig.session.dut.endpoint, "RESET")
        _send(rig.session.double.endpoint, "RESET")
        _start_soak_case(rig, *case)
        rig.scheduler.advance_by(SOAK_MS)
        yield case


def test_a_benchmark_soak_set_keeps_one_edge_run_per_case():
    """The first sim_soak set of seed 7 as the benchmark runs it: 71,946 LED
    edges, kept as 20 runs of the line's log, one per case."""
    rig = suites.build_virtual_rig()
    try:
        for _ in _run_soak_cases(rig, _benchmark_soak_set(7)):
            pass
        edges = rig.led_line.edges
        assert (len(edges), len(edges.starts)) == (71_946, 20)
    finally:
        rig.close()


def test_soak_cases_on_one_rig_leave_the_pinned_edge_times_and_clock():
    """The three soak cases in turn on one rig, both ends reset between them
    as in a benchmark set, so the LED line's log holds one run per case.
    After each, one sha256 of every edge time on that line and of the clock.
    The checks above read counts and a window's end points; this digest
    moves when any single edge moves."""
    rig = suites.build_virtual_rig()
    digests = []
    try:
        for period, _rate, _rmc in _run_soak_cases(rig, SOAK_CASES):
            edges = rig.led_line.edges
            assert list(edges) == edges[:]  # iteration, and a read of each index
            assert _send(rig.session.double.endpoint, "CALL", "led", "get_avg_blink_ms") == float(period)
            record = repr((list(edges), rig.scheduler.now))
            digests.append(hashlib.sha256(record.encode()).hexdigest())
    finally:
        rig.close()
    assert digests == [
        "5196e6fe8d34d27414fa4085f6fd7a7835a5f1fe1031a8f3f9f1c1c74d6c5ce1",
        "cafe5f09b154a1a5b03b72f3087440286d42f7e9a091a40cc042b372c486cf3e",
        "c565c95fda9b17b5268d444567da5575d372793da673c7e23c7ee62944b0de25",
    ]


def test_soak_cases_on_one_rig_leave_the_pinned_uart_byte_stream(monkeypatch):
    """The three soak cases in turn on one rig, as above. After each, one
    sha256 of every byte sent on the UART link in that case, in order, each
    with the end that sent it (a: the GPS driver's, b: the double's) and its
    arrival time, which is the sim time of its send: the link delivers at
    once. The record is one entry per byte, so the same bytes sent at the
    same times in other groups give the same digest, and a byte that moves
    in time or order moves it."""
    rig = suites.build_virtual_rig()
    stream = []
    send = bus.UartEnd.send

    def recorded(end, data):
        sender = "a" if end is rig.uart.a else "b"
        now = rig.scheduler.now
        stream.extend((sender, now, byte) for byte in data)
        return send(end, data)

    monkeypatch.setattr(bus.UartEnd, "send", recorded)
    digests = []
    try:
        for _case in _run_soak_cases(rig, SOAK_CASES):
            digests.append(hashlib.sha256(repr(stream).encode()).hexdigest())
            stream.clear()
    finally:
        rig.close()
    assert digests == [
        "dd0b2d9d5c20b6ae27d36dd5ea62f455f2809c0c94c2e9ca87c9d9d445fede1a",
        "b7a82637579982dcc5a3fecdcdf722738edcc87249edd96eba97618d4a5be588",
        "432565ebda7abe1a6a69ee5f4704351cc748efd46d8c750475548be3c9438bda",
    ]
