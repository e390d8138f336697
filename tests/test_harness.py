"""Harness semantics: matchers, suite rules, the two-phase run, reporting."""

import json
import random
import time

import pytest

from double_harness import cli, harness, transport
from double_harness.harness import (
    ERROR,
    FAIL,
    PASS,
    CodeManifest,
    DeviceLink,
    Session,
    Suite,
    SuiteDefinitionError,
    TestCase,
    TestResult,
    TransportLog,
    close_to,
    equal,
    is_true,
    report,
    run_suite,
    suite_report_dict,
    summarize,
    within,
)
from double_harness.simcore import Scheduler
from double_harness.suites import SUITE_ORDER, SUITES, build_virtual_rig
from double_harness.transport import (
    MAX_FRAME_LEN,
    Command,
    ObjectRegistry,
    ProtocolError,
    open_virtual_pair,
    send_command,
    serve,
)


def _circular():
    value = [1]
    value.append(value)
    return value


class Sink:
    def take(self, *values):
        return len(values)


class Huge:
    def get(self):
        return 10**400  # 401 digits: the wire carries ints of up to 4300


def sink_session(sched):
    """A session whose two devices each host only Sink and Huge."""
    links = []
    for label in ("dut", "double"):
        controller, device = open_virtual_pair(sched)
        registry = ObjectRegistry()
        registry.register_class("Sink", Sink)
        registry.register_class("Huge", Huge)
        serve(device, registry)
        links.append(DeviceLink(label, controller))
    return Session(*links, sched)


def make_suite(*cases, name="demo"):
    return Suite(
        name=name,
        cases=tuple(cases),
        dut_code=CodeManifest("dut_demo", ("Blinker",)),
        double_code=CodeManifest("Double_demo", ("Led",)),
    )


class TestMatchers:
    def test_close_to_inside_window(self):
        assert close_to(2000, 1).check(2000.4)

    def test_close_to_boundary_is_inclusive(self):
        assert close_to(2000, 1).check(2001.0)
        assert close_to(2000, 1).check(1999.0)

    def test_close_to_outside_window(self):
        assert not close_to(2000, 1).check(2001.5)

    def test_close_to_error_sign_symmetry(self):
        rng = random.Random(9)
        for _ in range(200):
            expected = rng.uniform(-1000, 1000)
            delta = rng.uniform(0, 50)
            tol = rng.uniform(0, 50)
            matcher = close_to(expected, tol)
            assert matcher.check(expected + delta) == matcher.check(expected - delta)

    def test_close_to_monotone_in_tolerance(self):
        """Passing at tolerance t implies passing at any larger tolerance."""
        rng = random.Random(10)
        for _ in range(200):
            expected = rng.uniform(-100, 100)
            actual = expected + rng.uniform(-20, 20)
            t = rng.uniform(0, 10)
            if close_to(expected, t).check(actual):
                assert close_to(expected, t + rng.uniform(0, 10)).check(actual)

    def test_close_to_non_numeric_actual_fails_cleanly(self):
        assert not close_to(1.0, 0.5).check("wat")

    def test_equal_and_is_true_and_within(self):
        assert equal([1, 2]).check([1, 2])
        assert not equal(1).check(2)
        assert is_true().check(True)
        assert not is_true().check(0)
        assert within(1, 3).check(3)  # inclusive
        assert not within(1, 3).check(3.1)

    def test_within_lower_bound_is_inclusive(self):
        assert within(1, 3).check(1)
        assert within(-2.5, 0).check(-2.5)
        assert not within(1, 3).check(0.9)

    def test_zero_tolerance_is_accepted_and_means_exact(self):
        matcher = close_to(5, 0)
        assert matcher.check(5) and matcher.check(5.0)
        assert not matcher.check(5.001) and not matcher.check(4.999)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            close_to(0, -1)

    def test_failure_text_names_expected_actual_tolerance(self):
        text = close_to(2000, 1).failure_text(2001.5)
        assert "2000" in text and "2001.5" in text and "1" in text

    @pytest.mark.parametrize(
        "matcher, actual, description, failure",
        [
            (equal("on"), "off", "equal('on')", "expected='on' actual='off'"),
            (equal([1, 2]), [1, 3], "equal([1, 2])", "expected=[1, 2] actual=[1, 3]"),
            (
                close_to(2000, 1),
                2001.5,
                "close_to(2000, tol=1)",
                "expected=2000 tolerance=1 actual=2001.5",
            ),
            (within(1, 3), 3.1, "within(1, 3)", "expected within [1, 3] actual=3.1"),
            (within("a", "c"), "d", "within('a', 'c')", "expected within ['a', 'c'] actual='d'"),
            (is_true(), 0, "is_true()", "expected truthy actual=0"),
        ],
    )
    def test_fail_text_is_exact(self, rig, matcher, actual, description, failure):
        assert matcher.description == description
        assert matcher.failure_text(actual) == failure
        suite = make_suite(TestCase("test_x", lambda ctx: ctx.expect(actual, matcher)))
        [result] = run_suite(suite, rig.session)
        assert result.verdict == FAIL
        assert result.message == f"{description} failed: {failure}"

    @pytest.mark.parametrize("matcher", [close_to(1.0, 0.5), within(1, 3)])
    @pytest.mark.parametrize("actual", ["wat", None, [1]])
    def test_non_numeric_actual_fails(self, matcher, actual):
        assert matcher.check(actual) is False

    def test_an_int_too_large_for_a_float_fails_close_to(self, sched):
        """close_to's subtraction raises OverflowError on such an int. That
        is a FAIL with the usual message, not an ERROR of the case body."""

        def body(ctx):
            value = ctx.gather(ctx.new_on_dut("Huge", "huge"), "get")
            ctx.expect(value, close_to(48.1173, 1e-9))

        (result,) = run_suite(make_suite(TestCase("test_huge", body)), sink_session(sched))
        assert (result.verdict, result.outputs) == (FAIL, {"huge.get": 10**400})
        expected = "close_to(48.1173, tol=1e-09) failed: expected=48.1173 tolerance=1e-09"
        assert result.message == f"{expected} actual={10**400!r}"


class TestSuiteRules:
    def test_case_names_must_start_with_test_(self):
        with pytest.raises(SuiteDefinitionError):
            TestCase("blink_blocking", lambda ctx: None)

    def test_duplicate_case_names_rejected(self):
        a = TestCase("test_x", lambda ctx: None)
        b = TestCase("test_x", lambda ctx: None)
        with pytest.raises(SuiteDefinitionError):
            make_suite(a, b)

    def test_manifest_prefixes_enforced(self):
        case = TestCase("test_x", lambda ctx: None)
        with pytest.raises(SuiteDefinitionError):
            Suite(
                name="bad",
                cases=(case,),
                dut_code=CodeManifest("blink", ("Blinker",)),
                double_code=CodeManifest("Double_led", ("Led",)),
            )
        with pytest.raises(SuiteDefinitionError):
            Suite(
                name="bad",
                cases=(case,),
                dut_code=CodeManifest("dut_blink", ("Blinker",)),
                double_code=CodeManifest("led", ("Led",)),
            )


class TestRunSuite:
    def test_verdicts_pass_fail_error(self, rig):
        def passing(ctx):
            ctx.expect(1.0, close_to(1.0, 0.1))

        def failing(ctx):
            ctx.expect(2.0, close_to(1.0, 0.1))

        def erroring(ctx):
            handle = ctx.new_on_dut("Blinker", "b", 13, 100, 1)
            ctx.call(handle, "no_such_method")

        suite = make_suite(
            TestCase("test_passing", passing),
            TestCase("test_failing", failing),
            TestCase("test_erroring", erroring),
        )
        results = run_suite(suite, rig.session)
        assert [r.verdict for r in results] == [PASS, FAIL, ERROR]
        assert results[1].message.startswith("close_to")
        assert results[2].message.startswith("NO_METHOD")

    def test_an_error_never_stops_later_cases(self, rig):
        def erroring(ctx):
            handle = ctx.new_on_dut("Blinker", "b", 99, 100, 1)  # unwired pin

        def passing(ctx):
            ctx.expect(True, is_true())

        results = run_suite(
            make_suite(TestCase("test_bad", erroring), TestCase("test_ok", passing)),
            rig.session,
        )
        assert [r.verdict for r in results] == [ERROR, PASS]

    def test_results_come_back_in_declaration_order(self, rig):
        names = [f"test_{ch}" for ch in "abcd"]
        suite = make_suite(*(TestCase(n, lambda ctx: None) for n in names))
        results = run_suite(suite, rig.session)
        assert [r.name for r in results] == names

    def test_inputs_and_outputs_are_recorded(self, rig):
        def body(ctx):
            led = ctx.new_on_double("Led", "led", 4, 2)
            ctx.call(led, "start_acquisition")
            ctx.gather(led, "get_avg_blink_ms")

        results = run_suite(make_suite(TestCase("test_rec", body)), rig.session)
        result = results[0]
        assert result.inputs["Led led"] == [4, 2]
        assert result.inputs["led.start_acquisition"] == []
        assert result.verdict == ERROR  # gather hit NotReady
        assert "NotReady" in result.message

    def test_repeated_steps_get_numbered_keys(self, rig):
        def body(ctx):
            led = ctx.new_on_double("Led", "led", 4, 2)
            ctx.call(led, "start_acquisition")
            ctx.call(led, "start_acquisition")

        result = run_suite(make_suite(TestCase("test_dup", body)), rig.session)[0]
        assert "led.start_acquisition" in result.inputs
        assert "led.start_acquisition#2" in result.inputs

    def test_a_third_repeat_records_under_key_3(self, rig):
        def body(ctx):
            led = ctx.new_on_double("Led", "led", 4, 2)
            for _ in range(3):
                ctx.call(led, "start_acquisition")

        result = run_suite(make_suite(TestCase("test_trio", body)), rig.session)[0]
        keys = ["led.start_acquisition", "led.start_acquisition#2", "led.start_acquisition#3"]
        assert list(result.inputs) == ["Led led", *keys]

    def test_missing_class_fails_setup_with_one_error_result(self, rig):
        suite = Suite(
            name="ghost",
            cases=(TestCase("test_x", lambda ctx: None),),
            dut_code=CodeManifest("dut_ghost", ("NoSuchDriver",)),
            double_code=CodeManifest("Double_ghost", ("Led",)),
        )
        results = run_suite(suite, rig.session)
        assert len(results) == 1
        assert results[0].verdict == ERROR
        assert results[0].message.startswith("NO_CLASS")

    def test_a_setup_error_records_no_inputs_or_outputs(self, rig):
        rig.close()
        (result,) = run_suite(make_suite(TestCase("test_x", lambda ctx: None)), rig.session)
        assert result.verdict == ERROR
        assert (result.inputs, result.outputs) == ({}, {})

    def test_links_without_a_registry_skip_the_manifest_check(self, sched):
        """Over a link that holds no registry (a serial port's, say) only the
        device knows its classes: setup contacts it and runs the cases."""
        links = []
        for label in ("dut", "double"):
            controller, device = open_virtual_pair(sched)
            serve(device, ObjectRegistry())
            links.append(DeviceLink(label, controller))
        session = Session(*links, sched)
        (result,) = run_suite(make_suite(TestCase("test_x", lambda ctx: None)), session)
        assert (result.verdict, result.message) == (PASS, "")

    def test_a_body_that_raises_is_an_internal_error_and_the_next_case_runs(self, rig):
        def broken(ctx):
            raise ValueError("no such pin map")

        suite = make_suite(TestCase("test_broken", broken), TestCase("test_ok", lambda ctx: None))
        results = run_suite(suite, rig.session)
        assert [(r.verdict, r.message) for r in results] == [
            (ERROR, "INTERNAL: ValueError: no such pin map"),
            (PASS, ""),
        ]

    def test_step_5_passes_over_an_object_the_body_deleted_out_of_band(self, rig):
        """The left-over handle's DEL gets NO_OBJECT, and the case still passes."""

        def body(ctx):
            ctx.new_on_double("Led", "led", 4, 2)
            assert send_command(rig.session.double.endpoint, Command("DEL", obj="led")).ok
            ctx.expect(True, is_true())

        (result,) = run_suite(make_suite(TestCase("test_gone", body)), rig.session)
        assert (result.verdict, result.message) == (PASS, "")
        assert [entry[2:4] for entry in rig.session.log.entries[-2:]] == [
            ("send", "DEL led"),
            ("recv", "ERR NO_OBJECT unknown object 'led'"),
        ]

    def test_sim_duration_is_tracked_per_case(self, rig):
        def body(ctx):
            ctx.sleep(1234)

        result = run_suite(make_suite(TestCase("test_sleep", body)), rig.session)[0]
        assert result.sim_ms == 1234


class TestSession:
    def test_without_a_scheduler_sleep_is_wall_clock_and_sim_time_stays_0(self, sched):
        links = [DeviceLink(label, open_virtual_pair(sched)[0]) for label in ("dut", "double")]
        session = Session(*links)
        started = time.perf_counter()
        session.sleep(0)
        session.sleep(5)
        assert time.perf_counter() - started >= 0.005
        assert (session.sim_now(), sched.now) == (0, 0)

    def test_a_virtual_run_reads_no_wall_clock(self, monkeypatch, capsys):
        """Only the real-board paths, Session.sleep without a scheduler and
        SerialEndpoint, may touch the time module; a virtual run never does."""

        class NoClock:
            def __getattr__(self, name):  # every name a time module has
                raise AssertionError(f"a virtual run read time.{name}")

        for module in (harness, transport):
            monkeypatch.setattr(module, "time", NoClock())
        rig = build_virtual_rig()
        try:
            verdicts = [r.verdict for name in SUITE_ORDER for r in run_suite(SUITES[name], rig.session)]
        finally:
            rig.close()
        assert verdicts and set(verdicts) == {PASS}
        assert cli.main(["--format", "json"]) == 0
        docs = json.loads(capsys.readouterr().out)
        assert {r["verdict"] for doc in docs for r in doc["results"]} == {PASS}


class _SlowClose:
    """Hosted object whose close() holds its device for 10 s of sim time, so
    the RESET that closes it is answered after the 5000 ms budget."""

    def __init__(self, scheduler):
        self._scheduler = scheduler

    def close(self):
        self._scheduler.advance_by(10_000)


class TestTransportFailuresAreResults:
    """Setup and inter-case commands map transport failures as case commands
    do; run_suite returns ERROR results and never raises them."""

    def _host_slow_close(self, rig):
        dut = rig.session.dut
        dut.registry.register_class("SlowClose", lambda: _SlowClose(rig.scheduler))
        assert send_command(dut.endpoint, Command("NEW", "slow", "SlowClose")).ok

    def test_a_closed_rig_fails_setup_as_closed(self, rig):
        rig.close()
        results = run_suite(SUITES["blink"], rig.session)
        assert [(r.name, r.verdict, r.message) for r in results] == [
            ("setup[blink]", ERROR, "CLOSED: no contact with dut: channel closed")
        ]

    def test_any_other_transport_error_is_a_transport_result(self):
        sched = Scheduler()
        controller, device = open_virtual_pair(sched)
        session = Session(DeviceLink("dut", device), DeviceLink("double", controller), sched)
        results = run_suite(make_suite(TestCase("test_x", lambda ctx: None)), session)
        assert [r.message for r in results] == [
            "TRANSPORT: no contact with dut: send_command requires a controller endpoint"
        ]

    def test_a_channel_closed_by_a_case_errors_the_later_cases(self, rig):
        suite = make_suite(
            TestCase("test_close", lambda ctx: rig.session.dut.endpoint.close()),
            TestCase("test_next", lambda ctx: None),
            TestCase("test_last", lambda ctx: None),
        )
        results = run_suite(suite, rig.session)
        assert [(r.verdict, r.message) for r in results] == [
            (PASS, ""),
            (ERROR, "CLOSED: channel closed"),
            (ERROR, "CLOSED: channel closed"),
        ]

    def test_a_late_reset_between_cases_errors_only_the_next_case(self, rig):
        suite = make_suite(
            TestCase("test_leave_alive", lambda ctx: self._host_slow_close(rig)),
            TestCase("test_next", lambda ctx: None),
            TestCase("test_last", lambda ctx: None),
        )
        results = run_suite(suite, rig.session)
        assert [(r.verdict, r.message) for r in results] == [
            (PASS, ""),
            (ERROR, "TIMEOUT: no response to 'RESET' within 5000 ms (simulated)"),
            (PASS, ""),
        ]
        sims = [line.split("  ")[1] for line in report(results).splitlines()[:3]]
        assert sims == ["sim_ms=0", "sim_ms=-", "sim_ms=0"]

    def test_a_late_reset_at_setup_is_one_setup_error(self, rig):
        self._host_slow_close(rig)
        results = run_suite(make_suite(TestCase("test_x", lambda ctx: None)), rig.session)
        assert [(r.name, r.verdict, r.message) for r in results] == [
            (
                "setup[demo]",
                ERROR,
                "TIMEOUT: no contact with dut: no response to 'RESET' within 5000 ms (simulated)",
            )
        ]

    @pytest.mark.parametrize(
        "cmd",
        [
            Command("CALL", "b", "blink", ("x" * MAX_FRAME_LEN,)),
            Command("CALL", "b", "blïnk", ("blocking",)),
        ],
        ids=["too-long", "non-ascii-name"],
    )
    def test_a_command_that_is_not_a_frame_is_neither_logged_nor_delivered(self, rig, cmd):
        dut = rig.session.dut
        assert send_command(dut.endpoint, Command("NEW", "b", "Blinker", (13, 100, 1))).ok
        log, objects = list(rig.session.log.entries), dict(dut.registry.objects)
        with pytest.raises(ProtocolError):
            send_command(dut.endpoint, cmd)
        assert rig.session.log.entries == log
        assert dut.registry.objects == objects and rig.scheduler.now == 0

    def test_a_call_too_long_for_a_frame_is_a_protocol_error(self, rig):
        def body(ctx):
            ctx.call(ctx.new_on_dut("Blinker", "b", 13, 100, 1), "blink", "x" * MAX_FRAME_LEN)

        (result,) = run_suite(make_suite(TestCase("test_long", body)), rig.session)
        assert result.verdict == ERROR and result.message.startswith("PROTOCOL: frame too long")
        assert not any("blink" in line for _, _, _, line, _ in rig.session.log.entries)

    @pytest.mark.parametrize(
        "make",
        [_circular, lambda: 10**5000, lambda: {1, 2}, object, lambda: float("nan")],
        ids=["circular-list", "5000-digit-int", "set", "object", "nan"],
    )
    def test_a_call_with_args_the_wire_cannot_carry_is_a_protocol_error(self, rig, make):
        def body(ctx):
            ctx.call(ctx.new_on_dut("Blinker", "b", 13, 100, 1), "blink", make())

        (result,) = run_suite(make_suite(TestCase("test_unencodable", body)), rig.session)
        assert result.verdict == ERROR
        assert result.message.startswith("PROTOCOL: bad JSON args: "), result.message
        assert not any("blink" in line for _, _, _, line, _ in rig.session.log.entries)


class TestTransportLogInvariants:
    def _commands(self, rig, device):
        return [
            line
            for _seq, dev, direction, line, _t in rig.session.log.entries
            if dev == device and direction == "send"
        ]

    def test_setup_resets_precede_all_case_commands(self, rig):
        def body(ctx):
            ctx.new_on_double("Led", "led", 4, 2)

        run_suite(make_suite(TestCase("test_x", body)), rig.session)
        for device in ("dut", "double"):
            sent = self._commands(rig, device)
            assert "RESET" in sent
            first_new = next((i for i, l in enumerate(sent) if l.startswith("NEW")), len(sent))
            assert sent.index("RESET") < first_new

    def test_reset_separates_consecutive_cases(self, rig):
        def body(ctx):
            ctx.new_on_double("Led", "led", 4, 2)

        suite = make_suite(TestCase("test_a", body), TestCase("test_b", body))
        run_suite(suite, rig.session)
        sent = self._commands(rig, "double")
        news = [i for i, l in enumerate(sent) if l.startswith("NEW")]
        assert len(news) == 2
        between = sent[news[0] + 1 : news[1]]
        assert "RESET" in between

    def test_entries_are_numbered_from_one_in_the_order_recorded(self, rig):
        run_suite(make_suite(TestCase("test_x", lambda ctx: None)), rig.session)
        entries = rig.session.log.entries
        assert [entry[0] for entry in entries] == list(range(1, len(entries) + 1))
        assert len(entries) == 8  # PING and RESET to each device, and their replies

    def test_every_command_got_exactly_one_response_in_order(self, rig):
        def body(ctx):
            led = ctx.new_on_double("Led", "led", 4, 2)
            ctx.call(led, "start_acquisition")

        run_suite(make_suite(TestCase("test_x", body)), rig.session)
        for device in ("dut", "double"):
            entries = [e for e in rig.session.log.entries if e[1] == device]
            directions = [e[2] for e in entries]
            assert directions == ["send", "recv"] * (len(directions) // 2)


def _wire(session, command):
    """The JSON args of the first logged line that starts with `command `,
    and the JSON payload of the OK reply that its device logged next."""
    entries = session.log.entries
    at = next(i for i, entry in enumerate(entries) if entry[3].startswith(command + " "))
    line, device = entries[at][3], entries[at][1]
    reply = next(entry[3] for entry in entries[at + 1 :] if entry[1] == device)
    return json.loads(line[len(command) + 1 :]), json.loads(reply.removeprefix("OK "))


class TestRecordsAreSnapshotsOfTheWire:
    """A result holds what crossed the wire when it crossed: a body that
    changes a list after its step, or after a failing check, leaves the
    report as the TransportLog line reads."""

    def _spi_case(self, rig, body):
        def case(ctx):
            slave = ctx.new_on_double("SpiSlave", "slave")
            master = ctx.new_on_dut("SpiMaster", "master")
            body(ctx, master, slave)

        (result,) = run_suite(make_suite(TestCase("test_spi", case)), rig.session)
        return result, report([result])

    def test_a_list_changed_after_call_is_reported_as_sent(self, rig):
        def body(ctx, master, slave):
            data = [7, 8, 9]
            ctx.call(master, "write", data)
            data.append(99)

        result, text = self._spi_case(rig, body)
        sent, _ = _wire(rig.session, "CALL master.write")
        assert sent == [[7, 8, 9]]
        assert result.inputs["master.write"] == sent
        assert f'"master.write": {json.dumps(sent)}' in text

    def test_a_gathered_list_changed_after_gather_is_reported_as_received(self, rig):
        def body(ctx, master, slave):
            ctx.call(master, "write", [7, 8, 9])
            ctx.gather(slave, "get_rx").append(99)

        result, text = self._spi_case(rig, body)
        _, received = _wire(rig.session, "CALL slave.get_rx")
        assert received == [7, 8, 9]
        assert result.outputs == {"slave.get_rx": received}
        assert f"outputs={json.dumps(result.outputs)}" in text

    def test_a_list_changed_after_a_failing_check_leaves_the_message_as_checked(self, rig):
        def body(ctx, master, slave):
            ctx.call(master, "write", [7, 8, 9])
            received = ctx.gather(slave, "get_rx")
            ctx.expect(received, equal([7, 8]))
            received.append(99)

        result, text = self._spi_case(rig, body)
        _, received = _wire(rig.session, "CALL slave.get_rx")
        assert result.verdict == FAIL
        assert result.message == f"equal([7, 8]) failed: expected=[7, 8] actual={received!r}"
        assert text.endswith(f":: {result.message}\n0 passed, 1 failed, 0 errors")

    def test_a_bytes_arg_is_recorded_as_the_int_array_the_wire_carried(self, sched):
        session = sink_session(sched)

        def body(ctx):
            sink = ctx.new_on_dut("Sink", "sink")
            tail = [9]
            ctx.call(sink, "take", b"\x07\x08", tail)
            tail.append(99)

        (result,) = run_suite(make_suite(TestCase("test_bytes", body)), session)
        sent, _ = _wire(session, "CALL sink.take")
        assert sent == [[7, 8], [9]]
        assert result.inputs["sink.take"] == sent
        assert f'"sink.take": {json.dumps(sent)}' in report([result])


class TestVerdictSoundness:
    def test_the_first_failing_check_decides_the_verdict_and_its_message(self, rig):
        def mixed(ctx):
            ctx.expect(1.0, close_to(1.0, 0.5))
            ctx.expect(9.0, close_to(1.0, 0.5))

        def clean(ctx):
            ctx.expect(True, is_true())

        suite = make_suite(TestCase("test_mixed", mixed), TestCase("test_clean", clean))
        assert [(r.verdict, r.message) for r in run_suite(suite, rig.session)] == [
            (FAIL, "close_to(1.0, tol=0.5) failed: expected=1.0 tolerance=0.5 actual=9.0"),
            (PASS, ""),
        ]


class TestReport:
    def _results(self, rig, *cases):
        return run_suite(make_suite(*cases), rig.session)

    def test_human_summary_line(self, rig):
        results = self._results(
            rig,
            TestCase("test_a", lambda ctx: None),
            TestCase("test_b", lambda ctx: None),
        )
        text = report(results, suite_name="demo")
        assert "2 passed, 0 failed, 0 errors" in text
        assert "[PASS ] test_a" in text

    def test_empty_suite_reports_zeroes(self):
        """Without a suite name there is no `suite` line."""
        assert report([]) == "0 passed, 0 failed, 0 errors"
        assert report([], suite_name="demo") == "suite demo\n0 passed, 0 failed, 0 errors"

    def test_suite_name_is_keyword_only(self):
        with pytest.raises(TypeError):
            report([], "demo")

    def test_human_line_carries_inputs_and_outputs(self, rig):
        def body(ctx):
            led = ctx.new_on_double("Led", "led", 4, 2)
            ctx.expect(1, equal(1))

        text = report(self._results(rig, TestCase("test_io", body)), suite_name="demo")
        assert '"Led led": [4, 2]' in text

    def test_bytes_args_read_as_the_int_arrays_the_wire_carried(self, rig):
        def body(ctx):
            slave = ctx.new_on_double("SpiSlave", "slave")
            spi = ctx.new_on_dut("SpiMaster", "spi")
            ctx.call(slave, "preload_tx", b"\x01\x02")
            echoed = ctx.call(spi, "write_read", bytearray(b"\x0a\x0b"))
            ctx.expect(echoed, equal([1, 2]))

        results = self._results(rig, TestCase("test_bytes", body))
        assert results[0].verdict == PASS
        text = report(results, suite_name="demo")
        assert '"slave.preload_tx": [[1, 2]], "spi.write_read": [[10, 11]]' in text
        # The record itself holds the wire form, so the machine report needs no hook.
        doc = json.loads(json.dumps(suite_report_dict("demo", results)))
        inputs = text.split("inputs=", 1)[1].split("  outputs=", 1)[0]
        assert doc["results"][0]["inputs"] == json.loads(inputs)

    def test_bytes_at_any_depth_are_recorded_as_int_arrays(self, sched):
        nested = [b"\x01", (bytearray(b"\x02"), 3)], {"k": [b"\x04"], "n": None}, "s"
        plain = [[1, 2], (3, ["x"])], {"k": [4]}, {"n": None}

        def body(ctx):
            sink = ctx.new_on_dut("Sink", "sink")
            ctx.call(sink, "take", *nested)
            ctx.call(sink, "take", *plain)

        (result,) = run_suite(make_suite(TestCase("test_nested", body)), sink_session(sched))
        assert result.verdict == PASS
        assert result.inputs["sink.take"] == [[[1], [[2], 3]], {"k": [[4]], "n": None}, "s"]
        # no bytes: the args in new lists and dicts, a tuple as a list
        assert result.inputs["sink.take#2"] == [[[1, 2], [3, ["x"]]], {"k": [4]}, {"n": None}]

    def test_debug_report_interleaves_the_transport_traffic(self, rig):
        def body(ctx):
            ctx.new_on_double("Led", "led", 4, 2)

        self._results(rig, TestCase("test_dbg", body))
        text = rig.session.log.render()
        assert "NEW Led led [4,2]" in text
        assert " dut " in text and " double " in text

    def test_the_log_renders_a_missing_stamp_as_dashes(self):
        log = TransportLog()
        log.record("dut", "send", "PING", None)
        log.record("double", "recv", "OK null", 42)
        assert log.render() == "[--------ms] dut    > PING\n[      42ms] double < OK null"

    def test_json_schema_shape(self, rig):
        results = self._results(rig, TestCase("test_a", lambda ctx: None))
        doc = json.loads(json.dumps(suite_report_dict("demo", results), indent=2))
        assert set(doc) == {"suite", "results", "summary"}
        assert doc["suite"] == "demo"
        assert set(doc["results"][0]) == {"name", "verdict", "inputs", "outputs", "message", "sim_ms"}
        assert doc["summary"] == {"passed": 1, "failed": 0, "errors": 0}

    def test_every_kind_of_row_has_the_result_fields_as_its_keys(self, rig):
        """A row is its TestResult as a dict, whether a case passed, failed
        or errored, or setup or the RESET before a case failed; and no two
        rows share an inputs or outputs dict."""

        def broken(ctx):
            raise ValueError("no such pin map")

        suite = make_suite(
            TestCase("test_pass", lambda ctx: ctx.expect(1, equal(1))),
            TestCase("test_fail", lambda ctx: ctx.expect(2, equal(1))),
            TestCase("test_error", broken),
            TestCase("test_close", lambda ctx: rig.session.dut.endpoint.close()),
            TestCase("test_after_close", lambda ctx: None),
        )
        results = run_suite(suite, rig.session) + run_suite(suite, rig.session)
        assert [(r.name, r.verdict) for r in results] == [
            ("test_pass", PASS),
            ("test_fail", FAIL),
            ("test_error", ERROR),
            ("test_close", PASS),
            ("test_after_close", ERROR),
            ("setup[demo]", ERROR),
        ]
        rows = suite_report_dict("demo", results)["results"]
        assert [list(row) for row in rows] == [list(TestResult._fields)] * len(results)
        dicts = {id(d) for r in results for d in (r.inputs, r.outputs)}
        assert len(dicts) == 2 * len(results)

    def test_summarize_counts(self):
        results = [
            TestResult("test_a", PASS, {}, {}),
            TestResult("test_b", FAIL, {}, {}),
            TestResult("test_c", ERROR, {}, {}),
            TestResult("test_d", PASS, {}, {}),
        ]
        assert summarize(results) == {"passed": 2, "failed": 1, "errors": 1}
        assert suite_report_dict("s", results)["summary"]["passed"] == 2
