"""Harness semantics: matchers, suite rules, the two-phase run, reporting."""

import json
import random

import pytest

from double_harness.harness import (
    ERROR,
    FAIL,
    PASS,
    CodeManifest,
    RunOptions,
    Suite,
    SuiteDefinitionError,
    TestCase,
    close_to,
    equal,
    is_true,
    report,
    run_suite,
    suite_report_dict,
    summarize,
    within,
)
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

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            close_to(0, -1)

    def test_failure_text_names_expected_actual_tolerance(self):
        text = close_to(2000, 1).failure_text(2001.5)
        assert "2000" in text and "2001.5" in text and "1" in text


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

    def test_fail_fast_stops_at_the_first_failed_expect(self, rig):
        seen = []

        def body(ctx):
            seen.append("first")
            ctx.expect(1, equal(2))
            seen.append("second")

        results = run_suite(
            make_suite(TestCase("test_ff", body)),
            rig.session,
            RunOptions(fail_fast=True),
        )
        assert results[0].verdict == FAIL
        assert seen == ["first"]

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

    def test_sim_duration_is_tracked_per_case(self, rig):
        def body(ctx):
            ctx.sleep(1234)

        result = run_suite(make_suite(TestCase("test_sleep", body)), rig.session)[0]
        assert result.sim_ms == 1234


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

    def test_every_command_got_exactly_one_response_in_order(self, rig):
        def body(ctx):
            led = ctx.new_on_double("Led", "led", 4, 2)
            ctx.call(led, "start_acquisition")

        run_suite(make_suite(TestCase("test_x", body)), rig.session)
        for device in ("dut", "double"):
            entries = [e for e in rig.session.log.entries if e[1] == device]
            directions = [e[2] for e in entries]
            assert directions == ["send", "recv"] * (len(directions) // 2)


class TestVerdictSoundness:
    def test_replaying_recorded_checks_reproduces_the_verdict(self, rig):
        def mixed(ctx):
            ctx.expect(1.0, close_to(1.0, 0.5))
            ctx.expect(9.0, close_to(1.0, 0.5))

        def clean(ctx):
            ctx.expect(True, is_true())

        suite = make_suite(TestCase("test_mixed", mixed), TestCase("test_clean", clean))
        for result in run_suite(suite, rig.session):
            replayed = all(c.matcher.check(c.actual) for c in result.checks)
            assert replayed == (result.verdict == PASS)
            assert [c.matcher.check(c.actual) for c in result.checks] == [
                c.passed for c in result.checks
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
        assert "0 passed, 0 failed, 0 errors" in report([])

    def test_human_line_carries_inputs_and_outputs(self, rig):
        def body(ctx):
            led = ctx.new_on_double("Led", "led", 4, 2)
            ctx.expect(1, equal(1))

        text = report(self._results(rig, TestCase("test_io", body)), suite_name="demo")
        assert '"Led led": [4, 2]' in text

    def test_debug_report_interleaves_the_transport_traffic(self, rig):
        def body(ctx):
            ctx.new_on_double("Led", "led", 4, 2)

        self._results(rig, TestCase("test_dbg", body))
        text = rig.session.log.render()
        assert "NEW Led led [4,2]" in text
        assert " dut " in text and " double " in text

    def test_json_schema_shape(self, rig):
        results = self._results(rig, TestCase("test_a", lambda ctx: None))
        doc = json.loads(report(results, format="json", suite_name="demo"))
        assert set(doc) == {"suite", "results", "summary"}
        assert doc["suite"] == "demo"
        assert set(doc["results"][0]) == {
            "name", "verdict", "inputs", "outputs", "message", "sim_ms", "wall_ms",
        }
        assert doc["summary"] == {"passed": 1, "failed": 0, "errors": 0}

    def test_summarize_counts(self):
        from double_harness.harness import TestResult

        results = [
            TestResult("test_a", PASS),
            TestResult("test_b", FAIL),
            TestResult("test_c", ERROR),
            TestResult("test_d", PASS),
        ]
        assert summarize(results) == {"passed": 2, "failed": 1, "errors": 1}
        assert suite_report_dict("s", results)["summary"]["passed"] == 2
