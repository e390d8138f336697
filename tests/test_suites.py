"""Shipped suites end to end on the virtual rig, green and under fault."""

import pytest

from double_harness import suites
from double_harness.harness import ERROR, PASS, Suite, TestCase, is_true, run_suite, summarize
from double_harness.suites import (
    DOUBLE_LED_PIN,
    DUT_LED_PIN,
    SHIPPED_FAULTS,
    SUITE_ORDER,
    SUITES,
    build_virtual_rig,
)
from double_harness.transport import Command, send_command


def run_one(name, fault=None):
    rig = build_virtual_rig(fault=fault)
    try:
        results = run_suite(SUITES[name], rig.session)
    finally:
        rig.close()
    return results


class TestBaselineGreen:
    @pytest.mark.parametrize("name", SUITE_ORDER)
    def test_suite_is_fully_green_without_faults(self, name):
        results = run_one(name)
        assert [r.verdict for r in results] == [PASS] * len(results), [
            (r.name, r.verdict, r.message) for r in results
        ]

    def test_expected_case_rosters(self):
        rosters = {name: [c.name for c in SUITES[name].cases] for name in SUITE_ORDER}
        assert rosters["blink"] == ["test_blink_blocking", "test_blink_isr"]
        assert rosters["rtc"] == [
            "test_set_date_time_static",
            "test_set_date_time_dynamic",
            "test_get_date_time",
            "test_set_get_date_time",
        ]
        assert rosters["gps"] == [
            "test_send_command_configuration",
            "test_send_command_update_rate",
            "test_get_latitude",
        ]
        assert rosters["spi"] == [
            "test_sending_data",
            "test_reading_registers_without_indicating_address",
        ]
        assert rosters["ble"] == ["test_connection", "test_read", "test_notify"]


class TestBlinkSuite:
    def test_both_modes_measure_the_configured_period(self):
        results = run_one("blink")
        averages = [r.outputs["led.get_avg_blink_ms"] for r in results]
        assert averages == [2000.0, 2000.0]

    def test_blocking_and_isr_agree_exactly(self):
        results = run_one("blink")
        blocking, isr = results
        assert blocking.outputs["led.get_avg_blink_ms"] == isr.outputs["led.get_avg_blink_ms"]


class TestRtcSuite:
    def test_dynamic_case_crosses_midnight_and_the_month_boundary(self):
        results = {r.name: r for r in run_one("rtc")}
        after = results["test_set_date_time_dynamic"].outputs["rtc.read_registers"]
        assert after == [0x00, 0x00, 0x00, 0x01, 0x01, 0x03, 0x21]

    def test_autotest_round_trips_a_leap_day(self):
        results = {r.name: r for r in run_one("rtc")}
        assert results["test_set_get_date_time"].outputs["rtc_drv.get_datetime"] == [
            2024, 2, 29, 6, 7, 8,
        ]


class TestGpsSuite:
    def test_update_rate_case_counts_five_sentences(self):
        results = {r.name: r for r in run_one("gps")}
        assert results["test_send_command_update_rate"].outputs["gps.get_emit_count"] == 5

    def test_latitude_case_decodes_the_classic_fix(self):
        results = {r.name: r for r in run_one("gps")}
        lat = results["test_get_latitude"].outputs["gps_drv.get_latitude"]
        assert abs(lat - 48.1173) < 1e-9


class TestFaultSensitivity:
    @pytest.mark.parametrize("fault", sorted(SHIPPED_FAULTS))
    def test_fault_flips_its_designated_cases_and_nothing_else(self, fault):
        spec = SHIPPED_FAULTS[fault]
        for name in SUITE_ORDER:
            results = run_one(name, fault=fault)
            for result in results:
                expected_flip = name == spec.suite and result.name in spec.designated
                if expected_flip:
                    assert result.verdict != PASS, (fault, result.name)
                else:
                    assert result.verdict == PASS, (fault, result.name, result.message)

    def test_ble_connection_times_out_as_a_transport_error(self):
        results = {r.name: r for r in run_one("ble", fault="ble_init_delay_ms")}
        connection = results["test_connection"]
        assert connection.verdict == ERROR
        assert connection.message.startswith("TIMEOUT")
        assert results["test_read"].verdict == PASS
        assert results["test_notify"].verdict == PASS

    def test_a_per_command_budget_outlasts_the_slow_ble_bringup(self):
        """The faulted bring-up takes 6000 ms: past the rig's 5000 ms budget,
        within a 7000 ms budget that one gather step asks for."""

        def connection(**budget):
            def body(ctx):
                sensor = ctx.new_on_dut("BleTempSensor", "sensor")
                phone = ctx.new_on_double("BleCentral", "phone")
                ctx.call(sensor, "start")
                connected = ctx.gather(
                    phone, "scan_connect", "TempSensor", suites.BLE_SCAN_PATIENCE_MS, **budget
                )
                ctx.expect(connected, is_true())

            return body

        ble = SUITES["ble"]
        suite = Suite(
            name="ble",
            cases=(
                TestCase("test_connection_within_7000_ms", connection(timeout_ms=7000)),
                TestCase("test_connection", connection()),
            ),
            dut_code=ble.dut_code,
            double_code=ble.double_code,
        )
        rig = build_virtual_rig(fault="ble_init_delay_ms")
        try:
            overridden, default = run_suite(suite, rig.session)
        finally:
            rig.close()
        assert overridden.verdict == PASS, overridden.message
        assert default.verdict == ERROR
        assert default.message.startswith("TIMEOUT")

    def test_period_skew_reads_back_two_ms_long_in_both_modes(self):
        results = run_one("blink", fault="period_skew_ms")
        assert [r.outputs["led.get_avg_blink_ms"] for r in results] == [2002.0, 2002.0]

    def test_unknown_fault_name_rejected(self, monkeypatch):
        def no_build():
            raise AssertionError("a rig was started for an unknown fault")

        monkeypatch.setattr(suites, "Scheduler", no_build)
        with pytest.raises(KeyError) as excinfo:
            build_virtual_rig("wobbly_flux")
        assert excinfo.value.args == (f"unknown fault 'wobbly_flux'; known: {sorted(SHIPPED_FAULTS)}",)


class TestSuiteSequencing:
    def test_all_suites_share_one_rig_without_interference(self):
        rig = build_virtual_rig()
        try:
            for name in SUITE_ORDER:
                results = run_suite(SUITES[name], rig.session)
                counts = summarize(results)
                assert counts["failed"] == 0 and counts["errors"] == 0, (name, [
                    (r.name, r.message) for r in results
                ])
        finally:
            rig.close()

    def test_running_a_suite_twice_gives_identical_verdicts_and_outputs(self):
        rig = build_virtual_rig()
        try:
            first = run_suite(SUITES["gps"], rig.session)
            second = run_suite(SUITES["gps"], rig.session)
        finally:
            rig.close()
        assert [(r.name, r.verdict, r.outputs) for r in first] == [
            (r.name, r.verdict, r.outputs) for r in second
        ]


# The methods execute dispatches on each class the rig registers, by device:
# all that a CALL can reach. Bus and scheduler callbacks stay private and
# `close` is not served, so a new public method is new wire API, and this pin
# names it.
WIRE_API = {
    "dut": {
        "Blinker": ["blink"],
        "RtcDriver": ["get_datetime", "set_datetime"],
        "GpsDriver": ["get_latitude", "get_parse_errors", "send_command"],
        "SpiMaster": ["read", "write", "write_read"],
        "BleTempSensor": ["notify", "set_temperature", "start"],
    },
    "double": {
        "Led": ["get_avg_blink_ms", "start_acquisition"],
        "Rtc": ["advance_seconds", "load_registers", "read_registers", "set_mode"],
        "Gps": ["get_emit_count", "get_enabled", "get_reject_count", "get_update_period", "set_fix"],
        "SpiSlave": ["get_rx", "preload_tx"],
        "BleCentral": ["await_notify", "disconnect", "read", "scan_connect"],
    },
}


def test_each_registered_class_offers_only_its_pinned_wire_api(rig):
    """Each class made by NEW on a fresh rig, then every public callable of
    the instance CALLed with more args than any of them takes: a method that
    execute dispatches answers BAD_ARGS before its body runs, and one it
    does not serve answers NO_METHOD."""
    args = {"Blinker": (DUT_LED_PIN, 10, 1), "Led": (DOUBLE_LED_PIN, 2)}
    too_many = (0,) * 9
    seen = {}
    for link in (rig.session.dut, rig.session.double):
        seen[link.label] = api = {}
        for cls in link.registry.classes:
            assert send_command(link.endpoint, Command("NEW", "x", cls, args.get(cls, ()))).ok
            obj = link.registry.objects["x"]
            public = sorted(name for name in dir(obj) if not name.startswith("_") and callable(getattr(obj, name)))
            codes = {name: send_command(link.endpoint, Command("CALL", "x", name, too_many)).code for name in public}
            assert set(codes.values()) <= {"BAD_ARGS", "NO_METHOD"}, codes
            api[cls] = [name for name in public if codes[name] == "BAD_ARGS"]
    assert seen == WIRE_API
