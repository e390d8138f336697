"""CLI flags, exit codes, and the machine-readable output."""

import json
import os
import subprocess
import sys

import pytest

import double_harness
from double_harness.cli import main

SCHEMA_KEYS = {"suite", "results", "summary"}
RESULT_KEYS = {"name", "verdict", "inputs", "outputs", "message", "sim_ms", "wall_ms"}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_green_run_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "--suite", "blink")
        assert code == 0
        assert "2 passed, 0 failed, 0 errors" in out

    def test_fault_run_exits_one_and_names_the_case(self, capsys):
        code, out, _ = run_cli(capsys, "--suite", "spi", "--fault", "drop_first_byte")
        assert code == 1
        assert "test_reading_registers_without_indicating_address" in out
        assert "[FAIL" in out

    def test_unknown_suite_is_a_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "--suite", "nope")
        assert code == 2

    def test_unknown_fault_is_a_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "--fault", "wobbly_flux")
        assert code == 2

    def test_bad_timeout_is_a_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "--timeout-ms", "0")
        assert code == 2
        assert "timeout" in err.lower()


class TestTransportSelection:
    def test_serial_without_path_is_a_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "--transport", "serial:")
        assert code == 2
        assert "path" in err

    def test_serial_has_no_bundled_port_driver(self, capsys):
        code, _, err = run_cli(capsys, "--transport", "serial:/dev/ttyUSB0")
        assert code == 2
        assert "SerialPortLike" in err

    def test_fault_refused_on_serial_transport(self, capsys):
        code, _, err = run_cli(
            capsys, "--transport", "serial:/dev/ttyUSB0", "--fault", "drop_first_byte"
        )
        assert code == 2
        assert "virtual" in err

    def test_unknown_transport_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "--transport", "carrier_pigeon")
        assert code == 2


class TestJsonOutput:
    def test_json_is_an_array_of_suite_reports(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json")
        assert code == 0
        docs = json.loads(out)
        assert [d["suite"] for d in docs] == ["blink", "rtc", "gps", "spi", "ble"]
        for doc in docs:
            assert set(doc) == SCHEMA_KEYS
            for result in doc["results"]:
                assert set(result) == RESULT_KEYS

    @pytest.mark.parametrize(
        "argv",
        [
            ["--suite", "blink"],
            ["--suite", "blink", "--suite", "ble"],
            ["--suite", "all", "--debug"],
            ["--suite", "rtc", "--fault", "swap_bcd_nibbles"],
            ["--suite", "spi", "--timeout-ms", "9000"],
        ],
    )
    def test_json_parses_as_the_schema_for_every_flag_combination(self, capsys, argv):
        code, out, _ = run_cli(capsys, "--format", "json", *argv)
        docs = json.loads(out)
        assert isinstance(docs, list) and docs
        for doc in docs:
            assert set(doc) == SCHEMA_KEYS
            for result in doc["results"]:
                assert set(result) == RESULT_KEYS

    def test_exit_code_agrees_with_the_json_summary(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "--suite", "gps")
        summaries = [d["summary"] for d in json.loads(out)]
        all_green = all(s["failed"] == 0 and s["errors"] == 0 for s in summaries)
        assert (code == 0) == all_green

        code, out, _ = run_cli(
            capsys, "--format", "json", "--suite", "gps", "--fault", "omit_checksum"
        )
        summaries = [d["summary"] for d in json.loads(out)]
        assert code == 1
        assert any(s["failed"] or s["errors"] for s in summaries)


class TestSelection:
    def test_repeated_suite_flags_run_in_given_order(self, capsys):
        _, out, _ = run_cli(capsys, "--format", "json", "--suite", "ble", "--suite", "blink")
        assert [d["suite"] for d in json.loads(out)] == ["ble", "blink"]

    def test_all_expands_once_and_dedupes(self, capsys):
        _, out, _ = run_cli(capsys, "--format", "json", "--suite", "blink", "--suite", "all")
        assert [d["suite"] for d in json.loads(out)] == ["blink", "rtc", "gps", "spi", "ble"]

    def test_debug_appends_the_transport_log(self, capsys):
        _, out, _ = run_cli(capsys, "--suite", "blink", "--debug")
        assert "--- transport log ---" in out
        assert "CALL blinker.blink" in out

    def test_debug_of_the_ble_failure_shows_the_unanswered_command_last(self, capsys):
        _, out, _ = run_cli(capsys, "--suite", "ble", "--fault", "ble_init_delay_ms", "--debug")
        log_lines = out.split("--- transport log ---")[1].strip().splitlines()
        scan_index = next(
            i for i, line in enumerate(log_lines) if "scan_connect" in line and ">" in line
        )
        # No response for that command: the next double-device line is sent, not received.
        later_double = [l for l in log_lines[scan_index + 1 :] if " double " in l]
        assert " > " in later_double[0] and " < " not in later_double[0]


# Snapshot sys.modules first, so that modules a site hook preloads do not count.
_IMPORT_PROBE = """
import contextlib, io, json, sys
before = set(sys.modules)
from double_harness.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    main(["--format", "json"])
print(json.dumps(sorted({"dataclasses", "inspect"} & (set(sys.modules) - before))))
"""


def test_a_cli_run_imports_neither_dataclasses_nor_inspect():
    src = os.path.dirname(os.path.dirname(double_harness.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
