"""CLI flags, exit codes, and the machine-readable output."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

import double_harness
from double_harness.cli import main
from double_harness.suites import SHIPPED_FAULTS

SCHEMA_KEYS = {"suite", "results", "summary"}
RESULT_KEYS = {"name", "verdict", "inputs", "outputs", "message", "sim_ms"}


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


class TestTransportSelection:
    """The CLI runs the virtual rig only, on its fixed simulated-time budget;
    there is no flag to pick a transport or a budget."""

    def test_unknown_transport_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "--transport", "carrier_pigeon")
        assert code == 2

    def test_timeout_ms_is_an_unknown_flag(self, capsys):
        """A budget flag could only hide the slow BLE bring-up or fail a clean build."""
        code, _, err = run_cli(capsys, "--fault", "ble_init_delay_ms", "--timeout-ms", "7000")
        assert code == 2
        assert "unrecognized arguments: --timeout-ms 7000" in err


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

    def test_a_repeated_suite_runs_once(self, capsys):
        _, out, _ = run_cli(capsys, "--format", "json", "--suite", "blink", "--suite", "blink")
        assert [d["suite"] for d in json.loads(out)] == ["blink"]

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


# sha256 of stdout, for each output mode and armed fault. Any change to the
# report bytes shows up here.
_MODES = {
    "json": ["--format", "json"],
    "human": ["--format", "human"],
    "debug": ["--debug"],
    "json+debug": ["--format", "json", "--debug"],
}
_REPORT_SHA256 = {
    ("json", None): "b7cb65cbbaf3651bca6b68ac0ca3fbfbf3f44792371026778ef709c77cd5e49b",
    ("json", "ble_init_delay_ms"): "7317c3cc49c24b1e06912fbddfd39a8fc8e714ed52f01662af2b7c5476e260fa",
    ("json", "drop_first_byte"): "64b8c8715aef32a4d11339be97c43dd4051289a2aff921f4056f617808bacf8a",
    ("json", "omit_checksum"): "407bfe4a0ad90f76c74954dd0f89d66c06636a20ddd99a574c9260cebc6d5742",
    ("json", "period_skew_ms"): "cba7d2d265e0b9cf9df15c89045c21e75726ad0e6dcc886d19b0bd603f885fb7",
    ("json", "swap_bcd_nibbles"): "54682fdbea33dfceb06a7a12890c4864a71c254e9e0f5e4ef3898c38d35cf909",
    ("human", None): "48b3f2c84bd9d63e426eea24e7b95c74eb0645982eacc95b51022042fb8cf638",
    ("human", "ble_init_delay_ms"): "ae5afcbd64e29f45c71a02834aacb03beafa38cd87128f9be1cab6ae0dcf03ce",
    ("human", "drop_first_byte"): "2cb702ab39be9fd6d46ac95237203ec9e1b70b55ae5de4303980caeec3fb4597",
    ("human", "omit_checksum"): "de6855ae65fd950c64f1e616c48cce69d07d66229ef8b0630024773165743b92",
    ("human", "period_skew_ms"): "5826c0548c0ef07db129f8397b46c7cb9d8e83bad1429e17f165fcc602ad3d60",
    ("human", "swap_bcd_nibbles"): "72f52c6479526df23b20c3299093b0332edbd0858de98af11de473b72904221c",
    ("debug", None): "4189f8525eba723efc1e72f5a6e80719e6c50a35723151a19f8e85f151817177",
    ("debug", "ble_init_delay_ms"): "d34a42a3e7b11732b5a01ac7c2ee03347b2e1e333eb2a1395193231e02d297f2",
    ("debug", "drop_first_byte"): "cd8409d3f674c64efdf50347539cb410c8a05ca77f69f9532b5edb9e34e82835",
    ("debug", "omit_checksum"): "f4ababb355a648cd60bc08973d3ccbe20fddcb897391b76dc7f8a2fac33c836c",
    ("debug", "period_skew_ms"): "9dfc456c8b65f69178c1e44fd1bf86daeb2f757b0c0929d56e83d2d25b8cf26a",
    ("debug", "swap_bcd_nibbles"): "aeda05fcc68a63c519319652cda5bce3053cd03423950481740e95c132db4178",
}


@pytest.mark.parametrize("fault", [None, *sorted(SHIPPED_FAULTS)])
@pytest.mark.parametrize("mode", _MODES)
def test_report_bytes_are_unchanged(capsys, mode, fault):
    argv = _MODES[mode] + ([] if fault is None else ["--fault", fault])
    code, out, _ = run_cli(capsys, *argv)
    assert code == (0 if fault is None else 1)
    digest = hashlib.sha256(out.encode()).hexdigest()
    # --debug appends the transport log to the human format only.
    recorded = "json" if mode == "json+debug" else mode
    assert digest == _REPORT_SHA256[recorded, fault]


# Snapshot sys.modules first, so that modules a site hook preloads do not count.
_IMPORT_PROBE = """
import contextlib, io, json, sys
before = set(sys.modules)
from double_harness.cli import main
from double_harness.suites import SHIPPED_FAULTS
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
