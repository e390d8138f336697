"""Acceptance gate: one test per shipped criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines alongside pytest's own output.
"""

import datetime
import json
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from decimal import Decimal
from pathlib import Path

import pytest

from double_harness import dut
from double_harness.bus import I2cBus, SpiBus, UartLink
from double_harness.doubles import (
    GpsDouble,
    RtcDouble,
    SpiSlaveDouble,
    split_sentence,
    wrap_sentence,
)
from double_harness.dut import GpsDriver, SpiMaster
from double_harness.harness import ERROR, PASS, run_suite
from double_harness.simcore import Scheduler
from double_harness.suites import SHIPPED_FAULTS, SUITE_ORDER, SUITES, build_virtual_rig

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number:2d}: {title}")
        raise
    print(f"[PASS] criterion {number:2d}: {title}")


def run_shipped(name, fault=None):
    rig = build_virtual_rig(fault=fault)
    try:
        return run_suite(SUITES[name], rig.session)
    finally:
        rig.close()


# ---------------------------------------------------------------------------


def test_criterion_01_blink_tolerance_reproduction():
    with criterion(1, "blink suite holds 2000 ms within 1 ms; +2 ms skew fails"):
        started = time.perf_counter()
        results = run_shipped("blink")
        elapsed = time.perf_counter() - started
        assert [r.verdict for r in results] == [PASS, PASS]
        for result in results:
            average = result.outputs["led.get_avg_blink_ms"]
            assert abs(average - 2000.0) <= 1.0
        assert elapsed < 1.0, f"blink suite took {elapsed:.3f} s of wall clock"

        assert dut.PERIOD_SKEW_MS == 2
        skewed = run_shipped("blink", fault="period_skew_ms")
        assert all(r.verdict != PASS for r in skewed)
        for result in skewed:
            average = result.outputs["led.get_avg_blink_ms"]
            assert abs(average - 2000.0) > 1.0  # outside the 1999..2001 window


def test_criterion_02_blocking_and_isr_mode_equivalence():
    with criterion(2, "blocking and isr blink measurements are exactly equal"):
        results = run_shipped("blink")
        blocking, isr = (r.outputs["led.get_avg_blink_ms"] for r in results)
        assert blocking == isr  # exact equality under simulation


# ---------------------------------------------------------------------------

N_RTC_TRIALS = 1000
MAX_DELTA_S = 1_000_000


def _oracle_decode(regs) -> datetime.datetime:
    def dec(b):
        return (b >> 4) * 10 + (b & 0x0F)

    return datetime.datetime(
        2000 + dec(regs[6]), dec(regs[5]), dec(regs[4]), dec(regs[2]), dec(regs[1]), dec(regs[0])
    )


def _oracle_encode(dt: datetime.datetime, weekday=1) -> list[int]:
    def enc(v):
        return ((v // 10) << 4) | (v % 10)

    return [
        enc(dt.second), enc(dt.minute), enc(dt.hour), enc(weekday),
        enc(dt.day), enc(dt.month), enc(dt.year - 2000),
    ]


def _random_datetime(rng) -> datetime.datetime:
    year = rng.randrange(2000, 2100)
    month = rng.randrange(1, 13)
    if month == 12:
        month_len = 31
    else:
        month_len = (datetime.date(year, month + 1, 1) - datetime.date(year, month, 1)).days
    return datetime.datetime(
        year, month, rng.randrange(1, month_len + 1),
        rng.randrange(24), rng.randrange(60), rng.randrange(60),
    )


def _collect_nibble_violations(bytes_seen) -> list[int]:
    return [b for b in bytes_seen if (b >> 4) > 9 or (b & 0x0F) > 9]


_RTC_OBSERVATIONS: list[int] = []


def _run_rtc_trials() -> list[int]:
    """All-trial register bytes, verified against the stdlib calendar oracle."""
    if _RTC_OBSERVATIONS:
        return _RTC_OBSERVATIONS
    rng = random.Random(123)
    observed = _RTC_OBSERVATIONS
    rtc = RtcDouble(I2cBus(), Scheduler())

    # Explicit boundary scenarios, driven through real dynamic-mode ticks.
    for start, delta in (
        (datetime.datetime(2021, 2, 28, 23, 59, 30), 30),       # non-leap Feb
        (datetime.datetime(2024, 2, 28, 23, 59, 59), 1),        # into Feb 29
        (datetime.datetime(2024, 2, 29, 23, 59, 0), 60),        # out of Feb 29
        (datetime.datetime(2035, 12, 31, 23, 59, 50), 10),      # year boundary
        (datetime.datetime(2099, 12, 31, 23, 59, 59),  0),      # top of range holds
    ):
        tick_sched = Scheduler()
        ticked = RtcDouble(I2cBus(), tick_sched, mode="dynamic")
        ticked.load_registers(_oracle_encode(start))
        tick_sched.advance_by(delta * 1000)
        expected = start + datetime.timedelta(seconds=delta)
        assert _oracle_decode(ticked.read_registers()) == expected
        observed.extend(ticked.read_registers())
        ticked.close()

    # A sample of random deltas through the scheduler proves the 1 Hz tick
    # path and the bulk register-advance path are the same function...
    for _ in range(25):
        start = _random_datetime(rng)
        delta = rng.randrange(0, 7200)
        image = _oracle_encode(start)
        tick_sched = Scheduler()
        ticked = RtcDouble(I2cBus(), tick_sched, mode="dynamic")
        ticked.load_registers(image)
        tick_sched.advance_by(delta * 1000)
        rtc.load_registers(image)
        rtc.advance_seconds(delta)
        assert ticked.read_registers() == rtc.read_registers()
        assert _oracle_decode(rtc.read_registers()) == start + datetime.timedelta(
            seconds=delta
        )
        observed.extend(rtc.read_registers())
        ticked.close()

    # ...so the full-scale trials run that same advance at bulk speed.
    checked = 0
    while checked < N_RTC_TRIALS:
        start = _random_datetime(rng)
        delta = rng.randrange(0, MAX_DELTA_S + 1)
        if (start + datetime.timedelta(seconds=delta)).year > 2099:
            continue  # the register file cannot express the result
        rtc.load_registers(_oracle_encode(start))
        rtc.advance_seconds(delta)
        regs = rtc.read_registers()
        assert _oracle_decode(regs) == start + datetime.timedelta(seconds=delta)
        observed.extend(regs)
        checked += 1
    assert checked == N_RTC_TRIALS
    return observed


def test_criterion_03_rtc_civil_calendar_oracle_equivalence():
    with criterion(3, "1000 random datetimes advance like the stdlib calendar"):
        assert _run_rtc_trials()


def test_criterion_04_bcd_soundness():
    with criterion(4, "BCD round-trips 0..99 and all observed nibbles stay decimal"):
        from double_harness.doubles import _bcd_decode, _bcd_encode

        for value in range(100):
            encoded = _bcd_encode(value)
            assert (encoded >> 4) <= 9 and (encoded & 0x0F) <= 9
            assert _bcd_decode(encoded) == value
        with pytest.raises(ValueError):
            _bcd_encode(100)

        observed = _run_rtc_trials()
        assert observed, "the calendar trials produced no register observations"
        assert _collect_nibble_violations(observed) == []


# ---------------------------------------------------------------------------


def test_criterion_05_nmea_checksum_and_conversion():
    with criterion(5, "emitted NMEA validates; any payload flip rejects; ddmm oracle"):
        sched = Scheduler()
        link = UartLink(sched)
        gps = GpsDouble(link.b, sched)
        driver = GpsDriver(link.a, sched)
        driver.send_command("PDBL,SEL,RMC,1")
        driver.send_command("PDBL,RATE,400")
        sched.advance_by(4000)
        sentences = []
        while b"\n" in link.a.pending():
            sentences.append(link.a.recv_line(0).decode("ascii").strip())
        assert len(sentences) == 20

        for sentence in sentences:
            body = split_sentence(sentence)
            assert body is not None, f"validator rejected emitted {sentence!r}"
            for i in range(1, sentence.rindex("*")):
                flipped = sentence[:i] + chr(ord(sentence[i]) ^ 0x01) + sentence[i + 1 :]
                assert split_sentence(flipped) != body

        latitude = driver.get_latitude(2000)
        oracle = float(Decimal("48") + Decimal("7.038") / Decimal("60"))
        assert abs(latitude - oracle) <= 1e-9
        assert abs(latitude - 48.1173) <= 1e-9


def test_criterion_06_gps_update_rate_count():
    with criterion(6, "1000 ms update rate gives exactly 5 sentences in 5000 ms"):
        results = {r.name: r for r in run_shipped("gps")}
        update = results["test_send_command_update_rate"]
        assert update.verdict == PASS
        assert update.outputs["gps.get_emit_count"] == 5

        # floor((W - t0) / P) + 1 with first emission at t0 = P
        sched = Scheduler()
        link = UartLink(sched)
        gps = GpsDouble(link.b, sched)
        GpsDriver(link.a, sched).send_command("PDBL,RATE,1000")
        sched.advance_by(5000)
        assert gps.get_emit_count() == (5000 - 1000) // 1000 + 1 == 5


# ---------------------------------------------------------------------------

N_SPI_SEQUENCES = 1000


def test_criterion_07_spi_conservation_and_pad_rule():
    with criterion(7, "1000 random SPI sequences conserve bytes; reads pad 0x00"):
        rng = random.Random(777)
        for _ in range(N_SPI_SEQUENCES):
            sched = Scheduler()
            spi = SpiBus(sched)
            slave = SpiSlaveDouble(spi)
            master = SpiMaster(spi)
            expected_rx = []
            preload = [rng.randrange(256) for _ in range(rng.randrange(0, 6))]
            slave.preload_tx(preload)
            served = list(preload)
            for _ in range(rng.randrange(1, 6)):
                if rng.random() < 0.5:
                    chunk = [rng.randrange(256) for _ in range(rng.randrange(0, 5))]
                    master.write(chunk)
                    del served[: len(chunk)]  # full duplex: writes clock the FIFO out too
                    expected_rx.extend(chunk)
                else:
                    n = rng.randrange(0, 5)
                    got = master.read(n)
                    expect = served[:n] + [0] * max(0, n - len(served))
                    del served[:n]
                    assert got == expect  # beyond the preload: 0x00 padding
                    expected_rx.extend([0] * n)
            assert slave.get_rx() == expected_rx

        # Armed fault: exactly the read case fails, the send case stays green.
        faulted = {r.name: r for r in run_shipped("spi", fault="drop_first_byte")}
        assert faulted["test_sending_data"].verdict == PASS
        assert faulted["test_reading_registers_without_indicating_address"].verdict != PASS


def test_criterion_08_ble_timeout_reproduction():
    with criterion(8, "6000 ms bring-up vs 5000 ms budget: ERROR(TIMEOUT) on connection"):
        assert dut.SLOW_BRINGUP_MS == 6000
        results = {r.name: r for r in run_shipped("ble", fault="ble_init_delay_ms")}
        connection = results["test_connection"]
        assert connection.verdict == ERROR
        assert connection.message.startswith("TIMEOUT")
        assert results["test_read"].verdict == PASS  # runs with delay 0
        assert results["test_notify"].verdict == PASS  # runs with delay 0


def test_criterion_09_harness_sensitivity_and_specificity():
    with criterion(9, "each fault flips exactly its designated cases, rest stay green"):
        for name in SUITE_ORDER:  # baseline first
            assert all(r.verdict == PASS for r in run_shipped(name))
        for fault, spec in sorted(SHIPPED_FAULTS.items()):
            flipped = set()
            for name in SUITE_ORDER:
                for result in run_shipped(name, fault=fault):
                    if result.verdict != PASS:
                        flipped.add((name, result.name))
            assert flipped == {(spec.suite, case) for case in spec.designated}, fault


# ---------------------------------------------------------------------------


def _strip_wall(doc):
    for suite in doc:
        for result in suite["results"]:
            result.pop("wall_ms", None)
    return doc


def test_criterion_10_byte_identical_json_runs():
    with criterion(10, "two CLI runs differ only in wall-clock duration fields"):
        argv = [sys.executable, "-m", "double_harness", "--suite", "all", "--format", "json"]
        outputs = []
        for hash_seed in ("1", "2"):  # also prove hash-order independence
            env = dict(os.environ)
            env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
            env["PYTHONHASHSEED"] = hash_seed
            proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)

        stripped = [
            json.dumps(_strip_wall(json.loads(out)), sort_keys=False) for out in outputs
        ]
        assert stripped[0] == stripped[1]
        docs = json.loads(outputs[0])
        assert [d["suite"] for d in docs] == list(SUITE_ORDER)
        assert all(
            d["summary"] == {"passed": len(d["results"]), "failed": 0, "errors": 0}
            for d in docs
        )
