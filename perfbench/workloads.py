"""The benchmark's workloads: seeded inputs, closed-loop execution, oracles.

Every workload turns a seed into an endless stream of input *sets* and runs
one set at a time. A set is the smallest batch whose mix of inputs is the
same whatever the seed (the seed only permutes and perturbs it), so a run
that stops at a set boundary measures the same mix on every seed. Each
operation waits for its reply before the next one is sent, in one process
with no threads.

The program is driven only through its public API: build_virtual_rig,
run_suite, send_command/Command, suite_report_dict and the CLI.
"""

from __future__ import annotations

import contextlib
import datetime
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time

import refspeed

now_ns = time.perf_counter_ns

# sim_soak: simulated time run by every case, and the blink periods one set
# covers (each exactly once, in a seeded order).
SOAK_MS = 20_000
SOAK_PERIODS_MS = range(1, 21)
GPS_RATE_MS = (50, 1000)
RTC_START_RANGE = (datetime.datetime(2001, 1, 1), datetime.datetime(2098, 12, 31))

BULK_EXCHANGES_PER_SET = 128
CLI_TIMEOUT_S = 60


class SetResult:
    """What one set produced: timings, work done, oracle verdicts."""

    def __init__(self) -> None:
        self.op_ns: list[int] = []
        self.host_ns = 0
        self.work = 0.0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.case_ms: list[float] = []  # the report's wall_ms, where it has one
        self.unit_counts: dict[str, dict[str, int]] = {}
        # Reference-kernel times around each op, for workloads whose ops are
        # long enough for the host speed to change during a set.
        self.op_gauges: list[int] = []
        self._digest = hashlib.sha256()

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(message)

    def record(self, material) -> None:
        """Feed simulated outputs into the set's fingerprint."""
        self._digest.update(json.dumps(material, sort_keys=True).encode())
        self._digest.update(b"\n")

    @property
    def fingerprint(self) -> str:
        return self._digest.hexdigest()


def _send(dh, endpoint, verb, obj=None, method=None, args=()):
    return dh.send_command(endpoint, dh.Command(verb, obj=obj, method=method, args=tuple(args)))


# ---------------------------------------------------------------------------
# Shared oracle for five-suite reports


def designated_flips(dh, fault: str | None) -> set[tuple[str, str]]:
    """(suite, case) pairs that must not PASS with `fault` armed."""
    if fault is None:
        return set()
    shipped = dh.SHIPPED_FAULTS[fault]
    return {(shipped.suite, case) for case in shipped.designated}


def check_reports(dh, docs, fault: str | None, result: SetResult) -> None:
    """Verdicts must equal the designated-case matrix of SHIPPED_FAULTS.

    The clean build passes every case. With a fault armed exactly its
    designated cases flip, to FAIL or to ERROR (a TIMEOUT under a slow BLE
    bring-up is the expected outcome, not a failure of the rig).
    """
    flips = designated_flips(dh, fault)
    by_suite = {doc.get("suite"): doc for doc in docs}
    for suite_name, suite in dh.SUITES.items():
        doc = by_suite.get(suite_name)
        results = {r["name"]: r for r in doc["results"]} if doc else {}
        for case in suite.cases:
            result.attempted += 1
            got = results.get(case.name, {}).get("verdict")
            if (suite_name, case.name) in flips:
                ok = got in ("FAIL", "ERROR")
            else:
                ok = got == "PASS"
            if not ok:
                result.fail(f"fault={fault} {suite_name}.{case.name}: verdict {got}")
        if doc is not None:
            counts = doc["summary"]
            verdicts = [r["verdict"] for r in doc["results"]]
            expected = {
                "passed": verdicts.count("PASS"),
                "failed": verdicts.count("FAIL"),
                "errors": verdicts.count("ERROR"),
            }
            if counts != expected:
                result.fail(f"fault={fault} {suite_name}: summary {counts} != {expected}")


def fault_orders(dh, seed: int):
    """Endless seeded orders of the clean build and every shipped fault."""
    rng = random.Random(seed)
    faults = [None] + sorted(dh.SHIPPED_FAULTS)
    while True:
        order = list(faults)
        rng.shuffle(order)
        yield order


def sim_fields(docs) -> list:
    """The simulated content of reports: everything but host timings."""
    return [
        [
            doc["suite"],
            doc["summary"],
            [
                [r["name"], r["verdict"], r["inputs"], r["outputs"], r["message"], r["sim_ms"]]
                for r in doc["results"]
            ],
        ]
        for doc in docs
    ]


# ---------------------------------------------------------------------------
# suite_matrix


class SuiteMatrix:
    """Five-suite passes on fresh rigs, clean or with one shipped fault.

    One op is one run_suite call; one unit of work is a whole pass (fresh
    rig, five suites, JSON report). A set is six passes: the clean build and
    each shipped fault once, in a seeded order.
    """

    name = "suite_matrix"
    tail_pct = 99
    op_name = "suite run (run_suite call)"
    work_name = "five-suite passes"

    def __init__(self, dh, root: str, sabotage: bool = False, in_process: bool = True) -> None:
        self.dh = dh
        self.sabotage = sabotage

    def sets(self, seed: int):
        return fault_orders(self.dh, seed)

    def run_set(self, order, tracer=None, fingerprint=False) -> SetResult:
        dh = self.dh
        harness = dh.harness
        result = SetResult()
        for fault in order:
            armed = "drop_first_byte" if self.sabotage and fault is None else fault
            if tracer is not None:
                before = (tracer.counts["transport.round_trips"], tracer.counts["simcore.events"])
            start = now_ns()
            rig = dh.build_virtual_rig(fault=armed)
            docs = []
            for suite_name, suite in dh.SUITES.items():
                t0 = now_ns()
                results = dh.run_suite(suite, rig.session)
                result.op_ns.append(now_ns() - t0)
                docs.append(harness.suite_report_dict(suite_name, results))
            json.dumps(docs, indent=2)
            rig.close()
            result.host_ns += now_ns() - start
            result.work += 1
            check_reports(dh, docs, fault, result)
            result.case_ms.extend(
                r["wall_ms"] for doc in docs for r in doc["results"] if "wall_ms" in r
            )
            if tracer is not None:
                tracer.note_max("harness.log.bytes", log_bytes(rig))
                result.unit_counts[str(fault)] = {
                    "round_trips": tracer.counts["transport.round_trips"] - before[0],
                    "events": tracer.counts["simcore.events"] - before[1],
                }
            if fingerprint:
                result.record([fault, sim_fields(docs), rig.scheduler.now])
        return result


def log_bytes(rig) -> int:
    return sum(len(entry[3]) for entry in rig.session.log.entries)


# ---------------------------------------------------------------------------
# bulk_frames


def max_spi_payload(dh) -> int:
    """Largest payload whose worst-case frame (all bytes 255) fits the wire."""
    limit = dh.transport.MAX_FRAME_LEN
    longest = "CALL slave.preload_tx "
    n = limit // 4
    while len(longest) + len(json.dumps([[255] * n], separators=(",", ":"))) > limit:
        n -= 1
    return n


class BulkFrames:
    """SPI echoes and reads with log-uniform payload sizes.

    One op is one send_command round trip; the unit of work is a KiB of
    payload carried through the command channel, counting both directions.
    An echo is write -> get_rx, a read is preload_tx -> read -> get_rx. A set is
    BULK_EXCHANGES_PER_SET exchanges on a fresh rig, so the transport log
    stays bounded by the set, not by the run length.
    """

    name = "bulk_frames"
    tail_pct = 99
    op_name = "send_command round trip"
    work_name = "payload KiB, both directions"

    def __init__(self, dh, root: str, sabotage: bool = False, in_process: bool = True) -> None:
        self.dh = dh
        self.sabotage = sabotage
        self.max_payload = max_spi_payload(dh)

    def sets(self, seed: int):
        # Every set holds the same sizes, one per stratum of a log-uniform
        # distribution over 1..max_payload, and as many echoes as reads; the
        # seed pairs them up, orders them and fills in the bytes.
        rng = random.Random(seed)
        n = BULK_EXCHANGES_PER_SET
        top = math.log(self.max_payload + 1)
        sizes = [min(self.max_payload, int(math.exp((k + 0.5) / n * top))) for k in range(n)]
        kinds = ["echo", "read"] * (n // 2)
        while True:
            rng.shuffle(sizes)
            rng.shuffle(kinds)
            yield [(kind, list(rng.randbytes(size))) for kind, size in zip(kinds, sizes)]

    def run_set(self, batch, tracer=None, fingerprint=False) -> SetResult:
        dh = self.dh
        Command = dh.Command
        result = SetResult()
        rig = dh.build_virtual_rig(fault="drop_first_byte" if self.sabotage else None)
        dut = rig.session.dut.endpoint
        double = rig.session.double.endpoint
        for endpoint, cls, name in ((double, "SpiSlave", "slave"), (dut, "SpiMaster", "master")):
            if not _send(dh, endpoint, "NEW", name, cls).ok:
                result.fail(f"NEW {cls} failed")
        send = dh.send_command
        for kind, data in batch:
            n = len(data)
            if kind == "echo":
                steps = (
                    (dut, Command("CALL", obj="master", method="write", args=(data,)), n),
                    (double, Command("CALL", obj="slave", method="get_rx", args=()), data),
                )
            else:
                # read() clocks n dummy 0x00 bytes out on MOSI; get_rx drains
                # them so the next echo sees only its own bytes.
                steps = (
                    (double, Command("CALL", obj="slave", method="preload_tx", args=(data,)), None),
                    (dut, Command("CALL", obj="master", method="read", args=(n,)), data),
                    (double, Command("CALL", obj="slave", method="get_rx", args=()), [0] * n),
                )
            for endpoint, cmd, expected in steps:
                t0 = now_ns()
                resp = send(endpoint, cmd)
                elapsed = now_ns() - t0
                result.op_ns.append(elapsed)
                result.host_ns += elapsed
                result.attempted += 1
                if not (resp.ok and resp.payload == expected):
                    result.fail(f"{kind} of {n} bytes: {cmd.method} answered {str(resp)[:80]}")
                if fingerprint:
                    result.record([cmd.method, resp.status, resp.payload])
            result.work += len(steps) * n / 1024
        if tracer is not None:
            tracer.note_max("harness.log.bytes", log_bytes(rig))
        if fingerprint:
            result.record(["sim_now", rig.scheduler.now])
        rig.close()
        return result


# ---------------------------------------------------------------------------
# sim_soak


def rtc_image(moment: datetime.datetime) -> list[int]:
    """DS3231 register image of `moment`: BCD, ISO weekday 1=Mon."""

    def bcd(v: int) -> int:
        return (v // 10) << 4 | v % 10

    return [
        bcd(moment.second),
        bcd(moment.minute),
        bcd(moment.hour),
        bcd(moment.isoweekday()),
        bcd(moment.day),
        bcd(moment.month),
        bcd(moment.year - 2000),
    ]


class SimSoak:
    """Few commands, then SOAK_MS of simulated time per case.

    During the stretch an isr Blinker toggles the LED line for the double's
    listener, a GPS double emits NMEA at a seeded rate with RMC on or off,
    and a dynamic RTC ticks from a seeded date. One op is one case; the unit
    of work is a scheduler event fired. A set is one case per blink period
    in SOAK_PERIODS_MS, in a seeded order.
    """

    name = "sim_soak"
    tail_pct = 99
    op_name = "soak case"
    work_name = "scheduler events fired"

    def __init__(self, dh, root: str, sabotage: bool = False, in_process: bool = True) -> None:
        self.dh = dh
        self.sabotage = sabotage

    def sets(self, seed: int):
        rng = random.Random(seed)
        first, last = RTC_START_RANGE
        span_s = int((last - first).total_seconds())
        while True:
            periods = list(SOAK_PERIODS_MS)
            rng.shuffle(periods)
            yield [
                (
                    period,
                    rng.randint(*GPS_RATE_MS),
                    rng.random() < 0.5,
                    first + datetime.timedelta(seconds=rng.randrange(span_s)),
                )
                for period in periods
            ]

    def run_set(self, cases, tracer=None, fingerprint=False) -> SetResult:
        dh = self.dh
        pins = dh.suites
        result = SetResult()
        rig = dh.build_virtual_rig(fault="period_skew_ms" if self.sabotage else None)
        dut = rig.session.dut.endpoint
        double = rig.session.double.endpoint
        for period, rate, rmc, start in cases:
            count = SOAK_MS // (2 * period)
            stamp = [start.year, start.month, start.day, start.hour, start.minute, start.second]
            t0 = now_ns()
            replies = [
                _send(dh, dut, "RESET"),
                _send(dh, double, "RESET"),
                _send(dh, double, "NEW", "led", "Led", (pins.DOUBLE_LED_PIN, 2 * count)),
                _send(dh, dut, "NEW", "blinker", "Blinker", (pins.DUT_LED_PIN, period, count)),
                _send(dh, double, "CALL", "led", "start_acquisition"),
                _send(dh, dut, "CALL", "blinker", "blink", ("isr",)),
                _send(dh, double, "NEW", "gps", "Gps"),
                _send(dh, dut, "NEW", "gps_drv", "GpsDriver"),
                _send(dh, dut, "CALL", "gps_drv", "send_command", (f"PDBL,SEL,RMC,{int(rmc)}",)),
                _send(dh, dut, "CALL", "gps_drv", "send_command", (f"PDBL,RATE,{rate}",)),
                _send(dh, double, "NEW", "rtc", "Rtc", ("dynamic",)),
                _send(dh, dut, "NEW", "rtc_drv", "RtcDriver"),
                _send(dh, dut, "CALL", "rtc_drv", "set_datetime", (stamp,)),
            ]
            fired = rig.scheduler.advance_by(SOAK_MS)
            average = _send(dh, double, "CALL", "led", "get_avg_blink_ms")
            emitted = _send(dh, double, "CALL", "gps", "get_emit_count")
            image = _send(dh, double, "CALL", "rtc", "read_registers")
            elapsed = now_ns() - t0
            result.op_ns.append(elapsed)
            result.host_ns += elapsed
            result.work += fired
            result.attempted += 1

            # Closed-form oracles.
            expected = {
                "led_avg_ms": float(period),
                "gps_emits": (1 + rmc) * (SOAK_MS // rate),
                "rtc_image": rtc_image(start + datetime.timedelta(seconds=SOAK_MS // 1000)),
                "events": 2 * count + SOAK_MS // rate + SOAK_MS // 1000,
            }
            got = {
                "led_avg_ms": average.payload,
                "gps_emits": emitted.payload,
                "rtc_image": image.payload,
                "events": fired,
            }
            bad = [r for r in replies + [average, emitted, image] if not r.ok]
            if bad or got != expected:
                result.fail(f"period={period} rate={rate} rmc={rmc}: {bad[:1]} {got} != {expected}")
            if fingerprint:
                result.record([period, rate, rmc, stamp, got, rig.scheduler.now])
        if tracer is not None:
            tracer.note_max("harness.log.bytes", log_bytes(rig))
        rig.close()
        return result


# ---------------------------------------------------------------------------
# cli_cold


class CliCold:
    """Fresh `python -m double_harness --format json` processes, in sequence.

    One op is one process, timed from spawn to exit; the unit of work is a
    process. A set is six processes: the clean build and each shipped fault
    once, in a seeded order. Each is checked by its exit code and its JSON
    summary. The reference kernel runs between processes, because a set
    lasts long enough for the host speed to change within it. With in_process=True (the traced run) the same argument lists
    go to cli.main in this process instead, so that its layers can be traced.
    """

    name = "cli_cold"
    tail_pct = 90
    op_name = "CLI process, spawn to exit"
    work_name = "CLI processes"

    def __init__(self, dh, root: str, sabotage: bool = False, in_process: bool = False) -> None:
        self.dh = dh
        self.sabotage = sabotage
        self.in_process = in_process
        src = os.path.join(root, "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        self.cwd = root
        if in_process:
            from double_harness import cli

            self.cli = cli

    def sets(self, seed: int):
        return fault_orders(self.dh, seed)

    def run_set(self, order, tracer=None, fingerprint=False) -> SetResult:
        result = SetResult()
        result.op_gauges.append(refspeed.kernel_ns())
        for fault in order:
            armed = "drop_first_byte" if self.sabotage and fault is None else fault
            argv = ["--format", "json"] + (["--fault", armed] if armed else [])
            t0 = now_ns()
            if self.in_process:
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = self.cli.main(argv)
                stdout = out.getvalue()
            else:
                proc = subprocess.run(
                    [sys.executable, "-m", "double_harness", *argv],
                    cwd=self.cwd,
                    env=self.env,
                    capture_output=True,
                    text=True,
                    timeout=CLI_TIMEOUT_S,
                )
                code, stdout = proc.returncode, proc.stdout
            elapsed = now_ns() - t0
            result.op_gauges.append(refspeed.kernel_ns())
            result.op_ns.append(elapsed)
            result.host_ns += elapsed
            result.work += 1
            want = 0 if fault is None else 1
            try:
                docs = json.loads(stdout)
            except json.JSONDecodeError:
                docs = None
            if code != want or not isinstance(docs, list):
                result.attempted += 1
                result.fail(f"fault={fault}: exit {code}, wanted {want}; output {stdout[:80]!r}")
                continue
            check_reports(self.dh, docs, fault, result)
            if tracer is not None and tracer.last_rig is not None:
                tracer.note_max("harness.log.bytes", log_bytes(tracer.last_rig))
            if fingerprint:
                result.record([fault, code, sim_fields(docs)])
        return result


WORKLOADS = {w.name: w for w in (SuiteMatrix, BulkFrames, SimSoak, CliCold)}
