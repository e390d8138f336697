"""Test orchestration: suites, the per-case flow, matchers, and reports.

A complete run has two phases. The setup phase pings both devices, resets
them, and checks the code manifests are in place; the execution phase runs
every case in order, resetting both devices between cases so no object
leaks across. Each case walks the same four steps through its context:
initialize objects on the devices, inject inputs, gather results, assert
with matchers. Results carry the recorded inputs and outputs so a verdict
can always be traced back to what actually went over the wire.
"""

from __future__ import annotations

import json
import time
from collections import namedtuple
from typing import Any, Callable, NamedTuple

from . import transport as _transport
from .simcore import Scheduler
from .transport import Command, Endpoint, ObjectRegistry, Response

PASS = "PASS"
FAIL = "FAIL"
ERROR = "ERROR"


class SuiteDefinitionError(ValueError):
    """A suite or manifest broke the registration rules."""


class CaseError(Exception):
    """A case aborted with a transport or device error."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


class _StopCase(Exception):
    """Internal: fail-fast short circuit."""


# ---------------------------------------------------------------------------
# Matchers


class Matcher(NamedTuple):
    """Assertion predicate richer than equality.

    close_to uses an inclusive absolute tolerance: |actual - expected| <= tol.
    """

    kind: str
    expected: Any = None
    tolerance: float | None = None
    low: Any = None
    high: Any = None

    def check(self, actual: Any) -> bool:
        if self.kind == "equal":
            return actual == self.expected
        if self.kind == "close_to":
            try:
                return abs(actual - self.expected) <= self.tolerance
            except TypeError:
                return False
        if self.kind == "within":
            try:
                return self.low <= actual <= self.high
            except TypeError:
                return False
        if self.kind == "is_true":
            return bool(actual)
        raise ValueError(f"unknown matcher kind {self.kind!r}")

    def describe(self) -> str:
        if self.kind == "equal":
            return f"equal({self.expected!r})"
        if self.kind == "close_to":
            return f"close_to({self.expected!r}, tol={self.tolerance!r})"
        if self.kind == "within":
            return f"within({self.low!r}, {self.high!r})"
        return "is_true()"

    def failure_text(self, actual: Any) -> str:
        if self.kind == "close_to":
            return (
                f"expected={self.expected!r} tolerance={self.tolerance!r} "
                f"actual={actual!r}"
            )
        if self.kind == "within":
            return f"expected within [{self.low!r}, {self.high!r}] actual={actual!r}"
        return f"expected={self.expected!r} actual={actual!r}"


def equal(expected: Any) -> Matcher:
    return Matcher("equal", expected=expected)


def close_to(expected: float, tolerance: float) -> Matcher:
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    return Matcher("close_to", expected=expected, tolerance=tolerance)


def within(low: Any, high: Any) -> Matcher:
    return Matcher("within", low=low, high=high)


def is_true() -> Matcher:
    return Matcher("is_true")


# ---------------------------------------------------------------------------
# Suites and cases

CaseBody = Callable[["CaseContext"], None]


class TestCase(namedtuple("TestCase", "name body")):
    """One named case; names must start with test_."""

    __slots__ = ()
    __test__ = False  # the name is domain vocabulary, not a pytest class

    def __new__(cls, name: str, body: CaseBody) -> TestCase:
        if not name.startswith("test_"):
            raise SuiteDefinitionError(f"case name must start with 'test_': {name!r}")
        return super().__new__(cls, name, body)


class CodeManifest(NamedTuple):
    """A named code bundle plus the wire classes it provides.

    Production bundles are named dut_*, double bundles Double_*, mirroring
    how their source files would be named on real devices.
    """

    name: str
    classes: tuple[str, ...]

    def require_prefix(self, prefix: str) -> None:
        if not self.name.startswith(prefix):
            raise SuiteDefinitionError(
                f"manifest name must start with {prefix!r}: {self.name!r}"
            )


class Suite(namedtuple("Suite", "name cases dut_code double_code")):
    """Ordered cases plus the code manifests both devices must host."""

    __slots__ = ()

    def __new__(
        cls,
        name: str,
        cases: tuple[TestCase, ...],
        dut_code: CodeManifest,
        double_code: CodeManifest,
    ) -> Suite:
        names = [case.name for case in cases]
        if len(set(names)) != len(names):
            raise SuiteDefinitionError(f"duplicate case names in suite {name!r}")
        dut_code.require_prefix("dut_")
        double_code.require_prefix("Double_")
        return super().__new__(cls, name, cases, dut_code, double_code)


class RunOptions(NamedTuple):
    timeout_ms: int = _transport.DEFAULT_TIMEOUT_MS
    fail_fast: bool = False


# ---------------------------------------------------------------------------
# Session plumbing


class TransportLog:
    """Chronological record of every command/response, across both devices."""

    def __init__(self) -> None:
        self.entries: list[tuple[int, str, str, str, int | None]] = []
        self._seq = 0

    def record(self, device: str, direction: str, line: str, sim_ms: int | None) -> None:
        self._seq += 1
        self.entries.append((self._seq, device, direction, line, sim_ms))

    def render(self) -> str:
        rows = []
        for _seq, device, direction, line, sim_ms in self.entries:
            arrow = ">" if direction == "send" else "<"
            stamp = "--------" if sim_ms is None else f"{sim_ms:8d}"
            rows.append(f"[{stamp}ms] {device:<6} {arrow} {line}")
        return "\n".join(rows)


class DeviceLink(NamedTuple):
    """Controller endpoint for one device, plus its registry when local."""

    label: str
    endpoint: Endpoint
    registry: ObjectRegistry | None = None


class Session:
    """Everything a suite run needs: both device links and the shared clock."""

    def __init__(
        self,
        dut: DeviceLink,
        double: DeviceLink,
        scheduler: Scheduler | None = None,
        log: TransportLog | None = None,
    ) -> None:
        self.dut = dut
        self.double = double
        self.scheduler = scheduler
        self.log = log = TransportLog() if log is None else log
        # The loggers close over the log, not the session: the session holds
        # the endpoints, so capturing it would make a reference cycle.
        for link in (dut, double):
            link.endpoint.set_logger(
                lambda direction, line, sim_ms, label=link.label: log.record(
                    label, direction, line, sim_ms
                )
            )

    def sleep(self, ms: int) -> None:
        """Let time pass: simulated on a virtual rig, wall-clock otherwise."""
        if self.scheduler is not None:
            self.scheduler.advance_by(ms)
        else:
            time.sleep(ms / 1000.0)

    def sim_now(self) -> int:
        return self.scheduler.now if self.scheduler is not None else 0


# ---------------------------------------------------------------------------
# Results


class CheckRecord(NamedTuple):
    matcher: Matcher
    actual: Any
    passed: bool


class TestResult:
    def __init__(
        self,
        name: str,
        verdict: str,
        inputs: dict[str, Any] | None = None,
        outputs: dict[str, Any] | None = None,
        message: str = "",
        sim_ms: int | None = None,
        wall_ms: float = 0.0,
        checks: list[CheckRecord] | None = None,
    ) -> None:
        self.name = name
        self.verdict = verdict
        self.inputs = {} if inputs is None else inputs
        self.outputs = {} if outputs is None else outputs
        self.message = message
        self.sim_ms = sim_ms
        self.wall_ms = wall_ms
        self.checks = [] if checks is None else checks

    def to_dict(self) -> dict[str, Any]:
        return {key: getattr(self, key) for key in _REPORT_KEYS}


_REPORT_KEYS = ("name", "verdict", "inputs", "outputs", "message", "sim_ms", "wall_ms")


def summarize(results: list[TestResult]) -> dict[str, int]:
    return {
        "passed": sum(1 for r in results if r.verdict == PASS),
        "failed": sum(1 for r in results if r.verdict == FAIL),
        "errors": sum(1 for r in results if r.verdict == ERROR),
    }


# ---------------------------------------------------------------------------
# Case context: the four steps as verbs


class ObjectHandle:
    """Remote object reference returned by the init verbs."""

    __slots__ = ("name", "cls", "link", "live")

    def __init__(self, name: str, cls: str, link: DeviceLink) -> None:
        self.name = name
        self.cls = cls
        self.link = link
        self.live = True

    def __repr__(self) -> str:
        return f"<{self.cls} {self.name}@{self.link.label}>"


class CaseContext:
    """What a case body sees: init, inject, gather, assert, decommission."""

    def __init__(self, session: Session, options: RunOptions) -> None:
        self._session = session
        self._options = options
        self.inputs: dict[str, Any] = {}
        self.outputs: dict[str, Any] = {}
        self.checks: list[CheckRecord] = []
        self.handles: list[ObjectHandle] = []

    # step 1: initialization

    def new_on_dut(self, cls: str, name: str, *args: Any) -> ObjectHandle:
        return self._new(self._session.dut, cls, name, args)

    def new_on_double(self, cls: str, name: str, *args: Any) -> ObjectHandle:
        return self._new(self._session.double, cls, name, args)

    # step 2: input injection

    def call(
        self, handle: ObjectHandle, method: str, *args: Any, timeout_ms: int | None = None
    ) -> Any:
        value = self._invoke(handle, method, args, timeout_ms)
        self._record(self.inputs, f"{handle.name}.{method}", list(args))
        return value

    # step 3: results gathering

    def gather(
        self, handle: ObjectHandle, method: str, *args: Any, timeout_ms: int | None = None
    ) -> Any:
        value = self._invoke(handle, method, args, timeout_ms)
        self._record(self.outputs, f"{handle.name}.{method}", value)
        return value

    # step 4: asserts

    def expect(self, actual: Any, matcher: Matcher) -> bool:
        passed = matcher.check(actual)
        self.checks.append(CheckRecord(matcher, actual, passed))
        if not passed and self._options.fail_fast:
            raise _StopCase()
        return passed

    # step 5 and utilities

    def decommission(self, handle: ObjectHandle) -> None:
        self._send(handle.link, Command("DEL", obj=handle.name), None)
        handle.live = False

    def sleep(self, ms: int) -> None:
        self._session.sleep(ms)

    # internals

    def _new(self, link: DeviceLink, cls: str, name: str, args: tuple) -> ObjectHandle:
        self._send(link, Command("NEW", obj=name, method=cls, args=args), None)
        self._record(self.inputs, f"{cls} {name}", list(args))
        handle = ObjectHandle(name, cls, link)
        self.handles.append(handle)
        return handle

    def _invoke(
        self, handle: ObjectHandle, method: str, args: tuple, timeout_ms: int | None
    ) -> Any:
        resp = self._send(
            handle.link, Command("CALL", obj=handle.name, method=method, args=args), timeout_ms
        )
        return resp.payload

    @staticmethod
    def _record(store: dict[str, Any], key: str, value: Any) -> None:
        # Repeated steps get numbered keys so nothing is overwritten.
        candidate = key
        counter = 2
        while candidate in store:
            candidate = f"{key}#{counter}"
            counter += 1
        store[candidate] = value

    def _send(self, link: DeviceLink, cmd: Command, timeout_ms: int | None) -> Response:
        budget = self._options.timeout_ms if timeout_ms is None else timeout_ms
        try:
            resp = _transport.send_command(link.endpoint, cmd, budget)
        except _transport.TransportTimeout as exc:
            raise CaseError("TIMEOUT", str(exc)) from exc
        except _transport.ProtocolError as exc:
            raise CaseError("PROTOCOL", str(exc)) from exc
        except _transport.ChannelClosedError as exc:
            raise CaseError("CLOSED", str(exc)) from exc
        if not resp.ok:
            raise CaseError(resp.code or "EXEC", resp.message)
        return resp


# ---------------------------------------------------------------------------
# Execution


def _reset_device(link: DeviceLink, options: RunOptions) -> None:
    resp = _transport.send_command(link.endpoint, Command("RESET"), options.timeout_ms)
    if not resp.ok:
        raise CaseError(resp.code or "EXEC", f"RESET failed on {link.label}: {resp.message}")


def _run_case(case: TestCase, session: Session, options: RunOptions) -> TestResult:
    ctx = CaseContext(session, options)
    sim_start = session.sim_now()
    wall_start = time.perf_counter()
    verdict = PASS
    message = ""
    errored = False
    try:
        case.body(ctx)
    except _StopCase:
        pass
    except CaseError as exc:
        verdict = ERROR
        message = f"{exc.code}: {exc}"
        errored = True
    except Exception as exc:  # noqa: BLE001 - a broken case body is a result, not a crash
        verdict = ERROR
        message = f"INTERNAL: {type(exc).__name__}: {exc}"
        errored = True
    if not errored:
        failures = [c for c in ctx.checks if not c.passed]
        if failures:
            verdict = FAIL
            first = failures[0]
            message = f"{first.matcher.describe()} failed: {first.matcher.failure_text(first.actual)}"
        # Step 5: decommission whatever the body left alive. Skipped after an
        # error, like a run that lost its device mid-case; the inter-case
        # RESET cleans up instead.
        for handle in ctx.handles:
            if handle.live:
                try:
                    ctx.decommission(handle)
                except CaseError:
                    pass
    return TestResult(
        name=case.name,
        verdict=verdict,
        inputs=ctx.inputs,
        outputs=ctx.outputs,
        message=message,
        sim_ms=session.sim_now() - sim_start,
        wall_ms=round((time.perf_counter() - wall_start) * 1000.0, 3),
        checks=ctx.checks,
    )


def run_suite(
    suite: Suite, session: Session, options: RunOptions | None = None
) -> list[TestResult]:
    """Execute one suite: setup phase, then every case in order.

    Setup failures abort the whole suite with a single ERROR result; a case
    error never prevents the cases after it.
    """
    options = options or RunOptions()
    try:
        _setup_phase(suite, session, options)
    except CaseError as exc:
        return [
            TestResult(
                name=f"setup[{suite.name}]",
                verdict=ERROR,
                message=f"{exc.code}: {exc}",
                sim_ms=0,
            )
        ]
    results: list[TestResult] = []
    for index, case in enumerate(suite.cases):
        if index > 0:
            try:
                _reset_device(session.dut, options)
                _reset_device(session.double, options)
            except CaseError as exc:
                results.append(
                    TestResult(name=case.name, verdict=ERROR, message=f"{exc.code}: {exc}")
                )
                continue
        results.append(_run_case(case, session, options))
    return results


def _setup_phase(suite: Suite, session: Session, options: RunOptions) -> None:
    for link, manifest in (
        (session.dut, suite.dut_code),
        (session.double, suite.double_code),
    ):
        try:
            alive = _transport.ping(link.endpoint, options.timeout_ms)
        except _transport.TransportError as exc:
            raise CaseError("TIMEOUT", f"no contact with {link.label}: {exc}") from exc
        if not alive:
            raise CaseError("EXEC", f"{link.label} failed PING")
        _reset_device(link, options)
        if link.registry is not None:
            for cls in manifest.classes:
                if not link.registry.has_class(cls):
                    raise CaseError(
                        "NO_CLASS",
                        f"{link.label} is missing class '{cls}' from {manifest.name}",
                    )


# ---------------------------------------------------------------------------
# Reporting


def report(results: list[TestResult], format: str = "human", suite_name: str = "") -> str:
    """Render results. Human format is one line per case plus a summary;
    JSON format emits the machine schema. TransportLog.render() gives the
    interleaved traffic of both devices."""
    if format == "json":
        return json.dumps(suite_report_dict(suite_name, results), indent=2)
    if format != "human":
        raise ValueError(f"unknown format {format!r}")
    lines = []
    if suite_name:
        lines.append(f"suite {suite_name}")
    for result in results:
        sim = "-" if result.sim_ms is None else str(result.sim_ms)
        line = (
            f"[{result.verdict:<5}] {result.name}  sim_ms={sim}  "
            f"inputs={json.dumps(result.inputs)}  outputs={json.dumps(result.outputs)}"
        )
        if result.message:
            line += f"  :: {result.message}"
        lines.append(line)
    counts = summarize(results)
    lines.append(
        f"{counts['passed']} passed, {counts['failed']} failed, {counts['errors']} errors"
    )
    return "\n".join(lines)


def suite_report_dict(suite_name: str, results: list[TestResult]) -> dict[str, Any]:
    return {
        "suite": suite_name,
        "results": [r.to_dict() for r in results],
        "summary": summarize(results),
    }
