"""Test orchestration: suites, the per-case flow, matchers, and reports.

A complete run has two phases. The setup phase pings both devices, resets
them, and checks the code manifests are in place; the execution phase runs
every case in order, resetting both devices between cases so no object
leaks across. Each case walks the same five steps through its context:
initialize objects on the devices, inject inputs, gather results, assert
with matchers, decommission the objects. Results carry the recorded
inputs and outputs so a verdict can always be traced back to what
actually went over the wire.
"""

from __future__ import annotations

import json
import time
from collections import namedtuple
from functools import partial
from typing import Any, Callable, NamedTuple

from . import transport as _transport
from .simcore import Scheduler
from .transport import _PING, _RESET, Command, Endpoint, ObjectRegistry, Response, _new_record

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


# ---------------------------------------------------------------------------
# Matchers


class Matcher(NamedTuple):
    """Assertion predicate richer than equality: what it checks, what it
    expected, and the test itself. A predicate that raises TypeError fails,
    and so does one that raises OverflowError: the wire carries ints too
    large for a float."""

    description: str
    expectation: str
    predicate: Callable[[Any], bool]

    def check(self, actual: Any) -> bool:
        try:
            return self.predicate(actual)
        except (TypeError, OverflowError):
            return False

    def failure_text(self, actual: Any) -> str:
        return f"{self.expectation} actual={actual!r}"


def equal(expected: Any) -> Matcher:
    return Matcher(
        f"equal({expected!r})", f"expected={expected!r}", lambda actual: actual == expected
    )


def close_to(expected: float, tolerance: float) -> Matcher:
    """Inclusive absolute tolerance: |actual - expected| <= tolerance."""
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    return Matcher(
        f"close_to({expected!r}, tol={tolerance!r})",
        f"expected={expected!r} tolerance={tolerance!r}",
        lambda actual: abs(actual - expected) <= tolerance,
    )


def within(low: Any, high: Any) -> Matcher:
    return Matcher(
        f"within({low!r}, {high!r})",
        f"expected within [{low!r}, {high!r}]",
        lambda actual: low <= actual <= high,
    )


def is_true() -> Matcher:
    return Matcher("is_true()", "expected truthy", bool)


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


# ---------------------------------------------------------------------------
# Session plumbing


class TransportLog:
    """Chronological record of every command/response, across both devices."""

    def __init__(self) -> None:
        self.entries: list[tuple[int, str, str, str, int | None]] = []

    def record(self, device: str, direction: str, line: str, sim_ms: int | None) -> None:
        entries = self.entries
        entries.append((len(entries) + 1, device, direction, line, sim_ms))

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
    ) -> None:
        self.dut = dut
        self.double = double
        self.scheduler = scheduler
        self.log = log = TransportLog()
        # The loggers hold the log, not the session: the session holds the
        # endpoints, so capturing it would make a reference cycle.
        for link in (dut, double):
            link.endpoint.logger = partial(log.record, link.label)

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


class TestResult(NamedTuple):
    """One case's report row: its fields are the report's keys, in order."""

    __test__ = False  # the name is domain vocabulary, not a pytest class

    name: str
    verdict: str
    inputs: dict[str, Any]
    outputs: dict[str, Any]
    message: str = ""
    sim_ms: int | None = None


def summarize(results: list[TestResult]) -> dict[str, int]:
    return {
        "passed": sum(1 for r in results if r.verdict == PASS),
        "failed": sum(1 for r in results if r.verdict == FAIL),
        "errors": sum(1 for r in results if r.verdict == ERROR),
    }


# ---------------------------------------------------------------------------
# Case context: the five steps as verbs


def _wire_form(value: Any) -> Any:
    """A copy of value as the wire carried it: each bytes or bytearray in it,
    at any depth, becomes the int array that transport._wire_value makes for
    the encoder, each list or tuple a new list and each dict a new dict. So
    a body that changes a value after its step leaves the record as sent."""
    if isinstance(value, (bytes, bytearray)):
        return _transport._wire_value(value)
    if isinstance(value, (list, tuple)):
        return [_wire_form(v) for v in value]
    if isinstance(value, dict):
        return {key: _wire_form(v) for key, v in value.items()}
    return value


class ObjectHandle:
    """Remote object reference returned by the init verbs."""

    __slots__ = ("name", "link", "live")

    def __init__(self, name: str, link: DeviceLink) -> None:
        self.name = name
        self.link = link
        self.live = True


class CaseContext:
    """What a case body sees: init, inject, gather, assert, decommission."""

    def __init__(self, session: Session) -> None:
        self._session = session
        self.inputs: dict[str, Any] = {}
        self.outputs: dict[str, Any] = {}
        self.handles: list[ObjectHandle] = []
        self._failure = ""  # the first failing check's FAIL message

    # step 1: initialization

    def new_on_dut(self, cls: str, name: str, *args: Any) -> ObjectHandle:
        return self._new(self._session.dut, cls, name, args)

    def new_on_double(self, cls: str, name: str, *args: Any) -> ObjectHandle:
        return self._new(self._session.double, cls, name, args)

    # step 2: input injection

    def call(
        self, handle: ObjectHandle, method: str, *args: Any, timeout_ms: int | None = None
    ) -> Any:
        cmd = _new_record(Command, ("CALL", handle.name, method, args))
        value = _send(handle.link, cmd, timeout_ms).payload
        self._record(self.inputs, f"{handle.name}.{method}", _wire_form(args))
        return value

    # step 3: results gathering

    def gather(
        self, handle: ObjectHandle, method: str, *args: Any, timeout_ms: int | None = None
    ) -> Any:
        cmd = _new_record(Command, ("CALL", handle.name, method, args))
        value = _send(handle.link, cmd, timeout_ms).payload
        self._record(self.outputs, f"{handle.name}.{method}", _wire_form(value))
        return value

    # step 4: asserts

    def expect(self, actual: Any, matcher: Matcher) -> bool:
        """Check actual now. The first failing check's message is written
        here, so it shows actual as checked, whatever the body does after."""
        passed = matcher.check(actual)
        if not (passed or self._failure):
            self._failure = f"{matcher.description} failed: {matcher.failure_text(actual)}"
        return passed

    # step 5 and utilities

    def decommission(self, handle: ObjectHandle) -> None:
        _send(handle.link, _new_record(Command, ("DEL", handle.name, None, ())))
        handle.live = False

    def sleep(self, ms: int) -> None:
        self._session.sleep(ms)

    # internals

    def _new(self, link: DeviceLink, cls: str, name: str, args: tuple) -> ObjectHandle:
        _send(link, _new_record(Command, ("NEW", name, cls, args)))
        self._record(self.inputs, f"{cls} {name}", _wire_form(args))
        handle = ObjectHandle(name, link)
        self.handles.append(handle)
        return handle

    @staticmethod
    def _record(store: dict[str, Any], key: str, value: Any) -> None:
        # Repeated steps get numbered keys so nothing is overwritten.
        candidate = key
        counter = 2
        while candidate in store:
            candidate = f"{key}#{counter}"
            counter += 1
        store[candidate] = value


# ---------------------------------------------------------------------------
# Execution

_ERROR_CODES = {
    _transport.TransportTimeout: "TIMEOUT",
    _transport.ProtocolError: "PROTOCOL",
    _transport.ChannelClosedError: "CLOSED",
}


def _send(link: DeviceLink, cmd: Command, timeout_ms: int | None = None) -> Response:
    """Send one command within the endpoint's budget, or timeout_ms if given;
    the harness sends every command through here. A transport failure or an
    ERR reply raises CaseError. send_command is looked up on the module, so a
    wrapper installed on double_harness.transport sees every round trip."""
    try:
        resp = _transport.send_command(link.endpoint, cmd, timeout_ms)
    except _transport.TransportError as exc:
        raise CaseError(_ERROR_CODES.get(type(exc), "TRANSPORT"), str(exc)) from exc
    if resp.status != "OK":
        raise CaseError(resp.code or "EXEC", resp.message)
    return resp


def _run_case(case: TestCase, session: Session) -> TestResult:
    ctx = CaseContext(session)
    sim_start = session.sim_now()
    verdict = PASS
    message = ""
    try:
        case.body(ctx)
    except CaseError as exc:
        verdict = ERROR
        message = f"{exc.code}: {exc}"
    except Exception as exc:  # noqa: BLE001 - a broken case body is a result, not a crash
        verdict = ERROR
        message = f"INTERNAL: {type(exc).__name__}: {exc}"
    if verdict == PASS:
        if ctx._failure:
            verdict = FAIL
            message = ctx._failure
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
        case.name, verdict, ctx.inputs, ctx.outputs, message, session.sim_now() - sim_start
    )


def run_suite(suite: Suite, session: Session) -> list[TestResult]:
    """Execute one suite: setup phase, then every case in order.

    Setup failures abort the whole suite with a single ERROR result; a case
    error, or a failed RESET before a case, is that case's ERROR result and
    never prevents the cases after it. No transport error escapes.
    """
    try:
        _setup_phase(suite, session)
    except CaseError as exc:
        return [TestResult(f"setup[{suite.name}]", ERROR, {}, {}, f"{exc.code}: {exc}", 0)]
    results: list[TestResult] = []
    for index, case in enumerate(suite.cases):
        if index > 0:
            try:
                _send(session.dut, _RESET)
                _send(session.double, _RESET)
            except CaseError as exc:
                results.append(TestResult(case.name, ERROR, {}, {}, f"{exc.code}: {exc}"))
                continue
        results.append(_run_case(case, session))
    return results


def _setup_phase(suite: Suite, session: Session) -> None:
    for link, manifest in (
        (session.dut, suite.dut_code),
        (session.double, suite.double_code),
    ):
        try:
            _send(link, _PING)
            _send(link, _RESET)
        except CaseError as exc:
            raise CaseError(exc.code, f"no contact with {link.label}: {exc}") from exc
        if link.registry is not None:
            for cls in manifest.classes:
                if cls not in link.registry.classes:
                    raise CaseError(
                        "NO_CLASS",
                        f"{link.label} is missing class '{cls}' from {manifest.name}",
                    )


# ---------------------------------------------------------------------------
# Reporting


def report(results: list[TestResult], *, suite_name: str = "") -> str:
    """Render results for people: one line per case plus a summary.
    suite_report_dict() gives the machine schema, and TransportLog.render()
    the interleaved traffic of both devices."""
    lines = []
    if suite_name:
        lines.append(f"suite {suite_name}")
    for result in results:
        sim = "-" if result.sim_ms is None else str(result.sim_ms)
        line = (
            f"[{result.verdict:<5}] {result.name}  sim_ms={sim}  "
            f"inputs={json.dumps(result.inputs)}  "
            f"outputs={json.dumps(result.outputs)}"
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
        "results": [r._asdict() for r in results],
        "summary": summarize(results),
    }
