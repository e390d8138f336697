"""Command channel between the test controller and a device.

The controller injects commands and gathers results over a line-oriented
text protocol; the device side hosts an object registry that instantiates
classes, invokes methods, and returns results. Wire grammar (LF-terminated
ASCII lines, one response per command, in order):

    NEW <Class> <name> <json-array>
    CALL <name>.<method> <json-array>
    DEL <name>
    PING
    RESET

    OK <json>
    ERR <CODE> <message>

Error codes: NO_OBJECT, NO_CLASS, NO_METHOD, BAD_ARGS, EXEC, plus TIMEOUT
which only the controller synthesizes when a device stays silent too long.

The bundled channel is a virtual in-process duplex pair whose timeouts are
measured in simulated time. A real serial port can be slotted in through
SerialPortLike / SerialEndpoint; none is bundled, keeping the rig
hardware-free.
"""

from __future__ import annotations

import inspect
import json
import re
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Protocol

from .simcore import Scheduler

MAX_FRAME_LEN = 4096

IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")

VERBS = ("NEW", "CALL", "DEL", "PING", "RESET")

DEFAULT_TIMEOUT_MS = 5000  # simulated ms on the virtual channel
DEFAULT_SERIAL_TIMEOUT_MS = 2000  # wall-clock ms on a physical port


class TransportError(Exception):
    """Base for channel-level failures."""


class TransportTimeout(TransportError):
    """The device did not answer within the timeout budget."""

    code = "TIMEOUT"


class ProtocolError(TransportError):
    """A line on the wire did not match the grammar."""


class ChannelClosedError(TransportError):
    """The far end of the channel is gone."""


# ---------------------------------------------------------------------------
# Frames and grammar


def check_frame(line: str) -> str:
    """Validate one wire line: printable ASCII, no newline, <= 4096 bytes."""
    if len(line) > MAX_FRAME_LEN:
        raise ProtocolError(f"frame too long: {len(line)} > {MAX_FRAME_LEN}")
    if not all(32 <= ord(ch) <= 126 for ch in line):
        raise ProtocolError("frame contains non-printable or non-ASCII characters")
    return line


@dataclass(frozen=True)
class Command:
    """One parsed command. For NEW, `method` holds the class name."""

    verb: str
    obj: str | None = None
    method: str | None = None
    args: tuple = ()


@dataclass(frozen=True)
class Response:
    status: str  # "OK" | "ERR"
    payload: Any = None
    code: str | None = None
    message: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "OK"


def ok(payload: Any = None) -> Response:
    return Response("OK", payload=payload)


def err(code: str, message: str) -> Response:
    return Response("ERR", code=code, message=message)


def _dump_args(args: tuple) -> str:
    return json.dumps(list(args), separators=(",", ":"))


def format_command(cmd: Command) -> str:
    if cmd.verb == "NEW":
        line = f"NEW {cmd.method} {cmd.obj} {_dump_args(cmd.args)}"
    elif cmd.verb == "CALL":
        line = f"CALL {cmd.obj}.{cmd.method} {_dump_args(cmd.args)}"
    elif cmd.verb == "DEL":
        line = f"DEL {cmd.obj}"
    elif cmd.verb in ("PING", "RESET"):
        line = cmd.verb
    else:
        raise ProtocolError(f"unknown verb {cmd.verb!r}")
    return check_frame(line)


def parse_command(line: str) -> Command:
    parts = line.split(" ", 1)
    verb = parts[0]
    rest = parts[1] if len(parts) > 1 else ""
    if verb in ("PING", "RESET"):
        if rest:
            raise ProtocolError(f"{verb} takes no arguments")
        return Command(verb)
    if verb == "DEL":
        name = rest.strip()
        if not IDENT_RE.match(name):
            raise ProtocolError(f"bad object name {name!r}")
        return Command("DEL", obj=name)
    if verb == "NEW":
        pieces = rest.split(" ", 2)
        if len(pieces) != 3:
            raise ProtocolError("NEW needs <Class> <name> <json-array>")
        cls, name, args_text = pieces
        if not IDENT_RE.match(cls) or not IDENT_RE.match(name):
            raise ProtocolError(f"bad identifier in NEW {cls!r} {name!r}")
        return Command("NEW", obj=name, method=cls, args=_parse_args(args_text))
    if verb == "CALL":
        pieces = rest.split(" ", 1)
        if len(pieces) != 2:
            raise ProtocolError("CALL needs <name>.<method> <json-array>")
        target, args_text = pieces
        if "." not in target:
            raise ProtocolError(f"CALL target {target!r} missing '.'")
        name, method = target.split(".", 1)
        if not IDENT_RE.match(name) or not IDENT_RE.match(method):
            raise ProtocolError(f"bad identifier in CALL {target!r}")
        return Command("CALL", obj=name, method=method, args=_parse_args(args_text))
    raise ProtocolError(f"unknown verb {verb!r}")


def _parse_args(text: str) -> tuple:
    try:
        args = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"bad JSON args: {exc}") from exc
    if not isinstance(args, list):
        raise ProtocolError("args must be a JSON array")
    return tuple(args)


def format_response(resp: Response) -> str:
    if resp.ok:
        line = f"OK {json.dumps(resp.payload, separators=(',', ':'))}"
    else:
        line = f"ERR {resp.code} {resp.message}".rstrip()
    return check_frame(line)


def parse_response(line: str) -> Response:
    parts = line.split(" ", 1)
    if parts[0] == "OK":
        if len(parts) != 2:
            raise ProtocolError("OK response missing payload")
        try:
            return ok(json.loads(parts[1]))
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"bad JSON payload: {exc}") from exc
    if parts[0] == "ERR":
        rest = parts[1] if len(parts) > 1 else ""
        pieces = rest.split(" ", 1)
        code = pieces[0]
        if not code:
            raise ProtocolError("ERR response missing code")
        message = pieces[1] if len(pieces) > 1 else ""
        return err(code, message)
    raise ProtocolError(f"bad response line: {line!r}")


# ---------------------------------------------------------------------------
# Endpoints

LineLogger = Callable[[str, str, int | None], None]  # (direction, line, sim_ms)


class Endpoint:
    """One side of a duplex command channel."""

    role: str
    timeout_ms: int

    def __init__(self, role: str, timeout_ms: int = DEFAULT_TIMEOUT_MS) -> None:
        if role not in ("controller", "device"):
            raise ValueError(f"role must be controller or device, got {role!r}")
        self.role = role
        self.timeout_ms = timeout_ms
        self._logger: LineLogger | None = None

    def set_logger(self, logger: LineLogger | None) -> None:
        self._logger = logger

    def _log(self, direction: str, line: str, sim_ms: int | None) -> None:
        if self._logger is not None:
            self._logger(direction, line, sim_ms)

    # Subclasses implement the raw line operations.

    def write_line(self, line: str) -> None:
        raise NotImplementedError

    def read_frame(self, timeout_ms: int) -> tuple[str, int | None]:
        """Return (line, arrival-stamp). Virtual stamps are simulated ms."""
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def sim_now(self) -> int | None:
        return None


class _VirtualChannel:
    def __init__(self, scheduler: Scheduler) -> None:
        self.scheduler = scheduler
        self.closed = False


class VirtualEndpoint(Endpoint):
    """In-process endpoint; its peer sees writes immediately and in order.

    Timeouts are budgets of *simulated* time: a response produced after the
    clock moved past the deadline counts as silence, exactly like a device
    that is still busy when the controller gives up.
    """

    def __init__(self, channel: _VirtualChannel, role: str, timeout_ms: int) -> None:
        super().__init__(role, timeout_ms)
        self._channel = channel
        self._rx: deque[tuple[str, int]] = deque()
        self._peer: VirtualEndpoint | None = None
        self._server: CommandServer | None = None

    def sim_now(self) -> int:
        return self._channel.scheduler.now

    def write_line(self, line: str) -> None:
        check_frame(line)
        self._log("send", line, self.sim_now())
        if self._channel.closed:
            return  # undeliverable; the reader finds out on its next read
        peer = self._peer
        assert peer is not None
        peer._rx.append((line, self.sim_now()))
        if peer._server is not None:
            peer._drain()

    def read_frame(self, timeout_ms: int) -> tuple[str, int]:
        if self._rx:
            return self._rx.popleft()
        if self._channel.closed:
            raise ChannelClosedError("channel closed")
        # Nothing buffered: let scheduled work run up to the deadline in case
        # it produces frames, then give up.
        sched = self._channel.scheduler
        deadline = sched.now + timeout_ms
        while not self._rx:
            nxt = sched.next_due()
            if nxt is None or nxt > deadline:
                if sched.now < deadline:
                    sched.advance_to(deadline)
                break
            sched.advance_to(nxt)
        if self._rx:
            return self._rx.popleft()
        raise TransportTimeout(f"no frame within {timeout_ms} ms (simulated)")

    def close(self) -> None:
        """Close the channel for both ends and unlink them from each other.

        Frames already buffered stay readable; everything written later is
        dropped. Unlinking leaves no reference cycle between the two ends.
        """
        self._channel.closed = True
        if self._peer is not None:
            self._peer._peer = None
            self._peer._server = None
        self._peer = None
        self._server = None

    def attach_server(self, server: "CommandServer") -> None:
        self._server = server
        self._drain()

    def _drain(self) -> None:
        assert self._server is not None
        while self._rx:
            line, _stamp = self._rx.popleft()
            reply = self._server.handle_line(line)
            self.write_line(reply)


def open_virtual_pair(
    scheduler: Scheduler, timeout_ms: int = DEFAULT_TIMEOUT_MS
) -> tuple[VirtualEndpoint, VirtualEndpoint]:
    """Create a linked (controller, device) endpoint pair on one clock."""
    channel = _VirtualChannel(scheduler)
    controller = VirtualEndpoint(channel, "controller", timeout_ms)
    device = VirtualEndpoint(channel, "device", timeout_ms)
    controller._peer = device
    device._peer = controller
    return controller, device


# ---------------------------------------------------------------------------
# Serial interface slot (no bundled implementation)


@dataclass(frozen=True)
class SerialSettings:
    """Classic 115200-8N1 defaults for a physical port."""

    baudrate: int = 115200
    bytesize: int = 8
    parity: str = "N"
    stopbits: int = 1


class SerialPortLike(Protocol):
    """What a pluggable physical port must provide."""

    def read_line(self, timeout_s: float) -> str | None: ...

    def write_line(self, line: str) -> None: ...

    def close(self) -> None: ...


class SerialEndpoint(Endpoint):
    """Adapter running the same grammar over a user-supplied physical port.

    Timeouts here are wall-clock; the virtual scheduler is not involved.
    """

    def __init__(
        self,
        port: SerialPortLike,
        role: str,
        timeout_ms: int = DEFAULT_SERIAL_TIMEOUT_MS,
        settings: SerialSettings = SerialSettings(),
    ) -> None:
        super().__init__(role, timeout_ms)
        self.port = port
        self.settings = settings

    def write_line(self, line: str) -> None:
        check_frame(line)
        self._log("send", line, None)
        self.port.write_line(line)

    def read_frame(self, timeout_ms: int) -> tuple[str, None]:
        deadline = time.monotonic() + timeout_ms / 1000.0
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TransportTimeout(f"no frame within {timeout_ms} ms")
            line = self.port.read_line(remaining)
            if line is not None:
                return check_frame(line.rstrip("\n")), None

    def close(self) -> None:
        self.port.close()


# ---------------------------------------------------------------------------
# Controller side


def send_command(ep: Endpoint, cmd: Command, timeout_ms: int | None = None) -> Response:
    """Send one command and block until its response or the timeout.

    Returns the parsed Response (including ERR responses). Raises
    TransportTimeout when the device stays silent past the budget; on a
    virtual channel a response stamped later than the budget in simulated
    time counts as silence and is discarded.
    """
    if ep.role != "controller":
        raise TransportError("send_command requires a controller endpoint")
    budget = ep.timeout_ms if timeout_ms is None else timeout_ms
    started = ep.sim_now()
    ep.write_line(format_command(cmd))
    line, stamp = ep.read_frame(budget)
    if started is not None and stamp is not None and stamp - started > budget:
        # Late answer from a device that was still busy when we gave up.
        raise TransportTimeout(
            f"no response to '{format_command(cmd)}' within {budget} ms (simulated)"
        )
    ep._log("recv", line, stamp)
    return parse_response(line)


def ping(ep: Endpoint, timeout_ms: int | None = None) -> bool:
    return send_command(ep, Command("PING"), timeout_ms).ok


def reset(ep: Endpoint, timeout_ms: int | None = None) -> Response:
    return send_command(ep, Command("RESET"), timeout_ms)


# ---------------------------------------------------------------------------
# Device side

Factory = Callable[..., Any]

_UNCACHED = object()


@dataclass
class ObjectRegistry:
    """Named classes plus the live instances a device is hosting.

    RESET decommissions every instance; registered classes survive, since
    code is provisioned once per rig, not per command.
    """

    classes: dict[str, Factory] = field(default_factory=dict)
    objects: dict[str, Any] = field(default_factory=dict)
    # Signatures for argument binding: a NEW factory's under its class name,
    # a class-level method's under (class, method name). None marks a
    # callable without an introspectable signature. Never holds an instance.
    _signatures: dict[Any, inspect.Signature | None] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def register_class(self, name: str, factory: Factory) -> None:
        if not IDENT_RE.match(name):
            raise ValueError(f"bad class name {name!r}")
        self.classes[name] = factory
        self._signatures.pop(name, None)

    def has_class(self, name: str) -> bool:
        return name in self.classes

    def decommission_all(self) -> None:
        """Close and forget every hosted instance, as RESET does."""
        for obj in self.objects.values():
            _close_quietly(obj)
        self.objects.clear()

    def execute(self, cmd: Command) -> Response:
        try:
            return self._execute(cmd)
        except Exception as exc:  # noqa: BLE001 - everything maps to a wire error
            return err("EXEC", _exc_text(exc))

    def _execute(self, cmd: Command) -> Response:
        if cmd.verb == "PING":
            return ok(None)
        if cmd.verb == "RESET":
            self.decommission_all()
            return ok(None)
        if cmd.verb == "NEW":
            factory = self.classes.get(cmd.method or "")
            if factory is None:
                return err("NO_CLASS", f"unknown class '{cmd.method}'")
            if not self._args_bind(cmd.method, factory, cmd.args):
                return err("BAD_ARGS", f"arguments {list(cmd.args)!r} do not fit {cmd.method}")
            try:
                instance = factory(*cmd.args)
            except Exception as exc:  # noqa: BLE001
                return err("EXEC", _exc_text(exc))
            old = self.objects.get(cmd.obj)
            if old is not None:
                _close_quietly(old)
            self.objects[cmd.obj] = instance
            return ok(None)
        if cmd.verb == "DEL":
            obj = self.objects.pop(cmd.obj, None)
            if obj is None:
                return err("NO_OBJECT", f"unknown object '{cmd.obj}'")
            _close_quietly(obj)
            return ok(None)
        if cmd.verb == "CALL":
            obj = self.objects.get(cmd.obj)
            if obj is None:
                return err("NO_OBJECT", f"unknown object '{cmd.obj}'")
            if cmd.method.startswith("_"):
                return err("NO_METHOD", f"'{cmd.method}' is not callable remotely")
            method = getattr(obj, cmd.method, None)
            if not callable(method):
                return err("NO_METHOD", f"no method '{cmd.method}' on '{cmd.obj}'")
            cls = type(obj)
            on_class = inspect.isfunction(getattr(cls, cmd.method, None)) and (
                cmd.method not in getattr(obj, "__dict__", ())
            )
            key = (cls, cmd.method) if on_class else None
            if not self._args_bind(key, method, cmd.args):
                return err("BAD_ARGS", f"arguments {list(cmd.args)!r} do not fit {cmd.method}")
            try:
                result = method(*cmd.args)
            except Exception as exc:  # noqa: BLE001
                return err("EXEC", _exc_text(exc))
            return ok(_jsonable(result))
        return err("BAD_ARGS", f"unhandled verb {cmd.verb!r}")

    def _args_bind(self, key: Any, fn: Callable, args: tuple) -> bool:
        """Whether args bind to fn's signature, cached under key unless it is None."""
        sig = self._signatures.get(key, _UNCACHED)
        if sig is _UNCACHED:
            try:
                sig = inspect.signature(fn)
            except TypeError:
                return False
            except ValueError:
                sig = None
            if key is not None:
                self._signatures[key] = sig
        if sig is None:
            return True  # no introspectable signature; let the call decide
        try:
            sig.bind(*args)
        except TypeError:
            return False
        return True


def _close_quietly(obj: Any) -> None:
    close = getattr(obj, "close", None)
    if callable(close):
        try:
            close()
        except Exception:  # noqa: BLE001 - cleanup must not break RESET
            pass


def _exc_text(exc: Exception) -> str:
    text = f"{type(exc).__name__}: {exc}"
    return "".join(ch if 32 <= ord(ch) <= 126 else " " for ch in text)[:1024]


def _jsonable(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (bytes, bytearray)):
        return list(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    raise TypeError(f"result of type {type(value).__name__} is not wire-encodable")


class CommandServer:
    """Parses incoming frames and dispatches them against a registry."""

    def __init__(self, registry: ObjectRegistry) -> None:
        self.registry = registry

    def handle_line(self, line: str) -> str:
        try:
            cmd = parse_command(line)
        except ProtocolError as exc:
            return format_response(err("BAD_ARGS", f"malformed command: {exc}"))
        return format_response(self.registry.execute(cmd))


def serve(ep: Endpoint, registry: ObjectRegistry) -> CommandServer:
    """Start answering commands on a device endpoint.

    On a virtual endpoint this attaches an event-driven server: each frame
    is dispatched the moment it arrives and stays attached until the channel
    closes. Returns the server for direct inspection.
    """
    if ep.role != "device":
        raise TransportError("serve requires a device endpoint")
    server = CommandServer(registry)
    if isinstance(ep, VirtualEndpoint):
        ep.attach_server(server)
        return server
    # Physical transport: block on the port and answer in order.
    while True:
        try:
            line, _ = ep.read_frame(ep.timeout_ms)
        except TransportTimeout:
            continue
        except ChannelClosedError:
            return server
        ep.write_line(server.handle_line(line))
