"""Command channel between the test controller and a device.

The controller injects commands and gathers results over a line-oriented
text protocol; the device side hosts an object registry that instantiates
classes, invokes methods, and returns results. Wire grammar (LF-terminated
ASCII lines, one response per command, in order; every <json> and
<json-array>, `OK <json>` included, is RFC 8259 JSON, with no NaN or Infinity):

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

import json
import re
import time
from collections import deque
from itertools import accumulate
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Any, Callable, NamedTuple, NoReturn, Protocol

from .simcore import Scheduler

MAX_FRAME_LEN = 4096


def _is_ident(name: Any) -> bool:
    """Whether name is a wire name, [A-Za-z_][A-Za-z0-9_]*: for ASCII text
    that is exactly a Python identifier, keywords included."""
    return type(name) is str and name.isascii() and name.isidentifier()


# format_response's ERR line cleanup: each character outside printable ASCII becomes a space.
_unprintable_to_space = re.compile(r"[^ -~]").sub


def _wire_value(value: Any) -> list[int]:  # the encoder's `default` hook
    if isinstance(value, (bytes, bytearray)):
        return list(value)  # bytes travel as arrays of ints
    raise TypeError(f"value of type {type(value).__name__} is not wire-encodable")


def _not_json(constant: str) -> NoReturn:  # the decoder's `parse_constant` hook
    raise ValueError(f"{constant} is not JSON compliant")


# The coder, used only by _to_json and _from_json, the one gate for wire JSON.
# The encoder owns the value model for commands and results alike; both
# directions refuse NaN and Infinity, as RFC 8259 does.
def _encode(value: Any) -> str:
    """json.JSONEncoder(separators=(",", ":"), default=_wire_value,
    allow_nan=False).encode(value), without its Python frames: one C encoder
    made for this text, a top-level str included, so that its markers dict,
    the cycle check, starts empty every time."""
    encoder = c_make_encoder({}, _wire_value, encode_basestring_ascii, None, ":", ",", False, False, False)
    return "".join(encoder(value, 0))


_decoder = json.JSONDecoder(parse_constant=_not_json)


def _decode(text: str) -> Any:
    """_decoder.decode(text), from one scan when the text is one JSON value
    and nothing else. Any other text, whitespace around a value included,
    goes to decode itself, so its acceptances and errors are decode's."""
    try:
        value, end = _decoder.raw_decode(text)
        if end == len(text):
            return value
    except ValueError:
        pass
    return _decoder.decode(text)


# One nesting rule on every supported Python: JSON nested deeper than this is
# refused. The interpreters' own limits differ (about 990 levels on 3.10 and
# 3.11, 1500 on 3.12, over 2000 on 3.13), so the codec does not lean on them.
MAX_JSON_DEPTH = 512
_TOO_DEEP = f"nested deeper than {MAX_JSON_DEPTH} levels"
# Patterns, not compiled at import: re compiles and caches them on first use,
# so a process that never scans never pays for them. With escapes gone, a
# string runs to the next quote; its brackets are data.
_ESCAPE = r"\\."
_NOT_NESTING = r'"[^"]*"|[^"\[\]{}]+'
_NESTING_STEP = {"[": 1, "{": 1, "]": -1, "}": -1, '"': 0}  # '"': an unclosed string


def _check_depth(text: str) -> None:
    """Raise ValueError when JSON text nests deeper than MAX_JSON_DEPTH.

    Each level takes two chars and one opening bracket, so the gate asks
    only about text longer than 2 * MAX_JSON_DEPTH, and a flat array of any
    length passes without a scan."""
    if text.count("[") + text.count("{") > MAX_JSON_DEPTH:
        nesting = re.sub(_NOT_NESTING, "", re.sub(_ESCAPE, "", text))
        if nesting and max(accumulate(map(_NESTING_STEP.__getitem__, nesting))) > MAX_JSON_DEPTH:
            raise ValueError(_TOO_DEEP)


def _to_json(value: Any) -> str:
    """The wire JSON of a value; TypeError or ValueError if the wire cannot carry it."""
    try:
        text = _encode(value)
    except RecursionError as exc:  # the depth rule, whatever the interpreter's own limit
        raise ValueError(_TOO_DEEP) from exc
    if len(text) > 2 * MAX_JSON_DEPTH:
        _check_depth(text)
    return text


def _from_json(text: str) -> Any:
    """The value of wire JSON text; ValueError if it is not wire JSON."""
    try:
        if len(text) > 2 * MAX_JSON_DEPTH:
            _check_depth(text)
        return _decode(text)  # JSONDecodeError is a ValueError
    except RecursionError as exc:
        raise ValueError(_TOO_DEEP) from exc


DEFAULT_TIMEOUT_MS = 5000  # simulated ms on the virtual channel
DEFAULT_SERIAL_TIMEOUT_MS = 2000  # wall-clock ms on a physical port


class TransportError(Exception):
    """Base for channel-level failures."""


class TransportTimeout(TransportError):
    """The device did not answer within the timeout budget."""


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


class Command(NamedTuple):
    """One parsed command. For NEW, `method` holds the class name."""

    verb: str
    obj: str | None = None
    method: str | None = None
    args: tuple = ()


class Response(NamedTuple):
    status: str  # "OK" | "ERR"
    payload: Any = None
    code: str | None = None
    message: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "OK"


# The hot paths build records with tuple.__new__, all fields given in order:
# one C call instead of the generated keyword __new__, a Python call that
# checks nothing more. Records are immutable, so the constants are shared.
_new_record = tuple.__new__
_OK_NONE = Response("OK")
_PING = Command("PING")
_RESET = Command("RESET")


def err(code: str, message: str) -> Response:
    return _new_record(Response, ("ERR", None, code, message))


def _name(value: Any) -> str:
    """A name for the wire, or ProtocolError before any frame is built."""
    if _is_ident(value):
        return value
    raise ProtocolError(f"bad identifier {value!r}")


def format_command(cmd: Command) -> str:
    verb, obj, method, args = cmd
    if verb == "CALL" or verb == "NEW":
        if not (_is_ident(obj) and _is_ident(method)):
            _name(obj)  # one of the two raises, naming the first bad name
            _name(method)
        if not isinstance(args, (tuple, list)):  # the device reads only an array as args
            raise ProtocolError(f"args must be a tuple or list, not {type(args).__name__}")
        if args:
            try:
                text = _to_json(args)
            except (TypeError, ValueError) as exc:
                raise ProtocolError(f"bad JSON args: {exc}") from exc
        else:  # empty args need no encoder
            text = "[]"
        if verb == "CALL":  # half of all traffic: test it first
            return f"CALL {obj}.{method} {text}"
        return f"NEW {method} {obj} {text}"
    if verb == "DEL":
        return f"DEL {_name(obj)}"
    if verb in ("PING", "RESET"):
        return verb
    raise ProtocolError(f"unknown verb {verb!r}")


def parse_command(line: str) -> Command:
    verb, _, rest = line.partition(" ")
    if verb == "CALL":  # half of all traffic: test it first
        target, space, args_text = rest.partition(" ")
        if not space:
            raise ProtocolError("CALL needs <name>.<method> <json-array>")
        name, dot, method = target.partition(".")
        if not dot:
            raise ProtocolError(f"CALL target {target!r} missing '.'")
        if not (_is_ident(name) and _is_ident(method)):
            raise ProtocolError(f"bad identifier in CALL {target!r}")
        args = () if args_text == "[]" else _parse_args(args_text)  # half of all CALLs: no decoder
        return _new_record(Command, ("CALL", name, method, args))
    if verb in ("PING", "RESET"):
        if rest:
            raise ProtocolError(f"{verb} takes no arguments")
        return _PING if verb == "PING" else _RESET
    if verb == "DEL":
        if not _is_ident(rest):
            raise ProtocolError(f"bad object name {rest!r}")
        return _new_record(Command, ("DEL", rest, None, ()))
    if verb == "NEW":
        pieces = rest.split(" ", 2)
        if len(pieces) != 3:
            raise ProtocolError("NEW needs <Class> <name> <json-array>")
        cls, name, args_text = pieces
        if not _is_ident(cls) or not _is_ident(name):
            raise ProtocolError(f"bad identifier in NEW {cls!r} {name!r}")
        args = () if args_text == "[]" else _parse_args(args_text)
        return _new_record(Command, ("NEW", name, cls, args))
    raise ProtocolError(f"unknown verb {verb!r}")


def _parse_args(text: str) -> tuple:
    try:
        args = _from_json(text)
    except ValueError as exc:
        raise ProtocolError(f"bad JSON args: {exc}") from exc
    if not isinstance(args, list):
        raise ProtocolError("args must be a JSON array")
    return tuple(args)


def format_response(resp: Response) -> str:
    """Render one response as one valid frame, whatever it holds. This is the
    one place that decides whether a result can be carried: an OK payload the
    encoder refuses, or whose line outgrows a frame, becomes ERR EXEC. An ERR
    line is cut to the frame limit with every character outside printable
    ASCII made a space."""
    # No check_frame: the encoder escapes all but printable ASCII, and the rest is above.
    if resp.status == "OK":
        if resp.payload is None:  # most replies: no encoder needed
            return "OK null"
        try:  # refused: an unknown type, an int too long to print, a cycle, NaN, deep nesting
            line = "OK " + _to_json(resp.payload)
            if len(line) <= MAX_FRAME_LEN:
                return line
            resp = err("EXEC", f"result too long for one frame: {len(line)} > {MAX_FRAME_LEN}")
        except (TypeError, ValueError) as exc:
            resp = err("EXEC", f"{type(exc).__name__}: {exc}")
    return _unprintable_to_space(" ", f"ERR {resp.code} {resp.message}"[:MAX_FRAME_LEN]).rstrip()


def parse_response(line: str) -> Response:
    if line == "OK null":  # most replies: no decoder needed
        return _OK_NONE
    status, space, rest = line.partition(" ")
    if status == "OK":
        if not space:
            raise ProtocolError("OK response missing payload")
        try:
            return _new_record(Response, ("OK", _from_json(rest), None, ""))
        except ValueError as exc:
            raise ProtocolError(f"bad JSON payload: {exc}") from exc
    if status == "ERR":
        code, _, message = rest.partition(" ")
        if not code:
            raise ProtocolError("ERR response missing code")
        return err(code, message)
    raise ProtocolError(f"bad response line: {line!r}")


# ---------------------------------------------------------------------------
# Endpoints

LineLogger = Callable[[str, str, int | None], None]  # (direction, line, sim_ms)


class Endpoint:
    """One side of a duplex command channel.

    Subclasses implement the raw line operations: write_line(line),
    read_frame(timeout_ms), which returns (line, arrival stamp) with virtual
    stamps in simulated ms, and close().
    """

    role: str
    timeout_ms: int

    def __init__(self, role: str, timeout_ms: int) -> None:
        if role not in ("controller", "device"):
            raise ValueError(f"role must be controller or device, got {role!r}")
        self.role = role
        self.timeout_ms = timeout_ms
        self.logger: LineLogger | None = None  # a Session sets it to record every line

    def sim_now(self) -> int | None:
        return None


class VirtualEndpoint(Endpoint):
    """In-process endpoint; its peer sees writes immediately and in order.
    An endpoint without a peer is closed.

    Timeouts are budgets of *simulated* time: a response produced after the
    clock moved past the deadline counts as silence, exactly like a device
    that is still busy when the controller gives up. The budget is always
    DEFAULT_TIMEOUT_MS; a caller overrides it for one command through
    send_command's timeout_ms.
    """

    def __init__(self, scheduler: Scheduler, role: str) -> None:
        super().__init__(role, DEFAULT_TIMEOUT_MS)
        self._scheduler = scheduler
        self._rx: deque[tuple[str, int]] = deque()
        self._peer: VirtualEndpoint | None = None
        self._server: CommandServer | None = None

    def sim_now(self) -> int:
        return self._scheduler.now

    def write_line(self, line: str) -> None:
        check_frame(line)
        now = self._scheduler.now
        if self.logger is not None:
            self.logger("send", line, now)
        peer = self._peer
        if peer is None:
            return  # closed: undeliverable; the reader finds out on its next read
        server = peer._server
        if server is None or peer._rx:  # not serving yet, or still answering queued frames: wait in turn
            peer._rx.append((line, now))
        else:  # a device that is caught up answers at once
            peer.write_line(server.handle_line(line))

    def read_frame(self, timeout_ms: int) -> tuple[str, int]:
        if not self._rx:
            if self._peer is None:
                raise ChannelClosedError("channel closed")
            # Nothing buffered: let scheduled work run up to the deadline in
            # case it produces frames, then give up.
            sched = self._scheduler
            if not sched.run_until(lambda: self._rx, sched.now + timeout_ms):
                raise TransportTimeout(f"no frame within {timeout_ms} ms (simulated)")
        return self._rx.popleft()

    def close(self) -> None:
        """Close the channel for both ends by unlinking them from each other.

        Frames already buffered stay readable; everything written later is
        dropped. Unlinking leaves no reference cycle between the two ends.
        """
        if self._peer is not None:
            self._peer._peer = None
            self._peer._server = None
        self._peer = None
        self._server = None

    def _drain(self) -> None:
        """Answer the frames queued before serve, and any that arrive meanwhile."""
        assert self._server is not None
        while self._rx:
            line, _stamp = self._rx.popleft()
            reply = self._server.handle_line(line)
            self.write_line(reply)


def open_virtual_pair(scheduler: Scheduler) -> tuple[VirtualEndpoint, VirtualEndpoint]:
    """Create a linked (controller, device) endpoint pair on one clock."""
    controller = VirtualEndpoint(scheduler, "controller")
    device = VirtualEndpoint(scheduler, "device")
    controller._peer = device
    device._peer = controller
    return controller, device


# ---------------------------------------------------------------------------
# Serial interface slot (no bundled implementation)


class SerialPortLike(Protocol):
    """What a pluggable physical port must provide."""

    def read_line(self, timeout_s: float) -> str | None: ...

    def write_line(self, line: str) -> None: ...

    def close(self) -> None: ...


class SerialEndpoint(Endpoint):
    """Adapter running the same grammar over a user-supplied physical port.

    Timeouts here are wall-clock; the virtual scheduler is not involved.

    A controller that timed out may still get the reply it gave up on, and
    that late frame must not be read as the answer to the next command. So
    before its next write it resyncs: it sends `DEL` for a name nobody hosts
    and drops every frame up to the device's NO_OBJECT reply, which quotes
    that name.
    """

    def __init__(
        self, port: SerialPortLike, role: str, timeout_ms: int = DEFAULT_SERIAL_TIMEOUT_MS
    ) -> None:
        super().__init__(role, timeout_ms)
        self.port = port
        self._stale = False  # a read timed out: a late reply may still arrive
        self._fences = 0

    def write_line(self, line: str) -> None:
        check_frame(line)
        if self._stale:
            self._resync()
        if self.logger is not None:
            self.logger("send", line, None)
        self.port.write_line(line)

    def read_frame(self, timeout_ms: int) -> tuple[str, None]:
        deadline = time.monotonic() + timeout_ms / 1000.0
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self._stale = self.role == "controller"
                raise TransportTimeout(f"no frame within {timeout_ms} ms")
            line = self.port.read_line(remaining)
            if line is not None:
                return check_frame(line.rstrip("\n")), None

    def _resync(self) -> None:
        """Drop late frames up to the reply to a fence command. If the fence
        goes unanswered, read_frame marks the endpoint stale again and its
        TransportTimeout propagates; the next write fences with a new name."""
        self._stale = False
        self._fences += 1
        fence = f"_resync_{self._fences}"
        self.write_line(f"DEL {fence}")
        while True:
            line, _ = self.read_frame(self.timeout_ms)
            if self.logger is not None:
                self.logger("recv", line, None)
            if line.startswith("ERR NO_OBJECT ") and line.endswith(f"'{fence}'"):
                return

    def close(self) -> None:
        self.port.close()


# ---------------------------------------------------------------------------
# Controller side


def send_command(ep: Endpoint, cmd: Command, timeout_ms: int | None = None) -> Response:
    """Send one command and block until its response or the timeout.

    Returns the parsed Response (including ERR responses). Raises
    TransportTimeout when the device stays silent past the budget; on a
    virtual channel a response stamped later than the budget in simulated
    time counts as silence and is discarded. A budget that is not an int
    >= 0 raises ValueError before anything is sent.
    """
    if ep.role != "controller":
        raise TransportError("send_command requires a controller endpoint")
    budget = ep.timeout_ms if timeout_ms is None else timeout_ms
    if type(budget) is not int or budget < 0:  # type(), not isinstance: True is no budget
        raise ValueError(f"timeout_ms must be an int >= 0, got {budget!r}")
    started = ep.sim_now()
    line = format_command(cmd)
    ep.write_line(line)
    reply, stamp = ep.read_frame(budget)
    if started is not None and stamp is not None and stamp - started > budget:
        # Late answer from a device that was still busy when we gave up.
        raise TransportTimeout(f"no response to '{line}' within {budget} ms (simulated)")
    if ep.logger is not None:
        ep.logger("recv", reply, stamp)
    return parse_response(reply)


# ---------------------------------------------------------------------------
# Device side

Factory = Callable[..., Any]


class ObjectRegistry:
    """Named classes plus the live instances a device is hosting.

    RESET decommissions every instance; registered classes survive, since
    code is provisioned once per rig, not per command.
    """

    def __init__(self) -> None:
        self.classes: dict[str, Factory] = {}
        self.objects: dict[str, Any] = {}

    def register_class(self, name: str, factory: Factory) -> None:
        if not _is_ident(name):
            raise ValueError(f"bad class name {name!r}")
        self.classes[name] = factory

    def decommission_all(self) -> None:
        """Close and forget every hosted instance, as RESET does."""
        for obj in self.objects.values():
            _close_quietly(obj)
        self.objects.clear()

    def execute(self, cmd: Command) -> Response:
        try:
            verb, name, method_name, args = cmd
            if verb == "CALL":  # half of all traffic: test it first
                obj = self.objects.get(name)
                if obj is None:
                    return err("NO_OBJECT", f"unknown object '{name}'")
                if method_name.startswith("_") or method_name == "close":  # only DEL, NEW and RESET close
                    return err("NO_METHOD", f"'{method_name}' is not callable remotely")
                method = getattr(obj, method_name, None)
                if not callable(method):
                    return err("NO_METHOD", f"no method '{method_name}' on '{name}'")
                try:
                    result = method(*args)
                except TypeError:
                    if _binds(method, args):
                        raise
                    return err("BAD_ARGS", f"arguments {list(args)!r} do not fit {method_name}")
                return _new_record(Response, ("OK", result, None, ""))
            if verb == "PING":
                return _OK_NONE
            if verb == "RESET":
                self.decommission_all()
                return _OK_NONE
            if verb == "NEW":
                factory = self.classes.get(method_name or "")
                if factory is None:
                    return err("NO_CLASS", f"unknown class '{method_name}'")
                try:
                    instance = factory(*args)
                except TypeError:
                    if _binds(factory, args):
                        raise
                    return err("BAD_ARGS", f"arguments {list(args)!r} do not fit {method_name}")
                _close_quietly(self.objects.get(name))
                self.objects[name] = instance
                return _OK_NONE
            if verb == "DEL":
                obj = self.objects.pop(name, None)
                if obj is None:
                    return err("NO_OBJECT", f"unknown object '{name}'")
                _close_quietly(obj)
                return _OK_NONE
            return err("BAD_ARGS", f"unhandled verb {verb!r}")
        except Exception as exc:  # noqa: BLE001 - everything maps to a wire error
            return err("EXEC", f"{type(exc).__name__}: {exc}")


def _binds(fn: Callable, args: tuple) -> bool:
    """Whether args bind to inspect.signature(fn); True when fn has none.

    Dispatch asks only after a call raised TypeError: Python binds a
    function's arguments before any of its code runs, so a call that fits
    pays for no check."""
    import inspect  # only a refused call pays for the import

    try:
        inspect.signature(fn).bind(*args)
    except TypeError:
        return False
    except ValueError:  # no signature: the call's own TypeError stands
        pass
    return True


def _close_quietly(obj: Any) -> None:
    close = getattr(obj, "close", None)
    if callable(close):
        try:
            close()
        except Exception:  # noqa: BLE001 - cleanup must not break RESET
            pass


class CommandServer:
    """Parses incoming frames and dispatches them against a registry."""

    def __init__(self, registry: ObjectRegistry) -> None:
        self.registry = registry

    def handle_line(self, line: str) -> str:
        try:
            cmd = parse_command(line)
        except ProtocolError as exc:
            return _malformed(exc)
        return format_response(self.registry.execute(cmd))


def _malformed(exc: ProtocolError) -> str:
    return format_response(err("BAD_ARGS", f"malformed command: {exc}"))


def serve(ep: Endpoint, registry: ObjectRegistry) -> CommandServer:
    """Start answering commands on a device endpoint.

    On a virtual endpoint this attaches an event-driven server: each frame
    is dispatched the moment it arrives and stays attached until the channel
    closes. Returns the server for direct inspection. On a serial endpoint
    it answers in order, a line that is not a frame included, until the
    port raises ChannelClosedError.
    """
    if ep.role != "device":
        raise TransportError("serve requires a device endpoint")
    server = CommandServer(registry)
    if isinstance(ep, VirtualEndpoint):
        ep._server = server
        ep._drain()
        return server
    # Physical transport: block on the port and answer in order.
    while True:
        try:
            line, _ = ep.read_frame(ep.timeout_ms)
        except TransportTimeout:
            continue
        except ProtocolError as exc:  # not a frame, but it still gets one answer
            ep.write_line(_malformed(exc))
            continue
        except ChannelClosedError:
            return server
        ep.write_line(server.handle_line(line))
