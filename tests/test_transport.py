"""Wire grammar, the virtual channel, command dispatch, and timeouts."""

import functools
import inspect
import json
import random
import string
import types
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from double_harness import transport
from double_harness.simcore import Scheduler
from double_harness.transport import (
    MAX_FRAME_LEN,
    ChannelClosedError,
    Command,
    ObjectRegistry,
    ProtocolError,
    Response,
    SerialEndpoint,
    TransportTimeout,
    check_frame,
    format_command,
    format_response,
    open_virtual_pair,
    parse_command,
    parse_response,
    ping,
    send_command,
    serve,
)


class TestGrammar:
    def test_command_lines_match_the_wire_format(self):
        assert format_command(Command("NEW", obj="led", method="Led", args=(13, 10))) == (
            "NEW Led led [13,10]"
        )
        assert format_command(
            Command("CALL", obj="led", method="start_acquisition", args=())
        ) == "CALL led.start_acquisition []"
        assert format_command(Command("DEL", obj="led")) == "DEL led"
        assert format_command(Command("PING")) == "PING"
        assert format_command(Command("RESET")) == "RESET"

    def test_response_lines(self):
        assert format_response(Response("OK", payload=2000.0)) == "OK 2000.0"
        assert parse_response("OK 2000.0") == Response("OK", payload=2000.0)
        parsed = parse_response("ERR NO_OBJECT unknown object 'foo'")
        assert parsed.code == "NO_OBJECT"
        assert parsed.message == "unknown object 'foo'"

    def test_args_may_contain_spaces(self):
        cmd = Command("CALL", obj="gps", method="set_fix", args=("4807.038 N",))
        assert parse_command(format_command(cmd)) == cmd

    def test_malformed_lines_rejected(self):
        for line in (
            "NEW Led",  # missing args
            "CALL led [1]",  # missing method
            "CALL led.set [1",  # bad json
            "CALL led.set 12",  # args not an array
            "DEL 9bad",
            "PING extra",
            "FROB x",
            "NEW Led 9bad []",
        ):
            with pytest.raises(ProtocolError):
                parse_command(line)

    def test_frame_limits(self):
        with pytest.raises(ProtocolError):
            check_frame("x" * 5000)
        with pytest.raises(ProtocolError):
            check_frame("café")

    def test_roundtrip_over_generated_commands(self):
        """Property: parse(format(cmd)) == cmd for well-formed commands."""
        rng = random.Random(42)

        def ident():
            first = rng.choice(string.ascii_letters + "_")
            rest = "".join(
                rng.choice(string.ascii_letters + string.digits + "_")
                for _ in range(rng.randrange(0, 8))
            )
            return first + rest

        def value(depth=0):
            kinds = ["int", "float", "str", "bool", "null"]
            if depth < 2:
                kinds += ["list"]
            kind = rng.choice(kinds)
            if kind == "int":
                return rng.randrange(-1000, 1000)
            if kind == "float":
                return round(rng.uniform(-100, 100), 4)
            if kind == "str":
                return "".join(
                    rng.choice(string.ascii_letters + string.digits + " _.,")
                    for _ in range(rng.randrange(0, 10))
                )
            if kind == "bool":
                return rng.random() < 0.5
            if kind == "null":
                return None
            return [value(depth + 1) for _ in range(rng.randrange(0, 3))]

        for _ in range(300):
            verb = rng.choice(("NEW", "CALL", "DEL", "PING", "RESET"))
            if verb == "NEW":
                cmd = Command("NEW", obj=ident(), method=ident(),
                              args=tuple(value() for _ in range(rng.randrange(0, 4))))
            elif verb == "CALL":
                cmd = Command("CALL", obj=ident(), method=ident(),
                              args=tuple(value() for _ in range(rng.randrange(0, 4))))
            elif verb == "DEL":
                cmd = Command("DEL", obj=ident())
            else:
                cmd = Command(verb)
            assert parse_command(format_command(cmd)) == cmd


class TestVirtualChannel:
    def test_loopback_identity(self, sched):
        a, b = open_virtual_pair(sched)
        a.write_line("PING")
        line, stamp = b.read_frame(100)
        assert line == "PING"
        assert stamp == 0

    def test_fifo_order_for_many_frames(self, sched):
        a, b = open_virtual_pair(sched)
        for i in range(100):
            a.write_line(f"DEL obj{i}")
        received = [b.read_frame(10)[0] for _ in range(100)]
        assert received == [f"DEL obj{i}" for i in range(100)]

    def test_close_unlinks_both_ends_and_keeps_buffered_frames(self, sched):
        a, b = open_virtual_pair(sched)
        serve(b, ObjectRegistry())
        a.write_line("PING")
        b.close()
        assert (a._peer, a._server, b._peer, b._server) == (None, None, None, None)
        assert a.read_frame(100)[0] == "OK null"
        with pytest.raises(ChannelClosedError):
            a.read_frame(100)

    def test_read_after_close_raises(self, sched):
        a, b = open_virtual_pair(sched)
        a.close()
        b.write_line("PING")  # lost; the channel is down
        with pytest.raises(ChannelClosedError):
            a.read_frame(100)

    def test_read_on_empty_channel_times_out(self, sched):
        a, _b = open_virtual_pair(sched)
        with pytest.raises(TransportTimeout):
            a.read_frame(500)


class _Thing:
    """Device-side scratch object for dispatch tests."""

    def __init__(self, base=0):
        self.base = base
        self.closed = False

    def add(self, x, y):
        return self.base + x + y

    def boom(self):
        raise RuntimeError("kaboom")

    def bad_result(self):
        return object()

    def close(self):
        self.closed = True


@pytest.fixture
def served(sched):
    registry = ObjectRegistry()
    registry.register_class("Thing", _Thing)
    controller, device = open_virtual_pair(sched)
    serve(device, registry)
    return controller, registry


class TestDispatch:
    def test_new_call_del_happy_path(self, served):
        controller, _ = served
        assert send_command(controller, Command("NEW", obj="t", method="Thing", args=(10,))).ok
        resp = send_command(controller, Command("CALL", obj="t", method="add", args=(1, 2)))
        assert resp.ok and resp.payload == 13
        assert send_command(controller, Command("DEL", obj="t")).ok

    def test_ping_roundtrip(self, served):
        controller, _ = served
        resp = send_command(controller, Command("PING"))
        assert resp.ok and resp.payload is None

    def test_call_unknown_object(self, served):
        controller, _ = served
        resp = send_command(controller, Command("CALL", obj="foo", method="add", args=(1, 2)))
        assert resp.code == "NO_OBJECT"
        assert "foo" in resp.message

    def test_new_unknown_class(self, served):
        controller, _ = served
        resp = send_command(controller, Command("NEW", obj="x", method="Gizmo", args=()))
        assert resp.code == "NO_CLASS"

    def test_call_unknown_and_private_methods(self, served):
        controller, _ = served
        send_command(controller, Command("NEW", obj="t", method="Thing", args=()))
        assert send_command(
            controller, Command("CALL", obj="t", method="nope", args=())
        ).code == "NO_METHOD"
        assert send_command(
            controller, Command("CALL", obj="t", method="_secret", args=())
        ).code == "NO_METHOD"

    def test_bad_arity_is_bad_args(self, served):
        controller, _ = served
        send_command(controller, Command("NEW", obj="t", method="Thing", args=()))
        resp = send_command(controller, Command("CALL", obj="t", method="add", args=(1,)))
        assert resp.code == "BAD_ARGS"

    def test_method_exception_is_exec(self, served):
        controller, _ = served
        send_command(controller, Command("NEW", obj="t", method="Thing", args=()))
        resp = send_command(controller, Command("CALL", obj="t", method="boom", args=()))
        assert resp.code == "EXEC"
        assert "RuntimeError" in resp.message and "kaboom" in resp.message

    def test_unencodable_result_is_exec(self, served):
        controller, _ = served
        send_command(controller, Command("NEW", obj="t", method="Thing", args=()))
        resp = send_command(controller, Command("CALL", obj="t", method="bad_result", args=()))
        assert resp.code == "EXEC"

    def test_del_twice(self, served):
        controller, _ = served
        send_command(controller, Command("NEW", obj="t", method="Thing", args=()))
        assert send_command(controller, Command("DEL", obj="t")).ok
        assert send_command(controller, Command("DEL", obj="t")).code == "NO_OBJECT"

    def test_reset_clears_objects_but_keeps_classes(self, served):
        controller, registry = served
        send_command(controller, Command("NEW", obj="t", method="Thing", args=()))
        thing = registry.objects["t"]
        assert send_command(controller, Command("RESET")).ok
        assert thing.closed  # decommission hook ran
        assert send_command(
            controller, Command("CALL", obj="t", method="add", args=(1, 2))
        ).code == "NO_OBJECT"
        assert send_command(controller, Command("NEW", obj="t", method="Thing", args=())).ok

    def test_new_over_existing_name_closes_the_old_instance(self, served):
        controller, registry = served
        send_command(controller, Command("NEW", obj="t", method="Thing", args=()))
        old = registry.objects["t"]
        send_command(controller, Command("NEW", obj="t", method="Thing", args=(5,)))
        assert old.closed
        assert registry.objects["t"].base == 5

    def test_malformed_frame_gets_bad_args_response(self, sched, served):
        controller, _ = served
        controller.write_line("CALL nope")
        line, _ = controller.read_frame(100)
        resp = parse_response(line)
        assert resp.code == "BAD_ARGS"

    def test_request_response_bijection(self, served):
        """Every command produced exactly one response, in order."""
        controller, _ = served
        script = [
            Command("PING"),
            Command("NEW", obj="t", method="Thing", args=()),
            Command("CALL", obj="t", method="add", args=(2, 3)),
            Command("CALL", obj="missing", method="x", args=()),
            Command("RESET"),
        ]
        responses = [send_command(controller, cmd) for cmd in script]
        assert len(responses) == len(script)
        assert [r.ok for r in responses] == [True, True, True, False, True]


class TestSignatureCache:
    """Argument binding stays exact across repeats, re-registration and instance callables."""

    @staticmethod
    def _run(registry, verb, obj=None, method=None, args=()):
        return registry.execute(Command(verb, obj=obj, method=method, args=tuple(args)))

    @pytest.fixture
    def registry(self):
        registry = ObjectRegistry()
        registry.register_class("Thing", _Thing)
        return registry

    def test_wrong_arity_is_bad_args_after_caching(self, registry):
        for _ in range(2):
            assert self._run(registry, "NEW", "t", "Thing", [1]).ok
            assert self._run(registry, "NEW", "u", "Thing", [1, 2]).code == "BAD_ARGS"
            assert self._run(registry, "CALL", "t", "add", [1, 2]).payload == 4
            assert self._run(registry, "CALL", "t", "add", [1]).code == "BAD_ARGS"

    def test_reregistered_class_binds_against_its_new_signature(self, registry):
        assert self._run(registry, "NEW", "t", "Thing", [1]).ok
        registry.register_class("Thing", lambda a, b: _Thing(a + b))
        assert self._run(registry, "NEW", "t", "Thing", [1]).code == "BAD_ARGS"
        assert self._run(registry, "NEW", "t", "Thing", [1, 2]).ok
        assert registry.objects["t"].base == 3

    def test_instance_callable_binds_against_its_own_signature(self, registry):
        self._run(registry, "NEW", "a", "Thing", [])
        self._run(registry, "NEW", "b", "Thing", [])
        assert self._run(registry, "CALL", "a", "add", [1, 2]).payload == 3
        registry.objects["b"].add = lambda x: x * 10
        assert self._run(registry, "CALL", "b", "add", [4]).payload == 40
        assert self._run(registry, "CALL", "b", "add", [1, 2]).code == "BAD_ARGS"
        registry.objects["b"].add = lambda x, y, z: x + y + z
        assert self._run(registry, "CALL", "b", "add", [1, 2, 3]).payload == 6
        assert self._run(registry, "CALL", "a", "add", [1]).code == "BAD_ARGS"
        assert self._run(registry, "CALL", "a", "add", [1, 2]).payload == 3

    def test_decommissioned_instances_are_not_kept_by_the_registry(self, registry):
        self._run(registry, "NEW", "t", "Thing", [])
        assert self._run(registry, "CALL", "t", "add", [1, 2]).ok
        assert self._run(registry, "CALL", "t", "add", [1]).code == "BAD_ARGS"
        thing = weakref.ref(registry.objects["t"])
        registry.decommission_all()
        assert thing() is None


def _traced(fn):
    """A pass-through wrapper like a tracer puts around a hosted method."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return fn(*args, **kwargs)

    return wrapper


class _TracedThing(_Thing):
    add = _traced(_Thing.add)


def _posonly(a, b, /):
    pass


def _defaults(a, b=1, c=2):
    pass


def _varargs(a, *rest):
    pass


def _kwonly_required(a, *, k):
    pass


def _kwonly_default(a, *, k=1):
    pass


def _varargs_kwonly(*rest, k=1):
    pass


class _Shapes:
    def method(self, a, b=1):
        pass

    def method_varargs(*args):
        pass

    def method_kwonly(self, *, k):
        pass

    @staticmethod
    def static(a, b):
        pass

    @classmethod
    def klass(cls, a, b=2):
        pass

    traced = _traced(method)

    def __call__(self, a):
        pass


# (shape, callable, judged from its code object without inspect)
_SHAPES = [
    ("no_params", lambda: None, True),
    ("lambda_defaults", lambda init_delay_ms=None: None, True),
    ("positional_only", _posonly, True),
    ("defaults", _defaults, True),
    ("varargs", _varargs, True),
    ("kwonly_required", _kwonly_required, True),
    ("kwonly_default", _kwonly_default, True),
    ("varargs_kwonly", _varargs_kwonly, True),
    ("bound_method", _Shapes().method, True),
    ("bound_method_varargs", _Shapes().method_varargs, True),
    ("bound_method_kwonly", _Shapes().method_kwonly, True),
    ("bound_without_self", types.MethodType(lambda *, k=1: None, object()), True),
    ("staticmethod", _Shapes().static, True),
    ("classmethod", _Shapes().klass, True),
    ("wraps_wrapper", _traced(_defaults), True),
    ("wrapped_bound_method", _Shapes().traced, True),
    ("class", _Thing, False),
    ("callable_instance", _Shapes(), False),
    ("partial", functools.partial(_defaults, 1), False),
    ("builtin", divmod, False),
    ("builtin_without_signature", max, False),
]


def _binds(fn, n):
    """The reference: inspect.signature binding, as dispatch used to do it."""
    try:
        signature = inspect.signature(fn)
    except ValueError:
        return True
    try:
        signature.bind(*[0] * n)
    except TypeError:
        return False
    return True


class TestArgsFit:
    @pytest.mark.parametrize("fn, fast", [s[1:] for s in _SHAPES], ids=[s[0] for s in _SHAPES])
    def test_agrees_with_signature_binding(self, monkeypatch, fn, fast):
        expected = [_binds(fn, n) for n in range(6)]
        if fast:  # judged without inspect
            monkeypatch.setattr(inspect, "signature", None)
        assert [transport._args_fit(fn, (0,) * n) for n in range(6)] == expected

    def test_wrapped_hosted_method_answers_bad_args_to_a_wrong_arity(self):
        registry = ObjectRegistry()
        registry.register_class("Thing", _TracedThing)
        assert registry.execute(Command("NEW", obj="t", method="Thing", args=(5,))).ok
        assert registry.execute(Command("CALL", obj="t", method="add", args=(1, 2))).payload == 8
        resp = registry.execute(Command("CALL", obj="t", method="add", args=(1,)))
        assert resp.code == "BAD_ARGS"


class _Wire:
    """Device-side object whose answers can outgrow a frame."""

    def two(self, a, b):
        return [a, b]

    def double(self, x):
        return x * 2


def _wire_reply(line):
    """Send one raw line to a device hosting `_Wire` as `b`; return every reply frame."""
    sched = Scheduler()
    registry = ObjectRegistry()
    registry.register_class("Wire", _Wire)
    registry.objects["b"] = _Wire()
    controller, device = open_virtual_pair(sched)
    serve(device, registry)
    controller.write_line(line)
    replies = []
    while True:
        try:
            replies.append(controller.read_frame(0)[0])
        except TransportTimeout:
            return replies


_IDENT = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,7}", fullmatch=True)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=20),
    lambda inner: st.lists(inner, max_size=3),
    max_leaves=8,
)
_ARGS = st.lists(_JSON, max_size=4).map(tuple)
_COMMANDS = st.one_of(
    st.builds(lambda o, c, a: Command("NEW", obj=o, method=c, args=a), _IDENT, _IDENT, _ARGS),
    st.builds(lambda o, m, a: Command("CALL", obj=o, method=m, args=a), _IDENT, _IDENT, _ARGS),
    st.builds(lambda o: Command("DEL", obj=o), _IDENT),
    st.sampled_from([Command("PING"), Command("RESET")]),
)
_PRINTABLE = st.characters(min_codepoint=32, max_codepoint=126)


def _call_line(method, args, slack):
    """CALL b.<method> with args; with slack set, one more string argument
    fills the line up to `slack` chars short of the frame limit."""
    head = f"CALL b.{method} "
    if slack is None:
        return head + json.dumps(args)
    fill = MAX_FRAME_LEN - slack - len(head + json.dumps(args + [""]))
    return head + json.dumps(args + ["x" * max(fill, 0)])


_LATIN = st.text(st.characters(min_codepoint=0xA1, max_codepoint=0x17F))  # echoed as non-ASCII
_LINES = st.one_of(
    st.builds(
        _call_line,
        st.sampled_from(["two", "double", "nope", "_hidden"]),
        st.lists(_JSON | _LATIN, max_size=3),
        st.none() | st.integers(0, 40) | st.integers(0, 2100),
    ),
    st.text(_PRINTABLE, max_size=MAX_FRAME_LEN),
    _COMMANDS.map(format_command),
).filter(lambda line: len(line) <= MAX_FRAME_LEN)


class TestOneFramePerCommand:
    """Whatever printable line arrives, the device answers with exactly one valid frame."""

    def test_bad_args_echo_of_non_ascii_args(self):
        (reply,) = _wire_reply(r'CALL b.two ["\u00e9"]')
        assert check_frame(reply) == reply
        assert parse_response(reply).code == "BAD_ARGS"

    def test_ok_payload_longer_than_a_frame_becomes_exec(self):
        (reply,) = _wire_reply(f'CALL b.double ["{"x" * 3000}"]')
        resp = parse_response(reply)
        assert resp.code == "EXEC" and "too long" in resp.message

    def test_echoed_args_are_cut_to_the_frame_limit(self):
        (reply,) = _wire_reply(f'CALL b.two ["{"x" * 4060}"]')
        assert len(reply) == MAX_FRAME_LEN
        assert parse_response(reply).code == "BAD_ARGS"

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_LINES)
    def test_any_printable_line_gets_exactly_one_valid_frame(self, line):
        (reply,) = _wire_reply(line)
        assert check_frame(reply) == reply
        parse_response(reply)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_COMMANDS)
    def test_parse_inverts_format(self, cmd):
        assert parse_command(format_command(cmd)) == cmd


class _SlowRegistry:
    """Builds a registry whose method burns simulated time before answering."""

    @staticmethod
    def build(sched, busy_ms):
        registry = ObjectRegistry()

        class Sluggish:
            def work(self):
                sched.advance_by(busy_ms)
                return "done"

        registry.register_class("Sluggish", Sluggish)
        return registry


class TestVirtualTimeout:
    def test_device_busy_past_the_budget_times_out(self, sched):
        controller, device = open_virtual_pair(sched, timeout_ms=5000)
        serve(device, _SlowRegistry.build(sched, busy_ms=6000))
        send_command(controller, Command("NEW", obj="s", method="Sluggish", args=()))
        with pytest.raises(TransportTimeout):
            send_command(controller, Command("CALL", obj="s", method="work", args=()))

    def test_response_exactly_at_the_deadline_is_accepted(self, sched):
        controller, device = open_virtual_pair(sched, timeout_ms=5000)
        serve(device, _SlowRegistry.build(sched, busy_ms=5000))
        send_command(controller, Command("NEW", obj="s", method="Sluggish", args=()))
        resp = send_command(controller, Command("CALL", obj="s", method="work", args=()))
        assert resp.payload == "done"

    def test_timeout_does_not_corrupt_later_exchanges(self, sched):
        controller, device = open_virtual_pair(sched, timeout_ms=1000)
        serve(device, _SlowRegistry.build(sched, busy_ms=2000))
        send_command(controller, Command("NEW", obj="s", method="Sluggish", args=()))
        with pytest.raises(TransportTimeout):
            send_command(controller, Command("CALL", obj="s", method="work", args=()))
        assert send_command(controller, Command("RESET")).ok
        assert ping(controller)
        resp = send_command(controller, Command("NEW", obj="s2", method="Sluggish", args=()))
        assert resp.ok

    def test_per_call_timeout_override_wins(self, sched):
        controller, device = open_virtual_pair(sched, timeout_ms=1000)
        serve(device, _SlowRegistry.build(sched, busy_ms=2000))
        send_command(controller, Command("NEW", obj="s", method="Sluggish", args=()))
        resp = send_command(
            controller, Command("CALL", obj="s", method="work", args=()), timeout_ms=10_000
        )
        assert resp.payload == "done"


class _FakePort:
    """Loopback SerialPortLike used to exercise the adapter."""

    def __init__(self):
        self.lines = []
        self.closed = False

    def write_line(self, line):
        self.lines.append(line)

    def read_line(self, timeout_s):
        if self.lines:
            return self.lines.pop(0)
        return None

    def close(self):
        self.closed = True


class TestSerialEndpoint:
    def test_adapter_runs_the_grammar_over_a_port(self):
        port = _FakePort()
        ep = SerialEndpoint(port, "controller", timeout_ms=50)
        ep.write_line("PING")
        assert port.lines == ["PING"]
        line, stamp = ep.read_frame(50)
        assert line == "PING" and stamp is None

    def test_adapter_times_out_on_silence(self):
        ep = SerialEndpoint(_FakePort(), "controller", timeout_ms=10)
        with pytest.raises(TransportTimeout):
            ep.read_frame(10)

    def test_default_settings_are_115200_8n1(self):
        ep = SerialEndpoint(_FakePort(), "controller")
        assert (
            ep.settings.baudrate,
            ep.settings.bytesize,
            ep.settings.parity,
            ep.settings.stopbits,
        ) == (115200, 8, "N", 1)

    def test_default_wall_clock_budget_is_2000ms(self):
        assert SerialEndpoint(_FakePort(), "controller").timeout_ms == 2000

    def test_close_closes_the_port(self):
        port = _FakePort()
        SerialEndpoint(port, "controller").close()
        assert port.closed


def test_payloads_survive_json_encoding(sched):
    registry = ObjectRegistry()

    class Echo:
        def echo(self, v):
            return v

        def raw(self):
            return bytes([1, 2, 255])

    registry.register_class("Echo", Echo)
    controller, device = open_virtual_pair(sched)
    serve(device, registry)
    send_command(controller, Command("NEW", obj="e", method="Echo", args=()))
    for value in (None, True, 3, 2.5, "text", [1, [2, "x"]], {"k": 1}):
        resp = send_command(controller, Command("CALL", obj="e", method="echo", args=(value,)))
        assert resp.payload == value
    resp = send_command(controller, Command("CALL", obj="e", method="raw", args=()))
    assert resp.payload == [1, 2, 255]
    assert json.dumps(resp.payload)  # wire-safe
