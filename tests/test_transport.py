"""Wire grammar, the virtual channel, command dispatch, and timeouts."""

import json
import random
import string

import pytest

from double_harness.transport import (
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
