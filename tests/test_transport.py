"""Wire grammar, the virtual channel, command dispatch, and timeouts."""

import functools
import inspect
import json
import math
import operator
import random
import re
import string
import time
import types
import weakref
from collections import deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from double_harness import harness, transport
from double_harness.harness import PASS, CaseError, run_suite
from double_harness.simcore import Scheduler
from double_harness.suites import SUITE_ORDER, SUITES, build_virtual_rig
from double_harness.transport import (
    MAX_FRAME_LEN,
    MAX_JSON_DEPTH,
    ChannelClosedError,
    Command,
    CommandServer,
    ObjectRegistry,
    ProtocolError,
    Response,
    SerialEndpoint,
    TransportError,
    TransportTimeout,
    VirtualEndpoint,
    check_frame,
    err,
    format_command,
    format_response,
    open_virtual_pair,
    parse_command,
    parse_response,
    send_command,
    serve,
)


def _generator_err_line(resp):
    """format_response's ERR line as a per-character generator cleaned it."""
    line = f"ERR {resp.code} {resp.message}"[:MAX_FRAME_LEN]
    if not (line.isascii() and line.isprintable()):
        line = "".join(ch if " " <= ch <= "~" else " " for ch in line)
    return line.rstrip()


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

    def test_an_unknown_verb_is_refused_before_a_frame_exists(self):
        with pytest.raises(ProtocolError, match="^unknown verb 'FROB'$"):
            format_command(Command("FROB"))

    @pytest.mark.parametrize(
        "line, message",
        [
            ("OK", "OK response missing payload"),
            ("ERR", "ERR response missing code"),
            ("ERR  no code", "ERR response missing code"),
            ("", "bad response line: ''"),
            ("ok null", "bad response line: 'ok null'"),
            ("NOPE 1", "bad response line: 'NOPE 1'"),
        ],
    )
    def test_a_reply_outside_the_grammar_is_refused(self, line, message):
        with pytest.raises(ProtocolError, match=f"^{re.escape(message)}$"):
            parse_response(line)

    def test_an_ok_line_of_exactly_a_frame_is_carried(self):
        fits = "x" * (MAX_FRAME_LEN - len('OK ""'))
        assert format_response(Response("OK", fits)) == f'OK "{fits}"'
        resp = parse_response(format_response(Response("OK", fits + "x")))
        too_long = f"result too long for one frame: {MAX_FRAME_LEN + 1} > {MAX_FRAME_LEN}"
        assert (resp.code, resp.message) == ("EXEC", too_long)

    def test_err_line_cleanup_keeps_every_printable_character(self):
        printable = "".join(map(chr, range(32, 127)))
        line = format_response(err("EXEC", "a\x7fb\tc\u00e9" + printable))
        assert line == "ERR EXEC a b c " + printable

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(
        st.text(st.characters(exclude_categories=()), max_size=24),
        st.sampled_from(["x", " ", "\t", "\x7f", "é"]),
        st.integers(0, MAX_FRAME_LEN),
    )
    @example("a\x7fb\tc\u00e9\ud800 ", "x", 0)
    @example("é ", "x", MAX_FRAME_LEN - len("ERR EXEC "))
    def test_err_line_cleanup_matches_the_per_character_generator(self, text, pad, width):
        """Surrogates, controls and non-ASCII included, at any place against
        the frame limit."""
        resp = err("EXEC", pad * width + text)
        assert format_response(resp) == _generator_err_line(resp)

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

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(
        st.builds(
            lambda pad, width, text: pad * width + text,
            st.sampled_from(["x", " ", "~", "\t", "\n", "\x7f", "\xa0", "é", "\ud800"]),
            st.integers(0, MAX_FRAME_LEN + 1),
            st.text(st.characters(exclude_categories=()), max_size=8),
        )
    )
    @example("\x7f")
    @example("é")
    @example("\ud800")
    @example("\xa0")
    @example("\t")
    @example("\n")
    @example("x" * MAX_FRAME_LEN)
    @example("x" * (MAX_FRAME_LEN + 1))
    def test_a_frame_is_at_most_the_limit_of_printable_ascii(self, line):
        """check_frame refuses exactly the lines that str's own predicates
        refuse, surrogates, controls and non-ASCII included."""
        if len(line) <= MAX_FRAME_LEN and line.isascii() and line.isprintable():
            assert check_frame(line) is line
        else:
            with pytest.raises(ProtocolError):
                check_frame(line)

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


def _partition_parse_command(line):
    """The reference parser: every verb split by str.partition, CALL too."""
    verb, _, rest = line.partition(" ")
    if verb == "CALL":
        target, space, args_text = rest.partition(" ")
        if not space:
            raise ProtocolError("CALL needs <name>.<method> <json-array>")
        name, dot, method = target.partition(".")
        if not dot:
            raise ProtocolError(f"CALL target {target!r} missing '.'")
        if not transport._is_ident(name) or not transport._is_ident(method):
            raise ProtocolError(f"bad identifier in CALL {target!r}")
        return Command("CALL", name, method, transport._parse_args(args_text))
    if verb in ("PING", "RESET"):
        if rest:
            raise ProtocolError(f"{verb} takes no arguments")
        return Command(verb)
    if verb == "DEL":
        if not transport._is_ident(rest):
            raise ProtocolError(f"bad object name {rest!r}")
        return Command("DEL", obj=rest)
    if verb == "NEW":
        pieces = rest.split(" ", 2)
        if len(pieces) != 3:
            raise ProtocolError("NEW needs <Class> <name> <json-array>")
        cls, name, args_text = pieces
        if not transport._is_ident(cls) or not transport._is_ident(name):
            raise ProtocolError(f"bad identifier in NEW {cls!r} {name!r}")
        return Command("NEW", obj=name, method=cls, args=transport._parse_args(args_text))
    raise ProtocolError(f"unknown verb {verb!r}")


_LINE_PIECES = st.sampled_from(
    ["CALL", "CALL ", "NEW ", "DEL ", "PING", "RESET", " ", "  ", ".", "a", "_b1", "9", "[]", '[1,"x y"]', "[", "\n", "\x7f", "é"]
)


class TestParser:
    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(st.text(max_size=24) | st.lists(_LINE_PIECES, max_size=8).map("".join))
    @example("CALL a.b []")
    @example("CALL a.b.c []")
    @example("CALL a.b")
    @example("CALL a []")
    @example("CALL  a.b []")
    @example("CALL a.b  []")
    @example("CALL a.b [\n]")
    @example("CALL a\n.b []")
    @example("CALL a.b\n []")
    @example("CALL a.\x7f []")
    @example("CALL é.b []")
    @example("CALL aé.b []")
    @example('CALL a.b ["é"]')
    @example("CALL .b []")
    @example("NEW  Led a []")
    @example("DEL a\n")
    def test_same_command_or_message_as_the_partition_parser(self, line):
        """On any text: the same Command, or a ProtocolError with the same message."""

        def outcome(parse):
            try:
                return parse(line)
            except ProtocolError as exc:
                return str(exc)

        assert outcome(parse_command) == outcome(_partition_parse_command)


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

    def test_a_silent_device_costs_the_whole_budget_in_sim_time(self, sched):
        """The clock rests at now + timeout_ms, and an event after it stays due."""
        a, _b = open_virtual_pair(sched)
        sched.advance_to(100)
        later = sched.schedule(251, lambda: None)
        with pytest.raises(TransportTimeout, match="no frame within 250 ms"):
            a.read_frame(250)
        assert sched.now == 350
        assert later.pending and sched.next_due() == 351

    def test_an_endpoint_is_a_controller_or_a_device(self, sched):
        with pytest.raises(ValueError, match="role must be controller or device, got 'observer'"):
            VirtualEndpoint(sched, "observer")

    def test_frames_written_before_serve_are_answered_first_and_in_order(self, sched):
        registry = ObjectRegistry()
        registry.register_class("Thing", _Thing)
        controller, device = open_virtual_pair(sched)
        controller.write_line("NEW Thing t [1]")
        controller.write_line("CALL t.add [2,3]")
        assert not controller._rx
        serve(device, registry)
        controller.write_line("CALL t.add [4,5]")
        assert [controller.read_frame(10)[0] for _ in range(3)] == ["OK null", "OK 6", "OK 10"]
        assert not device._rx

    def test_a_frame_written_while_queued_frames_are_answered_waits_its_turn(self, sched):
        """Creating a Pinger makes the controller write PING, behind the DEL
        still queued: the three replies come in the order of their commands."""
        controller, device = open_virtual_pair(sched)
        registry = ObjectRegistry()
        registry.register_class("Pinger", lambda: controller.write_line("PING"))
        controller.write_line("NEW Pinger p []")
        controller.write_line("DEL q")
        serve(device, registry)
        replies = [controller.read_frame(10)[0] for _ in range(3)]
        assert replies == ["OK null", "ERR NO_OBJECT unknown object 'q'", "OK null"]

    def test_serve_needs_a_device_endpoint(self, sched):
        controller, _device = open_virtual_pair(sched)
        with pytest.raises(TransportError, match="serve requires a device endpoint"):
            serve(controller, ObjectRegistry())
        assert controller._server is None


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


class _StuckClose(_Thing):
    """A _Thing whose close() raises once it has closed."""

    def close(self):
        self.closed = True
        raise RuntimeError("stuck")


class TestDispatch:
    def test_a_verb_the_registry_does_not_know_answers_bad_args(self):
        assert ObjectRegistry().execute(Command("FOO")) == err("BAD_ARGS", "unhandled verb 'FOO'")

    def test_reset_answers_ok_and_forgets_every_object_when_a_close_raises(self, served):
        controller, registry = served
        things = [_Thing(), _StuckClose(), _Thing()]
        registry.objects.update(zip("abc", things))
        assert send_command(controller, Command("RESET")) == Response("OK")
        assert registry.objects == {}
        assert [thing.closed for thing in things] == [True, True, True]

    def test_del_and_new_answer_ok_when_the_old_objects_close_raises(self, served):
        controller, registry = served
        registry.objects["a"] = registry.objects["b"] = _StuckClose()
        assert send_command(controller, Command("DEL", obj="a")) == Response("OK")
        assert send_command(controller, Command("NEW", obj="b", method="Thing")) == Response("OK")
        assert list(registry.objects) == ["b"] and type(registry.objects["b"]) is _Thing

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


# (shape, callable): every kind of callable a rig may host
_SHAPES = [
    ("no_params", lambda: None),
    ("lambda_defaults", lambda init_delay_ms=None: None),
    ("positional_only", _posonly),
    ("defaults", _defaults),
    ("varargs", _varargs),
    ("kwonly_required", _kwonly_required),
    ("kwonly_default", _kwonly_default),
    ("varargs_kwonly", _varargs_kwonly),
    ("bound_method", _Shapes().method),
    ("bound_method_varargs", _Shapes().method_varargs),
    ("bound_method_kwonly", _Shapes().method_kwonly),
    ("bound_without_self", types.MethodType(lambda *, k=1: None, object())),
    ("staticmethod", _Shapes().static),
    ("classmethod", _Shapes().klass),
    ("wraps_wrapper", _traced(_defaults)),
    ("wrapped_bound_method", _Shapes().traced),
    ("class", _Thing),
    ("callable_instance", _Shapes()),
    ("partial", functools.partial(_defaults, 1)),
    ("builtin", divmod),
    ("builtin_without_signature", max),
]


def _binds(fn, n):
    """The reference: whether n args bind to fn's inspect.signature."""
    try:
        signature = inspect.signature(fn)
    except ValueError:
        return True
    try:
        signature.bind(*[0] * n)
    except TypeError:
        return False
    return True


def _raises_type_error(fn, n):
    try:
        fn(*[0] * n)
    except TypeError:
        return True
    except Exception:  # noqa: BLE001 - any other failure is the call's own answer
        pass
    return False


def _shape_replies(fn):
    """The reply to NEW of `fn` as a factory and to CALL of `fn` as a hosted
    object's attribute, with 0 to 5 args, over a served virtual pair."""
    registry = ObjectRegistry()
    registry.register_class("Shape", fn)
    registry.objects["host"] = types.SimpleNamespace(shape=fn)
    controller, device = open_virtual_pair(Scheduler())
    serve(device, registry)
    return {
        (verb, n): send_command(controller, Command(verb, obj, method, (0,) * n))
        for n in range(6)
        for verb, obj, method in (("NEW", "made", "Shape"), ("CALL", "host", "shape"))
    }


class _Picky(_Thing):
    """A _Thing whose factory and method take their args, then refuse them with TypeError."""

    def __init__(self, base=0):
        if type(base) is not int:
            raise TypeError(f"base must be an int, not {type(base).__name__}")
        super().__init__(base)

    def pick(self, x):
        raise TypeError(f"cannot pick {x!r}")


class _Counter:
    def __init__(self):
        self.calls = []

    def bump(self, by):
        self.calls.append(by)


class TestArityAtTheWire:
    """A call whose args do not bind answers BAD_ARGS; any other failure, EXEC."""

    @pytest.mark.parametrize("fn", [s[1] for s in _SHAPES], ids=[s[0] for s in _SHAPES])
    def test_bad_args_exactly_when_the_args_do_not_bind(self, fn):
        for (verb, n), resp in _shape_replies(fn).items():
            assert (resp.code == "BAD_ARGS") == (not _binds(fn, n)), (verb, n, resp)

    @pytest.mark.parametrize("fn", [s[1] for s in _SHAPES], ids=[s[0] for s in _SHAPES])
    def test_a_call_without_type_error_is_answered_without_inspect(self, monkeypatch, fn):
        expected = _shape_replies(fn)
        monkeypatch.setattr(inspect, "signature", None)
        for (verb, n), resp in _shape_replies(fn).items():
            if not _raises_type_error(fn, n):
                assert resp == expected[verb, n], (verb, n)

    def test_a_fitting_call_that_raises_type_error_answers_exec_with_its_message(self, served):
        controller, registry = served
        registry.register_class("Picky", _Picky)
        assert send_command(controller, Command("NEW", "p", "Picky", ("a",))) == err(
            "EXEC", "TypeError: base must be an int, not str"
        )
        assert send_command(controller, Command("NEW", "p", "Picky", (1,))).ok
        assert send_command(controller, Command("CALL", "p", "pick", (7,))) == err(
            "EXEC", "TypeError: cannot pick 7"
        )
        assert send_command(controller, Command("CALL", "p", "pick", ())).code == "BAD_ARGS"

    def test_a_builtin_without_a_signature_answers_exec(self, served):
        controller, registry = served
        registry.objects["b"] = types.SimpleNamespace(max=max)
        assert send_command(controller, Command("CALL", "b", "max", (0, 1))).payload == 1
        assert send_command(controller, Command("CALL", "b", "max", (0,))) == err(
            "EXEC", "TypeError: 'int' object is not iterable"
        )

    def test_a_refused_call_leaves_hosted_state_untouched(self, served):
        controller, registry = served
        registry.objects["c"] = counter = _Counter()
        assert send_command(controller, Command("NEW", "t", "Thing", (5,))).ok
        old = registry.objects["t"]
        for args in ((), (1, 2)):
            resp = send_command(controller, Command("CALL", "c", "bump", args))
            assert resp == err("BAD_ARGS", f"arguments {list(args)!r} do not fit bump")
        resp = send_command(controller, Command("NEW", "t", "Thing", (1, 2)))
        assert resp == err("BAD_ARGS", "arguments [1, 2] do not fit Thing")
        assert counter.calls == [] and registry.objects["t"] is old and not old.closed
        assert send_command(controller, Command("CALL", "c", "bump", (3,))).ok
        assert counter.calls == [3]

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


def _wire_reply(line, hosted=None):
    """Send one raw line to a device hosting `hosted` (a `_Wire` by default)
    as `b`; return every reply frame."""
    sched = Scheduler()
    registry = ObjectRegistry()
    registry.register_class("Wire", _Wire)
    registry.objects["b"] = _Wire() if hosted is None else hosted
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
_JSON = st.recursive(  # wire JSON, so finite floats only
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=20),
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


_LONG_TEXT = st.text(min_size=1000, max_size=5000)
_WIDE_PAYLOADS = st.recursive(  # long and non-ASCII strings included
    st.none() | st.booleans() | st.integers() | st.floats() | st.text() | _LONG_TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
# Any unicode after a visible first character: the registry's codes are all names, and
# "ERR  <message>", with no code, is not a response.
_ERR_CODES = st.builds(operator.add, st.characters(min_codepoint=33, max_codepoint=126), st.text())
_ERR_MESSAGES = st.text(max_size=6000) | st.text(min_size=4000, max_size=6000)
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


class _Returns:
    """Device-side object whose one method returns a fixed value."""

    def __init__(self, value):
        self.value = value

    def get(self):
        return self.value


def _hosted_reply(value):
    """Every reply frame to a CALL of a hosted method that returns `value`."""
    return _wire_reply("CALL b.get []", _Returns(value))


def _reference(value):
    """Oracle for the wire's value model: bytes become int arrays, tuples
    lists, dict keys str(); NaN and the infinities (not RFC 8259 JSON) and
    any other type are refused."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(_OUT_OF_RANGE)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (bytes, bytearray)):
        return list(value)
    if isinstance(value, (list, tuple)):
        return [_reference(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _reference(v) for k, v in value.items()}
    raise TypeError(f"result of type {type(value).__name__} is not wire-encodable")


def _nested(depth):
    value = []
    for _ in range(depth):
        value = [value]
    return value


def _levels(value):
    """Nesting depth of a JSON value: 0 for a scalar, 1 for an empty array."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return 1 + max(map(_levels, value), default=0)
    return 0


_TOO_DEEP = f"nested deeper than {MAX_JSON_DEPTH} levels"
_BRACKETY = st.text('[]{}"\\,:ab\u00e9\n', max_size=8)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | _BRACKETY,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_BRACKETY, inner, max_size=3),
    max_leaves=10,
)


def _circular():
    value = [1]
    value.append(value)
    return value


# Letters never spell an int, so no str key collides with an int key's str().
_KEYS = st.text(string.ascii_letters, max_size=6) | st.integers()
_RESULTS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12)
    | st.binary(max_size=8) | st.binary(max_size=8).map(bytearray)
    | st.builds(object) | st.frozensets(st.integers(), max_size=2),
    lambda inner: st.lists(inner, max_size=4) | st.tuples(inner, inner)
    | st.dictionaries(_KEYS, inner, max_size=3),
    max_leaves=12,
)


class TestOneFramePerCommand:
    """Whatever printable line arrives, the device answers with exactly one valid frame."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_RESULTS)
    @example(float("inf"))
    @example([1, {"a": float("nan")}, object()])
    def test_any_hosted_result_answers_exactly_one_frame(self, value):
        (reply,) = _hosted_reply(value)
        assert check_frame(reply) == reply
        resp = parse_response(reply)
        try:
            expected = "OK " + _compact(_reference(value))
        except TypeError:
            assert resp.code == "EXEC" and "is not wire-encodable" in resp.message
            return
        except ValueError:
            assert resp.code == "EXEC" and resp.message.startswith(f"ValueError: {_OUT_OF_RANGE}")
            return
        if len(expected) <= MAX_FRAME_LEN:
            assert reply == expected
        else:
            assert resp.code == "EXEC" and "too long" in resp.message

    @pytest.mark.parametrize(
        "make, error",
        [
            (lambda: 10**5000, "ValueError"),
            (_circular, "ValueError"),
            (lambda: _nested(1500), "ValueError"),
            (lambda: {1, 2}, "TypeError"),
            (object, "TypeError"),
        ],
        ids=["5000-digit-int", "circular-list", "1500-deep-list", "set", "object"],
    )
    def test_a_result_the_wire_cannot_carry_gets_one_exec_frame(self, make, error):
        (reply,) = _hosted_reply(make())
        assert check_frame(reply) == reply
        resp = parse_response(reply)
        assert resp.code == "EXEC" and resp.message.startswith(f"{error}: "), resp

    def test_a_command_nested_too_deep_is_malformed(self):
        line = "CALL b.two [" + "[" * 1000 + "]" * 1000 + "]"
        (reply,) = _wire_reply(line)
        assert reply.startswith("ERR BAD_ARGS malformed command: bad JSON args: ")

    def test_a_reply_nested_too_deep_is_a_protocol_error(self):
        with pytest.raises(ProtocolError):
            parse_response("OK " + "[" * 1000 + "]" * 1000)

    def test_a_decoder_out_of_stack_gives_the_depth_rules_answer(self, monkeypatch):
        """An interpreter whose own limit is under MAX_JSON_DEPTH levels runs
        out of stack inside the decoder; the reply is still the depth rule's."""

        def out_of_stack(text):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(transport, "_decode", out_of_stack)
        with pytest.raises(ProtocolError, match=f"^bad JSON payload: {_TOO_DEEP}$"):
            parse_response("OK [[1]]")

    @pytest.mark.parametrize("depth", [MAX_JSON_DEPTH, MAX_JSON_DEPTH + 1], ids=["at-limit", "one-over"])
    def test_one_nesting_rule_for_args_replies_and_results(self, depth):
        """JSON MAX_JSON_DEPTH levels deep is carried and one level more is
        refused, whatever the interpreter's own limit: in a command's args, in
        a reply the controller reads, and in a result the device encodes."""
        fits = depth <= MAX_JSON_DEPTH
        inner = _compact(_nested(depth - 2))  # _nested(n) is n + 1 levels deep
        (reply,) = _wire_reply(f"CALL b.two [{inner},0]")
        if fits:
            assert reply == f"OK [{inner},0]"
        else:
            assert reply == f"ERR BAD_ARGS malformed command: bad JSON args: {_TOO_DEEP}"
        text = _compact(_nested(depth - 1))
        if fits:
            assert parse_response("OK " + text).payload == _nested(depth - 1)
        else:
            with pytest.raises(ProtocolError, match=f"^bad JSON payload: {_TOO_DEEP}$"):
                parse_response("OK " + text)
        (reply,) = _hosted_reply(_nested(depth - 1))
        assert reply == ("OK " + text if fits else f"ERR EXEC ValueError: {_TOO_DEEP}")

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_JSON_VALUES)
    def test_brackets_inside_strings_do_not_count_as_nesting(self, value):
        """Wrapped to exactly MAX_JSON_DEPTH levels, any value passes the depth
        check, whatever brackets, quotes and backslashes its strings hold; one
        level more fails it."""
        wrap = MAX_JSON_DEPTH - _levels(value)
        text = _compact(value)
        transport._check_depth("[" * wrap + text + "]" * wrap)
        with pytest.raises(ValueError, match=_TOO_DEEP):
            transport._check_depth("[" * (wrap + 1) + text + "]" * (wrap + 1))

    @pytest.mark.parametrize("depth", [600, 1500])
    def test_args_nested_too_deep_are_refused_before_a_frame_is_sent(self, rig, depth):
        """The controller keeps the depth rule too, on every Python: 600 levels
        encode but break the rule, 1500 levels pass the interpreter's own
        limit on 3.10 and 3.11. Both are a ProtocolError, and no frame leaves."""
        entries = len(rig.session.log.entries)
        cmd = Command("CALL", "b", "x", (_nested(depth),))
        with pytest.raises(ProtocolError, match=f"^bad JSON args: {_TOO_DEEP}$"):
            send_command(rig.session.dut.endpoint, cmd)
        with pytest.raises(CaseError, match=f"^bad JSON args: {_TOO_DEEP}$") as info:
            harness._send(rig.session.dut, cmd)
        assert info.value.code == "PROTOCOL"
        assert len(rig.session.log.entries) == entries

    @pytest.mark.parametrize(
        "make, message",
        [
            (_circular, "Circular reference detected"),
            (lambda: 10**5000, "Exceeds the limit"),
            (lambda: {1, 2}, "value of type set is not wire-encodable"),
            (object, "value of type object is not wire-encodable"),
        ],
        ids=["circular-list", "5000-digit-int", "set", "object"],
    )
    def test_args_the_encoder_refuses_are_refused_before_a_frame_is_sent(self, rig, make, message):
        """Every refusal of the encoder, not only the depth rule, is a
        ProtocolError on the controller, and no frame leaves."""
        entries = len(rig.session.log.entries)
        cmd = Command("CALL", "b", "x", (make(),))
        with pytest.raises(ProtocolError, match=f"^bad JSON args: {message}"):
            send_command(rig.session.dut.endpoint, cmd)
        with pytest.raises(CaseError, match=f"^bad JSON args: {message}") as info:
            harness._send(rig.session.dut, cmd)
        assert info.value.code == "PROTOCOL"
        assert len(rig.session.log.entries) == entries

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

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        st.one_of(
            st.builds(Response, st.just("OK"), _WIDE_PAYLOADS),
            st.builds(err, _ERR_CODES, _ERR_MESSAGES),
        )
    )
    def test_any_response_formats_to_one_valid_frame(self, resp):
        """format_response is not checked on its way out: its output is valid by construction."""
        line = format_response(resp)
        assert check_frame(line) == line
        parse_response(line)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_COMMANDS)
    def test_parse_inverts_format(self, cmd):
        assert parse_command(format_command(cmd)) == cmd


_NON_FINITE = pytest.mark.parametrize(
    "value", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"]
)
# The encoder's message; 3.13 appends the value (": nan"), 3.11 does not.
_OUT_OF_RANGE = "Out of range float values are not JSON compliant"


class TestStrictJson:
    """NaN, Infinity and -Infinity are not RFC 8259 JSON: no frame carries one,
    in either direction."""

    @_NON_FINITE
    def test_the_controller_refuses_to_send_one(self, rig, value):
        entries = len(rig.session.log.entries)
        for args in [(value,), (1, [{"a": value}])]:
            cmd = Command("CALL", "b", "x", args)
            with pytest.raises(ProtocolError, match=f"^bad JSON args: {_OUT_OF_RANGE}"):
                format_command(cmd)
            with pytest.raises(ProtocolError, match=f"^bad JSON args: {_OUT_OF_RANGE}"):
                send_command(rig.session.dut.endpoint, cmd)
        assert len(rig.session.log.entries) == entries

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_a_device_answers_a_command_holding_one_as_malformed(self, constant):
        (reply,) = _wire_reply(f"CALL b.x [{constant}]")
        assert reply.startswith("ERR BAD_ARGS malformed command: bad JSON args: "), reply
        (reply,) = _wire_reply(f'CALL b.two [0,{{"a":[{constant}]}}]')
        assert reply.startswith("ERR BAD_ARGS malformed command: bad JSON args: "), reply

    @_NON_FINITE
    def test_a_hosted_result_holding_one_gets_one_exec_frame(self, value):
        for result in [value, [1, {"a": value}]]:
            (reply,) = _hosted_reply(result)
            assert reply.startswith(f"ERR EXEC ValueError: {_OUT_OF_RANGE}"), reply

    @pytest.mark.parametrize("payload", ["NaN", "[NaN]", "[1,Infinity]", '{"a":[-Infinity]}'])
    def test_a_reply_holding_one_is_a_protocol_error(self, payload):
        with pytest.raises(ProtocolError, match="^bad JSON payload: "):
            parse_response("OK " + payload)


class TestIdentifiers:
    """A name is exactly [A-Za-z_][A-Za-z0-9_]*: a trailing newline is not part of one."""

    @pytest.fixture
    def server(self):
        registry = ObjectRegistry()
        registry.register_class("T", _Thing)
        registry.objects["x"] = _Thing()
        return CommandServer(registry)

    def test_register_class_rejects_a_trailing_newline(self):
        with pytest.raises(ValueError):
            ObjectRegistry().register_class("Led\n", _Thing)

    def test_new_rejects_a_name_with_a_trailing_newline(self, server):
        assert parse_response(server.handle_line("NEW T x\n []")).code == "BAD_ARGS"
        assert parse_response(server.handle_line("NEW T\n y []")).code == "BAD_ARGS"
        assert set(server.registry.objects) == {"x"}

    def test_call_rejects_a_target_with_a_trailing_newline(self, server):
        server.registry.objects["x\n"] = _Thing()  # hosted behind the parser's back
        assert parse_response(server.handle_line("CALL x\n.add [1,2]")).code == "BAD_ARGS"
        assert parse_response(server.handle_line("CALL x.add\n [1,2]")).code == "BAD_ARGS"
        assert server.handle_line("CALL x.add [1,2]") == "OK 3"

    def test_del_rejects_a_name_with_a_trailing_newline(self, server):
        assert parse_response(server.handle_line("DEL x\n")).code == "BAD_ARGS"
        assert "x" in server.registry.objects
        assert server.handle_line("DEL x") == "OK null"

    @pytest.mark.parametrize(
        "cmd, name",
        [
            (Command("CALL", "a b", "m", ()), "'a b'"),
            (Command("CALL", "a", "m.n", ()), "'m.n'"),
            (Command("DEL", "x y"), "'x y'"),
            (Command("NEW", "b", "Bl inker", ()), "'Bl inker'"),
            (Command("NEW", "b\n", "Blinker", ()), "'b\\\\n'"),
            (Command("DEL"), "None"),
            (Command("CALL", "b", None, ()), "None"),
            (Command("CALL", b"b", "m", ()), "b'b'"),
            (Command("CALL", "a b", "m.n", ()), "'a b'"),
            (Command("NEW", "b c", "Bl inker", ()), "'b c'"),
        ],
        ids=[
            "call-obj", "call-method", "del", "new-class", "new-newline", "del-none", "call-none", "bytes",
            "call-both", "new-both",
        ],
    )
    def test_the_controller_refuses_a_name_before_a_frame_is_sent(self, rig, cmd, name):
        """The device could only refuse such a name, so the controller sends
        nothing: a ProtocolError, which a case reports as PROTOCOL. When both
        names of a CALL or NEW are bad, the message names the object's."""
        entries = len(rig.session.log.entries)
        with pytest.raises(ProtocolError, match=f"^bad identifier {name}$"):
            send_command(rig.session.dut.endpoint, cmd)
        with pytest.raises(CaseError, match=f"^bad identifier {name}$") as info:
            harness._send(rig.session.dut, cmd)
        assert info.value.code == "PROTOCOL"
        assert len(rig.session.log.entries) == entries


# The reference for the wire JSON gate: the stdlib's own encode and decode,
# each with the depth rule.
_stdlib_encode = json.JSONEncoder(separators=(",", ":"), default=transport._wire_value, allow_nan=False).encode
_stdlib_decode = json.JSONDecoder(parse_constant=transport._not_json).decode


def _depth_rule(text):
    if len(text) > 2 * MAX_JSON_DEPTH:
        transport._check_depth(text)
    return text


def _stdlib_to_json(value):
    try:
        return _depth_rule(_stdlib_encode(value))
    except RecursionError:
        raise ValueError(_TOO_DEEP) from None


def _stdlib_from_json(text):
    try:
        return _stdlib_decode(_depth_rule(text))
    except RecursionError:
        raise ValueError(_TOO_DEEP) from None


def _outcome(fn, arg):
    """What fn(arg) gives: the repr of its value, or its exception's type and message."""
    try:
        return repr(fn(arg))
    except Exception as exc:  # noqa: BLE001 - the refusal is the outcome
        return type(exc), str(exc)


_ANY_KEYS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4) | st.tuples(st.integers())
_ANY_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | st.binary(max_size=4) | st.binary(max_size=4).map(bytearray) | st.frozensets(st.integers(), max_size=2),
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_ANY_KEYS, inner, max_size=3) | st.sets(st.integers(), max_size=2),
    max_leaves=12,
)
_JSON_PIECES = st.sampled_from(
    [" ", "\t", "\n", "[", "]", "{", "}", ",", ":", "1", "-0", "1.5e3", "01", '"a"', '"\\u00e9"', '"\\ud800"',
     "null", "true", "NaN", "Infinity", "-Infinity", "x", "é"]
)
_ANY_TEXT = st.text(max_size=16) | st.lists(_JSON_PIECES, max_size=10).map("".join)
_OLD_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*").fullmatch


class TestGateAgainstTheStdlib:
    """_to_json and _from_json call the C coder without the stdlib's Python
    layers, and give the text, or the exception type and message, that the
    stdlib's encode and decode give, each with the depth rule."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_ANY_VALUES)
    @example(_circular())
    @example([[1, _circular()]])
    @example({1, 2})
    @example(b"\x01\xff")
    @example(10**5000)
    @example([float("nan")])
    @example({(1,): 2})
    @example("é\n\"")
    @example("")
    @example("é")
    @example("\x00")
    @example("\ud800")
    def test_encode_matches_the_stdlib(self, value):
        assert _outcome(transport._to_json, value) == _outcome(_stdlib_to_json, value)

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(_ANY_TEXT)
    @example("")
    @example(" [1]")
    @example("[1] ")
    @example("[1]x")
    @example("[1] [2]")
    @example("[NaN]")
    @example("-Infinity")
    @example("[1,]")
    @example("nul")
    @example('"\\ud800"')
    @example("[" * 1500)
    def test_decode_matches_the_stdlib(self, text):
        assert _outcome(transport._from_json, text) == _outcome(_stdlib_from_json, text)

    @pytest.mark.parametrize("depth", [MAX_JSON_DEPTH, MAX_JSON_DEPTH + 1], ids=["at-limit", "one-over"])
    def test_nesting_at_and_over_the_limit_matches_the_stdlib(self, depth):
        """Outside hypothesis, whose example printer recurses per level."""
        value = _nested(depth - 1)  # _nested(n) is n + 1 levels deep
        assert _outcome(transport._to_json, value) == _outcome(_stdlib_to_json, value)
        text = "[" * depth + "]" * depth
        for framed in (text, f" {text}", f"{text} ", f"{text}x"):
            assert _outcome(transport._from_json, framed) == _outcome(_stdlib_from_json, framed)

    @pytest.mark.parametrize("poison", [_circular, lambda: float("nan")], ids=["cycle", "nan"])
    def test_a_refused_encode_leaves_nothing_for_the_next_one(self, poison):
        """The cycle check's markers start empty for every text: after an
        encode that stopped inside nested lists, the same lists encode."""
        inner = [1, poison()]
        value = [[inner], inner]
        with pytest.raises(ValueError):
            transport._to_json(value)
        inner.pop()
        assert transport._to_json(value) == "[[[1]],[1]]"

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.text(max_size=6) | _IDENT | st.integers() | st.none() | st.binary(max_size=3))
    @example("é")
    @example("ℌ")
    @example("_")
    @example("1a")
    @example("a\n")
    @example("class")
    @example("")
    @example(b"a")
    @example(type("Name", (str,), {})("a"))
    def test_is_ident_agrees_with_the_identifier_regex(self, name):
        assert transport._is_ident(name) == (type(name) is str and _OLD_IDENT(name) is not None)


# Empty arrays and objects, alone or nested, are what the coder-free branches
# for `[]` args and `OK null` replies must tell apart.
_EMPTIES = st.sampled_from([(), [], {}, ((),), [[]], [{}], [[], {}], [[[]]]])
_PAYLOADS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12) | _EMPTIES,
    lambda inner: st.lists(inner, max_size=4) | st.tuples(inner)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=12,
)
_ARG_LISTS = st.lists(_PAYLOADS, max_size=4)
_ARGS_SEQUENCES = st.sampled_from([(), []]) | _ARG_LISTS | _ARG_LISTS.map(tuple)


def _compact(value):
    return json.dumps(value, separators=(",", ":"), allow_nan=False)


class TestCodecBytes:
    """Every frame holds exactly what json.dumps with compact separators writes,
    whether it went through the shared coder or skipped it (`[]` args, `OK
    null` replies), and parses back to a value that formats to the same bytes."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_IDENT, _IDENT, _ARGS_SEQUENCES)
    @example("o", "m", (1, [float("-inf")]))
    def test_format_command_bytes(self, obj, name, args):
        try:
            text = _compact(args)
        except ValueError:  # NaN or an infinity: no frame holds one
            with pytest.raises(ProtocolError, match=f"^bad JSON args: {_OUT_OF_RANGE}"):
                format_command(Command("CALL", obj, name, args))
            return
        call = format_command(Command("CALL", obj, name, args))
        assert call == f"CALL {obj}.{name} {text}"
        assert format_command(parse_command(call)) == call
        new = format_command(Command("NEW", obj, name, args))
        assert new == f"NEW {name} {obj} {text}"
        assert format_command(parse_command(new)) == new

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_PAYLOADS)
    @example({"a": [float("nan")]})
    def test_format_response_bytes(self, payload):
        line = format_response(Response("OK", payload))
        try:
            expected = f"OK {_compact(payload)}"
        except ValueError:  # NaN or an infinity: no frame holds one
            assert line.startswith(f"ERR EXEC ValueError: {_OUT_OF_RANGE}")
            return
        assert line == expected
        assert format_response(parse_response(line)) == line

    @pytest.mark.parametrize("args", [None, 0, False, "", {}, "xyz", b"\x01"], ids=repr)
    def test_args_that_are_not_a_tuple_or_list_are_refused_before_a_frame_is_sent(self, rig, args):
        """The device reads only a JSON array as args, so any other args
        value is the controller's ProtocolError, with no frame built or
        logged: falsy ones too, and bytes, which would encode as an array
        of ints that the device reads as one arg per byte."""
        message = f"^args must be a tuple or list, not {type(args).__name__}$"
        for verb in ("CALL", "NEW"):
            with pytest.raises(ProtocolError, match=message):
                format_command(Command(verb, "o", "m", args))
        entries = len(rig.session.log.entries)
        cmd = Command("CALL", "b", "x", args)
        with pytest.raises(ProtocolError, match=message):
            send_command(rig.session.dut.endpoint, cmd)
        with pytest.raises(CaseError, match=message) as info:
            harness._send(rig.session.dut, cmd)
        assert info.value.code == "PROTOCOL"
        assert len(rig.session.log.entries) == entries

    @pytest.mark.parametrize("line", ["OK nul", "OK nullx", "OK null,", "OK null null"])
    def test_a_reply_next_to_ok_null_is_still_decoded_and_refused(self, line):
        with pytest.raises(ProtocolError, match="bad JSON payload"):
            parse_response(line)

    @pytest.mark.parametrize("text", ["[", "[]]", "[],", "[] []"])
    def test_args_next_to_the_empty_array_are_still_decoded_and_refused(self, text):
        with pytest.raises(ProtocolError, match="bad JSON args"):
            parse_command(f"CALL o.m {text}")

    def test_the_json_free_shapes_never_touch_the_coder(self, monkeypatch):
        def refuse(_value):
            raise AssertionError("the coder was called")

        monkeypatch.setattr(transport, "_encode", refuse)
        monkeypatch.setattr(transport, "_decode", refuse)
        assert format_command(Command("CALL", "o", "m", ())) == "CALL o.m []"
        assert format_command(Command("NEW", "o", "C", [])) == "NEW C o []"
        assert parse_command("CALL o.m []").args == ()
        assert parse_command("NEW C o []").args == ()
        assert format_response(Response("OK")) == "OK null"
        assert parse_response("OK null") is transport._OK_NONE

    @pytest.mark.parametrize("result", [None, False, 0, "", [], {}], ids=repr)
    def test_a_falsy_result_crosses_the_wire_as_its_compact_json(self, result):
        """Every reply goes through format_response and parse_response, the
        only code that knows the `OK null` shape, and only None takes it."""
        controller, device = open_virtual_pair(Scheduler())
        registry = ObjectRegistry()
        registry.objects["o"] = types.SimpleNamespace(get=lambda: result)
        server = serve(device, registry)
        line = server.handle_line("CALL o.get []")
        assert line == f"OK {_compact(result)}"
        assert (line == "OK null") == (result is None)
        resp = send_command(controller, Command("CALL", "o", "get", ()))
        assert resp == Response("OK", result)
        assert type(resp.payload) is type(result)

    def test_bytes_arguments_travel_as_int_arrays(self):
        cmd = Command("CALL", "s", "write", (b"\x01\xff", bytearray(b"\x02")))
        assert format_command(cmd) == "CALL s.write [[1,255],[2]]"

    def test_a_five_suite_pass_builds_no_json_coder(self, monkeypatch):
        built = []
        for cls in (json.JSONEncoder, json.JSONDecoder):

            def counting(self, *args, _init=cls.__init__, **kwargs):
                built.append(type(self).__name__)
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        json.loads(_compact([1]), parse_int=int)  # the patches see both kinds
        assert built == ["JSONEncoder", "JSONDecoder"]
        built.clear()
        rig = build_virtual_rig()
        verdicts = [r.verdict for name in SUITE_ORDER for r in run_suite(SUITES[name], rig.session)]
        rig.close()
        assert verdicts and set(verdicts) == {PASS}
        assert built == []

    def test_a_five_suite_pass_checks_each_frame_once(self, monkeypatch):
        counts = {"check_frame": 0, "write_line": 0}

        def counting(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(transport, "check_frame", counting("check_frame", check_frame))
        write_line = transport.VirtualEndpoint.write_line
        monkeypatch.setattr(
            transport.VirtualEndpoint, "write_line", counting("write_line", write_line)
        )
        rig = build_virtual_rig()
        verdicts = [r.verdict for name in SUITE_ORDER for r in run_suite(SUITES[name], rig.session)]
        rig.close()
        assert verdicts and set(verdicts) == {PASS}
        assert counts["write_line"] > 0 and counts["check_frame"] == counts["write_line"]


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
    """A virtual controller's budget is DEFAULT_TIMEOUT_MS (5000 simulated ms);
    send_command's timeout_ms overrides it for one command."""

    def test_device_busy_past_the_budget_times_out(self, sched):
        controller, device = open_virtual_pair(sched)
        assert controller.timeout_ms == transport.DEFAULT_TIMEOUT_MS == 5000
        serve(device, _SlowRegistry.build(sched, busy_ms=6000))
        send_command(controller, Command("NEW", obj="s", method="Sluggish", args=()))
        with pytest.raises(TransportTimeout, match="within 5000 ms"):
            send_command(controller, Command("CALL", obj="s", method="work", args=()))

    def test_response_exactly_at_the_deadline_is_accepted(self, sched):
        controller, device = open_virtual_pair(sched)
        serve(device, _SlowRegistry.build(sched, busy_ms=5000))
        send_command(controller, Command("NEW", obj="s", method="Sluggish", args=()))
        resp = send_command(controller, Command("CALL", obj="s", method="work", args=()))
        assert resp.payload == "done"

    def test_timeout_does_not_corrupt_later_exchanges(self, sched):
        controller, device = open_virtual_pair(sched)
        serve(device, _SlowRegistry.build(sched, busy_ms=6000))
        send_command(controller, Command("NEW", obj="s", method="Sluggish", args=()))
        with pytest.raises(TransportTimeout):
            send_command(controller, Command("CALL", obj="s", method="work", args=()))
        assert send_command(controller, Command("RESET")).ok
        assert send_command(controller, Command("PING")).ok
        resp = send_command(controller, Command("NEW", obj="s2", method="Sluggish", args=()))
        assert resp.ok

    def test_per_call_timeout_override_wins(self, sched):
        controller, device = open_virtual_pair(sched)
        serve(device, _SlowRegistry.build(sched, busy_ms=6000))
        send_command(controller, Command("NEW", obj="s", method="Sluggish", args=()))
        resp = send_command(
            controller, Command("CALL", obj="s", method="work", args=()), timeout_ms=10_000
        )
        assert resp.payload == "done"

    @pytest.mark.parametrize("timeout_ms", [-1, True, False, 1.0, 0.5, "5"], ids=repr)
    def test_a_budget_not_an_int_at_least_0_is_refused_before_anything_is_sent(
        self, rig, timeout_ms
    ):
        cmd = Command("NEW", obj="s", method="SpiSlave", args=())
        with pytest.raises(ValueError, match="timeout_ms must be an int >= 0"):
            send_command(rig.session.double.endpoint, cmd, timeout_ms)
        assert rig.session.double.registry.objects == {}
        assert rig.session.log.entries == []

    def test_a_zero_budget_takes_a_reply_at_the_same_sim_time(self, rig):
        assert send_command(rig.session.double.endpoint, Command("PING"), 0).ok


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

    def test_default_wall_clock_budget_is_2000ms(self):
        assert SerialEndpoint(_FakePort(), "controller").timeout_ms == 2000

    def test_close_closes_the_port(self):
        port = _FakePort()
        SerialEndpoint(port, "controller").close()
        assert port.closed

    def test_a_read_whose_budget_is_spent_times_out_without_reading(self, monkeypatch):
        """The wall clock reads 100.0 s when the 500 ms read starts and 100.5 s
        at its first check: no time is left, so the buffered line stays."""
        times = [100.0, 100.5]
        clock = types.SimpleNamespace(monotonic=lambda: times.pop(0) if len(times) > 1 else times[0])
        monkeypatch.setattr(transport, "time", clock)
        port = _FakePort()
        port.lines.append("OK null")
        with pytest.raises(TransportTimeout, match="no frame within 500 ms"):
            SerialEndpoint(port, "controller").read_frame(500)
        assert port.lines == ["OK null"]

    def test_a_device_answers_after_a_silent_read_budget(self):
        port = _ScriptedPort([None, "PING"])
        serve(SerialEndpoint(port, "device", timeout_ms=5), ObjectRegistry())
        assert port.written == ["OK null"]

    def test_device_answers_a_line_that_is_not_a_frame(self):
        port = _ScriptedPort(["caf\u00e9", "PING\r\n", "x" * 5000, "PING\n"])
        serve(SerialEndpoint(port, "device", timeout_ms=10), ObjectRegistry())
        bad = "ERR BAD_ARGS malformed command: "
        assert port.written == [
            bad + "frame contains non-printable or non-ASCII characters",
            bad + "frame contains non-printable or non-ASCII characters",
            bad + f"frame too long: 5000 > {MAX_FRAME_LEN}",
            "OK null",
        ]
        for line in port.written:
            parse_response(check_frame(line))


class _ScriptedPort:
    """SerialPortLike that delivers a fixed script of lines, then hangs up.
    A None in the script is silence: that read waits out its timeout."""

    def __init__(self, lines):
        self.lines = deque(lines)
        self.written = []

    def write_line(self, line):
        self.written.append(line)

    def read_line(self, timeout_s):
        if not self.lines:
            raise ChannelClosedError("script ended")
        line = self.lines.popleft()
        if line is None:
            time.sleep(timeout_s)
        return line

    def close(self):
        pass


class _LatePort:
    """SerialPortLike in front of a device whose replies to the first `held`
    lines come late: they arrive just before the reply to the next line."""

    def __init__(self, registry, held=1):
        self.server = CommandServer(registry)
        self.held = held
        self.late = []
        self.sent = []
        self.replies = deque()

    def write_line(self, line):
        self.sent.append(line)
        reply = self.server.handle_line(line)
        if len(self.sent) <= self.held:
            self.late.append(reply)
            return
        self.replies.extend(self.late)
        self.late.clear()
        self.replies.append(reply)

    def read_line(self, timeout_s):
        return self.replies.popleft() if self.replies else None

    def close(self):
        pass


class _Calls:
    def first(self):
        return "first"

    def second(self):
        return "second"


def _late_endpoint(held):
    registry = ObjectRegistry()
    registry.objects["a"] = _Calls()
    port = _LatePort(registry, held)
    return SerialEndpoint(port, "controller", timeout_ms=20), port


class TestSerialLateReply:
    """After a timeout the controller fences off the reply it gave up on."""

    def test_late_reply_is_not_read_as_the_next_answer(self):
        """The fence and the late frames it drops are logged too."""
        ep, port = _late_endpoint(held=1)
        log = []
        ep.logger = lambda direction, line, stamp: log.append((direction, line, stamp))
        with pytest.raises(TransportTimeout):
            send_command(ep, Command("CALL", "a", "first"))
        assert send_command(ep, Command("CALL", "a", "second")).payload == "second"
        assert send_command(ep, Command("CALL", "a", "first")).payload == "first"
        assert port.sent == ["CALL a.first []", "DEL _resync_1", "CALL a.second []", "CALL a.first []"]
        assert log == [
            ("send", "CALL a.first []", None),
            ("send", "DEL _resync_1", None),
            ("recv", 'OK "first"', None),
            ("recv", "ERR NO_OBJECT unknown object '_resync_1'", None),
            ("send", "CALL a.second []", None),
            ("recv", 'OK "second"', None),
            ("send", "CALL a.first []", None),
            ("recv", 'OK "first"', None),
        ]

    def test_unanswered_fence_is_retried_with_a_new_name(self):
        ep, port = _late_endpoint(held=2)
        with pytest.raises(TransportTimeout):
            send_command(ep, Command("CALL", "a", "first"))
        with pytest.raises(TransportTimeout):  # the fence itself goes unanswered
            send_command(ep, Command("CALL", "a", "second"))
        assert send_command(ep, Command("CALL", "a", "second")).payload == "second"
        assert port.sent == ["CALL a.first []", "DEL _resync_1", "DEL _resync_2", "CALL a.second []"]

    def test_a_device_endpoint_writes_straight_after_an_idle_read(self):
        port = _FakePort()
        ep = SerialEndpoint(port, "device", timeout_ms=5)
        with pytest.raises(TransportTimeout):
            ep.read_frame(5)
        ep.write_line("OK null")
        assert port.lines == ["OK null"]


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
