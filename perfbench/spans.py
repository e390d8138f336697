"""In-memory span tracer for the traced benchmark run.

`install()` wraps the public entry points of every double_harness module
(and the callbacks the program hands to the scheduler and the buses) so
that each call records a span: name, start, end and parent. Spans are kept
in memory, capped at SPAN_CAP, and written out by the caller at the end.
Self time is a span's duration minus the time of its child spans; it is
summed per layer as the spans close, so the totals cover the whole run even
after the raw span list is full.

A layer "entry" is a span whose parent belongs to another layer; per-call
figures divide a layer's self time by its entries, so a method calling
another method of the same layer counts once.

Nothing here changes what the program computes: the wrappers only time and
count, and `uninstall()` restores every patched attribute.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter

SPAN_CAP = 50_000

_now = time.perf_counter_ns

BLE_VERBS = (
    "advertise",
    "stop_advertising",
    "drop_peripheral",
    "notify",
    "attach_central",
    "detach_central",
    "scan",
    "connect",
    "disconnect",
    "read",
)
CODEC_FUNCS = ("check_frame", "format_command", "parse_command", "format_response", "parse_response")


class Tracer:
    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self.layer_self_ns: Counter = Counter()
        self.layer_entries: Counter = Counter()
        self.entry_self_ns: Counter = Counter()
        self.entry_calls: Counter = Counter()
        self.inclusive_ns: Counter = Counter()
        self.spans: list[list] = []
        self.last_rig = None
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []
        self._callbacks: dict = {}

    # -- spans

    def call(self, name: str, layer: str, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1] if stack else None
        if parent is not None and parent[1] == layer:
            entry = parent[4]
        else:
            entry = name
            self.layer_entries[layer] += 1
            self.entry_calls[name] += 1
        sid = -1
        if len(self.spans) < SPAN_CAP:
            sid = len(self.spans)
            self.spans.append([name, 0, 0, parent[5] if parent is not None else -1])
        frame = [name, layer, _now(), 0, entry, sid]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = _now()
            stack.pop()
            duration = end - frame[2]
            if stack:
                stack[-1][3] += duration
            own = duration - frame[3]
            self.layer_self_ns[layer] += own
            self.entry_self_ns[entry] += own
            self.inclusive_ns[name] += duration
            if sid >= 0:
                self.spans[sid][1] = frame[2]
                self.spans[sid][2] = end

    def reset(self) -> None:
        """Forget everything recorded so far; the patches stay."""
        for counter in (
            self.counts,
            self.layer_self_ns,
            self.layer_entries,
            self.entry_self_ns,
            self.entry_calls,
            self.inclusive_ns,
        ):
            counter.clear()
        self.spans.clear()
        self.last_rig = None

    def note_max(self, key: str, value: int) -> None:
        self.counts[key] = max(self.counts[key], value)

    # -- patching

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _wrap(self, owner, attr: str, name: str, layer: str, counter=None) -> None:
        fn = owner.__dict__[attr]
        call = self.call

        if counter is None:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return call(name, layer, fn, args, kwargs)

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return counter(lambda: call(name, layer, fn, args, kwargs), args)

        wrapper._perfbench = True
        self._patch(owner, attr, wrapper)

    def _wrap_args(self, owner, attr: str, rewrite) -> None:
        """Patch owner.attr so its arguments pass through rewrite() first."""
        fn = owner.__dict__[attr]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            args, kwargs = rewrite(args, kwargs)
            return fn(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    def callback(self, cb, count_event: bool = False, keep: bool = False):
        """A traced stand-in for a callable the program registers somewhere.

        With keep=True the same stand-in is returned for the same callable
        until forget() drops it, so the program's identity checks on
        unsubscribe still match.
        """
        traced_already = getattr(getattr(cb, "__func__", cb), "_perfbench", False)
        if cb is None or (traced_already and not count_event):
            return cb
        if keep and cb in self._callbacks:
            return self._callbacks[cb]
        func = getattr(cb, "__func__", cb)
        owner = getattr(cb, "__self__", None)
        module = getattr(func, "__module__", "") or ""
        layer = module.rsplit(".", 1)[-1]
        if owner is not None:
            name = f"{layer}.{type(owner).__name__}.{func.__name__}"
        else:
            name = f"{layer}.{getattr(func, '__qualname__', repr(func))}"
        call = self.call
        counts = self.counts

        def traced(*args, **kwargs):
            if count_event:
                counts["simcore.events"] += 1
            return call(name, layer, cb, args, kwargs)

        traced._perfbench = True
        if keep:
            self._callbacks[cb] = traced
        return traced

    def forget(self, cb):
        return self._callbacks.pop(cb, cb)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._callbacks.clear()

    # -- instrumentation of the program

    def install(self, dh) -> None:
        """Wrap the entry points of the double_harness package `dh`."""
        from double_harness import bus, cli, doubles, dut, harness, simcore, suites, transport

        counts = self.counts
        self._install_simcore(simcore.Scheduler)
        self._install_bus(bus)

        # transport: the codec, the channel, dispatch and the round trip.
        def count_checks(run, args):
            counts["transport.checks"] += 1
            return run()

        def count_errs(run, args):
            resp = run()
            if not resp.ok:
                counts["transport.err_responses"] += 1
            return resp

        for fname in CODEC_FUNCS:
            counter = {"check_frame": count_checks, "parse_response": count_errs}.get(fname)
            self._wrap(transport, fname, f"transport.codec.{fname}", "transport.codec", counter)

        def count_frames(run, args):
            counts["transport.frames"] += 1
            counts["transport.frame_bytes"] += len(args[1])
            return run()

        def count_wait(run, args):
            before = args[0].sim_now()
            try:
                return run()
            finally:
                counts["transport.wait.sim_ms"] += args[0].sim_now() - before

        def count_round_trip(run, args):
            counts["transport.round_trips"] += 1
            try:
                return run()
            except transport.TransportTimeout:
                counts["transport.timeouts"] += 1
                raise

        def count_commands(run, args):
            counts["transport.commands"] += 1
            return run()

        ve = transport.VirtualEndpoint
        self._wrap(ve, "write_line", "transport.channel.write_line", "transport.channel", count_frames)
        self._wrap(ve, "read_frame", "transport.wait.read_frame", "transport.wait", count_wait)
        self._wrap(
            transport.CommandServer, "handle_line", "transport.channel.handle_line", "transport.channel"
        )
        self._wrap(
            transport.ObjectRegistry, "execute", "transport.dispatch.execute", "transport.dispatch",
            count_commands,
        )
        self._wrap(transport, "send_command", "transport.send.send_command", "transport.send", count_round_trip)
        self._patch(dh, "send_command", transport.send_command)

        # hosted code: every public method of the drivers and the doubles.
        for module, layer in ((dut, "dut"), (doubles, "doubles")):
            for cls in vars(module).values():
                if _hosted_class(cls, module):
                    for attr, fn in list(vars(cls).items()):
                        if inspect.isfunction(fn) and (attr == "__init__" or not attr.startswith("_")):
                            self._wrap(cls, attr, f"{layer}.{cls.__name__}.{attr}", layer)

        # harness: case flow, reports and the transport log.
        def count_cases(run, args):
            results = run()
            counts["harness.suites"] += 1
            counts["harness.cases"] += len(results)
            return results

        def count_reports(run, args):
            counts["harness.reports"] += 1
            return run()

        self._wrap(harness, "run_suite", "harness.case_flow.run_suite", "harness.case_flow", count_cases)
        self._patch(dh, "run_suite", harness.run_suite)
        self._wrap(
            harness, "suite_report_dict", "harness.report.suite_report_dict", "harness.report",
            count_reports,
        )
        self._wrap(harness.TransportLog, "record", "harness.log.record", "harness.log")

        # suites: rig construction. cli imported the name, so patch it there too.
        def keep_rig(run, args):
            counts["suites.rigs"] += 1
            self.last_rig = run()
            return self.last_rig

        self._wrap(suites, "build_virtual_rig", "suites.build_virtual_rig", "suites.build_rig", keep_rig)
        self._patch(dh, "build_virtual_rig", suites.build_virtual_rig)
        self._patch(cli, "build_virtual_rig", suites.build_virtual_rig)

        def count_mains(run, args):
            counts["cli.mains"] += 1
            return run()

        self._wrap(cli, "main", "cli.main", "cli", count_mains)

    def _install_simcore(self, scheduler_cls) -> None:
        counts = self.counts

        def count_advance(run, args):
            counts["simcore.advance_calls"] += 1
            return run()

        self._wrap(scheduler_cls, "advance_to", "simcore.advance_to", "simcore", count_advance)
        self._wrap(scheduler_cls, "next_due", "simcore.next_due", "simcore")
        self._wrap(scheduler_cls, "cancel", "simcore.cancel", "simcore")

        def traced_action(args, kwargs):
            args = list(args)
            if len(args) > 2:
                args[2] = self.callback(args[2], count_event=True)
            else:
                kwargs["action"] = self.callback(kwargs["action"], count_event=True)
            return tuple(args), kwargs

        self._wrap(scheduler_cls, "schedule", "simcore.schedule", "simcore")
        self._wrap_args(scheduler_cls, "schedule", traced_action)

    def _install_bus(self, bus) -> None:
        counts = self.counts

        def count_edges(run, args):
            before = len(args[0].edges)
            try:
                return run()
            finally:
                counts["bus.gpio.edges"] += len(args[0].edges) - before

        def count_txns(run, args):
            counts["bus.i2c.txns"] += 1
            return run()

        def count_uart(run, args):
            counts["bus.uart.bytes"] += len(args[1])
            return run()

        def count_spi(run, args):
            counts["bus.spi.bytes"] += len(args[1])
            return run()

        def count_ble(run, args):
            counts["bus.ble.ops"] += 1
            return run()

        self._wrap(bus.GpioLine, "write", "bus.gpio.write", "bus.gpio", count_edges)
        self._wrap(bus.I2cBus, "write_then_read", "bus.i2c.write_then_read", "bus.i2c", count_txns)
        self._wrap(bus.UartEnd, "send", "bus.uart.send", "bus.uart", count_uart)
        self._wrap(bus.UartEnd, "recv_line", "bus.uart.recv_line", "bus.uart")
        self._wrap(bus.SpiBus, "transfer", "bus.spi.transfer", "bus.spi", count_spi)
        for verb in BLE_VERBS:
            self._wrap(bus.BleAir, verb, f"bus.ble.{verb}", "bus.ble", count_ble)

        # Callbacks the doubles and drivers hand to the media.
        def first_arg(forget: bool):
            def rewrite(args, kwargs):
                args = list(args)
                if len(args) > 1:
                    args[1] = self.forget(args[1]) if forget else self.callback(args[1], keep=True)
                return tuple(args), kwargs

            return rewrite

        def add_device(args, kwargs):
            return (args[0], args[1], self.callback(args[2])), kwargs

        def clear_slave(args, kwargs):
            args = list(args)
            if len(args) > 1 and args[1] is not None:
                args[1] = self.forget(args[1])
            return tuple(args), kwargs

        self._wrap_args(bus.GpioLine, "subscribe", first_arg(False))
        self._wrap_args(bus.GpioLine, "unsubscribe", first_arg(True))
        self._wrap_args(bus.SpiBus, "set_slave", first_arg(False))
        self._wrap_args(bus.SpiBus, "clear_slave", clear_slave)
        self._wrap_args(bus.UartEnd, "subscribe_lines", lambda a, k: ((a[0], self.callback(a[1])), k))
        self._wrap_args(bus.I2cBus, "add_device", add_device)


def _hosted_class(cls, module) -> bool:
    import dataclasses

    return (
        inspect.isclass(cls)
        and cls.__module__ == module.__name__
        and not issubclass(cls, BaseException)
        and not dataclasses.is_dataclass(cls)
    )
