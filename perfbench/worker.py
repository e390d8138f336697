"""The workload process: one fresh interpreter per benchmark run.

run.py starts this script with one JSON argument. It imports the package,
builds a first rig (that instant ends set-up), runs the held-out seed's
first set and the run's own first set for the oracles and fingerprints,
then measures whole sets until the time is up. With tracing on it wraps the
program's entry points (see spans.py) before the measured sets and reports
per-layer figures instead. The result is one JSON line on stdout.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import time


def main() -> int:
    cfg = json.loads(sys.argv[1])
    if cfg.get("mode") != "setup":
        # One CPU for this process and its children, so the reference
        # kernel gauges the CPU the measured work runs on.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import double_harness as dh

    dh.build_virtual_rig().close()
    setup_done_ns = time.monotonic_ns()
    import refspeed

    if cfg.get("mode") == "setup":
        print(json.dumps({"setup_done_ns": setup_done_ns, "gauge_ns": refspeed.kernel_ns()}))
        return 0

    import resource

    import spans
    import workloads

    cls = workloads.WORKLOADS[cfg["workload"]]
    traced = bool(cfg.get("trace"))
    wl = cls(dh, cfg["root"], sabotage=bool(cfg.get("sabotage")), in_process=traced)

    if cfg.get("mode") == "fingerprint":
        traced_wl = cls(dh, cfg["root"], in_process=True)
        print(json.dumps(fingerprints(dh, wl, traced_wl, cfg["seeds"])))
        return 0

    out: dict = {"setup_done_ns": setup_done_ns}
    held = wl.run_set(next(wl.sets(cfg["held_out_seed"])), fingerprint=True)
    stream = wl.sets(cfg["seed"])
    first_inputs = next(stream)
    first = wl.run_set(first_inputs, fingerprint=True)
    out["fingerprints"] = {"held_out": {"outputs": held.fingerprint}, "own": {"outputs": first.fingerprint}}
    checked = [held, first]

    tracer = None
    if traced:
        untraced_ns = min(scaled_ns(wl, first_inputs, None, refspeed) for _ in range(2))
        tracer = spans.Tracer()
        tracer.install(dh)
        held_traced = wl.run_set(next(wl.sets(cfg["held_out_seed"])), tracer, fingerprint=True)
        out["fingerprints"]["held_out"]["counts"] = counts_fingerprint(tracer.counts)
        out["fingerprints"]["held_out"]["traced_outputs"] = held_traced.fingerprint
        tracer.reset()
        traced_first = wl.run_set(first_inputs, tracer, fingerprint=True)
        first_counts = dict(tracer.counts)
        out["fingerprints"]["own"]["counts"] = counts_fingerprint(first_counts)
        out["fingerprints"]["own"]["traced_outputs"] = traced_first.fingerprint
        traced_ns = min(scaled_ns(wl, first_inputs, tracer, refspeed) for _ in range(2))
        out["overhead_pct"] = 100.0 * (traced_ns - untraced_ns) / untraced_ns
        out["unit_counts"] = traced_first.unit_counts
        checked += [held_traced, traced_first]

    # The reference kernel runs before every set and after the last, so
    # each set is scaled by the host speed measured on either side of it.
    measured = []
    refs = [refspeed.kernel_ns()]
    deadline = time.perf_counter_ns() + int(cfg["seconds"] * 1e9)
    while True:
        measured.append(wl.run_set(next(stream), tracer))
        refs.append(refspeed.kernel_ns())
        if time.perf_counter_ns() >= deadline:
            break

    everything = checked + measured
    out["attempted"] = sum(r.attempted for r in everything)
    out["failed"] = sum(r.failed for r in everything)
    out["failures"] = [m for r in everything for m in r.failures][:5]
    out["sets"] = len(measured)
    out["op"] = wl.op_name
    out["work_unit"] = wl.work_name
    out.update(timings(wl, measured, refs))
    who = resource.RUSAGE_CHILDREN if cfg["workload"] == "cli_cold" and not traced else resource.RUSAGE_SELF
    out["peak_rss_mib"] = resource.getrusage(who).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.uninstall()
        out["layers"] = layer_values(tracer, first_counts, out["overhead_pct"])
        out["spans_file"] = write_spans(cfg, tracer)
    print(json.dumps(out))
    return 0


def scaled_ns(wl, inputs, tracer, refspeed) -> float:
    """Host ns of one set at reference speed, gauged on either side of it."""
    before = refspeed.kernel_ns()
    host_ns = wl.run_set(inputs, tracer).host_ns
    return host_ns * refspeed.scale((before + refspeed.kernel_ns()) / 2)


def percentile(sorted_values: list, pct: float) -> float:
    """Linear-interpolated percentile of an already sorted list."""
    if len(sorted_values) == 1:
        return float(sorted_values[0])
    pos = (len(sorted_values) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def timings(wl, measured, refs) -> dict:
    """Medians and tails over the measured sets, at reference speed.

    A set's gauge is the mean of the kernel times measured just before and
    just after it; an op's gauge is its set's, or the mean of the kernel
    times around the op itself where the workload records them. Sets and
    ops measured at under half the run's best host speed are dropped, and
    the rest are scaled to reference speed (see refspeed.py). The raw_* figures are the same
    statistics over every set and op, unscaled.
    """
    import refspeed

    set_gauges = [(a + b) / 2 for a, b in zip(refs, refs[1:])]
    op_gauges = []
    for i, r in enumerate(measured):
        if r.op_gauges:
            own = [(a + b) / 2 for a, b in zip(r.op_gauges, r.op_gauges[1:])]
            set_gauges[i] = sum(own) / len(own)
        else:
            own = [set_gauges[i]] * len(r.op_ns)
        op_gauges.append(own)

    def stats(set_ids, op_limit: float, scale) -> dict:
        ops = sorted(
            ns * scale(g)
            for i in set_ids
            for ns, g in zip(measured[i].op_ns, op_gauges[i])
            if g <= op_limit
        )
        rates = sorted(
            measured[i].work / (measured[i].host_ns / 1e9) / scale(set_gauges[i]) for i in set_ids
        )
        stat = {
            "ops": len(ops),
            "op_ms_p50": percentile(ops, 50) / 1e6,
            "op_ms_tail": percentile(ops, wl.tail_pct) / 1e6,
            "work_per_s": percentile(rates, 50),
        }
        cases = sorted(
            ms * scale(set_gauges[i]) for i in set_ids for ms in measured[i].case_ms
        )
        if cases:
            stat["case_ms_p50"] = percentile(cases, 50)
            stat["case_ms_p99"] = percentile(cases, 99)
        return stat

    at_reference = refspeed.scale
    every_op = [g for gs in op_gauges for g in gs]
    fast_op_limit = max(every_op[i] for i in refspeed.fast(every_op))
    kept = refspeed.fast(set_gauges)
    result = stats(kept, fast_op_limit, at_reference)
    raw = stats(range(len(measured)), math.inf, lambda gauge: 1.0)
    result.update({f"raw_{k}": v for k, v in raw.items()})
    result.update(
        {
            "sets_kept": len(kept),
            "tail_pct": wl.tail_pct,
            "measured_s": sum(r.host_ns for r in measured) / 1e9,
            "gauge_ms": {
                "p10": percentile(sorted(set_gauges), 10) / 1e6,
                "median": percentile(sorted(set_gauges), 50) / 1e6,
                "p90": percentile(sorted(set_gauges), 90) / 1e6,
            },
            "host_scale": percentile(sorted(at_reference(set_gauges[i]) for i in kept), 50),
        }
    )
    return result


# Counts of simulated activity. A change meant only to speed up the rig
# must leave every one of them identical, so they enter the fingerprint.
# Host-side counts (check_frame calls, advance_to calls, BLE bookkeeping,
# log bytes) may legitimately change and stay out.
SIM_COUNTS = (
    "simcore.events",
    "bus.gpio.edges",
    "bus.uart.bytes",
    "bus.i2c.txns",
    "bus.spi.bytes",
    "transport.frames",
    "transport.frame_bytes",
    "transport.err_responses",
    "transport.timeouts",
    "transport.round_trips",
    "transport.wait.sim_ms",
)


def counts_fingerprint(counts) -> str:
    material = json.dumps({k: counts.get(k, 0) for k in SIM_COUNTS}, sort_keys=True)
    return hashlib.sha256(material.encode()).hexdigest()


def fingerprints(dh, wl, traced_wl, seeds) -> dict:
    """Outputs and sim-count fingerprints of each seed's first set."""
    import spans

    outputs = {str(seed): wl.run_set(next(wl.sets(seed)), fingerprint=True).fingerprint for seed in seeds}
    tracer = spans.Tracer()
    tracer.install(dh)
    result = {}
    for seed in seeds:
        tracer.reset()
        traced = traced_wl.run_set(next(traced_wl.sets(seed)), tracer, fingerprint=True)
        if traced.fingerprint != outputs[str(seed)]:
            raise SystemExit(f"seed {seed}: tracing changed the outputs")
        result[str(seed)] = {"outputs": outputs[str(seed)], "counts": counts_fingerprint(tracer.counts)}
    tracer.uninstall()
    return result


def _per(ns: float, n: int, scale: float) -> float:
    return ns / n / scale if n else 0.0


def layer_values(tracer, first: dict, overhead_pct: float) -> dict:
    """Per-layer figures. Counts are those of the first traced set, so
    they repeat exactly; times are averaged over every traced set."""
    total = tracer.counts
    own = tracer.layer_self_ns
    entry = tracer.entry_self_ns
    calls = tracer.entry_calls

    def count(key):
        return first.get(key, 0)

    return {
        "simcore.events": count("simcore.events"),
        "simcore.advance_calls": count("simcore.advance_calls"),
        "simcore.self_ns_per_event": _per(own["simcore"], total["simcore.events"], 1),
        "bus.gpio.edges": count("bus.gpio.edges"),
        "bus.uart.bytes": count("bus.uart.bytes"),
        "bus.i2c.txns": count("bus.i2c.txns"),
        "bus.spi.bytes": count("bus.spi.bytes"),
        "bus.ble.ops": count("bus.ble.ops"),
        "bus.gpio.self_ns_per_edge": _per(own["bus.gpio"], total["bus.gpio.edges"], 1),
        "bus.uart.self_ns_per_byte": _per(own["bus.uart"], total["bus.uart.bytes"], 1),
        "bus.spi.self_ns_per_byte": _per(own["bus.spi"], total["bus.spi.bytes"], 1),
        "transport.frames": count("transport.frames"),
        "transport.frame_bytes": count("transport.frame_bytes"),
        "transport.err_responses": count("transport.err_responses"),
        "transport.timeouts": count("transport.timeouts"),
        "transport.checks_per_frame": _per(count("transport.checks"), count("transport.frames"), 1),
        "transport.codec.self_ns_per_byte": _per(own["transport.codec"], total["transport.frame_bytes"], 1),
        "transport.codec.self_us_per_frame": _per(own["transport.codec"], total["transport.frames"], 1e3),
        "transport.dispatch.self_us_per_command": _per(
            own["transport.dispatch"], total["transport.commands"], 1e3
        ),
        "transport.wait.sim_ms": count("transport.wait.sim_ms"),
        "dut.self_us_per_call": _per(own["dut"], tracer.layer_entries["dut"], 1e3),
        "doubles.self_us_per_call": _per(own["doubles"], tracer.layer_entries["doubles"], 1e3),
        "doubles.gps_emit.self_us_per_call": _per(
            entry["doubles.GpsDouble._emit"], calls["doubles.GpsDouble._emit"], 1e3
        ),
        "doubles.led_edge.self_ns_per_call": _per(
            entry["doubles.LedDouble._on_edge"], calls["doubles.LedDouble._on_edge"], 1
        ),
        "doubles.rtc_tick.self_us_per_call": _per(
            entry["doubles.RtcDouble._tick"], calls["doubles.RtcDouble._tick"], 1e3
        ),
        "harness.round_trips_per_case": _per(count("transport.round_trips"), count("harness.cases"), 1),
        "harness.case_flow.self_us_per_case": _per(own["harness.case_flow"], total["harness.cases"], 1e3),
        "harness.report.us_per_suite": _per(own["harness.report"], total["harness.reports"], 1e3),
        "harness.log.bytes": count("harness.log.bytes"),
        "suites.build_rig_us": _per(
            tracer.inclusive_ns["suites.build_virtual_rig"], total["suites.rigs"], 1e3
        ),
        "trace.overhead_pct": overhead_pct,
    }


def write_spans(cfg, tracer) -> str:
    """Write the recorded spans (name, start_ns, end_ns, parent) as JSON."""
    directory = os.path.join(cfg["root"], ".perfbench_out")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"spans-{cfg['workload']}-{cfg['seed']}.json")
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "start_ns", "end_ns", "parent"], "spans": tracer.spans}, fh)
    return os.path.relpath(path, cfg["root"])


if __name__ == "__main__":
    sys.exit(main())
