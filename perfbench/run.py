"""Host-time benchmark of the double-harness rig, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload suite_matrix --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-check

Each run starts a fresh interpreter for the workload (worker.py), so set-up
time is real. With --trace 0 the last line of stdout carries the end-to-end
metrics; with --trace 1 the per-layer metrics of a separate traced run. The
metric names and units come from BENCHMARK.json at the repository root. The
line before the last is a detail record: the seed, host facts, sample
counts, the metrics under their per-workload names, fingerprints and any
oracle failures.

Exit code 0 means a result was printed (its "correct" field says whether the
outputs were right); 2 means no result could be produced.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import refspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
WORKLOADS = ("suite_matrix", "bulk_frames", "sim_soak", "cli_cold")

SETUP_PROBES = 15  # set-up-only interpreters per run
HOST_PROBES = 5
WORKER_GRACE_S = 120
PROBE_TIMEOUT_S = 60

GAUGE = f"import sys; sys.path.insert(0, {HERE!r}); import refspeed; print(refspeed.kernel_ns())"
IMPORT_PROBE = (
    "import time; t = time.perf_counter_ns(); import double_harness; "
    "print(time.perf_counter_ns() - t)\n" + GAUGE
)
CLI_PROBE = (
    "import contextlib, io, time\n"
    "from double_harness import cli\n"
    "t = time.perf_counter_ns()\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = cli.main(['--format', 'json'])\n"
    "assert code == 0, code\n"
    "print(time.perf_counter_ns() - t)\n" + GAUGE
)


HOST_TIME_UNITS = ("ns", "us", "ms", "s")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    src = os.path.join(ROOT, "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def spawn(argv: list[str], timeout: float) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        argv, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout
    )
    if proc.returncode != 0:
        raise BenchError(f"{argv[1:3]} exited {proc.returncode}: {proc.stderr.strip()[-800:]}")
    return proc


def run_worker(cfg: dict, timeout: float) -> dict:
    """Start one workload interpreter; returns its result with setup_s."""
    started = time.monotonic_ns()
    proc = spawn([sys.executable, WORKER, json.dumps(cfg)], timeout)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = (result["setup_done_ns"] - started) / 1e9
    return result


def at_reference_speed(samples: list[float], gauges: list[int]) -> float:
    """Median of the samples kept by refspeed.fast, each scaled to reference
    speed by the kernel time its own process measured."""
    return statistics.median(samples[i] * refspeed.scale(gauges[i]) for i in refspeed.fast(gauges))


def probe_ms(code: str, count: int) -> float:
    """Median ns printed by `count` fresh interpreters running `code`, in ms
    at reference speed. The code prints its timing and then its gauge."""
    samples, gauges = [], []
    for _ in range(count):
        ns, gauge = spawn([sys.executable, "-c", code], PROBE_TIMEOUT_S).stdout.split()[-2:]
        samples.append(int(ns) / 1e6)
        gauges.append(int(gauge))
    return at_reference_speed(samples, gauges)


def interpreter_ms(count: int) -> float:
    """Median wall time of a bare `python -c pass`, unscaled: it is a host fact."""
    samples = []
    for _ in range(count):
        t0 = time.perf_counter_ns()
        spawn([sys.executable, "-c", "pass"], PROBE_TIMEOUT_S)
        samples.append((time.perf_counter_ns() - t0) / 1e6)
    return statistics.median(samples)


def site_import_ms() -> float:
    """Cumulative `-X importtime` cost of the site module (and its .pth files)."""
    proc = spawn([sys.executable, "-X", "importtime", "-c", "pass"], PROBE_TIMEOUT_S)
    for line in proc.stderr.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[2] == "site":
            return int(parts[1]) / 1e3
    return 0.0


def host_facts() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "startup.interpreter_ms": interpreter_ms(HOST_PROBES),
        "site_import_ms": site_import_ms(),
        "gauge_ms": refspeed.kernel_ns() / 1e6,
    }


def load_fingerprints() -> dict:
    with open(FINGERPRINTS) as fh:
        return json.load(fh)


def check_fingerprints(recorded: dict, workload: str, seed: int, traced: bool, fps: dict) -> list[str]:
    """Compare the run's sim-time fingerprints with the recorded ones."""
    known = recorded["workloads"].get(workload, {})
    problems = []
    kinds = ("outputs", "counts") if traced else ("outputs",)
    for label, seed_key in (("held_out", str(recorded["held_out_seed"])), ("own", str(seed))):
        got = fps[label]
        if traced and got["traced_outputs"] != got["outputs"]:
            problems.append(f"{label} seed: tracing changed the simulated outputs")
        want = known.get(seed_key)
        if want is None:
            if label == "held_out":
                problems.append(f"no recorded fingerprint for held-out seed {seed_key}")
            continue
        for kind in kinds:
            if got[kind] != want[kind]:
                problems.append(f"{label} seed {seed_key}: {kind} fingerprint {got[kind][:12]} != {want[kind][:12]}")
    return problems


def measure(workload: str, seed: int, seconds: float, traced: bool) -> tuple[dict, dict]:
    """One benchmark run. Returns (contract result, detail record)."""
    with open(SPEC) as fh:
        spec = json.load(fh)
    recorded = load_fingerprints()
    facts = host_facts()
    setups, gauges = [], []
    for _ in range(SETUP_PROBES):
        probe = run_worker({"mode": "setup"}, PROBE_TIMEOUT_S)
        setups.append(probe["setup_s"])
        gauges.append(probe["gauge_ns"])
    cfg = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": traced,
        "root": ROOT,
        "held_out_seed": recorded["held_out_seed"],
    }
    work = run_worker(cfg, seconds + WORKER_GRACE_S)
    problems = check_fingerprints(recorded, workload, seed, traced, work["fingerprints"])

    if traced:
        # Host times are scaled to reference speed like the end-to-end ones;
        # counts, ratios and simulated milliseconds are left as they are.
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = {
            name: value * work["host_scale"] if units[name] in HOST_TIME_UNITS else value
            for name, value in work["layers"].items()
        }
        values["startup.interpreter_ms"] = facts["startup.interpreter_ms"]
        values["startup.import_ms"] = probe_ms(IMPORT_PROBE, HOST_PROBES)
        values["cli.main_ms"] = probe_ms(CLI_PROBE, HOST_PROBES)
        wanted = spec["per_layer"]
    else:
        values = {
            "work_per_s": work["work_per_s"],
            "op_ms_p50": work["op_ms_p50"],
            "op_ms_tail": work["op_ms_tail"],
            "setup_s": at_reference_speed(setups, gauges),
            "peak_rss_mib": work["peak_rss_mib"],
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    attempted, failed = work["attempted"], work["failed"]
    result = {
        "correct": failed == 0 and not problems and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    detail = {
        "workload": workload,
        "seed": seed,
        "held_out_seed": cfg["held_out_seed"],
        "trace": int(traced),
        "seconds": seconds,
        "host": facts,
        "ops_failed_ratio": failed / attempted if attempted else 1.0,
        "raw_setup_s": statistics.median(setups),
        "raw_setup_s_samples": setups,
        "setup_gauges_ms": [g / 1e6 for g in gauges],
        "fingerprint_problems": problems,
        **{k: v for k, v in work.items() if k not in ("layers", "setup_done_ns", "setup_s")},
    }
    return result, detail


def self_check(seconds: float) -> int:
    """Run every workload clean and with a planted error the oracle must see."""
    seed = load_fingerprints()["held_out_seed"]
    ok = True
    for workload in WORKLOADS:
        ratios = {}
        for sabotage in (False, True):
            cfg = {
                "workload": workload,
                "seed": 1,
                "seconds": seconds,
                "trace": False,
                "root": ROOT,
                "held_out_seed": seed,
                "sabotage": sabotage,
            }
            out = run_worker(cfg, seconds + WORKER_GRACE_S)
            ratios[sabotage] = out["failed"] / out["attempted"]
        good = ratios[False] == 0 and ratios[True] > 0
        ok = ok and good
        print(
            f"{workload:<13} ops_failed_ratio clean={ratios[False]:.4f} "
            f"planted={ratios[True]:.4f} {'ok' if good else 'ORACLE MISSED THE ERROR'}"
        )
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true", help="prove the oracles catch errors")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "double_harness", "__init__.py")):
        print("perfbench: no src/double_harness beside the benchmark; nothing to measure", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        if args.self_check:
            return self_check(min(args.seconds, 2.0))
        if args.workload is None:
            parser.error("--workload is required")
        result, detail = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"perfbench": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
