"""Calibration tools for the benchmark: spreads, fingerprints, baseline.

    python3 perfbench/calibrate.py spread [--workload W ...] [--runs 10] [--first-seed 1]
                                          [--trace 0|1] [--save FILE]
    python3 perfbench/calibrate.py fingerprints [--seeds 1-10]
    python3 perfbench/calibrate.py baseline UNTRACED.json [TRACED.json]

`spread` runs run.py once per seed and workload and prints, for each metric,
the median and the distance between the first and third quartiles as a share
of the median (statistics.quantiles(values, n=4)), next to the metric's
bound. `fingerprints` records the sim-time fingerprints of the held-out seed
and the listed seeds in fingerprints.json. `baseline` condenses saved spread
runs into baseline.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import run

HERE = os.path.dirname(os.path.abspath(__file__))
BASELINE = os.path.join(HERE, "baseline.json")


def load_spec() -> dict:
    with open(run.SPEC) as fh:
        return json.load(fh)


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return {"detail": json.loads(lines[-2])["perfbench"], "result": json.loads(lines[-1])}


def quartile_spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def summarize(runs: list[dict], spec: dict, trace: int) -> dict:
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end" if not trace else "per_layer"]}
    table = {}
    for name in bounds:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        median, q1, q3, spread = quartile_spread(values) if len(values) > 1 else (values[0],) * 3 + (0.0,)
        table[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bounds[name],
                       "values": values}
    return table


def cmd_spread(args) -> int:
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    saved = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    steady = True
    for workload in workloads:
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            runs.append(one_run(workload, seed, seconds, args.trace))
            res = runs[-1]["result"]
            print(f"  {workload} seed {seed}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}", file=sys.stderr)
        table = summarize(runs, spec, args.trace)
        saved["workloads"][workload] = {"runs": runs, "table": table}
        print(f"{workload} ({len(runs)} runs, {seconds} s each)")
        for name, row in table.items():
            verdict = ""
            if row["bound"] is not None:
                if name == "setup_s" or row["spread"] < row["bound"] / 3:
                    verdict = "steady"
                elif row["spread"] < row["bound"]:
                    verdict = "within bound, above a third of it"
                    steady = False
                else:
                    verdict = "WIDER THAN BOUND"
                    steady = False
            print(f"  {name:<40} median={row['median']:<14.6g} spread={row['spread']:.4f} "
                  f"bound={row['bound']} {verdict}")
        if not all(r["result"]["correct"] for r in runs):
            print(f"  NOT CORRECT: {[r['detail']['fingerprint_problems'] for r in runs]}")
            steady = False
    if args.save:
        with open(args.save, "w") as fh:
            json.dump(saved, fh)
    return 0 if steady else 1


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def cmd_fingerprints(args) -> int:
    spec = load_spec()
    recorded = run.load_fingerprints()
    seeds = [recorded["held_out_seed"]] + parse_seeds(args.seeds)
    for workload in (w["name"] for w in spec["workloads"]):
        cfg = {"mode": "fingerprint", "workload": workload, "seeds": seeds, "trace": False,
               "root": run.ROOT}
        proc = run.spawn([sys.executable, run.WORKER, json.dumps(cfg)], 600)
        recorded["workloads"][workload] = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{workload}: {len(seeds)} seeds recorded")
    with open(run.FINGERPRINTS, "w") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def cmd_baseline(args) -> int:
    with open(args.untraced) as fh:
        untraced = json.load(fh)
    traced = None
    if args.traced:
        with open(args.traced) as fh:
            traced = json.load(fh)
    baseline = {"run_seconds": untraced["seconds"], "workloads": {}}
    for workload, data in untraced["workloads"].items():
        first = data["runs"][0]["detail"]
        entry = {
            "seeds": [r["detail"]["seed"] for r in data["runs"]],
            "host": first["host"],
            "op": {"tail_pct": first["tail_pct"], "ops_per_run": [r["detail"]["ops"] for r in data["runs"]]},
            "end_to_end": {k: {f: v[f] for f in ("median", "q1", "q3", "spread")} for k, v in data["table"].items()},
        }
        if traced and workload in traced["workloads"]:
            entry["per_layer"] = {k: v["median"] for k, v in traced["workloads"][workload]["table"].items()}
        baseline["workloads"][workload] = entry
    with open(BASELINE, "w") as fh:
        json.dump(baseline, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("spread")
    p.add_argument("--workload", action="append")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--save")
    p.set_defaults(func=cmd_spread)
    p = sub.add_parser("fingerprints")
    p.add_argument("--seeds", default="1-10")
    p.set_defaults(func=cmd_fingerprints)
    p = sub.add_parser("baseline")
    p.add_argument("untraced")
    p.add_argument("traced", nargs="?")
    p.set_defaults(func=cmd_baseline)
    args = parser.parse_args()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
