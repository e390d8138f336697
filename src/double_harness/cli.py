"""Command-line runner for the shipped driver suites.

Exit codes: 0 when every case passes, 1 on any failure or error, 2 on a
usage problem. With several suites selected, JSON output is an array with
one report object per suite.
"""

from __future__ import annotations

import argparse
import json

from . import harness
from .suites import SHIPPED_FAULTS, SUITE_ORDER, SUITES, build_virtual_rig


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="double-harness",
        description="Run embedded-driver test suites against simulated peripherals.",
    )
    parser.add_argument(
        "--suite",
        action="append",
        choices=list(SUITE_ORDER) + ["all"],
        help="suite to run (repeatable); default: all",
    )
    parser.add_argument("--format", choices=("human", "json"), default="human")
    parser.add_argument(
        "--debug", action="store_true", help="append the interleaved transport log"
    )
    parser.add_argument(
        "--fault",
        choices=sorted(SHIPPED_FAULTS),
        help="arm one deliberate driver bug",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    selected = args.suite or ["all"]
    names: list[str] = []
    for name in selected:
        if name == "all":
            names.extend(n for n in SUITE_ORDER if n not in names)
        elif name not in names:
            names.append(name)

    rig = build_virtual_rig(fault=args.fault)
    all_pass = True
    json_docs = []
    human_chunks = []
    try:
        for name in names:
            suite = SUITES[name]
            results = harness.run_suite(suite, rig.session)
            counts = harness.summarize(results)
            all_pass = all_pass and counts["failed"] == 0 and counts["errors"] == 0
            if args.format == "json":
                json_docs.append(harness.suite_report_dict(name, results))
            else:
                human_chunks.append(harness.report(results, suite_name=name))
    finally:
        rig.close()

    if args.format == "json":
        print(json.dumps(json_docs, indent=2))
    else:
        if args.debug:
            # One combined log at the end; both devices, chronological.
            human_chunks.append("--- transport log ---\n" + rig.session.log.render())
        print("\n\n".join(human_chunks))
    return 0 if all_pass else 1
