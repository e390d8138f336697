"""Line map of `src/double_harness` under tier-1, from the standard library.

Runs pytest in this process under `sys.settrace` and records every line of
the package that executes. The executable lines are those that carry
bytecode: the `co_lines()` of every code object compiled from the
package's source. Prints one JSON line per module and one for the total,
then each executable line that never ran, with its text.

    python tools/coverage.py                         # tier-1 as ROADMAP.md gives it
    python tools/coverage.py tests/test_bus.py -q    # or any pytest arguments

The exit status is pytest's. Nothing is written under `src/`. Lines run only
in a subprocess (`__main__.py`, run by the CLI tests) are not seen.
"""

from __future__ import annotations

import json
import os
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "double_harness"
TIER1_ARGS = ["-q", "--continue-on-collection-errors"]


def executable_lines(path: Path) -> set[int]:
    """Every line that owns bytecode in the module at path."""
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    lines: set[int] = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def run_traced(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with a line tracer on the package; the exit status, and the
    lines run per module file name."""
    import pytest

    hits: dict[str, set[int]] = {path.name: set() for path in PACKAGE.glob("*.py")}
    modules: dict[str, set[int] | None] = {}  # co_filename -> its hit set, None if not ours

    def lines_of(filename: str) -> set[int] | None:
        if filename not in modules:
            path = Path(os.path.realpath(filename))
            modules[filename] = hits.get(path.name) if path.parent == PACKAGE else None
        return modules[filename]

    def on_call(frame, event, arg):
        seen = lines_of(frame.f_code.co_filename)
        if seen is None:
            return None

        def on_line(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return on_line

        return on_line

    sys.settrace(on_call)  # the suite starts no threads
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
    return int(status), hits


def main(argv: list[str]) -> int:
    # The script's own directory would make this file importable as `coverage`.
    sys.path[0] = str(SRC)
    os.chdir(ROOT)
    status, hits = run_traced(argv or TIER1_ARGS)
    total_exec = total_run = 0
    unreached: list[str] = []
    for path in sorted(PACKAGE.glob("*.py")):
        executable = executable_lines(path)
        missed = sorted(executable - hits[path.name])
        total_exec += len(executable)
        total_run += len(executable) - len(missed)
        print(json.dumps({
            "module": path.name,
            "executable": len(executable),
            "run": len(executable) - len(missed),
            "unreached": missed,
        }))
        source = path.read_text(encoding="utf-8").splitlines()
        unreached += [f"{path.name}:{line}: {source[line - 1].strip()}" for line in missed]
    print(json.dumps({"module": "TOTAL", "executable": total_exec, "run": total_run}))
    print("\n".join(unreached))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
