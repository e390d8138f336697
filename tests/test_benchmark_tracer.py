"""The benchmark's tracer still fits the package.

perfbench/spans.py wraps the package's entry points by name when a traced
run starts, and a name it wraps that the package renamed or removed makes
that run raise. This test installs the tracer on the package and takes it
off again, so such a rename fails here and not only in a traced benchmark
run, and it checks that taking the tracer off restores every attribute it
patched.
"""

import importlib.util
from pathlib import Path

import double_harness
from double_harness import bus, cli, doubles, dut, harness, simcore, suites, transport

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespaces():
    """The package, its modules and every class they define, each with a
    copy of its namespace."""
    modules = (double_harness, bus, cli, doubles, dut, harness, simcore, suites, transport)
    owners = [*modules]
    for module in modules[1:]:
        owners += [v for v in vars(module).values() if isinstance(v, type) and v.__module__ == module.__name__]
    return [(owner, dict(vars(owner))) for owner in owners]


def test_the_tracer_wraps_the_package_and_uninstall_restores_every_attribute():
    spans = _load_spans()
    before = _namespaces()
    tracer = spans.Tracer()
    try:
        tracer.install(double_harness)
        wrapped = {verb for verb in spans.BLE_VERBS if getattr(vars(bus.BleAir)[verb], "_perfbench", False)}
        assert wrapped == set(spans.BLE_VERBS)
    finally:
        tracer.uninstall()
    moved = [
        (owner.__name__, name)
        for owner, namespace in before
        for name in namespace.keys() | vars(owner).keys()
        if vars(owner).get(name) is not namespace.get(name)
    ]
    assert moved == []
