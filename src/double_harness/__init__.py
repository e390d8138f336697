"""Desk-scale rig for testing embedded drivers against peripheral doubles.

Reference drivers (the device under test) and peripheral impostors (the
doubles) talk over simulated GPIO/I2C/UART/SPI/BLE media under one
deterministic millisecond clock, while a harness injects commands over a
line protocol, gathers results, and asserts with tolerance-aware matchers.
"""

from .bus import BleAir, GpioLine, I2cBus, SpiBus, UartLink
from .harness import (
    CaseContext,
    CodeManifest,
    Session,
    Suite,
    TestCase,
    TestResult,
    close_to,
    equal,
    is_true,
    report,
    run_suite,
    summarize,
    within,
)
from .simcore import Scheduler
from .suites import SHIPPED_FAULTS, SUITES, build_virtual_rig
from .transport import (
    Command,
    ObjectRegistry,
    Response,
    open_virtual_pair,
    send_command,
    serve,
)

__version__ = "0.1.0"

__all__ = [
    "BleAir",
    "CaseContext",
    "CodeManifest",
    "Command",
    "GpioLine",
    "I2cBus",
    "ObjectRegistry",
    "Response",
    "SHIPPED_FAULTS",
    "SUITES",
    "Scheduler",
    "Session",
    "SpiBus",
    "Suite",
    "TestCase",
    "TestResult",
    "UartLink",
    "build_virtual_rig",
    "close_to",
    "equal",
    "is_true",
    "open_virtual_pair",
    "report",
    "run_suite",
    "send_command",
    "serve",
    "summarize",
    "within",
]
