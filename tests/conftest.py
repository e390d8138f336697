import gc
import signal
import time

import pytest

try:
    import resource
except ImportError:  # not on every platform
    resource = None

from double_harness.simcore import Scheduler
from double_harness.suites import build_virtual_rig

# The slowest test takes about 1.3 s; a test that runs this long is hung.
TEST_TIME_LIMIT_S = 60

# Tier-1 peaks near 65 MiB of resident memory. A test past TEST_MEMORY_LIMIT_BYTES
# of it has run away, and the address space of the whole process is capped at
# twice that, so a runaway that the check below misses fails with MemoryError
# instead of growing until the host runs out.
TEST_MEMORY_LIMIT_BYTES = 2**29
PROCESS_ADDRESS_SPACE_BYTES = 2**30

# How often, in seconds, a test is checked against both limits.
TEST_CHECK_S = 0.25


def pytest_configure(config):
    """Lower the soft address-space limit to PROCESS_ADDRESS_SPACE_BYTES,
    where the platform has one and the current limit is higher."""
    if resource is None:
        return
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    if soft == resource.RLIM_INFINITY or soft > PROCESS_ADDRESS_SPACE_BYTES:
        resource.setrlimit(resource.RLIMIT_AS, (PROCESS_ADDRESS_SPACE_BYTES, hard))


def _resident_bytes() -> int:
    """Resident memory of this process where /proc shows it, else 0."""
    try:
        with open("/proc/self/statm", "rb") as statm:
            return int(statm.read().split()[1]) * resource.getpagesize()
    except OSError:
        return 0


class TestLimitExceeded(BaseException):
    """A test ran past TEST_TIME_LIMIT_S or TEST_MEMORY_LIMIT_BYTES. Not an
    Exception, so neither the package's `except Exception` boundaries nor
    hypothesis take it for the test's own failure: it ends the test at once
    and names it. At the address-space cap itself a failed allocation is a
    MemoryError, which hypothesis would take for a failing example and keep."""


@pytest.hookimpl(wrapper=True)
def pytest_pyfunc_call(pyfuncitem):
    """A test that ran out of memory or time may hold much of the memory there
    is through the tracebacks of its exception chain, whose frames keep its
    functions and locals, and pytest stalls reporting it at the cap. Stop the
    checks, drop those tracebacks, free what they held, and fail the test by
    name."""
    try:
        return (yield)
    except (MemoryError, TestLimitExceeded) as exc:
        if hasattr(signal, "setitimer"):
            signal.setitimer(signal.ITIMER_REAL, 0)
        failure = type(exc)(str(exc) or f"{pyfuncitem.nodeid} ran out of memory")
        while exc is not None:  # pluggy still holds exc itself
            exc.__traceback__, exc = None, exc.__context__
    gc.collect()  # the frames sit in reference cycles
    raise failure


@pytest.fixture(autouse=True)
def _limits(request):
    if not hasattr(signal, "setitimer"):
        yield
        return
    deadline = time.monotonic() + TEST_TIME_LIMIT_S

    def check(signum, frame):
        if time.monotonic() > deadline:
            raise TestLimitExceeded(f"{request.node.nodeid} ran past {TEST_TIME_LIMIT_S} s")
        if _resident_bytes() > TEST_MEMORY_LIMIT_BYTES:
            raise TestLimitExceeded(f"{request.node.nodeid} holds over {TEST_MEMORY_LIMIT_BYTES >> 20} MiB")

    previous = signal.signal(signal.SIGALRM, check)
    signal.setitimer(signal.ITIMER_REAL, TEST_CHECK_S, TEST_CHECK_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def sched() -> Scheduler:
    return Scheduler()


@pytest.fixture
def rig():
    rig = build_virtual_rig()
    yield rig
    rig.close()
