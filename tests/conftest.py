import signal

import pytest

from double_harness.simcore import Scheduler
from double_harness.suites import build_virtual_rig

# The slowest test takes about 1.3 s; a test that runs this long is hung.
TEST_TIME_LIMIT_S = 60


class TestTimeLimitExceeded(BaseException):
    """A test ran past TEST_TIME_LIMIT_S. Not an Exception, so neither the
    package's `except Exception` boundaries nor hypothesis take it for the
    test's own failure: it ends the test at once and names it."""


@pytest.fixture(autouse=True)
def _time_limit(request):
    if not hasattr(signal, "setitimer"):
        yield
        return

    def expire(signum, frame):
        raise TestTimeLimitExceeded(f"{request.node.nodeid} ran past {TEST_TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
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
