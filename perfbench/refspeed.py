"""Reference kernel: a gauge of how fast the host runs Python right now.

On a shared machine the speed available to one process changes by up to
2x, for stretches from under a second to minutes, and every workload's time
follows it (set rates correlate with this kernel's time at about -0.8
within a run). The kernel involves none of the program under test, so it
moves only with the host. The benchmark times it beside every sample and then

- drops the samples taken at under half the run's best speed (gauge above
  FAST_BAND times the run's 10th-percentile gauge), and
- scales each kept sample to a host on which the kernel takes REFERENCE_NS:
  reported time = host time * scale(gauge).

The workloads slow down by less than the kernel: on the machine of the
first baseline, in the slow state the kernel ran 1.8-2.1x slower while
suite, soak and bulk work ran 1.5-2.0x slower, i.e. by the kernel's factor
to the power 0.65-0.85. SLOWDOWN_EXPONENT is the middle of that range; it
was chosen, with FAST_BAND, as the pair that gave the smallest run-to-run
spread over six 20 s runs of each in-process workload on that machine.
REFERENCE_NS is the kernel's typical time there when quiet, so reported
values read as host time on that machine. The raw host times are kept in the
detail record.
"""

from __future__ import annotations

import time

REFERENCE_NS = 950_000
FAST_BAND = 2.0
SLOWDOWN_EXPONENT = 0.75


class _Cell:
    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value


def _step(cell: _Cell, table: dict, i: int) -> int:
    key = f"k{i & 63}"
    table[key] = table.get(key, 0) + i
    cell.value += len([i, i + 1, i + 2]) + (i % 7)
    return cell.value


def _kernel_ns() -> int:
    start = time.perf_counter_ns()
    cell = _Cell(0)
    table: dict = {}
    for i in range(2000):
        _step(cell, table, i)
    return time.perf_counter_ns() - start


def kernel_ns(repeats: int = 3) -> int:
    """Host ns of the kernel (about 1 ms on a quiet host), best of `repeats`.

    The best of a few back-to-back runs drops a run that was preempted or
    started with cold caches, while a host that is slower throughout still
    shows in every run.
    """
    return min(_kernel_ns() for _ in range(repeats))


def fast(gauges: list[float]) -> list[int]:
    """Indices of the samples taken at no less than 1/FAST_BAND of the best speed."""
    floor = sorted(gauges)[len(gauges) // 10]
    return [i for i, gauge in enumerate(gauges) if gauge <= FAST_BAND * floor]


def scale(gauge_ns: float) -> float:
    """Factor that takes a host time measured beside `gauge_ns` to reference speed."""
    return (REFERENCE_NS / gauge_ns) ** SLOWDOWN_EXPONENT
