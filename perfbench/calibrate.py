"""Machine-speed calibration: scale measured times to a reference speed.

The machines this benchmark runs on are shared, and their speed drifts by
up to 2x within seconds: the same request takes 29 ms, then 57 ms.  The
drift is in the CPU itself (CPU time drifts exactly as wall time does),
so neither CPU time nor longer runs remove it.  What does remove most of
it is a ratio: a fixed pure-Python kernel, independent of ddmr but made of
the same kind of work (tuples, dicts, sets, frozensets, small calls), is
timed between requests, and each request's time is multiplied by
``REFERENCE_S / kernel time``.  Reported times are therefore wall times
at the speed at which the kernel takes exactly ``REFERENCE_S`` seconds.
A change to ddmr moves the request times and leaves the kernel alone, so
it moves the scaled figures by the same factor as the raw ones.
"""

from __future__ import annotations

import statistics
import time

# Kernel time that defines the reference speed; the kernel takes about
# this long on a quiet 2-CPU Xeon with Python 3.11.
REFERENCE_S = 0.005
_ROUNDS = 6000
# During setup the kernel runs at most this often; inputs take up to half
# a second each to build, so this samples setup several times a second.
SETUP_EVERY_S = 0.05


def _pair(a: int, b: int) -> tuple:
    return (a, b)


def _kernel(rounds: int) -> int:
    table = {}
    seen = set()
    acc = 0
    for i in range(rounds):
        key = _pair(i % 251, i & 7)
        table[key] = table.get(key, 0) + 1
        if key not in seen:
            seen.add(key)
        group = frozenset((key, (i & 3, 1)))
        if group in seen:
            acc += 1
        else:
            acc ^= len(group)
        for k in key:
            acc += k & 1
    return acc + len(table) + len(seen)


def kernel_seconds() -> float:
    """Wall time of one run of the kernel."""
    start = time.perf_counter()
    _kernel(_ROUNDS)
    return time.perf_counter() - start


class Calibrator:
    """Kernel times taken during setup, to scale the setup time.

    ``tick()`` runs the kernel when ``SETUP_EVERY_S`` has passed since the
    last run; ``spent`` is the time the kernel took, which the caller
    subtracts from what it measured.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._last = None

    def tick(self, force: bool = False) -> None:
        now = time.perf_counter()
        if not force and self._last is not None and now - self._last < SETUP_EVERY_S:
            return
        seconds = kernel_seconds()
        self.samples.append(seconds)
        self.spent += time.perf_counter() - now
        self._last = time.perf_counter()

    def scale(self) -> float:
        """Factor from wall time to reference-speed time.

        The mean, not the median, of the kernel times: the samples are
        spread evenly over the setup, so their mean is its average speed.
        """
        return REFERENCE_S / statistics.mean(self.samples)
