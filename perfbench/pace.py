"""Host-speed sampling, so that host times can be read at one reference speed.

The benchmark's host is a few cores of a shared machine, and their speed
changes by up to 2x over seconds to minutes while the process keeps its
core (no time is stolen: CPU time equals wall time).  A pass timed in plain
host seconds therefore measures the neighbours as much as the simulator.

A :class:`Pacer` interrupts the pass every :data:`INTERVAL_S` of host time
and times a fixed probe: a short loop of interpreter work that does not
touch the simulator.  The probe runs on the same core, at the same moment,
as the pass it interrupts, so its duration tracks the host's speed there.
Sampled at even intervals of host time, the work done in the pass is
proportional to ``net host time / harmonic mean of the probe times``, so

    paced time = (host time - time spent in probes)
                 * REFERENCE_PROBE_S / harmonic_mean(probe times)

is the pass's host time on a host whose probe takes
:data:`REFERENCE_PROBE_S`.  A change to the simulator moves paced time as
it moves host time; a change of host speed during the pass cancels out.

A call of a few milliseconds (a grid set-up) is too short for the pass's
average speed to fit it, so :meth:`Pacer.timed` paces such calls on their
own, with one probe just before and one just after each call.
"""

from __future__ import annotations

import functools
import signal
import statistics
import time
from typing import Any

__all__ = ["INTERVAL_S", "REFERENCE_PROBE_S", "Pacer", "probe"]

#: host time between two probes.
INTERVAL_S = 0.01
#: the probe's duration at the reference speed: about what it takes, while
#: interrupting a pass, on a quiet 2-vCPU Intel Xeon container (Python 3.11).
REFERENCE_PROBE_S = 90e-6


class _Cell:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0


def probe() -> int:
    """A fixed amount of interpreter work: dict, attribute, call and list ops."""
    table: dict[int, int] = {}
    cell = _Cell()
    items = []
    for i in range(240):
        key = i & 63
        table[key] = table.get(key, 0) + i
        cell.value += len(table)
        items.append((key, i))
    items.sort()
    return cell.value + items[-1][1]


class Pacer:
    """Samples the host's speed with :func:`probe` while it is active.

    Use as a context manager around the code to time; only one may be active
    at a time (it owns ``SIGALRM``).  ``on_probe``, when given, is called
    with each probe's duration so that open spans can leave it out.
    """

    def __init__(self, on_probe: Any = None) -> None:
        #: durations of the probes taken at even intervals.
        self.samples: list[float] = []
        #: host time spent in probes, those of :meth:`timed` included.
        self.spent = 0.0
        #: host time and paced time of every :meth:`timed` call, probes left out.
        self.timed_host = 0.0
        self.timed_paced = 0.0
        self._on_probe = on_probe
        self._previous: Any = None

    def _probe(self) -> float:
        started = time.perf_counter()
        probe()
        elapsed = time.perf_counter() - started
        self.spent += elapsed
        if self._on_probe is not None:
            self._on_probe(elapsed)
        return elapsed

    def _sample(self, signum: int, frame: Any) -> None:
        self.samples.append(self._probe())

    def timed(self, fn: Any) -> Any:
        """``fn``, adding each call's host and paced time to the totals."""

        @functools.wraps(fn)
        def call(*args: Any, **kwargs: Any) -> Any:
            before = self._probe()
            spent = self.spent
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started - (self.spent - spent)
                speed = statistics.harmonic_mean((before, self._probe()))
                self.timed_host += elapsed
                self.timed_paced += elapsed * REFERENCE_PROBE_S / speed

        return call

    def __enter__(self) -> "Pacer":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self) -> float:
        """Reference speed / the speed sampled (probes once if none ran)."""
        if not self.samples:
            self.samples.append(self._probe())
        return REFERENCE_PROBE_S / statistics.harmonic_mean(self.samples)
