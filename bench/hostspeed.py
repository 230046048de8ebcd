"""Host-speed sampling: scales measured times to a reference host speed.

The benchmark runs on shared hosts on which the speed of one
single-threaded process changes by 1.3-1.9x for tens of seconds at a
time: a fixed pure-Python loop timed back to back alternates between
levels that far apart, and so do the program's own timings. Runs that
land in a slow phase would read slower although the program did not
change.

So while a workload runs, a SIGALRM timer interrupts it every
INTERVAL_S seconds (between two bytecodes, like a preemption) to time a
probe: a fixed pure-Python loop doing the same kind of work as the
program (regex tokenizing, dict and set updates, float math). Each
probe gives a slowdown factor, its time over REFERENCE_PROBE_S. A timed
piece of work is bracketed by two more probes; its wall time, minus the
time spent probing inside it, is divided by the mean factor of the
probes before, inside and after it.

In the serving loops the timer only marks a probe as due, and the loop
probes between two claims, so no claim's latency contains a probe.
Spans of the traced run are timed with `ref_clock_ns`, which runs at
the rate of the latest probe.

The result is "reference seconds": wall seconds on a host on which one
probe takes REFERENCE_PROBE_S. The unscaled wall times are printed next
to the scaled ones.
"""

from __future__ import annotations

import math
import re
import signal
import statistics
import time
from dataclasses import dataclass

# Probe time in the fast phase of the host on which the benchmark was
# defined (Python 3.11.7, x86-64); it only sets the unit.
REFERENCE_PROBE_S = 0.00325
INTERVAL_S = 0.1

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
_TEXT = "Alice Fenwick starred in the popular hit sitcom Halcyon on GBC for 12 years."
_ROUNDS = 600


def probe() -> float:
    """Wall seconds of one fixed piece of work."""
    start = time.perf_counter()
    counts: dict[str, int] = {}
    total = 0.0
    for i in range(_ROUNDS):
        tokens = _TOKEN_RE.findall(_TEXT.lower())
        seen = set(tokens)
        for token in tokens:
            counts[token] = counts.get(token, 0) + 1
        total += math.log(1.0 + len(seen) + i) * 0.5
    if total <= 0.0 or not counts:
        raise AssertionError("probe work was skipped")
    return time.perf_counter() - start


@dataclass
class Timing:
    wall: float  # wall seconds, time spent probing excluded
    ref: float  # wall scaled to the reference host speed


class HostSpeed:
    """Samples the host speed while installed as a context manager."""

    def __init__(self):
        self.factors: list[float] = []  # slowdown factor of every probe, in order
        self.probe_ns = 0  # wall time spent probing, handler included
        # While deferring, the timer only sets `due`; the caller probes
        # between two timed pieces of work (see serve_stream).
        self.deferring = False
        self.due = False
        self._busy = False
        self._previous_handler = None
        # Reference clock: reference ns up to _mark_ns (a clock_ns reading),
        # advancing at the rate of the latest probe's factor since then.
        self._ref_ns = 0.0
        self._mark_ns = self.clock_ns()
        self._factor = 1.0

    def _on_timer(self, signum, frame) -> None:
        if self.deferring:
            self.due = True
        else:
            self.sample()

    def sample(self) -> None:
        if self._busy:
            return
        self._busy = True
        self.due = False
        now = self.clock_ns()
        self._ref_ns += (now - self._mark_ns) / self._factor
        self._mark_ns = now
        start = time.perf_counter_ns()
        try:
            self._factor = probe() / REFERENCE_PROBE_S
            self.factors.append(self._factor)
        finally:
            self.probe_ns += time.perf_counter_ns() - start
            self._busy = False

    def clock_ns(self) -> int:
        """perf_counter_ns minus the time spent probing."""
        return time.perf_counter_ns() - self.probe_ns

    def ref_clock_ns(self) -> float:
        """A clock in reference ns: `clock_ns` slowed down by the latest
        probe's factor. Continuous and monotonic, so it can time spans."""
        return self._ref_ns + (self.clock_ns() - self._mark_ns) / self._factor

    def __enter__(self) -> "HostSpeed":
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def mark(self) -> int:
        """Index of the latest probe."""
        return len(self.factors) - 1

    def scale(self, wall: float, start_mark: int, end_mark: int) -> float:
        """Scale the wall time of work that began after probe `start_mark`
        and ended after probe `end_mark`, by the mean factor of the probe
        before it, the probes during it and the first probe after it."""
        return wall / statistics.fmean(self.factors[start_mark : max(end_mark, start_mark + 1) + 1])

    def measure(self, fn, *args):
        """fn(*args) between two probes: its result and its Timing."""
        self.sample()
        start_mark = self.mark()
        start = self.clock_ns()
        result = fn(*args)
        wall = (self.clock_ns() - start) / 1e9
        end_mark = self.mark()
        self.sample()
        return result, Timing(wall, self.scale(wall, start_mark, end_mark))
