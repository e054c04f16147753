"""Host-state handling: report times at one fixed core speed.

On the 2-vCPU Xeon VM the bounds were set on, each vCPU switches between
a fast and a slow state many times a second (a sibling hyperthread busy
or idle), and the share of time in the fast state drifts over seconds to
minutes, from a few percent to nearly all.  A raw time follows that
drift: the same figures pass read 3.7 s and 6.5 s a minute apart.

The approach here:

1. the process doing the work is pinned to one vCPU (``common.pin``);
2. :class:`StateSampler` interrupts it every ``INTERVAL_S`` with
   ``SIGALRM`` and times a reference operation, a JSON round trip of a
   fixed nested object (allocation, dict, string and float work, like
   the measured code), so the probes sample the very core the operation
   runs on, while it runs (about 1.5% of its time);
3. an operation's state factor is the median probe time over the
   operation plus ``WINDOW_S`` either side, divided by ``REF_S``, the
   probe's time in the fast state on that VM;
4. :func:`fast_equivalent` divides the operation's time by that factor:
   the time it would have taken at the speed where the probe takes
   ``REF_S``.
"""

from __future__ import annotations

import bisect
import json
import signal
import statistics
import time
from array import array

#: Seconds between probes.
INTERVAL_S = 0.020
#: Probes this far either side of an operation also describe its state
#: (the state flips within milliseconds; its duty cycle drifts slowly).
WINDOW_S = 0.5
#: The probe's time in the fast state of that VM (the lower of its two
#: modes, about 215 and 350 microseconds).
REF_S = 215e-6

_PROBE_OBJECT = {
    f"k{i}": [i * 0.5, f"s{i}", {"a": i, "b": [i, i + 1]}] for i in range(50)
}


class StateSampler:
    """``SIGALRM``-driven probe of the current core's speed.

    Probes run in the main thread between bytecodes, so they see the
    vCPU the (pinned) process runs on.  Start and duration of every
    probe are kept in two flat arrays.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.starts = array("d")
        self.durations = array("d")
        self._old = None

    def _handler(self, signum, frame) -> None:
        # The probe's duration is its thread's CPU time: in a threaded
        # process (the server) another thread may take the interpreter
        # lock mid-probe, and that wait says nothing about the core.
        start = time.perf_counter()
        t0 = time.thread_time()
        json.loads(json.dumps(_PROBE_OBJECT))
        self.durations.append(time.thread_time() - t0)
        self.starts.append(start)

    def start(self) -> "StateSampler":
        self._old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._old is not None:
            signal.signal(signal.SIGALRM, self._old)
            self._old = None

    def __enter__(self) -> "StateSampler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def factor(self, t0: float, t1: float) -> float:
        return state_factor(self.starts, self.durations, t0, t1)

    def dump(self) -> dict:
        return {"starts": list(self.starts), "durations": list(self.durations)}


def state_factor(starts, durations, t0: float, t1: float,
                 window: float = WINDOW_S) -> float:
    """Median probe time over ``[t0 - window, t1 + window]`` relative to
    ``REF_S``; 1.0 when no probe ran."""
    lo = bisect.bisect_left(starts, t0 - window)
    hi = bisect.bisect_right(starts, t1 + window)
    if hi <= lo:
        return 1.0
    return statistics.median(durations[lo:hi]) / REF_S


def fast_equivalent(seconds: float, factor: float) -> float:
    """``seconds`` at the speed where the probe takes ``REF_S``."""
    return seconds / factor
