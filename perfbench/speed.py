"""Machine-speed probe: a fixed snippet timed every few milliseconds.

On a shared machine the speed of the CPU itself drifts: neighbours on the
same host take caches, memory bandwidth and sibling hyperthreads, and a
loaded host stops boosting its clock. Process CPU time drifts with wall
time, so it is no cure. The probe measures that drift while the workload
runs: a timer signal interrupts the main thread every ``INTERVAL_S`` seconds
and the handler times one fixed reference snippet. A timed operation is
then scaled by ``NOMINAL_S / local probe time``, where the local probe time
is the median of the probes taken during and next to it. Work that speeds
up or slows down with the machine cancels out; work that the program does
differently does not. The handler's own time is taken out of every
operation it interrupted.
"""

from __future__ import annotations

import signal
import time

import numpy as np

#: probe time the scaled figures are expressed at; chosen near its typical
#: value on a 2-core Xeon virtual machine, so scaled and raw figures stay
#: comparable
NOMINAL_S = 2.0e-4
#: time between probes, and how far from a call its probes may lie
INTERVAL_S = 0.01
WINDOW_S = 0.1


def _snippet() -> None:
    # interpreter work: dict, tuple and str churn. On a 2-core Xeon virtual
    # machine it tracked the drift of the gate and verify loops better than
    # snippets with small numpy calls in them.
    table = {}
    for i in range(800):
        table[i & 127] = (i, str(i & 7))


class SpeedProbe:
    """Context manager that samples machine speed on a timer signal."""

    def __init__(self) -> None:
        self.stamps: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        _snippet()
        end = time.perf_counter()
        self.stamps.append(start)
        self.durations.append(end - start)

    def __enter__(self) -> "SpeedProbe":
        _snippet()  # the first call pays for lazy set-up
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def scaled(self, spans: np.ndarray) -> np.ndarray:
        """Scaled durations of operations given as (start, end) rows.

        Probe time inside an operation is subtracted from it; the scale
        factor comes from the probes within WINDOW_S seconds of it, or from
        the nearest five when there are none that close. The probe samples
        once on entry and once on exit, so there is always one.
        """
        spans = np.asarray(spans, dtype=np.float64).reshape(-1, 2)
        stamps = np.asarray(self.stamps)
        durations = np.asarray(self.durations)
        near = min(5, stamps.size)
        spent = np.concatenate([[0.0], np.cumsum(durations)])
        first = np.searchsorted(stamps, spans[:, 0])
        last = np.searchsorted(stamps, spans[:, 1])
        raw = (spans[:, 1] - spans[:, 0]) - (spent[last] - spent[first])
        lo = np.searchsorted(stamps, spans[:, 0] - WINDOW_S)
        hi = np.searchsorted(stamps, spans[:, 1] + WINDOW_S)
        out = np.empty(len(spans))
        for k in range(len(spans)):
            a, b = lo[k], hi[k]
            if b == a:
                a = max(0, min(a - near // 2, stamps.size - near))
                b = a + near
            out[k] = raw[k] * NOMINAL_S / float(np.median(durations[a:b]))
        return out
