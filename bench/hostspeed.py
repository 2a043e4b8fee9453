"""Host-speed calibration of the end-to-end time metrics.

The benchmark runs on shared virtual machines whose speed drifts.  On the
2-vCPU VM it was built on, one pass over the same instances went from 9 s to
16 s within 90 s, and the raw wall times of ten seeds spread by up to 0.34
(quartile distance over median), more than any bound a regression check can
use.  So a fixed piece of the benchmark's own code (:func:`probe`, about
0.4 ms) is timed before every timed call and every quarter second during
the timed passes, and each time is scaled to the reference speed:
``raw * REFERENCE_S / local probe time``, where the local probe time is the
median of the probes taken during the call, or near it (see ``scaled``).
The probe shares no code with simpletri, so no change to the program can
move it.  Raw values are printed next to the scaled ones.
"""
from __future__ import annotations

import bisect
import gc
import random
import signal
import statistics
import time

from corpora import closure, triangle_graph

# Probe time at the reference speed: about its median on a quiet 2-vCPU
# x86-64 VM with CPython 3.11, so that scaled times read close to raw ones.
REFERENCE_S = 4.0e-4
# A call is judged by the probes within this many seconds of it, or within
# its own duration when that is longer: a 22 s call must not be scaled by
# the host's speed in the half second before it.
WINDOW_S = 2.0
# Timer-probe interval of a Sampler: about 0.1 % of the time.
INTERVAL_S = 0.25


_PROBE_GRAPH = triangle_graph(random.Random(7), 14)


def probe() -> tuple[float, float]:
    """(start, seconds) of one fixed unit of pure-Python work.

    The work allocates almost no containers and runs with the cyclic garbage
    collector paused, so a collection triggered by the calls before it
    cannot land in the probe.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        closure(_PROBE_GRAPH.n, _PROBE_GRAPH.items)
        acc = 0
        for i in range(2000):
            acc ^= (i * 2654435761) >> 3 & 0xFFFF
        end = time.perf_counter()
    finally:
        gc.enable()
    return start, end - start


def scaled(calls: list[tuple[float, float]], probes: list[tuple[float, float]]) -> list[float]:
    """Duration of each (start, end) call at the reference speed.

    Probes taken while a call ran (by :class:`Sampler`) are subtracted from
    its duration and, when there are at least five, judge its speed alone.
    """
    starts = [t for t, _ in probes]
    out = []
    for t0, t1 in calls:
        lo = bisect.bisect_left(starts, t0)
        hi = bisect.bisect_right(starts, t1)
        inside = [s for _, s in probes[lo:hi]]
        if len(inside) < 5:
            reach = max(WINDOW_S, t1 - t0)
            lo = bisect.bisect_left(starts, t0 - reach)
            hi = bisect.bisect_right(starts, t1 + reach)
        local = statistics.median(s for _, s in probes[lo:hi] or probes)
        out.append((t1 - t0 - sum(inside)) * REFERENCE_S / local)
    return out


class Sampler:
    """Probes taken on demand and, inside the ``with`` block, also every
    ``INTERVAL_S`` seconds from a timer signal, so that a call lasting many
    seconds is judged by the host's speed while it ran."""

    def __init__(self):
        self.probes: list[tuple[float, float]] = []
        self._busy = False

    def take(self, *_signal_args) -> None:
        if self._busy:  # a timer probe never lands inside another probe
            return
        self._busy = True
        try:
            self.probes.append(probe())
        finally:
            self._busy = False

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self.take)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
