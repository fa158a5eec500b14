"""A reference loop timed beside every command, to factor out machine speed.

On a shared machine the same pure-Python code runs up to twice as slow
from one minute to the next, and the slowdown lasts seconds, so a loop
timed once before a two-second command tracks it poorly.  ReferenceClock
times REF_N iterations right before a command and SAMPLE_N more every
SAMPLE_EVERY_S while it runs (from a SIGALRM handler, on the same thread).
A command's adjusted time is its wall time less the samples, times
REF_NOMINAL_S over the reference's measured time per REF_N iterations.

Each iteration hashes a fresh tuple into a small dict and reads a random
entry of a list of PROBE_SIZE ints (about 36 MB, beyond the per-core
cache), because the package's frozensets of runs suffer from a
neighbour's cache traffic more than a loop in cache does: on six paired
update-runs runs whose raw medians spread by 37%, this loop left 5.6%,
and one hashing prebuilt tuples spread over 34 MB left 9.8%.  The
interpreter loop does not slow in step with native code, so a
numpy-heavy command would be adjusted less faithfully.
"""
from __future__ import annotations

import gc
import signal
from time import perf_counter

REF_N = 30_000
REF_NOMINAL_S = 0.020  # REF_N iterations on an idle core of the reference machine
SAMPLE_N = 1_000
SAMPLE_EVERY_S = 0.02
PROBE_SIZE = 1 << 20
PROBE_STEP = 104_729  # prime, so successive reads land far apart


class ReferenceClock:
    def __init__(self):
        self.table = list(range(PROBE_SIZE))  # sized up front: no transient copy to count
        self.offset = 0
        self._reset()

    def _reset(self):
        self.reference_s = 0.0  # time spent in the loop
        self.iterations = 0
        self.sampling_s = 0.0  # time spent in samples, taken out of the wall time

    def loop(self, n: int) -> float:
        """Seconds for n iterations, with the cyclic collector held off so
        it never charges a collection of the program's heap to the loop."""
        table, fresh, base = self.table, {}, self.offset
        self.offset += n
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            for i in range(base, base + n):
                fresh[(i, i >> 3, i & 7)] = table[(i * PROBE_STEP) % PROBE_SIZE]
            return perf_counter() - start
        finally:
            if enabled:
                gc.enable()

    def scale(self) -> float:
        """Nominal over measured reference time: multiply a wall time by it."""
        return REF_NOMINAL_S / self.loop(REF_N)

    def _sample(self, signum, frame):
        start = perf_counter()
        self.reference_s += self.loop(SAMPLE_N)
        self.iterations += SAMPLE_N
        self.sampling_s += perf_counter() - start

    def time(self, fn):
        """(result, wall seconds net of samples, adjusted seconds) of fn()."""
        self._reset()
        self.reference_s = self.loop(REF_N)
        self.iterations = REF_N
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        start = perf_counter()
        try:
            result = fn()
        finally:
            wall = perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
        net = wall - self.sampling_s
        per_ref = self.reference_s / self.iterations * REF_N
        return result, net, net * REF_NOMINAL_S / per_ref
