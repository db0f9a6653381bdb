"""A fixed reference computation, sampled all through every timed pass.

The machine this benchmark runs on is shared: its speed drifts by a fifth
or more over minutes and by as much within a second, and CPU time drifts
with wall time, so no statistic over one run's wall times removes it.  A
Sampler runs a short fixed computation (a burst) from a SIGALRM handler
every INTERVAL_S of wall time while a pass runs.  The bursts see the same
machine as the program around them, so the pass's own time divided by the
mean burst time does not drift with the machine's speed, and still moves
with the program's speed, since a burst never calls the program.  The time
spent in bursts is taken out of the pass's time by Sampler.clock.  Set-up
runs under a Sampler too, and setup_s is its time in bursts times BURST_S:
seconds at a fixed reference speed.

A burst mixes what the workloads spend their time on: small batched
products and 3x3 SVDs in numpy (the model's steps) and float text
formatting and parsing in Python (the scene files).  Its inputs are fixed
and do not depend on the workload seed.
"""

import signal
import time

import numpy as np

INTERVAL_S = 0.15
ROUNDS = 2
# Seconds a time is quoted in at the reference speed: about one burst's
# time on the 2-core Xeon VM where the benchmark was defined (numpy 2.4,
# OpenBLAS with one thread).  A fixed constant, so it only sets the scale.
BURST_S = 0.015

_RNG = np.random.default_rng(20190731)
_A = _RNG.standard_normal((64, 32, 31))
_B = _RNG.standard_normal((64, 31, 8))
_M = _RNG.standard_normal((64, 3, 3))
_ROW = _RNG.standard_normal(62 * 20)
# Written in place, so that bursts make no large allocation that would
# change the heap layout, and so the peak memory, of the program.
_C = np.empty((64, 32, 8))


def _burst():
    acc = 0.0
    for _ in range(ROUNDS):
        for _ in range(6):
            c = np.einsum("bij,bjk->bik", _A, _B, out=_C)
        u, s, vt = np.linalg.svd(_M)
        acc += float(c.sum()) + float(s.sum()) + float((u @ vt).sum())
        text = " ".join(f"{v:.17g}" for v in _ROW)
        acc += sum(float(t) for t in text.split())
    return acc


CHECKSUM = _burst()


class Sampler:
    """While active, runs a burst every INTERVAL_S of wall time.

    seconds and bursts total the bursts run; clock() is perf_counter less
    the time spent in bursts, the clock to time the program by.
    """

    def __init__(self):
        self.seconds = 0.0
        self.bursts = 0
        self.wrong = 0

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        acc = _burst()
        self.seconds += time.perf_counter() - t0
        self.bursts += 1
        self.wrong += acc != CHECKSUM

    def clock(self):
        return time.perf_counter() - self.seconds

    def burst_s(self):
        """Mean seconds of one burst."""
        if not self.bursts:
            raise RuntimeError("no reference burst ran: the timed code took less "
                               "than INTERVAL_S")
        if self.wrong:
            raise RuntimeError(f"{self.wrong} reference bursts gave another result")
        return self.seconds / self.bursts

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
