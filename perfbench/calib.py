"""Host-speed probes that turn measured seconds into calibrated seconds.

The benchmark host is shared: over tens of seconds the same code runs up to
~40% faster or slower, more than the changes the benchmark must resolve.
A probe is fixed work that calls nothing in tritherm.  The workload runner
reads it between the program's operations and scales each operation's time
by ``REF_S[kind] / reading``, which removes the drift both see; each set-up
sample is scaled by the mean of two ``interp`` readings, one taken just
before the process starts and one right after it is ready.

The drift hits kinds of work by different amounts, so each workload uses
the probe that followed it best on the reference host:

* ``interp`` - a pure interpreter loop: ``map_compute``, ``search`` and
  set-up;
* ``encode`` - the pure-Python ``json`` encoder on rows of floats and
  strings, the bulk of a ``cli`` pass: ``cli`` (with ``interp`` the pass
  times spread 10% after calibration, with ``encode`` 5%);
* ``calls`` - Python calls into numpy on 1-element arrays, the bulk of one
  scalar call: ``scalar`` (with ``interp`` its p50 still spread 22%).

An operation that runs for seconds (a whole sweep or search) sees the host
speed change while it runs, so for those workloads a ``Sampler`` also reads
the probe every ``interval`` seconds from a ``SIGALRM`` handler; the time
the readings take is subtracted from the operation they interrupt.  On a
301x301 ``cli`` sweep that cut the pass-to-pass spread from 18% (raw) to 8%.

Over 10 seeds in noisy hours the run-to-run spread (interquartile range over
median) of the median pass time went from 14-31% raw to 4-13% calibrated,
and that of set-up from 16% to 6-13%.

``REF_S`` holds each probe's reading on the reference host (a 2-vCPU Xeon
KVM guest, Python 3.11, numpy 2.4) when it was quiet, so a calibrated time
is close to what that host measures at that speed.  ``encode`` had no quiet
reading of its own; its value is 0.4 times ``interp``'s, the ratio of the two
readings during ``cli`` passes, so both give ``cli`` about the same
calibrated time.  Raw times are reported next to the calibrated ones.
"""

from __future__ import annotations

import contextlib
import io
import json
import signal
import statistics
import time

import numpy as np

REF_S = {"interp": 0.0011, "calls": 0.0021, "encode": 0.00044}

_ONE = np.array([0.5])
_ROWS = [[i * 0.37, i * 1.1e-3, "mode", i] for i in range(100)]


def _interp():
    s = 0
    for i in range(20_000):
        s += i * i
    return s


def _numpy_call(a, b):
    return np.expm1(np.asarray(a) * 2.0) + b


def _calls():
    for _ in range(1500):
        _numpy_call(_ONE, _ONE)


def _encode():
    # json.dump into a file object takes the pure-Python encoder, as the
    # program's JSON writers do
    json.dump(_ROWS, io.StringIO(), separators=(",", ":"))


_KERNELS = {"interp": _interp, "calls": _calls, "encode": _encode}


def read(kind: str) -> float:
    """Median of 3 timings of probe ``kind``, in seconds."""
    kernel = _KERNELS[kind]
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Sampler:
    """Reads probe ``kind`` every ``interval`` seconds of wall time while
    active; with ``interval`` None it takes no readings.

    ``readings`` holds the single-run probe times and ``spent`` the wall time
    the readings took in total.
    """

    def __init__(self, kind: str, interval: float | None):
        self.kernel = _KERNELS[kind]
        self.interval = interval
        self.readings: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        self.kernel()
        took = time.perf_counter() - t0
        self.readings.append(took)
        self.spent += took

    def __enter__(self):
        if self.interval:
            self._previous = signal.signal(signal.SIGALRM, self._handler)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        if self.interval:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)

    @contextlib.contextmanager
    def paused(self):
        """Hold readings back (they run once this ends), e.g. around ``read``."""
        mask = {signal.SIGALRM} if self.interval else set()
        signal.pthread_sigmask(signal.SIG_BLOCK, mask)
        try:
            yield
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, mask)
