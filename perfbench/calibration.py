"""Calibration kernel: a fixed piece of work that measures how fast the host runs now.

On a shared host the speed a process gets drifts by tens of percent over
minutes, and it changes within a second.  While a workload runs, ``Sampler``
runs this kernel from a timer signal every ``INTERVAL_S`` of wall time, so
its samples are spread evenly over the same time as the work, and it keeps
the time they take so the worker can leave it out of the work's times.
``speed`` turns samples into the mean host speed over that time, relative to
the reference speed at which one sample takes ``REFERENCE_S``; ``run.py``
multiplies every reported time by it, so times are seconds at the reference
speed.

The kernel is the benchmark's own code, never stochwave's, so a change to
the program cannot move it.  It mixes what the program does: interpreted
Python loops, small complex FFTs and elementwise numpy arithmetic.
"""

import signal
import time

import numpy as np

REFERENCE_S = 0.008
INTERVAL_S = 0.15

_FIELD = np.exp(-np.linspace(-4.0, 4.0, 64 * 64).reshape(64, 64)).astype(complex)
_LINE = _FIELD[32].copy()


def calibrate() -> float:
    """Run the kernel once; returns its wall time in seconds."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(16000):
        acc += (i % 7) * 0.5
    line = _LINE
    for _ in range(200):
        line = np.fft.ifft(np.fft.fft(line) * 0.999)
    field = _FIELD
    for _ in range(16):
        spectrum = np.fft.fft2(field)
        field = np.fft.ifft2(spectrum * np.exp(-1e-3 * np.abs(spectrum)))
    if not np.isfinite(acc + line.real.sum() + field.real.sum()):
        raise FloatingPointError("calibration kernel overflowed")
    return time.perf_counter() - start


def speed(samples) -> float:
    """Mean host speed over evenly spread samples, relative to the reference."""
    return sum(REFERENCE_S / c for c in samples) / len(samples)


class Sampler:
    """Runs ``calibrate`` from SIGALRM every ``INTERVAL_S`` while it is entered.

    ``samples`` holds the kernel times; ``wall_s`` and ``cpu_s`` add up the
    time spent in the handler, to be subtracted from the work's times.  The
    handler runs between Python bytecodes of the main thread, so a long
    numpy call delays a sample but is never interrupted.
    """

    def __init__(self):
        self.samples: list = []
        self.wall_s = 0.0
        self.cpu_s = 0.0

    def _sample(self, signum, frame) -> None:
        c0, w0 = time.process_time(), time.perf_counter()
        self.samples.append(calibrate())
        self.wall_s += time.perf_counter() - w0
        self.cpu_s += time.process_time() - c0

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
