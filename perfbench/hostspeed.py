"""Host-speed sampling, so that timings repeat on a host whose speed drifts.

On the shared 2-vCPU host this benchmark was built on, each vCPU switches
between a fast and a slow state (about 1.8x apart for Python-bound code)
every few hundred milliseconds to tens of seconds, with process CPU time
equal to wall time, and memory-bound code drifts on its own schedule: the
same ``pdnr`` fit took 0.44-0.89 s within one minute, and run-level
medians of wall times moved by 25-50% from run to run.

A :class:`Sampler` runs two small fixed kernels from a ``SIGALRM`` timer
every ``PERIOD_S``, in the process doing the work, so the samples see the
speed of whichever CPU that process is on while the operation runs:

* ``python``: Python loops over small numpy arrays, like the row solvers;
* ``stream``: one numpy pass over a 12 MB array into a fresh temporary,
  like the multiplicative update's whole-tensor passes.  It runs only in a
  benchmark process that has an operation to normalise by it: elsewhere
  it would only add to every operation and flush the program's cache, and
  in a CLI child its temporary would land in the peak RSS that the child
  reports.

An operation's time at reference speed is its wall time times the mean of
``REFERENCE_S[kind] / kernel time`` over the samples taken during it, for
the kernel kind sharing the operation's bottleneck: the work done, in
seconds of a host running the kernels in ``REFERENCE_S``.  Sampling adds
3-5% to every operation.  CLI stages run a Python-kernel sampler in the
child (:func:`child_main`) and hand their speed back.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time
from contextlib import contextmanager

import numpy as np

# Mean kernel times on the development host (Xeon, 2 vCPUs, Python 3.11,
# numpy 2.4), so reported times read as typical wall seconds there.
REFERENCE_S = {"python": 0.004, "stream": 0.0034}
PERIOD_S = 0.15
MIN_SAMPLES = 3  # an operation with fewer borrows its nearest samples

_A = np.linspace(0.5, 1.5, 40)
_M = np.outer(_A, _A[:10])
_B = []  # the stream kernel's array, made on first use


def python_kernel() -> float:
    """One Python-bound sample: its duration in seconds."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(500):
        v = _M.T @ (_A / (_A + i))
        s += float(v.sum()) + sum(range(20))
    return time.perf_counter() - t0


def stream_kernel() -> float:
    """One memory-bound sample: its duration in seconds."""
    if not _B:
        _B.append(np.ones(1_500_000))
    t0 = time.perf_counter()
    float((_B[0] * 1.0001).sum())
    return time.perf_counter() - t0


KERNELS = {"python": python_kernel, "stream": stream_kernel}


class Sampler:
    """Kernel samples taken from a SIGALRM timer.

    Single-threaded: the handler runs in the main thread between bytecodes.
    Nothing else in the process may use SIGALRM or ITIMER_REAL while the
    sampler runs; :meth:`paused` lends them out.
    """

    def __init__(self, stream: bool = False):
        # (time, python kernel seconds, stream kernel seconds or None)
        self.samples: list[tuple] = []
        self.stream = stream
        self._previous = None

    def _tick(self, signum, frame):
        self.samples.append((time.perf_counter(), python_kernel(),
                             stream_kernel() if self.stream else None))

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    @contextmanager
    def running(self):
        self.start()
        try:
            yield self
        finally:
            self.stop()

    @contextmanager
    def paused(self):
        self.stop()
        try:
            yield
        finally:
            self.start()

    def speed(self, kind: str, t0: float = float("-inf"),
              t1: float = float("inf")) -> float:
        """Mean of REFERENCE_S / kernel time over the samples in [t0, t1]
        for kernel ``kind``."""
        samples = self._sampled(kind)
        inside = [c for t, c in samples if t0 <= t <= t1]
        if len(inside) < MIN_SAMPLES:
            mid = 0.5 * (t0 + t1) if t1 < float("inf") else 0.0
            nearest = sorted(samples, key=lambda s: abs(s[0] - mid))
            inside = [c for _, c in nearest[:MIN_SAMPLES]]
        if not inside:
            inside = [KERNELS[kind]()]
        return sum(REFERENCE_S[kind] / c for c in inside) / len(inside)

    def mean_kernel_s(self, kind: str) -> float:
        """Mean kernel time over the samples; a kernel this sampler did not
        run is timed MIN_SAMPLES times now, after the operations."""
        times = [c for _, c in self._sampled(kind)]
        if not times:
            times = [KERNELS[kind]() for _ in range(MIN_SAMPLES)]
        return sum(times) / len(times)

    def _sampled(self, kind: str) -> list[tuple]:
        column = 1 if kind == "python" else 2
        return [(s[0], s[column]) for s in self.samples if s[column] is not None]


def peak_rss_kb() -> int:
    """This process's peak resident set since its last exec (VmHWM).

    ``ru_maxrss`` from ``os.wait4`` is no substitute: exec records the
    resident set of the address space it replaces, so a child forked from a
    large parent reports the parent's size.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def child_main() -> None:
    """Entry point of a sampled CLI stage: ``poissoncp.cli.main`` on
    ``sys.argv[1:]`` (or only its import, for ``--import-only``) with a
    Python-kernel sampler running; its speed and its peak RSS go to the file
    named by ``PERFBENCH_SPEED_OUT``."""
    sampler = Sampler()
    code = 1
    with sampler.running():
        try:
            from poissoncp.cli import main

            code = 0 if sys.argv[1:] == ["--import-only"] else main(sys.argv[1:])
        finally:
            out = os.environ.get("PERFBENCH_SPEED_OUT")
            if out:
                with open(out, "w") as fh:
                    json.dump({"speed": sampler.speed("python"),
                               "samples": len(sampler.samples),
                               "peak_rss_kb": peak_rss_kb()}, fh)
    sys.exit(code)
