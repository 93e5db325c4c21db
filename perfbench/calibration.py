"""Host calibration: a fixed kernel timed around and inside every timed
region.

The benchmark's host is a small shared VM.  Its speed drifts by up to
2x within an hour, and every few tenths of a second it flips between a
fast state and one where the same code takes about 1.75x longer.  A raw
wall or CPU time therefore says as much about the neighbours as about
the code.

The calibration kernel does a fixed amount of the two kinds of work the
simulator does -- interpreted Python (object creation, dict updates)
and small numpy array passes.  One pass takes about 5 ms.  A
:class:`Sampler` times one pass every ``PERIOD_S`` inside each timed
region, from a timer signal, and a burst of passes right before and
right after it.  A region's host factor is the mean time of the passes
inside it over ``REFERENCE_S``; its calibrated time is its raw time,
less those passes, divided by that factor.  The passes inside follow
the host through the region; the bursts only sample it at two instants,
and on 10 seeds they tracked it worse than no calibration at all, so a
region uses them only when it is too short to hold ``MIN_INSIDE``
passes.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

import numpy as np

#: Mean pass time on the reference host (2-vCPU VM, Python 3.11,
#: numpy 2.4).  A host factor of 1.0 means "as fast as the reference
#: host was"; calibrated times are in reference-host seconds.
REFERENCE_S = 0.0060

#: Passes in the burst before and after each region.
BURST = 8

#: Interval of the passes inside a region.
PERIOD_S = 0.1

#: Passes a region needs inside it to be calibrated by them alone.
MIN_INSIDE = 3


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int) -> None:
        self.x = x
        self.y = y


def _python_kernel(n: int = 7_000) -> int:
    table: dict = {}
    acc = 0
    for i in range(n):
        point = _Point(i, i & 255)
        key = point.y % 61
        table[key] = table.get(key, 0) + point.x
        acc += len(table) if i & 7 else point.x & 15
    return acc


def _numpy_kernel(rounds: int = 40) -> float:
    base = np.arange(1024, dtype=np.float64)
    total = 0.0
    for step in range(rounds):
        shuffled = (base * (step + 1.5)) % 997.0
        order = np.argsort(shuffled, kind="stable")
        total += float(np.cumsum(shuffled[order])[-1])
    return total


def kernel_pass() -> tuple:
    """Run the kernel once; its (CPU, wall) time in seconds.

    CPU time, not wall time: inside a sharded region the pass shares
    the cores with the shard workers, and waiting for a core is not a
    property of the host.  On this host CPU time still grows when the
    host slows down.  The cyclic collector is held off, or a pass
    inside a region would pay for collecting the program's heap."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        cpu, wall = time.process_time(), time.perf_counter()
        _python_kernel()
        _numpy_kernel()
        return time.process_time() - cpu, time.perf_counter() - wall
    finally:
        if was_enabled:
            gc.enable()


class DeadlineExceeded(Exception):
    pass


class Sampler:
    """Kernel passes on a wall-clock timer, plus bursts on demand.

    The same timer enforces the invocation's deadline: past it, the
    signal handler raises :class:`DeadlineExceeded` into whatever the
    main thread is running.  Timers are not inherited across ``fork``,
    so shard workers are never sampled.
    """

    def __init__(self, deadline_s: float) -> None:
        self.deadline = time.monotonic() + deadline_s
        #: (start, cpu_s, wall_s) of every pass, bursts included.
        self.passes: list = []
        self.active = False

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _on_timer(self, signum, frame) -> None:
        if time.monotonic() > self.deadline:
            raise DeadlineExceeded("the run passed its deadline")
        if self.active:
            self.passes.append((time.perf_counter(), *kernel_pass()))

    def burst(self) -> None:
        for _ in range(BURST):
            self.passes.append((time.perf_counter(), *kernel_pass()))

    def region(self, start: float, end: float, margin: float) -> "Region":
        """The region ``[start, end)``, calibrated by the passes inside
        it, or -- if too few -- also by those within ``margin`` seconds
        of either end (the bursts)."""
        inside = [p for p in self.passes if start <= p[0] < end]
        used = inside
        if len(inside) < MIN_INSIDE:
            used = [p for p in self.passes if start - margin <= p[0] < end + margin]
        return Region(
            raw_s=end - start - sum(wall for _, _, wall in inside),
            factor=statistics.fmean(cpu for _, cpu, _ in used) / REFERENCE_S,
            passes=[(t - start, cpu, wall) for t, cpu, wall in used],
            inside_cpu_s=sum(cpu for _, cpu, _ in inside),
        )


class Region:
    """A timed region's own time and the host factor it ran at."""

    def __init__(self, raw_s: float, factor: float, passes: list, inside_cpu_s: float) -> None:
        self.raw_s = raw_s
        self.factor = factor
        self.passes = passes
        #: CPU the passes inside the region took (to subtract from the
        #: region's measured CPU time).
        self.inside_cpu_s = inside_cpu_s

    @property
    def seconds(self) -> float:
        """Calibrated: reference-host seconds."""
        return self.raw_s / self.factor

    def to_dict(self) -> dict:
        return {
            "raw_s": self.raw_s,
            "host_factor": self.factor,
            "passes": self.passes,
            "region_s": self.raw_s,
            "calibrated_s": self.seconds,
        }
