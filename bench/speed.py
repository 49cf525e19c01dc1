"""A fixed probe of how fast the host runs this process right now.

On a shared host the speed of a busy thread drifts by a third within seconds
to minutes, as other tenants load the machine.  ``probe`` times a fixed mix of
the work the library does -- exact rational arithmetic, dict traffic and small
dense matrix products -- so a sample can be scaled to a reference speed.  The probe
is part of the benchmark, never of the program, so it costs the same on every
commit.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

import numpy as np

_MATRIX = np.random.default_rng(0).standard_normal((160, 160))


def probe() -> float:
    """CPU seconds of one fixed unit of work (0.018 s on a quiet 2-core Xeon VM).

    The garbage collector is off meanwhile: with it on, the probe's
    allocations can set off a full collection whose cost is the size of the
    heap the workload built, not the speed of the host.
    """
    gc.disable()
    try:
        cpu0 = time.process_time()
        total = Fraction(0)
        for i in range(1, 3000):
            total += Fraction(i % 97, i)
        counts: dict[int, int] = {}
        for i in range(30000):
            counts[i % 1000] = counts.get(i % 1000, 0) + i
        for _ in range(20):
            _MATRIX @ _MATRIX
        return time.process_time() - cpu0
    finally:
        gc.enable()


class Prober:
    """Times the steps of a sample and probes the host's speed around them.

    ``burst`` runs probes between steps.  With ``every_cpu_s`` set, a CPU-time
    timer (SIGPROF) also fires a probe each time the process has used that
    much CPU, so a long step is probed while it runs; ``step`` takes those
    probes' time out of the step's.
    """

    def __init__(self, every_cpu_s: float | None):
        self.busy = False
        self.fired: list[float] = []
        self.burst(1)       # warm-up: first calls into the probe's code and BLAS
        if every_cpu_s:
            signal.signal(signal.SIGPROF, self._on_timer)
            signal.setitimer(signal.ITIMER_PROF, every_cpu_s, every_cpu_s)

    def _on_timer(self, signum, frame) -> None:
        if not self.busy:
            self.fired += self.burst(1)

    def burst(self, n: int) -> list[float]:
        self.busy = True
        try:
            return [probe() for _ in range(n)]
        finally:
            self.busy = False

    def step(self, fn, *args):
        """Run ``fn(*args)``; return its result, its CPU and wall seconds
        without the probes fired meanwhile, and those probes' times."""
        self.fired = []
        t0, cpu0 = time.perf_counter(), time.process_time()
        result = fn(*args)
        self.busy = True        # no probe between the clocks and the list
        cpu, wall = time.process_time() - cpu0, time.perf_counter() - t0
        fired, self.fired = self.fired, []
        self.busy = False
        return result, cpu - sum(fired), wall - sum(fired), fired

    def close(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
