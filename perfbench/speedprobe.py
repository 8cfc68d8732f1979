"""Host-speed sampler: times a fixed burst of work while the workload runs.

On a shared host the speed of a vCPU drifts: phases 1.4-1.7x slower than
the fast ones come and go within seconds, and their share drifts over
minutes. A wall time alone therefore says as much about the neighbours
as about the program. The sampler interrupts the benchmark's own main
thread every ``INTERVAL`` seconds (``SIGALRM``) and runs a fixed burst
there, on whichever CPU that thread is on at the moment: AdaGrad-style
numpy updates of scattered matrix rows, the mix of interpreter dispatch
and small array calls that dominates the pipeline. Of three bursts tried
against ``run_train`` and ``run_ingest`` on a 2-vCPU Xeon VM, this one
tracked both best; a small-dict loop and a large-dict walk
under-corrected. The burst is timed in thread CPU time, so waiting for
the CPU or the GIL does not count, only how fast the CPU executes it.

``normalise(start, end)`` turns a wall interval into seconds at the
reference speed: the interval minus the bursts inside it, divided by the
mean burst time around it relative to ``REFERENCE_NS``. The program's own
work is scaled, not discounted: a change that makes the program slower
takes more corrected seconds just as it takes more wall seconds.

The handler runs between bytecodes, so it waits for a long C call (a
large matrix product) to return; such stretches are sampled at their ends.
"""

from __future__ import annotations

import bisect
import signal
import time

INTERVAL = 0.05
ROWS, DIM, BURST_UPDATES = 4096, 32, 100
#: burst CPU time that counts as speed 1.0 (a fast phase of a 2 GHz Xeon vCPU)
REFERENCE_NS = 600_000
#: an interval with fewer samples inside is widened on both sides
MIN_SAMPLES = 5


class SpeedSampler:
    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._w = rng.random((ROWS, DIM))
        self._g = np.ones((ROWS, DIM))
        self._np = np
        self._rows = [(j * 2654435761) % ROWS for j in range(BURST_UPDATES)]
        self.at: list[float] = []      # perf_counter at the end of each burst
        self.cpu_ns: list[int] = []    # CPU time of each burst
        self.wall: list[float] = []    # wall time of each burst
        self._previous = None

    def _sample(self, signum, frame) -> None:
        w0 = time.perf_counter()
        c0 = time.thread_time_ns()
        self._burst()
        c1 = time.thread_time_ns()
        w1 = time.perf_counter()
        self.at.append(w1)
        self.cpu_ns.append(c1 - c0)
        self.wall.append(w1 - w0)

    def _burst(self) -> None:
        w, g, sqrt = self._w, self._g, self._np.sqrt
        for row in self._rows:
            grad = w[row] * 0.5
            g[row] += grad * grad
            w[row] -= 0.01 * grad / sqrt(g[row])

    def start(self) -> None:
        for _ in range(20):  # warm up before the first sample
            self._burst()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def _window(self, start: float, end: float) -> tuple[int, int]:
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_right(self.at, end)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.at)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.at))
        return lo, hi

    def slowdown(self, start: float, end: float) -> float:
        """Mean burst time around [start, end] relative to the reference."""
        lo, hi = self._window(start, end)
        if hi <= lo:
            return 1.0
        return sum(self.cpu_ns[lo:hi]) / (hi - lo) / REFERENCE_NS

    def normalise(self, start: float, end: float) -> float:
        """Seconds the interval [start, end] would take at the reference speed."""
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_right(self.at, end)
        own = (end - start) - sum(self.wall[lo:hi])
        return own / self.slowdown(start, end)

    def summary(self) -> dict:
        if not self.cpu_ns:
            return {"samples": 0}
        ordered = sorted(self.cpu_ns)
        n = len(ordered)
        return {"samples": n, "mean_slowdown": sum(ordered) / n / REFERENCE_NS,
                "p10_ns": ordered[n // 10], "p50_ns": ordered[n // 2],
                "p90_ns": ordered[(9 * n) // 10],
                "overhead_s": sum(self.wall)}
