"""A fixed reference computation, timed while a pass runs, that measures how
fast the machine is running at the moment.

On a shared virtual machine the same work runs up to a third slower for tens
of seconds at a time, and process CPU time slows with it. Dividing a pass's
wall time by the reference unit's time measured during that pass cancels
most of that drift. The reference is owned by the benchmark and calls nothing
in uplinkgame, so a change to the package leaves it alone. It mixes what the
workloads do: exact water-filling of narrow batches in a Python loop (call
overhead) and of one wide batch (array throughput). Of the candidates tried
(this one, a Python loop of per-user rate sums, pure-interpreter dict work)
it tracked the desk_sweep pass times best: per-pass spread 5% against 9% raw.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

_rng = np.random.default_rng(1207_4393)
NARROW = _rng.random((4, 12)) + 0.05
WIDE = _rng.random((200, 26)) + 0.05


def _water_fill(floors: np.ndarray, budget: float) -> float:
    sorted_f = np.sort(floors, axis=1)
    counts = np.arange(1, floors.shape[1] + 1, dtype=float)
    levels = (budget + np.cumsum(sorted_f, axis=1)) / counts
    m_star = floors.shape[1] - np.argmax((levels >= sorted_f)[:, ::-1], axis=1)
    level = levels[np.arange(floors.shape[0]), m_star - 1]
    return float(np.maximum(level[:, None] - floors, 0.0).sum())


def unit() -> float:
    """One reference unit: about 3.3 ms on a shared 2-vCPU Intel Xeon VM."""
    total = 0.0
    for _ in range(150):
        total += _water_fill(NARROW, 1.0)
    for _ in range(8):
        total += _water_fill(WIDE, 1.0)
    return total


class Sampler:
    """Times reference units at the start and end of a pass and, in between,
    from a SIGALRM handler every ``interval`` seconds. The handler runs in the
    main thread between bytecodes, inside whatever package code is running;
    ``clock`` is ``perf_counter`` minus the time spent in the handler, so
    timings taken with it exclude the sampling."""

    def __init__(self, interval: float = 0.25, reps: int = 2, edge_reps: int = 3):
        self.interval = interval
        self.reps = reps
        self.edge_reps = edge_reps
        self.samples: list[float] = []
        self.paused = 0.0
        self._previous = None

    def clock(self) -> float:
        return perf_counter() - self.paused

    def _sample(self, reps: int) -> None:
        start = perf_counter()
        for _ in range(reps):
            t = perf_counter()
            unit()
            self.samples.append(perf_counter() - t)
        self.paused += perf_counter() - start

    def _on_alarm(self, signum, frame) -> None:
        self._sample(self.reps)

    def __enter__(self):
        self._sample(self.edge_reps)
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(self.edge_reps)
        return False

    def reference(self) -> float:
        """Median seconds per reference unit over the pass."""
        return statistics.median(self.samples)
