"""Machine-speed reference for the sciu benchmark.

The benchmark shares a host whose CPU speed drifts by a quarter and more over
seconds to minutes, with process time equal to wall time: the drift slows
every instruction, not only the scheduling. Wall times of one run are then
seconds of whatever speed the host had at that moment, and two sets of runs
of the same code disagree by more than any useful bound.

`Speed` times a fixed reference loop between the benchmark's timed steps. The
loop is the same mix of work as sciu's: small NumPy products and element-wise
ops on 64-row batches, then per-sample Python bookkeeping in a dict. It uses
no sciu code, and its inputs are fixed, so its work is the same in every run
of every commit. A step's wall time times REF_S over the mean of the
reference times around it (and inside it, for a step long enough to sample
the reference between its stages) gives the step's time at the speed at
which the reference takes REF_S seconds, close to this box's unloaded speed.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

REF_S = 0.25  # nominal reference time, in seconds
EPOCHS = 80
BATCH = 64


class Speed:
    def __init__(self):
        rng = np.random.default_rng(0x5EED)
        self.x = rng.standard_normal((2048, 16))
        self.y = rng.integers(0, 7, len(self.x))
        self.w1 = rng.standard_normal((16, 32)) * 0.1
        self.w2 = rng.standard_normal((32, 7)) * 0.1
        self.reference()  # warm-up
        self.window = [self.reference()]  # references since the last mark
        self.times = list(self.window)

    def reference(self) -> float:
        """Run the reference loop once; return its wall time."""
        x, y = self.x, self.y
        w1, w2 = self.w1.copy(), self.w2.copy()
        rows = np.arange(BATCH)
        history: dict[int, float] = {}
        t0 = perf_counter()
        for _ in range(EPOCHS):
            for s in range(0, len(x), BATCH):
                xb, yb = x[s:s + BATCH], y[s:s + BATCH]
                h = np.maximum(xb @ w1, 0.0)
                z = h @ w2
                p = np.exp(z - z.max(axis=1, keepdims=True))
                p /= p.sum(axis=1, keepdims=True)
                p[rows, yb] -= 1.0
                gh = p @ w2.T
                gh[h <= 0.0] = 0.0
                w2 -= 0.01 * (h.T @ p)
                w1 -= 0.01 * (xb.T @ gh)
                history.update((s + i, float(v)) for i, v in enumerate(p[:, 0]))
        return perf_counter() - t0

    def sample(self) -> float:
        """Run the reference inside a timed step; return the wall time it
        took, which the caller takes off the step's wall time."""
        t0 = perf_counter()
        self.window.append(self.reference())
        return perf_counter() - t0

    def mark(self) -> float:
        """Run the reference; return the factor that scales a wall time
        measured since the previous mark to reference speed, from the mean
        of the references at both ends and inside."""
        now = self.reference()
        factor = REF_S / statistics.mean(self.window + [now])
        self.times += self.window[1:] + [now]
        self.window = [now]
        return factor
