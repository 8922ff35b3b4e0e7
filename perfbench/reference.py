"""A fixed unit of work that measures how fast the host runs right now.

The benchmark's host is a few vCPUs of a shared machine whose speed swings
from second to second and drifts by up to 2x over minutes, in wall time and
CPU time alike.  Timing this unit between the set-ups and the rounds of a
run tracks that speed, so their wall times can be rescaled to a nominal
speed.

The unit does not touch gpds.  It mixes what a gpds call spends its time
on: interpreted Python making many small numpy calls, LAPACK on a matrix a
few hundred wide, and solving against a factor as large as the
workload's.
"""
from __future__ import annotations

import time

import numpy as np
from scipy.linalg import solve_triangular


class Reference:
    """Times a unit of work in three parts of similar length: a Python loop
    of small numpy calls, Cholesky factorisations of a 200x200 matrix, and
    triangular solves against the leading ``rows`` x ``rows`` block of a
    ``cols``-wide buffer, the way gpds solves against its factor.  Set
    ``rows`` and ``cols`` to the workload's typical R and buffer width, so
    the unit waits on memory as much as the workload does."""

    def __init__(self, rows: int, cols: int) -> None:
        rng = np.random.default_rng(0)
        a = rng.standard_normal((200, 200))
        self.spd = a @ a.T + 200.0 * np.eye(200)
        self.rhs = rng.standard_normal((200, 4))
        self.vecs = list(rng.standard_normal((64, 8)))
        self.rows, self.cols = rows, cols
        self.b = rng.standard_normal(rows)
        # the same number of bytes solved against per unit, whatever the size
        self.passes = max(1, round(64 * 2**20 / (8 * rows * rows)))
        self.sample(0.0)  # first touch and library warm-up

    def _unit(self, factor: np.ndarray) -> float:
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(150):
            for v in self.vecs:
                acc += float(np.dot(v, v))
        for _ in range(30):
            low = np.linalg.cholesky(self.spd)
            acc += float(solve_triangular(low, self.rhs, lower=True)[0, 0])
        for _ in range(self.passes):
            acc += float(solve_triangular(factor, self.b, lower=True, check_finite=False)[-1])
        if not np.isfinite(acc):
            raise RuntimeError("reference unit produced a non-finite value")
        return time.perf_counter() - t0

    def sample(self, budget_s: float) -> float:
        """Mean unit time over at least two units and ``budget_s`` seconds.  The buffer lives only meanwhile, so it never adds to the
        peak of a CLI call."""
        buffer = np.zeros((self.rows, self.cols))
        buffer[:, :self.rows] = 1e-4
        buffer[np.arange(self.rows), np.arange(self.rows)] = 1.0
        factor = buffer[:, :self.rows]
        times = []
        t0 = time.perf_counter()
        while len(times) < 2 or time.perf_counter() - t0 < budget_s:
            times.append(self._unit(factor))
        return sum(times) / len(times)
