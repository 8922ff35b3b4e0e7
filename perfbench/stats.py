"""Small statistics helpers for the benchmark: ESS and run-to-run spread."""
from __future__ import annotations

import statistics

import numpy as np


def autocorrelation(x) -> np.ndarray:
    """Biased sample autocorrelation at lags 0..n-1, by FFT."""
    x = np.asarray(x, dtype=float)
    n = x.size
    d = x - x.mean()
    f = np.fft.rfft(d, 2 * n)
    acov = np.fft.irfft(f * np.conj(f))[:n] / n
    return acov / acov[0]


def ess_geyer(x) -> float:
    """Effective sample size by Geyer's initial monotone sequence.

    Sums of adjacent autocorrelation pairs are taken while positive and
    forced non-increasing; tau = -1 + 2 * sum, ESS = n / tau, with tau
    floored at 1 / log10(n) as Stan does for anticorrelated chains.  A
    constant series carries no autocorrelation information and returns n.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < 4 or np.ptp(x) == 0.0:
        return float(n)
    rho = autocorrelation(x)
    m = (n - 1) // 2
    pairs = rho[0:2 * m:2] + rho[1:2 * m:2]
    total = 0.0
    prev = np.inf
    for p in pairs:
        if p <= 0.0:
            break
        prev = min(p, prev)
        total += prev
    tau = -1.0 + 2.0 * total
    return float(n / max(tau, 1.0 / np.log10(n)))


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
