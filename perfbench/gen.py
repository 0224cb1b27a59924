"""Seeded benchmark input: a GJR-GARCH(1,1) price path with leverage.

The path is generated here, independently of afvol's own simulator, so the
program under test only ever sees the CSV file.  The negative-shock term
(gamma) gives the `gjr` fit a signal that plain GARCH cannot capture.
`gjr_filter` is the benchmark's own likelihood and forecast, used to check
the program's fits.
"""

from __future__ import annotations

import csv
import math

import numpy as np

# Daily equity-like dynamics: unconditional volatility 1%, persistence 0.98.
OMEGA = 2e-6
ALPHA = 0.03
GAMMA = 0.10
BETA = 0.90
N_PRICES = 2000
P0 = 100.0
T0 = 1_500_000_000  # epoch seconds of the first close
DAY = 86_400


def gjr_path(seed: int, path: int, n_returns: int) -> np.ndarray:
    """Returns r[t] = sigma[t] * z[t]; each (seed, path) pair draws its own stream."""
    rng = np.random.default_rng([seed, path])
    z = rng.standard_normal(n_returns)
    r = np.empty(n_returns)
    s2 = OMEGA / (1.0 - ALPHA - 0.5 * GAMMA - BETA)
    for t in range(n_returns):
        if t > 0:
            e = r[t - 1]
            s2 = OMEGA + (ALPHA + (GAMMA if e < 0 else 0.0)) * e * e + BETA * s2
        r[t] = np.sqrt(s2) * z[t]
    return r


def write_prices(filename, seed: int, path: int = 0, n_prices: int = N_PRICES) -> None:
    """Write a `timestamp,close` CSV of daily closes."""
    close = P0 * np.exp(np.concatenate([[0.0], np.cumsum(gjr_path(seed, path, n_prices - 1))]))
    with open(filename, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "close"])
        for i, c in enumerate(close):
            writer.writerow([T0 + i * DAY, repr(float(c))])


def read_returns(filename) -> np.ndarray:
    """Log returns of a price CSV this module wrote."""
    with open(filename, newline="") as fh:
        close = np.array([float(row[1]) for row in list(csv.reader(fh))[1:]])
    return np.diff(np.log(close))


def gjr_filter(r: np.ndarray, omega: float, alpha: float, beta: float, gamma: float = 0.0) -> tuple[float, float]:
    """Gaussian log-likelihood of r and the variance of the next return.

    The recursion is seeded as afvol's MLE seeds it: residuals are the
    demeaned returns and the first variance is theirs.  gamma = 0 gives
    plain GARCH.
    """
    e = (r - r.mean()).tolist()
    s2 = sum(x * x for x in e) / len(e)
    total = 0.0
    for t, x in enumerate(e):
        if t > 0:
            prev = e[t - 1]
            s2 = omega + (alpha + (gamma if prev < 0 else 0.0)) * prev * prev + beta * s2
        total += math.log(s2) + x * x / s2
    last = e[-1]
    next_s2 = omega + (alpha + (gamma if last < 0 else 0.0)) * last * last + beta * s2
    return -0.5 * (len(e) * math.log(2.0 * math.pi) + total), next_s2
