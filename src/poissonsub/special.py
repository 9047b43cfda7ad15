"""Numerical building blocks shared by the process laws: the truncation
policy ``SeriesControl`` and the vectorised Poisson log-pmf.

The paper's reference forms (Stirling numbers, Bell polynomials, the scalar
Poisson kernels and the incomplete gamma function) are oracles and live in
``verify``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sc


@dataclass(frozen=True)
class SeriesControl:
    """Truncation policy for all infinite-series evaluations:
    ``tolerance`` bounds the absolute mass left in the truncated tail."""

    tolerance: float = 1e-12

    def __post_init__(self):
        if not (0.0 < self.tolerance < 1.0):
            raise ValueError(f"tolerance must be in (0, 1), got {self.tolerance}")


def log_poisson_pmf(m: np.ndarray | int, a: float) -> np.ndarray:
    """Vectorized log pmf; a > 0 required."""
    m = np.asarray(m, dtype=float)
    return -a + m * math.log(a) - sc.gammaln(m + 1.0)
