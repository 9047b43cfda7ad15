"""Numerically stable special functions: Poisson kernels, the lower
incomplete gamma function, and the reference forms of the paper: Stirling
numbers of the second kind and Bell polynomials.

Everything here is a pure function.  Bell polynomials up to degree ``N_MAX``
are evaluated exactly from a cached triangle of Stirling numbers, at any
degree by the log-space Poisson-weighted series (``log_bell_series``).  The
process laws do not use them; they are the references that ``verify`` and
the tests check the weight engine against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sc

# Largest degree for which exact-integer Stirling coefficients are kept.
# Beyond this, polynomial-form evaluation refuses rather than losing precision.
N_MAX = 25


class UnsupportedDegreeError(ValueError):
    """Raised for polynomial degrees above the exact-coefficient cap."""


@dataclass(frozen=True)
class SeriesControl:
    """Truncation policy for all infinite-series evaluations:
    ``tolerance`` bounds the absolute mass left in the truncated tail."""

    tolerance: float = 1e-12

    def __post_init__(self):
        if not (0.0 < self.tolerance < 1.0):
            raise ValueError(f"tolerance must be in (0, 1), got {self.tolerance}")


@dataclass(frozen=True)
class BellEval:
    """One Bell-polynomial evaluation, carried in both linear and log scale."""

    n: int
    x: float
    value: float
    log_value: float


def _build_stirling_triangle(n_max: int) -> list[list[int]]:
    # additive recurrence S2(n,k) = k*S2(n-1,k) + S2(n-1,k-1), exact ints
    tri = [[1]]
    for n in range(1, n_max + 1):
        prev = tri[-1]
        row = [0] * (n + 1)
        for k in range(1, n + 1):
            row[k] = k * (prev[k] if k <= n - 1 else 0) + prev[k - 1]
        tri.append(row)
    return tri


_STIRLING = _build_stirling_triangle(N_MAX)


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind, exact.  S2(n,k) = 0 for k > n."""
    if n < 0 or k < 0:
        raise ValueError("stirling2 requires n >= 0 and k >= 0")
    if n > N_MAX:
        raise UnsupportedDegreeError(f"stirling2 supports n <= {N_MAX}, got {n}")
    if k > n:
        return 0
    return _STIRLING[n][k]


def poisson_pmf(m: int, a: float) -> float:
    """P{Poisson(a) = m} = e^{-a} a^m / m!, computed in log space."""
    if m < 0:
        raise ValueError(f"count must be nonnegative, got {m}")
    if a < 0:
        raise ValueError(f"rate must be nonnegative, got {a}")
    if a == 0.0:
        return 1.0 if m == 0 else 0.0
    return math.exp(-a + m * math.log(a) - math.lgamma(m + 1))


def poisson_cdf(n: int, a: float) -> float:
    """P{Poisson(a) <= n}, the partial sum of poisson_pmf."""
    if n < 0:
        raise ValueError(f"count must be nonnegative, got {n}")
    if a < 0:
        raise ValueError(f"rate must be nonnegative, got {a}")
    # regularized upper incomplete gamma identity; exact partial-sum semantics
    return float(sc.pdtr(n, a))


def log_poisson_pmf(m: np.ndarray | int, a: float) -> np.ndarray:
    """Vectorized log pmf; a > 0 required."""
    m = np.asarray(m, dtype=float)
    return -a + m * math.log(a) - sc.gammaln(m + 1.0)


def bell_poly(n: int, x: float) -> BellEval:
    """Bell polynomial B_n(x) = sum_k S2(n,k) x^k with compensated summation."""
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    if n > N_MAX:
        raise UnsupportedDegreeError(f"bell_poly supports n <= {N_MAX}, got {n}")
    if x < 0:
        raise ValueError(f"argument must be nonnegative, got {x}")
    if n == 0:
        return BellEval(0, x, 1.0, 0.0)
    value = math.fsum(_STIRLING[n][k] * x**k for k in range(1, n + 1))
    log_value = math.log(value) if value > 0.0 else -math.inf
    return BellEval(n, x, value, log_value)


def bell_poly_derivative(n: int, x: float) -> float:
    """B'_n(x), via the identity B'_n = -B_n + B_{n+1}/x for x > 0.

    At x = 0 the identity form degenerates; the coefficient derivative
    S2(n,1) = 1 (n >= 1) is returned instead.
    """
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    if n > N_MAX - 1:
        raise UnsupportedDegreeError(
            f"bell_poly_derivative supports n <= {N_MAX - 1}, got {n}"
        )
    if x < 0:
        raise ValueError(f"argument must be nonnegative, got {x}")
    if x == 0.0:
        return 0.0 if n == 0 else float(_STIRLING[n][1])
    return -bell_poly(n, x).value + bell_poly(n + 1, x).value / x


def log_bell_series(n: int, x: float, ctl: SeriesControl = SeriesControl()) -> float:
    """log B_n(x) via the Poisson-weighted power series sum_k k^n x^k e^{-x}/k!.

    Valid for any degree n >= 0 (no Stirling cap) and finite x >= 0.
    """
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    if not 0 <= x < math.inf:
        raise ValueError(f"argument must be finite and nonnegative, got {x}")
    if n == 0:
        return 0.0
    if x == 0.0:
        return -math.inf
    log_x = math.log(x)
    log_tol = math.log(ctl.tolerance)
    total = -math.inf
    peak = -math.inf
    chunk = 512
    for k0 in itertools.count(1, chunk):
        ks = np.arange(k0, k0 + chunk, dtype=float)
        lt = n * np.log(ks) + ks * log_x - x - sc.gammaln(ks + 1.0)
        total = np.logaddexp(total, sc.logsumexp(lt))
        peak = max(peak, float(lt.max()))
        last = float(lt[-1])
        # terms are unimodal in k: past the mode the ratio drops below 1/2
        # once k+1 > 2 x e^{n/k}, so the remaining tail is < 2 e^{last}
        k_last = k0 + chunk - 1
        past_mode = last < peak and (k_last + 1) > 2.0 * x * math.exp(n / k_last)
        if past_mode and last < total + log_tol:
            break
    return float(total)


def bell_series(n: int, x: float, ctl: SeriesControl = SeriesControl()) -> float:
    """B_n(x) via the truncated infinite series (linear scale)."""
    return math.exp(log_bell_series(n, x, ctl))


def lower_incomplete_gamma(a: float, z: float) -> float:
    """gamma(a, z) = int_0^z t^{a-1} e^{-t} dt for a > 0, z >= 0."""
    if a <= 0:
        raise ValueError(f"shape must be positive, got {a}")
    if z < 0:
        raise ValueError(f"upper limit must be nonnegative, got {z}")
    return float(sc.gammainc(a, z) * sc.gamma(a))
