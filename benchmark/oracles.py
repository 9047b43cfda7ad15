"""Reference computations the benchmark checks poissonsub against.

Nothing here imports poissonsub.  The law weights come from a rescaled
Panjer recursion (Panjer 1981, ASTIN Bull. 12) instead of the package's
per-state Bell series; first-passage quantities come from flux sums and
from the embedded jump chain instead of Stirling and Bell polynomials.
``mp_weight`` evaluates the definition of the law at 50 digits with
``mpmath`` and is the oracle for the Panjer recursion itself.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy import special as sc


def poisson_pmf_vec(a: float, upto: int) -> np.ndarray:
    """P{Poisson(a) = j} for j = 0..upto."""
    j = np.arange(upto + 1, dtype=float)
    if a == 0.0:
        return (j == 0).astype(float)
    return np.exp(-a + j * math.log(a) - sc.gammaln(j + 1.0))


def severity(mu: float) -> np.ndarray:
    """Batch-size law q_j = P{Poisson(mu) = j}, cut where the tail is below
    1e-40 of the mass."""
    return poisson_pmf_vec(mu, int(mu + 20.0 * math.sqrt(mu) + 40.0))


def weight_count(lam: float, mu: float, t: float) -> int:
    """Number of weights that carries all but a negligible (< 1e-30) tail."""
    m = lam * mu * t
    sd = math.sqrt(lam * mu * (1.0 + mu) * t)
    return int(m + 40.0 * sd + 60.0)


@lru_cache(maxsize=256)
def _panjer(lam: float, mu: float, t: float, n: int) -> np.ndarray:
    big = 1e200
    rate = lam * t
    q = severity(mu)
    jq = (np.arange(q.size) * q)[1:][::-1]  # j q_j for j = J..1
    nj = jq.size
    p = np.zeros(n + 1)
    p[0] = 1.0
    log_scale = -rate * (1.0 - q[0])  # log p_0
    for i in range(1, n + 1):
        m = min(i, nj)
        p[i] = rate / i * float(np.dot(jq[nj - m:], p[i - m:i]))
        if p[i] > big:
            p[: i + 1] /= big
            log_scale += math.log(big)
    out = np.zeros_like(p)
    pos = p > 0
    out[pos] = np.exp(np.log(p[pos]) + log_scale)
    out.setflags(write=False)
    return out


def panjer_weights(lam: float, mu: float, t: float, n: int | None = None) -> np.ndarray:
    """p_0(t)..p_n(t) of the iterated law from the compound-Poisson recursion
    p_i = (lam t / i) sum_j j q_j p_{i-j}, p_0 = exp(-lam t (1 - e^{-mu})).

    The recursion runs on rescaled values so that p_0 may underflow."""
    if t == 0.0:
        return np.array([1.0])
    return _panjer(float(lam), float(mu), float(t),
                   weight_count(lam, mu, t) if n is None else int(n))


def mp_weight(lam: float, mu: float, t: float, n: int, dps: int = 50) -> float:
    """p_n(t) = sum_m P{Poisson(lam t) = m} P{Poisson(m mu) = n} at ``dps``
    digits: Z(t) is Poisson(mu M) given N(t) = M."""
    import mpmath

    with mpmath.workdps(dps):
        rate = mpmath.mpf(lam) * mpmath.mpf(t)
        mu_ = mpmath.mpf(mu)
        lo = max(0, int(lam * t - 40.0 * math.sqrt(lam * t) - 40.0))
        hi = int(lam * t + 40.0 * math.sqrt(lam * t) + 40.0)
        total = mpmath.mpf(0)
        for m in range(lo, hi + 1):
            outer = mpmath.exp(-rate + m * mpmath.log(rate) - mpmath.loggamma(m + 1))
            if m == 0:
                inner = mpmath.mpf(1 if n == 0 else 0)
            else:
                a = m * mu_
                inner = mpmath.exp(-a + n * mpmath.log(a) - mpmath.loggamma(n + 1))
            total += outer * inner
        return float(total)


# -- mixtures over the weights ------------------------------------------------


def _support(w: np.ndarray, rel: float = 1e-40) -> np.ndarray:
    """Indices n >= 1 whose weight matters at the 1e-40 level."""
    return np.nonzero(w[1:] > rel * w.max())[0] + 1


def _chunks(z: np.ndarray, width: int, cells: int = 2_000_000):
    step = max(1, cells // max(1, width))
    for lo in range(0, z.size, step):
        yield slice(lo, lo + step)


def _poisson_matrix(a: np.ndarray, j: np.ndarray) -> np.ndarray:
    """P{Poisson(a_i) = j_c} for every pair; a = 0 gives the point mass at 0."""
    with np.errstate(divide="ignore"):
        la = np.log(a)[:, None]
    lp = -a[:, None] + j[None, :] * la - sc.gammaln(j + 1.0)[None, :]
    lp = np.where(a[:, None] == 0.0, np.where(j[None, :] == 0, 0.0, -np.inf), lp)
    return np.exp(lp)


def exp_cdf(z: np.ndarray, w: np.ndarray, zeta: float) -> np.ndarray:
    """CDF of Z(t) with exponential(zeta) jumps as sum_j P{Poisson(zeta z) = j}
    sum_{n <= j} w_n, the gamma mixture summed over Poisson counts."""
    z = np.asarray(z, dtype=float)
    out = np.zeros_like(z)
    pos = z >= 0
    a = zeta * z[pos]
    if a.size == 0:
        return out
    top = float(a.max())
    j = np.arange(int(top + 40.0 * math.sqrt(top) + 60.0) + 1, dtype=float)
    cum = np.ones(j.size)
    m = min(j.size, w.size)
    cum[:m] = np.minimum(np.cumsum(w)[:m], 1.0)
    vals = np.empty_like(a)
    for s in _chunks(a, j.size):
        vals[s] = _poisson_matrix(a[s], j) @ cum
    out[pos] = vals
    return out


def exp_density(z: np.ndarray, w: np.ndarray, zeta: float) -> np.ndarray:
    """zeta sum_{n>=1} w_n P{Poisson(zeta z) = n - 1}, for z > 0."""
    z = np.asarray(z, dtype=float)
    ns = _support(w)
    out = np.zeros_like(z)
    pos = z > 0
    a = zeta * z[pos]
    vals = np.empty_like(a)
    for s in _chunks(a, ns.size):
        vals[s] = _poisson_matrix(a[s], ns - 1.0) @ w[ns]
    out[pos] = zeta * vals
    return out


def normal_cdf(z: np.ndarray, w: np.ndarray, eta: float, sigma: float) -> np.ndarray:
    """w_0 1{z >= 0} + sum_{n>=1} w_n Phi((z - n eta) / (sigma sqrt n))."""
    z = np.asarray(z, dtype=float)
    ns = _support(w)
    sd = sigma * np.sqrt(ns)
    out = np.where(z >= 0, w[0], 0.0)
    for s in _chunks(z, ns.size):
        out[s] += sc.ndtr((z[s, None] - ns * eta) / sd) @ w[ns]
    return out


def normal_density(z: np.ndarray, w: np.ndarray, eta: float, sigma: float) -> np.ndarray:
    """sum_{n>=1} w_n phi((z - n eta) / (sigma sqrt n)) / (sigma sqrt n)."""
    z = np.asarray(z, dtype=float)
    ns = _support(w)
    sd = sigma * np.sqrt(ns)
    out = np.empty_like(z)
    for s in _chunks(z, ns.size):
        u = (z[s, None] - ns * eta) / sd
        out[s] = (np.exp(-0.5 * u * u) / (sd * math.sqrt(2.0 * math.pi))) @ w[ns]
    return out


def unit_cdf(z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """P{Z(t) <= z} for unit jumps: the weights summed through floor(z)."""
    z = np.asarray(z, dtype=float)
    cum = np.minimum(np.cumsum(w), 1.0)
    idx = np.floor(z).astype(int)
    return np.where(idx < 0, 0.0, cum[np.clip(idx, 0, cum.size - 1)])


def atom(lam: float, mu: float, t: float) -> float:
    return math.exp(-lam * t * (1.0 - math.exp(-mu)))


# -- first passage --------------------------------------------------------------


def crossing_flux(k: int, t: float, lam: float, mu: float) -> float:
    """First-crossing density of the constant boundary k: a path crosses only
    by a jump out of some j < k, so psi = lam sum_{j<k} p_j(t) P{Poisson(mu) >= k - j}."""
    w = panjer_weights(lam, mu, t, k)
    up = sc.pdtrc(k - 1 - np.arange(k), mu)  # P{Poisson(mu) >= k - j}
    return lam * math.fsum(w[:k] * up)


def hitting_flux(k: int, t: float, lam: float, mu: float) -> float:
    """Hitting density of state k: lam sum_{j<k} p_j(t) P{Poisson(mu) = k - j}."""
    w = panjer_weights(lam, mu, t, k)
    q = poisson_pmf_vec(mu, k)
    return lam * math.fsum(w[:k] * q[k - np.arange(k)])


@lru_cache(maxsize=64)
def chain_visits(k: int, mu: float) -> np.ndarray:
    """h[m, j] = P{the jump chain is at j after m effective jumps}, 0 <= m, j <= k.
    Effective jumps are zero-truncated Poisson(mu)."""
    r = poisson_pmf_vec(mu, k)
    r[0] = 0.0
    r /= -math.expm1(-mu)
    h = np.zeros((k + 1, k + 1))
    h[0, 0] = 1.0
    for m in range(1, k + 1):
        h[m] = np.convolve(h[m - 1], r)[: k + 1]
    h.setflags(write=False)
    return h


def hitting_probability(k: int, mu: float) -> float:
    """pi_k by renewal: the chain's visit probabilities summed over steps."""
    return math.fsum(chain_visits(k, mu)[:, k])


def mean_crossing_time(k: int, lam: float, mu: float) -> float:
    """E(T_k) = sum_{j<k} pi_j / rate: each visited state below k is held for
    an exponential(rate) time, rate = lam (1 - e^{-mu})."""
    h = chain_visits(k, mu)
    rate = lam * -math.expm1(-mu)
    return math.fsum(h[:, :k].sum(axis=0)) / rate


def hitting_cdf(k: int, t: float, lam: float, mu: float) -> float:
    """P{state k is hit by time t} = sum_m h[m, k] P{Gamma(m, rate) <= t}."""
    h = chain_visits(k, mu)[:, k]
    rate = lam * -math.expm1(-mu)
    m = np.arange(1, k + 1)
    return math.fsum(h[1:] * sc.gammainc(m, rate * t))


def survival_constant(k: int, t: float, lam: float, mu: float) -> float:
    return min(1.0, math.fsum(panjer_weights(lam, mu, t, k)[:k]))


def survival_decreasing(k: int, t: float, lam: float, mu: float) -> float:
    """Boundary k - t: P{Z(t) < k - t}."""
    b = k - t
    if b <= 0:
        return 0.0
    return min(1.0, math.fsum(panjer_weights(lam, mu, t, k)[: math.ceil(b)]))


def avoiding_rows(k: int, horizon: int, lam: float, mu: float) -> list[np.ndarray]:
    """g_n(j) = P{Z(n) = j, no crossing of k + s by time n}, 0 <= j < k + n.

    An integer path stays below k + s on (n-1, n] exactly when Z(n) < k + n,
    so row n is row n-1 convolved with the unit-time weights and cut."""
    p1 = panjer_weights(lam, mu, 1.0, k + horizon)
    rows = [np.array([1.0])]
    for n in range(1, horizon + 1):
        prev = rows[-1]
        row = np.zeros(k + n)
        for i, g in enumerate(prev):
            row[i:] += g * p1[: k + n - i]
        rows.append(row)
    return rows


def survival_increasing(k: int, t: float, lam: float, mu: float,
                        rows: list[np.ndarray] | None = None) -> float:
    """P{T > t} for the boundary k + s: survive to n = floor(t), then stay at
    most k + n over the fractional part."""
    n = int(math.floor(t))
    if rows is None or len(rows) <= n:
        rows = avoiding_rows(k, n, lam, mu)
    g = rows[n]
    e = t - n
    if e == 0.0:
        return math.fsum(g)
    cum = np.minimum(np.cumsum(panjer_weights(lam, mu, e, k + n + 1)), 1.0)
    return math.fsum(g[m] * cum[k + n - m] for m in range(g.size))


# -- moments of Z(t) for the samplers -------------------------------------------


def jump_raw_moments(kind: str, zeta=None, eta=None, sigma=None, upto: int = 4):
    """E[X^r], r = 1..upto."""
    if kind == "degenerate_unit":
        return [1.0] * upto
    if kind == "exponential":
        return [math.factorial(r) / zeta**r for r in range(1, upto + 1)]
    # normal: E X^r from the Hermite recursion m_r = eta m_{r-1} + (r-1) s^2 m_{r-2}
    m = [1.0, eta]
    for r in range(2, upto + 1):
        m.append(eta * m[r - 1] + (r - 1) * sigma**2 * m[r - 2])
    return m[1:]


def z_cumulants(lam: float, mu: float, t: float, kind: str, **jump) -> list[float]:
    """First four cumulants of Z(t).

    W = X_1 + .. + X_M with M ~ Poisson(mu) has cumulants mu E[X^r]; Z(t) is
    compound Poisson with rate lam t and jump W, so kappa_r = lam t E[W^r]."""
    ex = jump_raw_moments(kind, **jump)
    kw = [mu * e for e in ex]  # cumulants of W
    # raw moments of W from its cumulants
    m1 = kw[0]
    m2 = kw[1] + m1**2
    m3 = kw[2] + 3 * kw[1] * m1 + m1**3
    m4 = kw[3] + 4 * kw[2] * m1 + 3 * kw[1] ** 2 + 6 * kw[1] * m1**2 + m1**4
    return [lam * t * m for m in (m1, m2, m3, m4)]
