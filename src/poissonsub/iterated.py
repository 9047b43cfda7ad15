"""Law of the iterated Poisson process Z(t) = M[N(t)].

Z is a compound Poisson process with rate lam and Poisson(mu) batches, so
its weights p_n(t) follow the compound-Poisson (Panjer) recursion; one
private engine runs it and every quantity of the law is read off its
output.  The paper's Bell-polynomial and Stirling forms are kept as
reference forms in ``verify``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.special import pdtr

from .params import ModelParams, check_time
from .special import SeriesControl, poisson_pmf

# scaled weights are renormalised once they leave [_TINY, _HUGE]
_TINY, _HUGE = 1e-200, 1e200
# tilts s > 0 at which the Chernoff bound on the upper tail is evaluated
_CHERNOFF_S = np.geomspace(1e-4, 30.0, 512)


def _float_if_scalar(x):
    """A law's value at one point as a Python float; any other as the array."""
    return x if np.ndim(x) else float(x)


@dataclass(frozen=True)
class IteratedLaw:
    params: ModelParams
    ctl: SeriesControl = field(default_factory=SeriesControl)

    @cached_property
    def _severity(self) -> np.ndarray:
        """j q_j for j = J..1 (reversed for the recursion's dot product),
        q_j = P{Poisson(mu) = j}, up to the last q_J that is not 0 as a float
        (log q_J >= -745, well inside the range below): no term is lost at small t."""
        mu = self.params.mu
        n = int(mu + 45.0 * math.sqrt(mu) + 250.0)
        return np.trim_zeros(np.arange(1, n) * poisson_pmf(range(1, n), mu), "b")[::-1].copy()

    # -- the weight engine ---------------------------------------------------

    def _log_weights(self, t: float, n: int) -> np.ndarray:
        """log p_0(t) .. log p_n(t) from the compound-Poisson recursion
        p_i = (lam t / i) sum_j j q_j p_{i-j}, p_0 = exp(-lam t (1 - e^{-mu})).

        The recursion runs on rescaled values and carries the log of the
        scale, so it works where p_0 or the tail underflows.  The values sit
        behind J = len(jq) zeros in one buffer, and row i of a strided view
        of it holds p_{i+1-J} .. p_i: the values that feed state i + 1 and
        the ones a rescale at state i touches.  So each state is one dot
        product over a full row, with no slicing.  The view is built with the
        ndarray constructor, which costs a tenth of ``sliding_window_view``'s
        set-up on the short runs of the passage laws.  The recursion is
        triangular, but a blocked solve through ``scipy.linalg`` is not used:
        importing that module alone adds about 6 MB to the resident size."""
        check_time(t)
        jq = self._severity
        nj = jq.size
        lt = self.params.lam * t
        buf = np.zeros(nj + n)
        p = buf[nj - 1:]  # p[i] = buf[nj - 1 + i]
        p[0] = 1.0
        win = np.ndarray((n + 1, nj), buffer=buf, strides=(buf.itemsize, buf.itemsize))
        out = np.empty(n + 1)
        shift = -self.params.rate * t  # true weight = scaled weight * e^shift
        done = 0  # p[:done] are already logged into out
        with np.errstate(divide="ignore"):
            for i, feed in enumerate(win[:n], 1):
                p[i] = v = lt / i * float(jq.dot(feed))
                if _TINY < v < _HUGE:
                    continue
                # only the last nj values feed later states; rescale them to a
                # maximum of 1 as they rise, and of _HUGE as they fall
                last = win[i]
                top = float(last.max())
                if v <= _TINY and top == _HUGE:
                    continue
                out[done:i + 1] = np.log(p[done:i + 1]) + shift
                done = i + 1
                if top == 0.0:
                    break  # every later weight is zero too
                last /= top
                shift += math.log(top)
                if v <= _TINY:
                    last *= _HUGE
                    shift -= math.log(_HUGE)
            out[done:] = np.log(p[done:]) + shift
        return out

    # -- pmf / cdf -----------------------------------------------------------

    def log_pmf(self, n, t: float):
        """log p_n(t) at one state or an array of states: one engine run."""
        n = np.asarray(n)
        if np.min(n, initial=0) < 0:
            raise ValueError(f"state must be nonnegative, got {np.min(n)}")
        return _float_if_scalar(self._log_weights(t, int(np.max(n, initial=0)))[n])

    def pmf(self, n, t: float):
        """p_n(t) = P{Z(t) = n} at one state or an array of states."""
        return _float_if_scalar(np.exp(self.log_pmf(n, t)))

    def pmf_vector(self, t: float) -> np.ndarray:
        """p_0(t)..p_N(t) with N the smallest state whose remaining mass is
        below ctl.tolerance."""
        check_time(t)
        if t == 0.0:
            return np.array([1.0])
        tol = self.ctl.tolerance
        # Chernoff: P{Z(t) >= n} <= exp(K(s) - s n) for every s > 0, with the
        # cumulant generating function K(s) = lam t (exp(mu (e^s - 1)) - 1);
        # the mass past the upper index is held to a thousandth of tol
        with np.errstate(over="ignore"):
            cgf = self.params.lam * t * np.expm1(self.params.mu * np.expm1(_CHERNOFF_S))
        top = math.ceil(np.min((cgf - math.log(1e-3 * tol)) / _CHERNOFF_S))
        w = np.exp(self._log_weights(t, top))
        # tails[i] = sum_{j >= i} w_j, summed from the top so no rounding of a
        # running total near 1 decides where to stop; 0.999 tol here plus the
        # thousandth past the upper index keeps the dropped mass below tol
        tails = np.append(np.cumsum(w[::-1])[::-1], 0.0)
        return w[: int(np.argmax(tails < 0.999 * tol))]

    def cdf(self, n, t: float):
        """P_n(t), the partial sum of the pmf, at one state or an array of
        states: one prefix sum over the engine's weights.  The weights are
        nonnegative, so the partial sum to state n is within (n + 1) 2^-53
        relative of the exactly rounded sum."""
        n = np.asarray(n)
        if np.min(n, initial=0) < 0:
            raise ValueError(f"state must be nonnegative, got {np.min(n)}")
        w = np.exp(self._log_weights(t, int(np.max(n, initial=0))))
        return _float_if_scalar(np.minimum(1.0, np.cumsum(w)[n]))

    # -- conditional law, moments, sojourn -----------------------------------

    def conditional_pmf(self, k: int, s: float, t: float, n: int) -> float:
        """P{Z(s) = k | Z(t) = n} = p_k(s) p_{n-k}(t-s) / p_n(t) for
        0 < s < t, evaluated in log space."""
        if not 0 < s < t:
            raise ValueError(f"need 0 < s < t, got s={s}, t={t}")
        if not 0 <= k <= n:
            raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
        if n == 0:
            return 1.0
        lw = self._log_weights
        return math.exp(lw(s, k)[k] + lw(t - s, n - k)[n - k] - lw(t, n)[n])

    def mean_sojourn(self, n: int) -> float:
        """E{S_n} = (1/lam) mu^n/n! sum_{k>=0} k^n e^{-mu k}
        = (1/lam) sum_{k>=0} Pois(mu k; n), with 0^0 = 1 so that n = 0 is
        the exponential-sojourn mean 1/rate.

        The terms are summed in blocks of at most 2^20 points, so memory
        stays bounded at small mu.  Past the mode, mu (K - 1) >= n, Pois(x; n)
        falls in x, so the terms from k = K on sum to at most
        (1/mu) int_{mu (K-1)}^inf Pois(x; n) dx = pdtr(n, mu (K - 1)) / mu;
        the sum stops once that is at most tolerance times the partial sum."""
        if n < 0:
            raise ValueError(f"state must be nonnegative, got {n}")
        if n == 0:
            return 1.0 / self.params.rate
        mu, tol = self.params.mu, self.ctl.tolerance
        # the terms past about n + 10 sqrt(n) + 40 on the x = mu k scale are negligible
        size = int(min(1 << 20, (n + 10.0 * math.sqrt(n) + 40.0) / mu)) + 1
        total, k = 0.0, 1  # the term at k = 0 is Pois(0; n) = 0
        while True:
            total += float(poisson_pmf(range(n, n + 1), mu * np.arange(k, k + size)).sum())
            k += size
            if mu * (k - 1) >= n and pdtr(n, mu * (k - 1)) / mu <= tol * total:
                return total / self.params.lam
            size = min(2 * size, 1 << 20)
