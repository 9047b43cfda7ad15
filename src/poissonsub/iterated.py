"""Law of the iterated Poisson process Z(t) = M[N(t)].

Z is a compound Poisson process with rate lam and Poisson(mu) batches, so
its weights p_n(t) follow the compound-Poisson (Panjer) recursion; one
private engine runs it and every quantity of the law is read off its
output.  One renewal record per mu, of the chance that the jump chain ever
visits each state, serves the mean sojourn time and ``crossing``.  The
paper's Bell-polynomial and Stirling forms are reference forms in ``verify``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .params import ModelParams, check_time
from .special import SeriesControl, poisson_pmf

# scaled weights are renormalised once they leave [_TINY, _HUGE]
_TINY, _HUGE = 1e-200, 1e200
# tilts s > 0 at which the Chernoff bound on the upper tail is evaluated
_CHERNOFF_S = np.geomspace(1e-4, 30.0, 512)


def _float_if_scalar(x):
    """A law's value at one point as a Python float; any other as the array."""
    return x if np.ndim(x) else float(x)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=16)
def _poisson_batches(mu: float) -> np.ndarray:
    """q_j = P{Poisson(mu) = j} for j = 0..J, read-only, with q_J the last
    that is not 0 as a float (log q_J >= -745, and J is well inside
    mu + 45 sqrt(mu) + 250): no batch size of positive probability is lost."""
    n = int(mu + 45.0 * math.sqrt(mu) + 250.0)
    return _read_only(np.trim_zeros(poisson_pmf(range(n), mu), "b"))


class _Renewal:
    """pi_n = P{state n is ever visited} by the jump chain of one mu, from
    the renewal equation pi_n = sum_{j>=1} r_j pi_{n-j}, pi_0 = 1, with r the
    zero-truncated Poisson(mu) step law on the support of ``_poisson_batches``,
    scaled to unit mass by its exactly rounded sum.  ``upto(n)`` gives the
    read-only pi_0 .. pi_N, N >= n, rebuilt at about twice the length when n
    is past it; a longer record starts with the same bytes as a shorter one.

    Run on pi, every term is nonnegative, but the recursion is neutrally
    stable: near its limit (1 - e^{-mu})/mu the roundings pile up (at
    n = 5000, 5.6e-13 for mu = 1e-5 and 1.0e-14 for mu = 44.29).  Run on
    pi - limit they scale with the deviations, so that run serves wherever
    pi_n >= limit/2, and adding the limit back loses at most one bit."""

    def __init__(self, mu: float):
        if not 0 < mu < math.inf:
            raise ValueError(f"mu must be finite and positive, got {mu}")
        q = _poisson_batches(mu)[1:]
        self.step = (q / math.fsum(q))[::-1].copy()  # r_J .. r_1
        self.limit = -math.expm1(-mu) / mu
        self.pi = _read_only(np.ones(1))

    def upto(self, n: int) -> np.ndarray:
        if n >= self.pi.size:
            size, nj = max(n + 1, 2 * self.pi.size), self.step.size
            # buf[0] runs on pi, buf[1] on pi - limit; as in _log_weights, row i
            # of a strided window holds states i+1-J .. i, behind J - 1 states < 0
            buf = np.zeros((2, nj - 1 + size))
            buf[1] = -self.limit
            v = buf[:, nj - 1:]
            v[:, 0] += 1.0
            for run, b in zip(v, buf):
                for i, feed in enumerate(np.ndarray((size - 1, nj), buffer=b, strides=(8, 8)), 1):
                    run[i] = self.step.dot(feed)
            pi = np.where(v[0] < 0.5 * self.limit, v[0], v[1] + self.limit)
            self.pi = _read_only(np.minimum(pi, 1.0))
        return self.pi


# one renewal record per mu: a sweep over states reads one recursion
_renewal = lru_cache(maxsize=16)(_Renewal)


@dataclass(frozen=True)
class IteratedLaw:
    params: ModelParams
    ctl: SeriesControl = field(default_factory=SeriesControl)

    @cached_property
    def _severity(self) -> np.ndarray:
        """j q_j for j = J..1 (reversed for the recursion's dot product),
        q_j = P{Poisson(mu) = j} from ``_poisson_batches``: no term is lost
        at small t."""
        q = _poisson_batches(self.params.mu)
        return (np.arange(1, q.size) * q[1:])[::-1].copy()

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
        """E{S_n} = (1/lam) mu^n/n! sum_{k>=0} k^n e^{-mu k} = pi_n / rate:
        state n is held for an exponential(rate) time once the jump chain
        visits it, which it does with probability pi_n, read from the
        renewal record of mu.  n = 0 gives 1/rate."""
        if n < 0:
            raise ValueError(f"state must be nonnegative, got {n}")
        return float(_renewal(self.params.mu).upto(n)[n]) / self.params.rate
