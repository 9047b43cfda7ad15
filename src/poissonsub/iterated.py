"""Law of the iterated Poisson process Z(t) = M[N(t)].

Z is a compound Poisson process with rate lam and Poisson(mu) batches, so
its weights p_n(t) follow the compound-Poisson (Panjer) recursion; one
private engine runs it and every quantity of the law is read off its
output.  One record per mu of the jump chain owns the Poisson(mu) batch
window that the engine reads, and the step law read off it: its renewal
sequence and visit table serve the mean sojourn time and ``crossing``, and
its inverse-CDF table, searched through a guide table (``_guide``,
``_search``), the batch samplers of ``mc``.  The paper's Bell-polynomial and
Stirling forms are reference forms in ``verify``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .params import ModelParams, check_time
from .special import SeriesControl, _float_if_scalar, poisson_pmf

# scaled weights are renormalised once they leave [_TINY, _HUGE]; where
# lam t > 1e100 the top is 1e300 / (lam t), so that no step overflows
_TINY, _HUGE = 1e-200, 1e200
# more states than an array can index, with room to double
_MAX_STATES = 2.0**60
# tilts s > 0 at which the Chernoff bound on the upper tail is evaluated
_CHERNOFF_S = np.geomspace(1e-4, 30.0, 512)
# states of the first renewal build: a sweep over the first few dozen states
# builds once, not at each doubling from one state
_FIRST_STATES = 64
# a guide table has at most 2^_GUIDE_BITS entries; a search makes
# _GUIDE_PASSES vectorized passes before it searches the keys left in full
_GUIDE_BITS, _GUIDE_PASSES = 16, 2
# entries per chunk of the inverse-CDF table, each one running sum
_CDF_CHUNK = 4096


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _guide(c: np.ndarray) -> np.ndarray:
    """Guide table of a nondecreasing table c for ``_search`` (indexed
    search: Chen & Asau, 1974; L. Devroye, 1986, "Non-Uniform Random Variate
    Generation", III.2.4): guide[g] = searchsorted(c, g / G, side="right"),
    with G a power of two, from 2 to 4 times c.size up to 2^_GUIDE_BITS, so
    that u G is exact for a float u."""
    size = 1 << min(c.size.bit_length() + 1, _GUIDE_BITS)
    return np.searchsorted(c, np.arange(size) / size, side="right")


def _search(c: np.ndarray, guide: np.ndarray, u: np.ndarray) -> np.ndarray:
    """np.searchsorted(c, u, side="right") for keys u in [0, 1), with
    guide = _guide(c): a key in [g/G, (g+1)/G) starts at guide[g] and
    advances while u >= c[i], which most keys do at most once; a key still
    moving after _GUIDE_PASSES passes is searched in full.  A key at or
    past c[-1] runs off the end, where the clipped read gives c[-1] again,
    so it moves on every pass and is searched."""
    if c.size == 0:
        return np.zeros(u.size, dtype=np.intp)
    i = guide[(u * guide.size).astype(np.intp)]
    for _ in range(_GUIDE_PASSES):
        moved = u >= c.take(i, mode="clip")
        i += moved
    again = np.flatnonzero(moved)
    i[again] = np.searchsorted(c, u[again], side="right")
    return i


class _JumpChain:
    """The jump chain of Z for one mu: S_m is the state after m nonzero jumps.
    ``first``, ``batches``: q_j = P{Poisson(mu) = j} for j = first .. J, the
    batch sizes j >= 1 whose probability is not 0 as a float (log q_j >= -745,
    well inside mu -+ (45 sqrt(mu) + 250)): no batch of positive probability
    is lost, and the window is O(sqrt(mu)) long; first = 1 for mu < 752.
    ``step``: r_J .. r_first, r_j = P{S_1 = j}, the batches over their exactly
    rounded sum (``math.fsum`` in descending order, which keeps few partials:
    a tenth of the time of the window's order at mu = 1e9).
    ``cdf``: c[i] = P{S_1 < first + i}, the steps summed from the small end
    up to the first entry of their last value (past it a uniform draws alike,
    and the search is shorter): the batch samplers' inverse-CDF table, and
    ``guide``, its guide table for ``_search``.  It is summed in chunks of
    _CDF_CHUNK steps, each one ``np.cumsum`` added to the exactly rounded sum
    of the earlier chunks' rounded sums (within an ulp of the exact prefix),
    so an entry is off the exact prefix sum by that ulp and the roundings
    within one chunk, not by 1.4e6 of them (at mu = 1e9 one running sum
    ended 1.8e-13 below 1); a window of one chunk, every mu up
    to a few thousand, is one running sum.
    Each table below is read-only, rebuilt at about twice its size when
    asked past it, and starts with the same bytes as a smaller one:
    ``upto(n)``: pi_0 .. pi_N, N >= n, pi_n = P{state n is ever visited};
    ``tables(k)``: (visits, below) of a size K >= k, with ``visits[m, j] =
    P{S_m = j}`` and its prefix sums ``below[m, L + 1] = P{S_m <= L}``, at
    most 1, for m, j, L <= K (column 0 is zero); ``exits(k)``, kept per
    level, the row P{S_m <= k - 1 < S_{m+1}}, m < k.

    pi solves the renewal equation pi_n = sum_j r_j pi_{n-j}, pi_0 = 1.  Run
    on pi, every term is nonnegative, but the recursion is neutrally stable:
    near its limit (1 - e^{-mu})/mu the roundings pile up (at n = 5000,
    5.6e-13 for mu = 1e-5 and 1.0e-14 for mu = 44.29).  Run on pi - limit
    they scale with the deviations, so that run serves wherever
    pi_n >= limit/2, and adding the limit back loses at most one bit.

    Row m + 1 of visits sums r_i times a window of row m, and entry m of an
    exit row sums visits[m, j] P{step > k - 1 - j} (suffix sums, from the
    small end), each along an outer axis, which numpy adds in order: a larger
    table puts only exact zeros in front, where matmul or convolve sums vary."""

    def __init__(self, mu: float):
        if not 0 < mu < math.inf:
            raise ValueError(f"mu must be finite and positive, got {mu}")
        lo = max(1, int(mu - 45.0 * math.sqrt(mu) - 250.0))
        q = poisson_pmf(range(lo, int(mu + 45.0 * math.sqrt(mu) + 250.0)), mu)
        nz = np.flatnonzero(q)
        self.first, self.batches = lo + int(nz[0]), _read_only(q[nz[0]:nz[-1] + 1])
        total = math.fsum(np.sort(self.batches)[::-1].tolist())
        self.step = _read_only((self.batches / total)[::-1].copy())
        self.limit = -math.expm1(-mu) / mu
        self.pi = _read_only(np.ones(1))
        self._tables = (np.ones((1, 1)), None)
        self._exits = {}

    @cached_property
    def cdf(self) -> np.ndarray:
        steps, c, done = self.step[::-1], np.zeros(self.step.size + 1), []
        for lo in range(0, steps.size, _CDF_CHUNK):
            chunk, run = steps[lo:lo + _CDF_CHUNK], c[lo + 1:lo + 1 + _CDF_CHUNK]
            np.cumsum(chunk, out=run)
            run += math.fsum(done)
            done.append(math.fsum(chunk.tolist()))
        # where two chunks meet, their roundings may differ by an ulp
        np.maximum.accumulate(c, out=c)
        return _read_only(c[:np.searchsorted(c, c[-1]) + 1])

    @cached_property
    def guide(self) -> np.ndarray:
        return _read_only(_guide(self.cdf))

    def upto(self, n: int) -> np.ndarray:
        if n >= self.pi.size:
            size, nj = max(n + 1, 2 * self.pi.size, _FIRST_STATES), self.step.size
            # buf[0] runs on pi, buf[1] on pi - limit; as in _log_weights, row i
            # of a strided window holds states i + 1 - J .. i, behind J - 1
            # states < 0, and feeds state i + first
            buf = np.zeros((2, nj - 1 + size))
            buf[1] = -self.limit
            v = buf[:, nj - 1:]
            v[:, 0] += 1.0
            for run, b in zip(v, buf):
                for i, feed in enumerate(np.ndarray((max(size - self.first, 0), nj), buffer=b,
                                                    strides=(8, 8)), self.first):
                    run[i] = self.step.dot(feed)
            pi = np.where(v[0] < 0.5 * self.limit, v[0], v[1] + self.limit)
            self.pi = _read_only(np.minimum(pi, 1.0))
        return self.pi

    def tables(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        if k < 1:
            raise ValueError(f"level must be >= 1, got {k}")
        if k >= self._tables[0].shape[0]:
            size, nj = max(k, 2 * (self._tables[0].shape[0] - 1)), self.step.size
            w = min(size, self.first + nj - 1) + 1  # the offsets i = w - 1 .. 0
            n = max(w - self.first, 0)  # those from the first step size on
            ker = np.append(self.step[nj - n:], np.zeros(w - n))[:, None]  # r_i, 0 below r_first
            # row m of buf holds visits[m] behind w - 1 zeros, and
            # win[m, i', j] = visits[m, j - (w - 1 - i')]
            buf = np.zeros((size + 1, w + size))
            win = np.ndarray((size, w, size + 1), buffer=buf, strides=(buf.strides[0], 8, 8))
            v, below = buf[:, w - 1:], np.zeros((size + 1, size + 2))
            v[0, 0] = 1.0
            for m in range(size):  # S_m >= m: the columns from m on
                v[m + 1, m:] = (ker * win[m, :, m:]).sum(axis=0)
            np.cumsum(v, axis=1, out=below[:, 1:])  # it can round above 1
            self._tables = _read_only(v), _read_only(np.minimum(below, 1.0, out=below))
        return self._tables

    def exits(self, k: int) -> np.ndarray:
        if k not in self._exits:
            # P{step > i} for i = first - 1 .. J + 1, the steps summed from the small end
            sf = np.concatenate(([1.0], np.cumsum(np.append(0.0, self.step[:-1]))[::-1], [0.0]))
            sf = sf[np.clip(np.arange(k - 1, -1, -1) + 1 - self.first, 0, sf.size - 1), None]
            terms = np.multiply(self.tables(k)[0][:k, :k].T, sf, order="C")  # rows j < k
            self._exits[k] = _read_only(terms.sum(axis=0))
        return self._exits[k]


# one jump chain per mu, kept for a few dozen mu: a sweep over states or
# levels reads one record, and a sweep over mu need not rebuild them
_jump_chain = lru_cache(maxsize=64)(_JumpChain)


@dataclass(frozen=True)
class IteratedLaw:
    params: ModelParams
    ctl: SeriesControl = field(default_factory=SeriesControl)

    @cached_property
    def _severity(self) -> np.ndarray:
        """j q_j for j = J..1 (reversed for the recursion's dot product),
        q_j = P{Poisson(mu) = j} from the batch window of the jump-chain
        record of mu: no term is lost at small t."""
        chain = _jump_chain(self.params.mu)
        q = np.append(np.zeros(chain.first), chain.batches)  # from batch size 0
        return (np.arange(1, q.size) * q[1:])[::-1].copy()

    # -- the weight engine ---------------------------------------------------

    def _lam_t(self, t: float) -> float:
        """lam t for a time t that passes ``check_time``; a ValueError where
        it is past the float range."""
        check_time(t)
        lt = self.params.lam * t
        if not lt < math.inf:
            raise ValueError(f"lam t = {self.params.lam:g} * {t:g} is past the float range")
        return lt

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
        set-up on the short runs of the passage laws.  A new value is at most
        lam t times the largest one that feeds it, so the window is held
        below 1e300 / (lam t) where that is under _HUGE.  The recursion is
        triangular, but a blocked solve through ``scipy.linalg`` is not used:
        importing that module alone adds about 6 MB to the resident size."""
        lt = self._lam_t(t)
        huge = _HUGE if lt <= 1e100 else 1e300 / lt
        jq = self._severity
        nj = jq.size
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
                if _TINY < v < huge:
                    continue
                # only the last nj values feed later states; rescale them to a
                # maximum of 1 as they rise, and of huge as they fall
                last = win[i]
                top = float(last.max())
                if v <= _TINY and top == huge:
                    continue
                out[done:i + 1] = np.log(p[done:i + 1]) + shift
                done = i + 1
                if top == 0.0:
                    break  # every later weight is zero too
                last /= top
                shift += math.log(top)
                if v <= _TINY:
                    last *= huge
                    shift -= math.log(huge)
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
        below ctl.tolerance; a ValueError if that index is past _MAX_STATES."""
        lt = self._lam_t(t)
        if t == 0.0:
            return np.array([1.0])
        tol = self.ctl.tolerance
        # Chernoff: P{Z(t) >= n} <= exp(K(s) - s n) for every s > 0, with the
        # cumulant generating function K(s) = lam t (exp(mu (e^s - 1)) - 1);
        # the mass past the upper index is held to a thousandth of tol
        with np.errstate(over="ignore"):
            cgf = lt * np.expm1(self.params.mu * np.expm1(_CHERNOFF_S))
        top = np.min((cgf - math.log(1e-3 * tol)) / _CHERNOFF_S)
        if not top < _MAX_STATES:
            raise ValueError(f"lam t = {lt:g} needs more than 2^60 states")
        top = math.ceil(top)
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
        return float(_jump_chain(self.params.mu).upto(n)[n]) / self.params.rate
