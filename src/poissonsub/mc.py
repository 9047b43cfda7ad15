"""Monte Carlo oracle: vectorized batch samplers of Z(t), of first-crossing
times and of hittings, used for large verification runs.

The batch first-crossing and hitting samplers step through the nonzero
jumps only: those arrive at ``ModelParams.rate`` = lam (1 - e^{-mu}), and
their sizes are iid zero-truncated Poisson(mu), drawn by inverse-CDF lookup
in the table of the jump-chain record of mu in ``iterated``: the samplers
draw from the step law that the passage-time quantities of ``crossing``
read.  This thinning is exact for first passage: a zero jump leaves the
level unchanged, so it can neither cross a boundary nor land on a state not
already crossed or hit (a nonincreasing boundary reaches a level between
jumps at the level's own time).  The unthinned per-path samplers, which
step through every jump of N, are their reference in ``tests/test_mc.py``.
The table is searched through its guide table (indexed search), which gives
the binary search's index for every uniform.  Both samplers step their
paths in consecutive blocks of ``_PATH_BLOCK`` paths, each block to the end
of its rounds before the next starts, all from the one generator.

All randomness flows through numpy Generators seeded from a SeedSequence.
The same seed and size give the same draws on any machine (for one numpy
release): the path block is a constant, not a property of the host.  The
first block of a larger call draws what a call of ``_PATH_BLOCK`` paths
draws, but a call split into calls of other sizes draws otherwise.  Work
split into parts, each with its own ``substreams`` generator, draws the
same whatever order or process the parts run in, and substream i of a seed
is the same whatever the number of substreams asked.
"""

from __future__ import annotations

import math

import numpy as np

from .crossing import Boundary
from .iterated import _jump_chain, _search
from .params import JumpSpec, ModelParams, check_time

_MAX_ROUNDS = 100_000  # jump rounds before a batch sampler gives up
# paths a batch sampler steps together: the twenty or so arrays of a jump
# round, 8 bytes a path each, stay in a 2 MB cache
_PATH_BLOCK = 1 << 14


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def substreams(seed: int, n: int) -> list[np.random.Generator]:
    """n independent generators spawned from a master seed; the i-th is the
    same for every n > i."""
    return [np.random.Generator(np.random.PCG64(ss))
            for ss in np.random.SeedSequence(seed).spawn(n)]


def default_horizon(params: ModelParams) -> float:
    """Covers ~50 mean sojourn times, so censoring bias is negligible."""
    return 50.0 / params.rate


def sample_Z(params: ModelParams, jumps: JumpSpec, t: float, size: int,
             rng: np.random.Generator) -> np.ndarray:
    """size draws of Z(t).  Conditional on the subordinator count N the total
    number of inner jumps is Poisson(mu N), and the jump total collapses to a
    closed-form law (count / gamma / normal), so no path loop is needed."""
    check_time(t)
    if t == 0.0:
        return np.zeros(size)
    n = rng.poisson(params.lam * t, size)
    k = rng.poisson(params.mu * n.astype(float))
    if jumps.kind == "degenerate_unit":
        return k.astype(float)
    if jumps.kind == "exponential":
        return rng.standard_gamma(k.astype(float)) / jumps.zeta
    return jumps.eta * k + jumps.sigma * np.sqrt(k) * rng.standard_normal(size)


def _ztp(mu: float, first: int, c: np.ndarray, guide: np.ndarray, size: int,
         rng: np.random.Generator) -> np.ndarray:
    """size zero-truncated Poisson(mu) draws by inverse-CDF lookup in a
    table c[i] = P{X < first + i}, the jump-chain record's ``first, cdf``,
    through its guide table ``iterated._guide(c)``: a uniform u with
    c[i-1] <= u < c[i] draws X = first + i - 1.

    A uniform at or above the table's last entry (rounding can leave that
    below 1) takes a fresh exact draw 1 + Poisson(mu - T), where T, the first
    arrival of a unit-rate Poisson process given that it comes before mu, is
    -log1p(U expm1(-mu)); so no value of X is cut off."""
    i = _search(c, guide, rng.random(size))
    x = i + (first - 1)
    beyond = i == c.size
    n = int(np.count_nonzero(beyond))
    if n:
        arrival = -np.log1p(rng.random(n) * math.expm1(-mu))
        x[beyond] = 1 + rng.poisson(np.maximum(mu - arrival, 0.0))
    return x


def _in_path_blocks(size: int, run_block) -> np.ndarray:
    """size passage times, NaN where none: run_block(out) fills each slice
    out of _PATH_BLOCK consecutive paths in turn, so the arrays of a jump
    round stay in the cache, and the first block draws as a call of its own
    size from the same generator would."""
    out = np.full(size, np.nan)
    for lo in range(0, size, _PATH_BLOCK):
        run_block(out[lo:lo + _PATH_BLOCK])
    return out


def batch_first_crossing(boundary: Boundary, params: ModelParams, horizon: float,
                         size: int, rng: np.random.Generator) -> np.ndarray:
    """Vectorized first-crossing times for the iterated process (unit jumps);
    censored paths get NaN.

    Each path steps through the nonzero jumps of Z only (see the module
    docstring).  Under a nonincreasing boundary a path at integer level z
    crosses at the level time s*(z) (``Boundary.level_time``), by descent or
    at the first nonzero jump epoch e >= s*(z).  The level time depends on
    the level alone, so a zero jump at some epoch before the next nonzero one
    would change nothing: the path descends iff s*(z) <= min(e, horizon).
    Under k + t, a level z below k + e' at one epoch stays below it at every
    later one.  The table s*(0..top) is built once per call, with
    top = max(k, ceil(beta(0))) so that s*(top) = 0, and levels above top
    read s*(top); a general boundary is thus evaluated once per level."""
    check_time(horizon, positive=True)
    by_level = boundary.is_nonincreasing
    if by_level:
        top = max(boundary.k, math.ceil(boundary.value(0.0)))
        level_time = np.array([boundary.level_time(z, horizon)
                               for z in range(top + 1)])
    # a live path sits below top; with no finite level time there (the
    # constant boundary) no path crosses between jumps
    descent = by_level and bool(np.isfinite(level_time[:top]).any())
    rate = params.rate
    chain = _jump_chain(params.mu)

    def run_block(out):
        # live paths: index into out, level, epoch of the last nonzero jump
        idx = np.arange(out.size)
        z = np.zeros(out.size, dtype=np.int64)
        t = np.zeros(out.size)
        for _ in range(_MAX_ROUNDS):
            if idx.size == 0:
                return
            e = t + rng.standard_exponential(idx.size) / rate
            live = e <= horizon
            if descent:
                s = level_time.take(z)
                desc = s <= np.minimum(e, horizon)
                done = np.flatnonzero(desc)
                out[idx[done]] = s[done]
                live &= ~desc
            z = z + _ztp(params.mu, chain.first, chain.cdf, chain.guide, idx.size, rng)
            if by_level:
                crossed = e >= level_time.take(z, mode="clip")
            else:
                crossed = z >= boundary.k + e
            crossed &= live
            done = np.flatnonzero(crossed)
            out[idx[done]] = e[done]
            keep = np.flatnonzero(live & ~crossed)
            idx, z, t = idx[keep], z[keep], e[keep]
        raise RuntimeError("batch_first_crossing did not converge")

    return _in_path_blocks(size, run_block)


def batch_hitting(k: int, params: ModelParams, horizon: float, size: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Vectorized hitting times of state k for the iterated process; NaN for
    paths that overshoot k or are censored.

    Each path steps through the nonzero jumps of Z only (see the module
    docstring): a zero jump stays at a level below k, so it cannot land on
    k, and every path settles within k nonzero jumps."""
    if k < 1:
        raise ValueError(f"state must be >= 1, got {k}")
    check_time(horizon, positive=True)
    rate = params.rate
    chain = _jump_chain(params.mu)

    def run_block(out):
        idx = np.arange(out.size)
        z = np.zeros(out.size, dtype=np.int64)
        t = np.zeros(out.size)
        for _ in range(_MAX_ROUNDS):
            if idx.size == 0:
                return
            t = t + rng.standard_exponential(idx.size) / rate
            z = z + _ztp(params.mu, chain.first, chain.cdf, chain.guide, idx.size, rng)
            live = t <= horizon
            hit = np.flatnonzero(live & (z == k))
            out[idx[hit]] = t[hit]
            keep = np.flatnonzero(live & (z < k))
            idx, z, t = idx[keep], z[keep], t[keep]
        raise RuntimeError("batch_hitting did not converge")

    return _in_path_blocks(size, run_block)
