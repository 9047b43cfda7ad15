"""Monte Carlo oracle: vectorized batch samplers of Z(t), of first-crossing
times and of hitting times, used for large verification runs, and the
per-path samplers (one jump, one first crossing, one hitting) that the tests
check the batch samplers against.

All randomness flows through numpy Generators seeded from a SeedSequence;
replicates get independent spawned substreams so results are reproducible
regardless of how the work is split.
"""

from __future__ import annotations

import math

import numpy as np

from .crossing import Boundary
from .params import JumpSpec, ModelParams

_MAX_ROUNDS = 100_000  # jump rounds before a batch sampler gives up


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def substreams(seed: int, n: int) -> list[np.random.Generator]:
    """Independent substreams derived deterministically from a master seed."""
    return [np.random.Generator(np.random.PCG64(ss))
            for ss in np.random.SeedSequence(seed).spawn(n)]


def default_horizon(params: ModelParams) -> float:
    """Covers ~50 mean sojourn times, so censoring bias is negligible."""
    return 50.0 / (params.lam * (1.0 - math.exp(-params.mu)))


def sample_W(jumps: JumpSpec, mu: float, rng: np.random.Generator) -> float:
    """One jump of the subordinated process: a Poisson(mu) count of X draws."""
    k = int(rng.poisson(mu))
    if jumps.kind == "degenerate_unit":
        return float(k)
    if k == 0:
        return 0.0
    if jumps.kind == "exponential":
        return float(rng.exponential(1.0 / jumps.zeta, k).sum())
    return float(rng.normal(jumps.eta, jumps.sigma, k).sum())


def first_crossing_sample(boundary: Boundary, params: ModelParams,
                          jumps: JumpSpec, horizon: float,
                          rng: np.random.Generator) -> float | None:
    """First t with Z(t) >= beta(t), or None if censored at the horizon.

    For nonincreasing boundaries the inter-jump descent of the boundary
    through the current level is detected as well as jump-epoch crossings:
    both happen at the level time ``boundary.level_time(z, horizon)``.
    """
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    descends = boundary.is_nonincreasing
    t, z = 0.0, 0.0
    s = boundary.level_time(z, horizon) if descends else math.inf
    while True:
        e = t + rng.exponential(1.0 / params.lam)
        if s <= min(e, horizon):
            return s
        if e > horizon:
            return None
        z += sample_W(jumps, params.mu, rng)
        if descends:
            s = boundary.level_time(z, horizon)
            if e >= s:
                return e
        elif z >= boundary.value(e):
            return e
        t = e


def hitting_sample(k: int, params: ModelParams, horizon: float,
                   rng: np.random.Generator) -> float | None:
    """First epoch at which the iterated process lands exactly on state k;
    None if it jumps over k or is censored at the horizon."""
    if k < 1:
        raise ValueError(f"state must be >= 1, got {k}")
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    t, z = 0.0, 0
    while True:
        t += rng.exponential(1.0 / params.lam)
        if t > horizon:
            return None
        z += int(rng.poisson(params.mu))
        if z == k:
            return t
        if z > k:
            return None


# -- vectorized batch samplers (same laws, exact in distribution) ------------


def sample_Z(params: ModelParams, jumps: JumpSpec, t: float, size: int,
             rng: np.random.Generator) -> np.ndarray:
    """size draws of Z(t).  Conditional on the subordinator count N the total
    number of inner jumps is Poisson(mu N), and the jump total collapses to a
    closed-form law (count / gamma / normal), so no path loop is needed."""
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    if t == 0.0:
        return np.zeros(size)
    n = rng.poisson(params.lam * t, size)
    k = rng.poisson(params.mu * n.astype(float))
    if jumps.kind == "degenerate_unit":
        return k.astype(float)
    if jumps.kind == "exponential":
        return rng.standard_gamma(k.astype(float)) / jumps.zeta
    return jumps.eta * k + jumps.sigma * np.sqrt(k) * rng.standard_normal(size)


def batch_first_crossing(boundary: Boundary, params: ModelParams, horizon: float,
                         size: int, rng: np.random.Generator) -> np.ndarray:
    """Vectorized first-crossing times for the iterated process (unit jumps);
    censored paths get NaN.

    Under a nonincreasing boundary a path at integer level z crosses at the
    level time s*(z) (``Boundary.level_time``), by descent or at the first
    jump epoch e >= s*(z).  The table s*(0..top) is built once per call, with
    top = max(k, ceil(beta(0))) so that s*(top) = 0, and levels above top
    read s*(top); a general boundary is thus evaluated once per level."""
    by_level = boundary.is_nonincreasing
    if by_level:
        top = max(boundary.k, math.ceil(boundary.value(0.0)))
        level_time = np.array([boundary.level_time(z, horizon)
                               for z in range(top + 1)])
    # a live path sits below top; with no finite level time there (the
    # constant boundary) no path crosses between jumps
    descent = by_level and bool(np.isfinite(level_time[:top]).any())
    t = np.zeros(size)
    z = np.zeros(size, dtype=np.int64)
    out = np.full(size, np.nan)
    active = np.arange(size)
    for _ in range(_MAX_ROUNDS):
        if active.size == 0:
            return out
        e = t[active] + rng.exponential(1.0 / params.lam, active.size)
        if descent:
            s = level_time[z[active]]
            desc = s <= np.minimum(e, horizon)
            out[active[desc]] = s[desc]
            keep = ~desc
            active, e = active[keep], e[keep]
        censored = e > horizon
        active, e = active[~censored], e[~censored]
        if active.size == 0:
            return out
        z[active] += rng.poisson(params.mu, active.size)
        if by_level:
            crossed = e >= level_time[np.minimum(z[active], top)]
        else:
            crossed = z[active] >= boundary.k + e
        out[active[crossed]] = e[crossed]
        t[active] = e
        active = active[~crossed]
    raise RuntimeError("batch_first_crossing did not converge")


def batch_hitting(k: int, params: ModelParams, horizon: float, size: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Vectorized hitting times of state k for the iterated process; NaN for
    paths that overshoot k or are censored."""
    if k < 1:
        raise ValueError(f"state must be >= 1, got {k}")
    t = np.zeros(size)
    z = np.zeros(size, dtype=np.int64)
    out = np.full(size, np.nan)
    active = np.arange(size)
    for _ in range(_MAX_ROUNDS):
        if active.size == 0:
            return out
        t[active] += rng.exponential(1.0 / params.lam, active.size)
        censored = t[active] > horizon
        active = active[~censored]
        if active.size == 0:
            return out
        z[active] += rng.poisson(params.mu, active.size)
        hit = z[active] == k
        out[active[hit]] = t[active[hit]]
        active = active[z[active] < k]
    raise RuntimeError("batch_hitting did not converge")
