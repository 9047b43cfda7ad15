"""Tests for the Monte Carlo simulator: reproducibility, and agreement of
the vectorized batch samplers with the path-level ones below and the
analytic laws."""

import math

import numpy as np
import pytest
from scipy import stats

from poissonsub import (
    Boundary,
    IteratedLaw,
    JumpSpec,
    ModelParams,
    hitting_probability,
    survival_nonincreasing,
)
from poissonsub import iterated, mc
from poissonsub.iterated import _JumpChain, _guide, _jump_chain, _search
from poissonsub.params import check_time

PARAMS = ModelParams(2.0, 1.0)
UNIT = JumpSpec.degenerate_unit()
EXP = JumpSpec.exponential(1.0)


# -- the per-path samplers ---------------------------------------------------
# The unthinned reference for the batch samplers of ``mc``: they step through
# every jump of N, zero jumps included, each a Poisson(mu) count.


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
    check_time(horizon, positive=True)
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
    check_time(horizon, positive=True)
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


class TestConfigAndStreams:
    def test_seed_reproducibility_bitwise(self):
        a = mc.sample_Z(PARAMS, EXP, 1.0, 1000, mc.make_rng(7))
        b = mc.sample_Z(PARAMS, EXP, 1.0, 1000, mc.make_rng(7))
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = mc.sample_Z(PARAMS, EXP, 1.0, 1000, mc.make_rng(7))
        b = mc.sample_Z(PARAMS, EXP, 1.0, 1000, mc.make_rng(8))
        assert not np.array_equal(a, b)

    def test_substreams_independent_and_stable(self):
        s1 = mc.substreams(42, 4)
        s2 = mc.substreams(42, 4)
        draws1 = [g.standard_normal(8) for g in s1]
        draws2 = [g.standard_normal(8) for g in s2]
        for d1, d2 in zip(draws1, draws2):
            assert np.array_equal(d1, d2)
        assert not np.array_equal(draws1[0], draws1[1])

    def test_default_horizon(self):
        h = mc.default_horizon(ModelParams(1.0, 1.0))
        assert h == pytest.approx(50.0 / (1 - math.exp(-1)))


class TestSampleW:
    def test_degenerate_is_integer(self):
        rng = mc.make_rng(0)
        ws = [sample_W(UNIT, 1.0, rng) for _ in range(200)]
        assert all(w == int(w) and w >= 0 for w in ws)

    def test_mean_and_atom(self):
        rng = mc.make_rng(3)
        n = 100_000
        ws = np.array([sample_W(EXP, 1.0, rng) for _ in range(n)])
        se = float(ws.std(ddof=1)) / math.sqrt(n)
        assert abs(float(ws.mean()) - 1.0) < 3 * se  # E W = mu * xi
        p0 = float(np.mean(ws == 0.0))
        se0 = math.sqrt(p0 * (1 - p0) / n)
        assert abs(p0 - math.exp(-1.0)) < 3 * se0


class TestFirstCrossingSampler:
    def test_stuck_at_zero_crosses_on_descent(self):
        # with mu tiny the process almost surely stays at 0, so the
        # boundary k - t reaches it at exactly t = k
        rng = mc.make_rng(4)
        params = ModelParams(1.0, 1e-12)
        b = Boundary.linear_decreasing(2)
        ts = [first_crossing_sample(b, params, UNIT, 10.0, rng)
              for _ in range(50)]
        assert all(t == pytest.approx(2.0, abs=1e-9) for t in ts)

    def test_general_boundary_matches_linear(self):
        # the same nonincreasing boundary given as a generic function must
        # produce the same law; compare survival frequencies
        rng1, rng2 = mc.substreams(10, 2)
        n = 4000
        lin = Boundary.linear_decreasing(3)
        gen = Boundary.nonincreasing(3, lambda t: 3.0 - t)
        f1 = np.array([first_crossing_sample(lin, PARAMS, UNIT, 5.0, rng1)
                       for _ in range(n)], dtype=float)
        f2 = np.array([first_crossing_sample(gen, PARAMS, UNIT, 5.0, rng2)
                       for _ in range(n)], dtype=float)
        m1, m2 = np.nanmean(f1), np.nanmean(f2)
        s = math.sqrt(np.nanvar(f1) / n + np.nanvar(f2) / n)
        assert abs(m1 - m2) < 4 * s

    def test_crossing_time_positive_and_capped(self):
        rng = mc.make_rng(6)
        for _ in range(100):
            t = first_crossing_sample(Boundary.constant(1), PARAMS, UNIT, 50.0, rng)
            assert t is None or 0 < t <= 50.0


class TestBatchSamplers:
    def test_batch_crossing_matches_exponential_law(self):
        # k = 1, constant boundary: T is exponential with the thinned rate
        rng = mc.make_rng(12)
        n = 50_000
        ts = mc.batch_first_crossing(Boundary.constant(1), PARAMS, 50.0, n, rng)
        ts = ts[~np.isnan(ts)]
        assert ts.size > 0.999 * n
        res = stats.kstest(ts, "expon", args=(0, 1 / (2.0 * (1 - math.exp(-1)))))
        assert res.pvalue > 0.01

    def test_batch_crossing_matches_path_sampler(self):
        n = 20_000
        b = Boundary.constant(3)
        rng1, rng2 = mc.substreams(13, 2)
        batch = mc.batch_first_crossing(b, PARAMS, 50.0, n, rng1)
        paths = np.array([first_crossing_sample(b, PARAMS, UNIT, 50.0, rng2)
                          for _ in range(n // 10)], dtype=float)
        m1, m2 = np.nanmean(batch), np.nanmean(paths)
        s = math.sqrt(np.nanvar(batch) / n + np.nanvar(paths) / (n // 10))
        assert abs(m1 - m2) < 4 * s

    def test_batch_decreasing_boundary_descent(self):
        rng = mc.make_rng(14)
        params = ModelParams(1.0, 1e-12)
        ts = mc.batch_first_crossing(Boundary.linear_decreasing(2), params,
                                     10.0, 200, rng)
        np.testing.assert_allclose(ts, 2.0, atol=1e-9)

    def test_batch_hitting_frequency(self):
        rng = mc.make_rng(15)
        n = 100_000
        ts = mc.batch_hitting(2, PARAMS, mc.default_horizon(PARAMS), n, rng)
        p_hat = float(np.mean(~np.isnan(ts)))
        pi = hitting_probability(2, 1.0)
        se = math.sqrt(pi * (1 - pi) / n)
        assert abs(p_hat - pi) < 3 * se

    def test_batch_hitting_matches_path_sampler(self):
        rng1, rng2 = mc.substreams(16, 2)
        n = 30_000
        h = mc.default_horizon(PARAMS)
        batch = mc.batch_hitting(1, PARAMS, h, n, rng1)
        paths = np.array([hitting_sample(1, PARAMS, h, rng2)
                          for _ in range(n // 10)], dtype=float)
        f1 = float(np.mean(~np.isnan(batch)))
        f2 = float(np.mean(~np.isnan(paths)))
        se = math.sqrt(f1 * (1 - f1) / n + f2 * (1 - f2) / (n // 10))
        assert abs(f1 - f2) < 4 * se


@pytest.mark.parametrize("sampler", [
    lambda size, rng: mc.batch_first_crossing(Boundary.constant(4), PARAMS, 2.0, size, rng),
    lambda size, rng: mc.batch_hitting(3, PARAMS, 50.0, size, rng),
], ids=["crossing", "hitting"])
def test_first_path_block_is_a_call_of_its_size(sampler):
    # the paths run in blocks of _PATH_BLOCK, one after the other from one
    # generator: the first block draws what a call of that size draws, NaN
    # (censored or overshot) included
    size = 3 * mc._PATH_BLOCK + 5
    many = sampler(size, mc.make_rng(61))
    one = sampler(mc._PATH_BLOCK, mc.make_rng(61))
    assert many.shape == (size,) and np.isnan(one).any() and not np.isnan(one).all()
    assert many[:mc._PATH_BLOCK].tobytes() == one.tobytes()
    assert many[-5:].tobytes() != one[-5:].tobytes()


def ks_censored(a, b):
    """Two-sample Kolmogorov-Smirnov statistic of two samples of passage
    times, censored (NaN) times counted as +inf, and its 1% critical value."""
    a = np.sort(np.nan_to_num(a, nan=np.inf))
    b = np.sort(np.nan_to_num(b, nan=np.inf))
    grid = np.concatenate([a, b])
    d = np.abs(np.searchsorted(a, grid, side="right") / a.size
               - np.searchsorted(b, grid, side="right") / b.size).max()
    crit = math.sqrt(-math.log(0.01 / 2) / 2 * (a.size + b.size) / (a.size * b.size))
    return float(d), crit


@pytest.mark.parametrize("mu", [0.3, 1.4])
class TestBatchAgainstPathSamplers:
    """The batch samplers step through the nonzero jumps only; the per-path
    samplers through every jump.  Their laws must agree for every boundary
    kind, at a small mu (three jumps in four are zero) and a larger one."""

    N_BATCH, N_PATHS = 20_000, 5_000

    @pytest.mark.parametrize("boundary, horizon, seed", [
        (Boundary.constant(4), None, 40),
        (Boundary.linear_decreasing(3), None, 41),
        (Boundary.linear_increasing(2), 10.0, 42),
        (Boundary.nonincreasing(4, lambda s: 4.0 / (1.0 + s / 0.8)), None, 43),
    ], ids=["constant", "decreasing", "increasing", "general"])
    def test_first_crossing(self, mu, boundary, horizon, seed):
        params = ModelParams(2.0, mu)
        horizon = horizon or mc.default_horizon(params)
        rng1, rng2 = mc.substreams(seed, 2)
        batch = mc.batch_first_crossing(boundary, params, horizon, self.N_BATCH, rng1)
        paths = np.array([first_crossing_sample(boundary, params, UNIT, horizon, rng2)
                          for _ in range(self.N_PATHS)], dtype=float)
        d, crit = ks_censored(batch, paths)
        assert d < crit, (d, crit)

    def test_hitting(self, mu):
        params, k = ModelParams(2.0, mu), 3
        horizon = mc.default_horizon(params)
        rng1, rng2 = mc.substreams(44, 2)
        batch = mc.batch_hitting(k, params, horizon, self.N_BATCH, rng1)
        paths = np.array([hitting_sample(k, params, horizon, rng2)
                          for _ in range(self.N_PATHS)], dtype=float)
        d, crit = ks_censored(batch, paths)
        assert d < crit, (d, crit)
        f1 = float(np.mean(~np.isnan(batch)))
        f2 = float(np.mean(~np.isnan(paths)))
        se = math.sqrt(f1 * (1 - f1) / self.N_BATCH + f2 * (1 - f2) / self.N_PATHS)
        assert abs(f1 - f2) < 4 * se


class TestZeroTruncatedPoisson:
    """The increments of the batch samplers: the inverse-CDF table of the
    jump-chain record of mu, and an exact draw for a uniform outside it."""

    N = 100_000

    @staticmethod
    def pvalue(x, mu):
        hi = int(x.max()) + 50
        counts = np.bincount(x, minlength=hi + 1)[:hi + 1]
        j = np.arange(hi + 1)
        expected = x.size * stats.poisson.pmf(j, mu) / stats.poisson.sf(0, mu)
        expected[0] = 0.0
        from poissonsub.verify import chi_square_pvalue
        return chi_square_pvalue(counts, expected)

    @pytest.mark.parametrize("mu, seed", [(0.3, 50), (1.4, 51), (30.0, 52), (300.0, 53)])
    def test_chi_square(self, mu, seed):
        chain = _jump_chain(mu)
        x = mc._ztp(mu, chain.first, chain.cdf, chain.guide, self.N, mc.make_rng(seed))
        assert x.min() >= 1
        assert self.pvalue(x, mu) > 0.01

    def test_table_follows_mu(self):
        # no fixed range of values: at mu = 1e4, where e^{-mu} is 0 as a
        # float, the table starts above 5000, ends past 10500 and has
        # O(sqrt(mu)) entries; c[i] = P{X < first + i} is the step law
        # summed from the small end, behind a 0 for the values below first,
        # up to the first entry of the sum's last value.  The window has
        # 7676 steps, two chunks of the sum: the first is the running sum,
        # and every entry is within a few ulps of the exact prefix sum
        mu = 1e4
        chain = _jump_chain(mu)
        steps = chain.step[::-1]
        c, running = chain.cdf, np.cumsum(steps)
        assert chain.first > 5000 and chain.first + c.size - 2 > 10500
        assert c.size < 80 * math.sqrt(mu) and c.size > iterated._CDF_CHUNK + 1
        assert c[0] == 0.0 and abs(c[-1] - 1.0) < 1e-15 and c[-2] < c[-1]
        chunk = iterated._CDF_CHUNK
        assert c[1:chunk + 1].tobytes() == running[:chunk].tobytes()
        for i in range(1, c.size, 37):
            exact = math.fsum(steps[:i].tolist())
            assert abs(c[i] - exact) <= 16 * np.spacing(exact), i
        assert math.fsum(steps[:c.size - 1].tolist()) > 1.0 - 1e-15
        assert np.all(np.diff(c) >= 0)
        with pytest.raises(ValueError):
            c[1] = 0.5

    @pytest.mark.parametrize("mu", [0.3, 30.0, 2000.0])
    def test_table_of_one_chunk_is_the_running_sum(self, mu):
        # windows of at most _CDF_CHUNK steps, every mu up to a few
        # thousand, keep the bytes, and so the seeded draws, of one running
        # sum truncated at the first entry of its last value
        chain = _jump_chain(mu)
        assert chain.step.size <= iterated._CDF_CHUNK
        running = np.cumsum(np.append(0.0, chain.step[::-1]))
        want = running[:np.searchsorted(running, running[-1]) + 1]
        assert chain.cdf.tobytes() == want.tobytes()

    def test_tiny_mu(self):
        # P{X >= 2} = mu/2 + ...: every draw is 1
        chain = _jump_chain(1e-12)
        assert chain.first == 1 and chain.cdf[1] > 1 - 1e-12
        assert np.all(mc._ztp(1e-12, 1, chain.cdf, chain.guide, self.N, mc.make_rng(54)) == 1)

    @pytest.mark.parametrize("mu, seed", [(1e-12, 55), (1.4, 56), (30.0, 57)])
    def test_forced_fallback_is_exact(self, mu, seed):
        # an empty table sends every uniform to the exact construction
        x = mc._ztp(mu, 1, np.empty(0), _guide(np.empty(0)), self.N, mc.make_rng(seed))
        assert x.min() >= 1
        if mu < 1e-6:
            assert np.all(x == 1)
        else:
            assert self.pvalue(x, mu) > 0.01

    @pytest.mark.parametrize("mu", [1e-12, 0.3, 1.0, 1.4, 30.0, 1e4, 1e9])
    def test_indexed_search_is_searchsorted(self, mu):
        # keys: uniforms, 0, every table entry and the float below it; tables:
        # the record's, one cut after the value 2 and an empty one.  At
        # mu = 1e9 the guide table (2^16) is far shorter than the table, so
        # many keys are left to the full search
        chain = _JumpChain(mu)
        rng = mc.make_rng(59)
        for c in (chain.cdf, chain.cdf[:3], np.empty(0)):
            guide = chain.guide if c is chain.cdf else _guide(c)
            assert guide.size & (guide.size - 1) == 0 and guide.size <= 1 << 16
            keys = np.concatenate([rng.random(self.N), [0.0], c, np.nextafter(c, -1.0)])
            keys = keys[(keys >= 0.0) & (keys < 1.0)]
            want = np.searchsorted(c, keys, side="right")
            assert np.array_equal(_search(c, guide, keys), want)
        # the draws are those of the full search on the same stream
        x = mc._ztp(mu, chain.first, chain.cdf, chain.guide, self.N, mc.make_rng(60))
        i = np.searchsorted(chain.cdf, mc.make_rng(60).random(self.N), side="right")
        assert np.all(i < chain.cdf.size) and np.array_equal(x, i + (chain.first - 1))

    def test_values_beyond_a_short_table(self):
        # a table cut after the value 2 still yields larger values
        chain = _jump_chain(1.4)
        x = mc._ztp(1.4, chain.first, chain.cdf[:3], _guide(chain.cdf[:3]), self.N,
                    mc.make_rng(58))
        assert x.max() > 2


class TestTimeChecks:
    """Times must be finite; a horizon must also be positive."""

    @pytest.mark.parametrize("t", [math.inf, math.nan, -1.0])
    def test_sample_Z(self, t):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            mc.sample_Z(PARAMS, UNIT, t, 10, mc.make_rng(0))

    @pytest.mark.parametrize("horizon", [math.inf, math.nan, 0.0])
    def test_horizon(self, horizon):
        b, rng = Boundary.constant(2), mc.make_rng(0)
        for call in (
            lambda: first_crossing_sample(b, PARAMS, UNIT, horizon, rng),
            lambda: hitting_sample(2, PARAMS, horizon, rng),
            lambda: mc.batch_first_crossing(b, PARAMS, horizon, 10, rng),
            lambda: mc.batch_hitting(2, PARAMS, horizon, 10, rng),
        ):
            with pytest.raises(ValueError, match="finite and positive"):
                call()


class TestBatchGeneralBoundary:
    """The general-boundary branch of ``batch_first_crossing``: one level
    time per integer level, bisected to adjacent floats."""

    @staticmethod
    def survival_within_5se(b, times, n, seed):
        law = IteratedLaw(PARAMS)
        x = mc.batch_first_crossing(b, PARAMS, mc.default_horizon(PARAMS), n,
                                    mc.make_rng(seed))
        for t in times:
            p = survival_nonincreasing(b, t, law)
            emp = float(np.mean(~(x <= t)))  # censored paths survive
            se = math.sqrt(max(p * (1 - p), 1e-12) / n)
            assert abs(emp - p) < 5 * se, (t, emp, p)

    def test_same_seed_as_linear_decreasing(self):
        horizon, n = mc.default_horizon(PARAMS), 50_000
        gen = mc.batch_first_crossing(Boundary.nonincreasing(3, lambda s: 3.0 - s),
                                      PARAMS, horizon, n, mc.make_rng(30))
        lin = mc.batch_first_crossing(Boundary.linear_decreasing(3),
                                      PARAMS, horizon, n, mc.make_rng(30))
        assert np.array_equal(np.isnan(gen), np.isnan(lin))
        np.testing.assert_allclose(gen, lin, rtol=0, atol=1e-11)

    def test_hyperbolic_boundary_matches_survival(self):
        k, tau = 4, 0.8
        b = Boundary.nonincreasing(k, lambda s: k / (1.0 + s / tau))
        # level times tau (k/z - 1) are 2.4, 0.8 and 0.27
        self.survival_within_5se(b, (0.3, 0.7, 1.6), 50_000, 31)

    def test_survival_at_a_level_time(self):
        # t = 0.8 is the level time of z = 2: a path waiting at 2 crosses
        # then, so the bisection must end at the first float where the
        # boundary reads 2, not above 0.8 (which read 0.745 against 0.578)
        k, tau = 4, 0.8
        b = Boundary.nonincreasing(k, lambda s: k / (1.0 + s / tau))
        s = b.level_time(2, mc.default_horizon(PARAMS))
        assert 0.8 - 1e-15 < s <= 0.8 and b.value(s) <= 2.0
        self.survival_within_5se(b, (0.8,), 50_000, 31)

    def test_step_boundary_matches_survival(self):
        b = Boundary.nonincreasing(3, lambda s: 3.0 if s < 1 else 0.5)
        self.survival_within_5se(b, (0.5, 1.5), 50_000, 32)


class TestSampleZ:
    def test_time_zero(self):
        assert np.all(mc.sample_Z(PARAMS, EXP, 0.0, 64, mc.make_rng(0)) == 0.0)

    def test_degenerate_chi_square(self):
        rng = mc.make_rng(20)
        n = 100_000
        zs = mc.sample_Z(PARAMS, UNIT, 1.0, n, rng).astype(int)
        law = IteratedLaw(PARAMS)
        kmax = int(zs.max())
        observed = np.bincount(zs, minlength=kmax + 1).astype(float)
        expected = n * np.array([law.pmf(j, 1.0) for j in range(kmax + 1)])
        expected[-1] += n - expected.sum()  # fold the tail into the last cell
        from poissonsub.verify import chi_square_pvalue
        assert chi_square_pvalue(observed, expected) > 0.01

    def test_moments_all_jump_kinds(self):
        from poissonsub import moments_Z

        rng = mc.make_rng(21)
        n = 100_000
        for jumps in (UNIT, EXP, JumpSpec.normal(0.5, 1.0)):
            zs = mc.sample_Z(PARAMS, jumps, 2.0, n, rng)
            m = moments_Z(2.0, PARAMS, jumps)
            se = math.sqrt(m.variance / n)
            assert abs(float(zs.mean()) - m.mean) < 4 * se
