"""Tests for first-crossing and first-hitting quantities."""

import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from poissonsub import (
    Boundary,
    IteratedLaw,
    ModelParams,
    avoiding_table,
    crossing_density_constant,
    hitting_cdf,
    hitting_density,
    hitting_probability,
    mean_crossing_time_constant,
    survival_linear_increasing,
    survival_nonincreasing,
)
import poissonsub
from poissonsub import mc
from poissonsub.crossing import _strict_floor
from poissonsub.iterated import _JumpChain, _jump_chain
from poissonsub.verify import crossing_density_constant_stirling

import mp_oracles as mo
from mp_oracles import rel

LAW = IteratedLaw(ModelParams(2.0, 1.0))


class TestBoundary:
    def test_validation(self):
        with pytest.raises(ValueError):
            Boundary.constant(0)
        with pytest.raises(ValueError):
            Boundary("quadratic", 2)
        with pytest.raises(ValueError):
            Boundary("general_nonincreasing", 2)

    def test_values(self):
        assert Boundary.constant(3).value(7.0) == 3.0
        assert Boundary.linear_decreasing(3).value(1.5) == 1.5
        assert Boundary.linear_increasing(3).value(1.5) == 4.5
        b = Boundary.nonincreasing(4, lambda t: 4.0 / (1 + t))
        assert b.value(1.0) == 2.0
        assert b.is_nonincreasing

    def test_strict_floor(self):
        assert _strict_floor(3.0) == 2
        assert _strict_floor(2.7) == 2
        assert _strict_floor(0.4) == 0
        assert _strict_floor(0.0) == -1


class TestLevelTime:
    def test_constant_closed_form(self):
        b = Boundary.constant(3)
        assert b.level_time(0, 10.0) == math.inf
        assert b.level_time(2.9, 10.0) == math.inf
        assert b.level_time(3, 10.0) == 0.0
        assert b.level_time(7, 10.0) == 0.0

    def test_linear_decreasing_closed_form(self):
        b = Boundary.linear_decreasing(3)
        assert [b.level_time(z, 10.0) for z in range(5)] == [3.0, 2.0, 1.0, 0.0, 0.0]
        assert b.level_time(0.5, 10.0) == 2.5
        assert b.level_time(0, 2.5) == math.inf  # reached after the horizon
        assert b.level_time(1, 2.0) == 2.0  # reached at the horizon

    def test_bisection_lies_within_tolerance_above(self):
        # k / (1 + s/tau) reaches level z at s* = tau (k/z - 1)
        k, tau = 4, 0.7
        b = Boundary.nonincreasing(k, lambda s: k / (1.0 + s / tau))
        for z in (1, 2, 3, 3.5):
            exact = tau * (k / z - 1.0)
            got = b.level_time(z, 50.0)
            assert b.value(got) <= z
            assert -1e-14 <= got - exact <= 1e-12 + 1e-14
        # a step at a representable time is bracketed exactly
        step = Boundary.nonincreasing(3, lambda s: 3.0 if s < 1.25 else 0.5)
        for z in (0.5, 1, 2):
            assert 1.25 <= step.level_time(z, 10.0) <= 1.25 + 1e-12
        assert step.level_time(0, 10.0) == math.inf

    def test_at_or_above_the_start(self):
        b = Boundary.nonincreasing(2, lambda s: 2.0 / (1.0 + s))
        assert b.level_time(2, 10.0) == 0.0
        assert b.level_time(5, 10.0) == 0.0

    def test_infinite_when_not_reached_before_horizon(self):
        b = Boundary.nonincreasing(4, lambda s: 4.0 / (1.0 + s))
        assert b.level_time(1, 2.9) == math.inf  # s* = 3
        assert b.level_time(1, 3.1) == pytest.approx(3.0, abs=1e-11)
        assert b.level_time(0, 1e6) == math.inf  # never reached

    def test_huge_horizon_terminates(self):
        # float spacing near 1e6 exceeds 1e-12, so the bisection must stop
        # when no float is left between its ends
        b = Boundary.nonincreasing(2, lambda s: 2.0 if s < 7e5 else 0.0)
        assert b.level_time(1, 1e6) == pytest.approx(7e5, rel=1e-15)

    def test_increasing_boundary_rejected(self):
        with pytest.raises(ValueError):
            Boundary.linear_increasing(2).level_time(1, 10.0)


class TestSurvivalNonincreasing:
    def test_wrong_operation(self):
        with pytest.raises(ValueError):
            survival_nonincreasing(Boundary.linear_increasing(2), 1.0, LAW)

    def test_constant_equals_cdf(self):
        # integer boundary k: survival is the law's CDF at k - 1 (the chain
        # table and the weight engine sum it in different orders)
        for k in (1, 2, 5):
            for t in (0.2, 1.0, 3.0):
                got = survival_nonincreasing(Boundary.constant(k), t, LAW)
                assert abs(got - LAW.cdf(k - 1, t)) <= 1e-14 * LAW.cdf(k - 1, t)

    def test_zero_after_boundary_hits_floor(self):
        b = Boundary.linear_decreasing(2)
        assert survival_nonincreasing(b, 2.0, LAW) == 0.0
        assert survival_nonincreasing(b, 5.0, LAW) == 0.0
        assert survival_nonincreasing(b, 1.99, LAW) > 0.0

    def test_fractional_level_uses_strict_floor(self):
        # at level 1.5 the process survives only while it stays <= 1
        b = Boundary.nonincreasing(2, lambda t: 1.5)
        got = survival_nonincreasing(b, 1.0, LAW)
        assert abs(got - LAW.cdf(1, 1.0)) <= 1e-14 * LAW.cdf(1, 1.0)

    @given(t=st.floats(0.0, 5.0))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_time(self, t):
        b = Boundary.constant(3)
        s1 = survival_nonincreasing(b, t, LAW)
        s2 = survival_nonincreasing(b, t + 0.25, LAW)
        assert s2 <= s1 + 1e-12

    def test_initial_value(self):
        assert survival_nonincreasing(Boundary.constant(4), 0.0, LAW) == 1.0

    @pytest.mark.parametrize("b", [
        Boundary.constant(3), Boundary.linear_decreasing(3),
        Boundary.nonincreasing(3, lambda s: 3.0 / (1.0 + s)),
        Boundary.nonincreasing(2, lambda s: 3.5 - s)])  # starts above k
    def test_grid_equals_scalar_calls(self, b):
        ts = np.r_[0.0, np.linspace(0.05, 4.0, 41), 6.0]
        grid = survival_nonincreasing(b, ts, LAW)
        scalar = np.array([survival_nonincreasing(b, float(t), LAW) for t in ts])
        assert isinstance(survival_nonincreasing(b, 1.3, LAW), float)
        assert grid.tobytes() == scalar.tobytes()
        assert grid[0] == 1.0 and np.all(grid[1:] <= 1.0)
        assert survival_nonincreasing(b, ts[:42].reshape(6, 7), LAW).tobytes() == \
            grid[:42].tobytes()
        assert survival_nonincreasing(b, np.empty(0), LAW).shape == (0,)
        with pytest.raises(ValueError):
            survival_nonincreasing(b, np.array([1.0, -1.0]), LAW)

    def test_boundary_below_zero(self):
        # beta(t) < 0, and a boundary that falls to -inf, give 0
        b = Boundary.nonincreasing(2, lambda s: 2.0 - s if s < 3 else -math.inf)
        assert survival_nonincreasing(b, np.array([2.5, 3.0, 9.0]), LAW).tolist() == \
            [0.0, 0.0, 0.0]
        below = Boundary.nonincreasing(2, lambda s: -1.0)  # crossed at once
        assert survival_nonincreasing(below, np.array([0.0, 1.0]), LAW).tolist() == [0.0, 0.0]

    def test_rising_boundary_rejected(self):
        b = Boundary.nonincreasing(2, lambda s: 2.0 + s)
        with pytest.raises(ValueError, match="rises"):
            survival_nonincreasing(b, np.array([0.5, 1.5]), LAW)


class TestCrossingDensityConstant:
    def test_level_one_is_exponential(self):
        # the k = 1 crossing time is exponential with the thinned rate
        a = LAW.params.rate
        for t in (0.1, 1.0, 2.5):
            assert crossing_density_constant(1, t, LAW) == pytest.approx(
                a * math.exp(-a * t), rel=1e-12)

    def test_stirling_form_agrees(self):
        for k in (1, 2, 3, 5):
            for t in (0.2, 1.0, 4.0):
                assert crossing_density_constant(k, t, LAW) == pytest.approx(
                    crossing_density_constant_stirling(k, t, LAW), rel=1e-10)

    def test_finite_difference_oracle(self):
        h = 1e-5
        for k in (2, 4):
            for t in (0.5, 1.5):
                fd = -(LAW.cdf(k - 1, t + h) - LAW.cdf(k - 1, t - h)) / (2 * h)
                assert abs(crossing_density_constant(k, t, LAW) - fd) < 1e-6

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_integrates_to_one(self, k):
        q, _ = integrate.quad(lambda t: crossing_density_constant(k, t, LAW),
                              0, np.inf, limit=400)
        assert abs(q - 1.0) < 1e-6

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            crossing_density_constant(0, 1.0, LAW)
        with pytest.raises(ValueError):
            crossing_density_constant(2, -1.0, LAW)


class TestMeanCrossingTime:
    def test_level_one(self):
        assert mean_crossing_time_constant(1, LAW) == pytest.approx(
            1.0 / LAW.params.rate, rel=1e-14)

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_quadrature_oracle(self, k):
        # E(T) is the integral of the survival function
        q, _ = integrate.quad(
            lambda t: survival_nonincreasing(Boundary.constant(k), t, LAW),
            0, np.inf, limit=400)
        assert mean_crossing_time_constant(k, LAW) == pytest.approx(q, rel=1e-8)

    def test_density_moment_oracle(self):
        k = 3
        q, _ = integrate.quad(
            lambda t: t * crossing_density_constant(k, t, LAW),
            0, np.inf, limit=400)
        assert mean_crossing_time_constant(k, LAW) == pytest.approx(q, rel=1e-7)

    def test_increasing_in_level(self):
        means = [mean_crossing_time_constant(k, LAW) for k in range(1, 8)]
        assert all(a < b for a, b in zip(means, means[1:]))


class TestHitting:
    def test_probability_range_and_renewal_limit(self):
        # for large k the chance of landing exactly on a state settles at
        # the ratio of the jump rate to the mean state growth per unit time
        for mu in (0.5, 1.0, 2.0):
            probs = [hitting_probability(k, mu) for k in range(1, 16)]
            assert all(0 < p <= 1 for p in probs)
            assert probs[-1] == pytest.approx(-math.expm1(-mu) / mu, rel=1e-4)

    def test_probability_small_mu_limit(self):
        # rare-batch limit: every state is stepped through one at a time
        for k in (1, 2, 3):
            assert hitting_probability(k, 1e-8) == pytest.approx(1.0, abs=1e-6)

    def test_probability_level_one_closed_form(self):
        for mu in (0.5, 1.0, 3.0):
            assert hitting_probability(1, mu) == pytest.approx(
                mu / math.expm1(mu), rel=1e-13)

    def test_cdf_limits(self):
        for k in (1, 2, 4):
            assert hitting_cdf(k, 0.0, LAW) == 0.0
            assert hitting_cdf(k, 1e4, LAW) == pytest.approx(
                hitting_probability(k, LAW.params.mu), abs=1e-10)

    def test_cdf_lambda_invariant_limit(self):
        # the total hitting probability does not depend on lam
        other = IteratedLaw(ModelParams(0.5, 1.0))
        assert hitting_cdf(3, 1e5, LAW) == pytest.approx(
            hitting_cdf(3, 1e5, other), abs=1e-10)

    @pytest.mark.parametrize("fn", [hitting_cdf, hitting_density,
                                    crossing_density_constant])
    @pytest.mark.parametrize("k", [3, 30, 400])
    def test_cdf_grid_matches_scalar_calls(self, k, fn):
        law = IteratedLaw(ModelParams(1.5, 1.0))
        mean = (k + 0.5) / law.params.rate  # about E(T_k)
        ts = np.r_[0.0, np.linspace(0.01 * mean, 4.0 * mean, 60)]
        grid = fn(k, ts, law)
        scalar = np.array([fn(k, float(t), law) for t in ts])
        assert isinstance(fn(k, float(ts[5]), law), float)
        assert grid.shape == ts.shape
        # t = 0: the CDF starts at 0, the densities at their right limits
        at_0 = law.params.lam * float({
            hitting_cdf: 0,
            hitting_density: mo.poisson(k, law.params.mu),  # P{Poisson = k}
            crossing_density_constant: mo.poisson_upper(k, law.params.mu),  # >= k
        }[fn])
        assert grid[0] == scalar[0] == pytest.approx(at_0, rel=1e-14, abs=0.0)
        if fn is not hitting_cdf:
            assert fn(k, 1e-12, law) == pytest.approx(at_0, rel=1e-10, abs=1e-20)
        np.testing.assert_allclose(grid, scalar, rtol=1e-15, atol=0.0)
        assert fn(k, np.empty(0), law).shape == (0,)
        assert fn(k, ts[:60].reshape(12, 5), law).shape == (12, 5)
        with pytest.raises(ValueError):
            fn(k, np.array([1.0, -1.0]), law)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_density_integrates_to_hitting_probability(self, k):
        for mu in (0.5, 1.0, 2.0):
            law = IteratedLaw(ModelParams(1.0, mu))
            q, _ = integrate.quad(lambda t: hitting_density(k, t, law),
                                  0, np.inf, limit=400)
            assert q == pytest.approx(hitting_probability(k, mu), abs=1e-8)

    def test_density_is_cdf_derivative(self):
        h = 1e-5
        for k in (1, 3):
            for t in (0.4, 1.2, 3.0):
                fd = (hitting_cdf(k, t + h, LAW) - hitting_cdf(k, t - h, LAW)) / (2 * h)
                assert abs(hitting_density(k, t, LAW) - fd) < 1e-6

    def test_level_one_density_closed_form(self):
        lam, mu = LAW.params.lam, LAW.params.mu
        t = 0.9
        expect = mu * math.exp(-mu) * lam * math.exp(-LAW.params.rate * t)
        assert hitting_density(1, t, LAW) == pytest.approx(expect, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            hitting_probability(0, 1.0)
        with pytest.raises(ValueError):
            hitting_probability(2, 0.0)
        with pytest.raises(ValueError):
            hitting_density(2, -1.0, LAW)


class TestAvoidingTable:
    def test_row_zero(self):
        tab = avoiding_table(2, 0, LAW)
        assert tab.survival_at_integer(0) == 1.0

    def test_row_one_matches_cdf(self):
        # no crossing by t = 1 just means Z(1) <= k (strictly below k + 1)
        for k in (1, 2, 4):
            tab = avoiding_table(k, 1, LAW)
            assert tab.survival_at_integer(1) == pytest.approx(
                LAW.cdf(k, 1.0), abs=1e-12)

    def test_survival_decreasing_in_n(self):
        tab = avoiding_table(2, 8, LAW)
        s = [tab.survival_at_integer(n) for n in range(9)]
        assert all(a >= b > 0 for a, b in zip(s, s[1:]))

    def test_rows_dominated_by_unconstrained_pmf(self):
        tab = avoiding_table(2, 5, LAW)
        for n in (1, 3, 5):
            free = np.array([LAW.pmf(j, float(n)) for j in range(len(tab.rows[n]))])
            assert np.all(tab.rows[n] <= free + 1e-13)

    def test_out_of_range(self):
        tab = avoiding_table(2, 3, LAW)
        with pytest.raises(ValueError):
            tab.survival_at_integer(4)


class TestSurvivalLinearIncreasing:
    def test_matches_table_at_integers(self):
        tab = avoiding_table(3, 6, LAW)
        grid = survival_linear_increasing(3, np.arange(7.0), LAW)
        for n in range(7):
            assert grid[n] == tab.survival_at_integer(n)
            assert survival_linear_increasing(3, float(n), LAW) == pytest.approx(
                tab.survival_at_integer(n), rel=1e-15)

    def test_continuity_at_integers(self):
        for k in (1, 3):
            for n in (1, 2, 4):
                left = survival_linear_increasing(k, n - 1e-10, LAW)
                at = survival_linear_increasing(k, float(n), LAW)
                assert abs(left - at) < 1e-8

    def test_monotone_nonincreasing(self):
        ts = np.linspace(0.0, 5.0, 101)
        vals = [survival_linear_increasing(2, float(t), LAW) for t in ts]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_dominates_constant_boundary(self):
        # a rising boundary is harder to cross than the constant one
        for t in (0.5, 1.5, 3.0):
            assert survival_linear_increasing(2, t, LAW) >= \
                survival_nonincreasing(Boundary.constant(2), t, LAW)

    def test_small_time_fractional_formula(self):
        # before the first integer the survival is just P{Z(t) <= k}
        for t in (0.25, 0.75):
            assert survival_linear_increasing(2, t, LAW) == pytest.approx(
                LAW.cdf(2, t), abs=1e-12)

    def test_reuses_supplied_table(self):
        # one avoiding table, up to the largest whole time, serves a grid
        ts = np.array([7.3, 0.0, 2.5, 10.0, 0.4, 6.0])
        grid = survival_linear_increasing(2, ts, LAW)
        scalar = np.array([survival_linear_increasing(2, float(t), LAW) for t in ts])
        assert isinstance(survival_linear_increasing(2, 7.3, LAW), float)
        np.testing.assert_allclose(grid, scalar, rtol=1e-15, atol=0.0)
        assert survival_linear_increasing(2, np.empty(0), LAW).shape == (0,)
        with pytest.raises(ValueError):
            survival_linear_increasing(2, np.array([1.0, -0.5]), LAW)


# -- large levels, against 50-digit mpmath ------------------------------------

DPS = 50


class TestLargeLevels:
    def test_crossing_density_where_the_bell_form_cancels(self):
        # the Bell-derivative form gave 2.16e-16 here, about 1480 times too large
        with mpmath.workdps(DPS):
            w = mo.weights(2.0, 1.0, mpmath.mpf("1e-3"), 23)
            want = mo.flux(w, 24, 2.0, 1.0, hit=False)
        assert float(want) == pytest.approx(1.4589204001147e-19, rel=1e-12)
        assert rel(crossing_density_constant(24, 1e-3, LAW), want) < 1e-12

    @pytest.mark.parametrize("k", [30, 100])
    def test_five_quantities_against_mpmath(self, k):
        lam, mu = 1.5, 1.0
        law = IteratedLaw(ModelParams(lam, mu))
        with mpmath.workdps(DPS):
            assert rel(hitting_probability(k, mu), mo.hitting_probability(k, mu)) < 1e-12
            et = mo.mean_crossing_time(k, lam, mu)
            assert rel(mean_crossing_time_constant(k, law), et) < 1e-12
            for scale in ("0.5", "1", "2"):
                t = float(et * mpmath.mpf(scale))
                w = mo.weights(lam, mu, t, k - 1)
                for fn, want in ((crossing_density_constant, mo.flux(w, k, lam, mu, hit=False)),
                                 (hitting_density, mo.flux(w, k, lam, mu, hit=True)),
                                 (hitting_cdf, mo.hitting_cdf(k, mpmath.mpf(t), lam, mu))):
                    assert rel(fn(k, t, law), want) < 1e-12, fn.__name__

    @pytest.mark.parametrize("kind,k,ts", [
        ("constant", 24, (2.0, 10.0, 20.0, 120.0)),  # 1 - 4.8e-6 .. 4.4e-43
        ("linear_decreasing", 24, (5.0, 10.0, 20.0, 23.5)),  # .. 1.3e-13
        ("constant", 400, (200.0, 400.0, 600.0)),  # 0.50 .. 1.3e-87
        ("linear_decreasing", 400, (100.0, 200.0, 300.0))])  # 1 - 2.4e-6 .. 1.4e-81
    def test_survival_nonincreasing_against_mpmath(self, kind, k, ts):
        b = getattr(Boundary, kind)(k)
        got = survival_nonincreasing(b, np.array(ts), LAW)
        with mpmath.workdps(40):
            want = [mo.cdf_below(math.ceil(b.value(t)) - 1, t, 2.0, 1.0) for t in ts]
        for g, w in zip(got.tolist(), want):
            assert rel(g, w) < 1e-13

    def test_constant_survival_far_tail_at_k400(self):
        # values from 2.2e-19 down to 5.3e-236
        ts = [700.0, 900.0, 1100.0, 1300.0, 1600.0, 2000.0]
        law = IteratedLaw(ModelParams(1.0, 1.0))
        got = survival_nonincreasing(Boundary.constant(400), np.array(ts), law)
        with mpmath.workdps(40):
            want = [mo.cdf_below(399, t, 1.0, 1.0) for t in ts]
        assert max(rel(g, w) for g, w in zip(got.tolist(), want)) < 1e-13

    @pytest.mark.parametrize("mu,ts", [
        (0.3, np.arange(150.0, 1341.0, 70.0)),  # 1 - 9.8e-10 down to 1.9e-60
        (1.0, np.arange(50.0, 501.0, 25.0))])  # 1 - 1.0e-5 down to 9.7e-61
    def test_constant_survival_tail_at_k100(self, mu, ts):
        # the grids measure 2.2e-14 and 2.1e-14 off
        law = IteratedLaw(ModelParams(1.0, mu))
        got = survival_nonincreasing(Boundary.constant(100), ts, law)
        with mpmath.workdps(40):
            want = [mo.cdf_below(99, t, 1.0, mu) for t in ts.tolist()]
        assert max(rel(g, w) for g, w in zip(got.tolist(), want)) < 3e-14

    @pytest.mark.parametrize("k", [50, 100])
    def test_densities_at_small_time(self, k):
        # a flux sum over engine weights whose batch sizes were cut at
        # mu + 12 sqrt(mu) + 30 was 5.2e-11 off here at k = 100
        lam, mu, t = 1.0, 0.3, 1e-3
        law = IteratedLaw(ModelParams(lam, mu))
        with mpmath.workdps(60):
            w = mo.weights(lam, mu, t, k - 1)
            cross = mo.flux(w, k, lam, mu, hit=False)
            hit = mo.flux(w, k, lam, mu, hit=True)
        assert rel(crossing_density_constant(k, t, law), cross) < 1e-12
        assert rel(hitting_density(k, t, law), hit) < 1e-12

    @pytest.mark.parametrize("k", [50, 400])
    def test_chain_mixtures_against_mpmath(self, k):
        # the densities mix the chain's coefficients over Poisson(rate t)
        # weights; the reference sums the stored coefficients at 40 digits at
        # x = fl(rate t), the point the kernel sees, so that it measures the
        # mixture alone.  exp(m log x - x - log m!) weights were 1.05e-13 off
        ch = _jump_chain(LAW.params.mu)
        hit_c, cross_c = ch.tables(k)[0][1:k + 1, k], ch.exits(k)
        for t in (0.05 * k, 0.25 * k, k, 2.0 * k):  # 7e-18 down to 5e-158 at k = 400
            x = LAW.params.rate * t
            with mpmath.workdps(40):
                pois = [mo.poisson(m, x) for m in range(k)]
                cross = LAW.params.rate * mpmath.fsum(p * c for p, c in zip(pois, cross_c))
                hit = LAW.params.rate * mpmath.fsum(p * c for p, c in zip(pois, hit_c))
            assert rel(crossing_density_constant(k, t, LAW), cross) < 2e-14
            assert rel(hitting_density(k, t, LAW), hit) < 2e-14

    def test_hitting_probability_k30_against_simulation(self):
        k, params, n = 30, ModelParams(2.0, 1.0), 20_000
        hs = mc.batch_hitting(k, params, 10 * mean_crossing_time_constant(
            k, IteratedLaw(params)), n, mc.make_rng(7))
        freq = float(np.mean(~np.isnan(hs)))
        pik = hitting_probability(k, params.mu)
        assert abs(freq - pik) < 5 * math.sqrt(pik * (1 - pik) / n)


class TestChainTable:
    def test_cached_read_only_and_rebuilt_bit_for_bit(self):
        law = IteratedLaw(ModelParams(1.5, 0.8))
        ts = np.linspace(0.05, 12.0, 40)

        def values():
            return [f(12, ts, law) for f in (crossing_density_constant,
                                             hitting_density, hitting_cdf)] + [
                survival_nonincreasing(b(12), ts, law)
                for b in (Boundary.constant, Boundary.linear_decreasing)] + [
                np.array([hitting_probability(12, 0.8),
                          mean_crossing_time_constant(12, law)])]

        ch = _jump_chain(0.8)
        assert _jump_chain(0.8) is ch
        for a in (*ch.tables(12), ch.exits(12), ch.upto(12)):
            with pytest.raises(ValueError):
                a[1] = 0.5
        with pytest.raises(ValueError):
            ch.tables(12)[0][1:, 12] *= 2.0
        cached = values()
        _jump_chain.cache_clear()
        fresh = values()
        assert _jump_chain(0.8) is not ch
        for a, b in zip(cached, fresh):
            assert a.tobytes() == b.tobytes()
        with pytest.raises(ValueError, match="level must be >= 1"):
            crossing_density_constant(0, 1.0, law)

    def test_exit_rows_and_prefix_sums(self):
        # exits(L + 1)[m] = P{S_m <= L < S_{m+1}} = sum_{j<=L} P{S_m = j}
        # P{step > L - j}: the chain leaves {0..L} at exactly one jump, so
        # each row sums to 1 over m; below[m, L + 1] = P{S_m <= L}
        k, mu = 30, 1.3
        ch = _JumpChain(mu)
        visits, below = ch.tables(k)
        step_sf = [float(mo.poisson_upper(i + 1, mu)) / -math.expm1(-mu)
                   for i in range(k)]  # P{step > i}
        assert visits.shape == (k + 1, k + 1) and below.shape == (k + 1, k + 2)
        for L in range(k):
            row = ch.exits(L + 1)
            direct = [math.fsum(visits[m, j] * step_sf[L - j] for j in range(L + 1))
                      for m in range(L + 1)]
            assert row.shape == (L + 1,) and np.all(row >= 0.0)
            np.testing.assert_allclose(row, direct, rtol=1e-13, atol=0.0)  # step tails
            assert math.fsum(row) == pytest.approx(1.0, rel=1e-14)
        # the running sums round up to 2 ulps above 1 here; the table stops at 1
        assert np.cumsum(visits, axis=1).max() > 1.0
        assert not below[:, 0].any() and np.all(below <= 1.0)
        assert below[:, 1:].tobytes() == np.minimum(np.cumsum(visits, axis=1), 1.0).tobytes()

    @pytest.mark.parametrize("mu", [1e-10, 0.37, 5.0, 50.0, 1e4])
    def test_grown_tables_start_with_a_fresh_record(self, mu):
        # each entry sums its terms in one order whatever the size, and a
        # larger table only adds exact zeros in front of them
        grown = _JumpChain(mu)
        for k in (3, 40, 300):
            grown.tables(k)
        visits, below = grown.tables(300)
        for k in (1, 2, 12, 41, 257):
            fresh = _JumpChain(mu)
            short, short_below = fresh.tables(k)
            assert short.shape == (k + 1, k + 1)
            assert visits[:k + 1, :k + 1].tobytes() == short.tobytes()
            assert below[:k + 1, :k + 2].tobytes() == short_below.tobytes()
            assert grown.exits(k).tobytes() == fresh.exits(k).tobytes()

    def test_hitting_probability_reads_one_record_per_mu(self):
        # pi_k for k = 1..32 from the renewal sequence of mu, against the
        # column sums of the visit table of a record of each level
        _jump_chain.cache_clear()
        probs = [hitting_probability(k, 0.9) for k in range(1, 33)]
        assert _jump_chain.cache_info().currsize == 1
        for k in (1, 5, 16, 17, 32):
            own = min(1.0, float(_JumpChain(0.9).tables(k)[0][:, k].sum()))
            assert probs[k - 1] == pytest.approx(own, rel=1e-14)

    def test_mean_crossing_sweep_reads_one_record_per_mu(self):
        mus = (0.3, 0.7, 1.0, 1.4, 3.0)
        _jump_chain.cache_clear()
        means = {mu: [mean_crossing_time_constant(k, IteratedLaw(ModelParams(1.5, mu)))
                      for k in range(1, 17)] for mu in mus}
        assert _jump_chain.cache_info().currsize == len(mus)
        for mu in mus:
            rate = ModelParams(1.5, mu).rate
            own = [float(_JumpChain(mu).tables(k)[0][:, :k].sum()) / rate for k in range(1, 17)]
            np.testing.assert_allclose(means[mu], own, rtol=1e-14, atol=0.0)
        with pytest.raises(ValueError):
            mean_crossing_time_constant(0, LAW)

    def test_level_sweep_reads_one_record(self):
        # a sweep over k = 1..64 grows one record of mu: at the sizes 1, 2, 4,
        # .., 64, not one table per level
        law = IteratedLaw(ModelParams(1.5, 0.6))
        ts = np.array([0.5, 4.0, 30.0])
        _jump_chain.cache_clear()
        for k in range(1, 65):
            for f in (hitting_density, hitting_cdf, crossing_density_constant):
                f(k, ts, law)
        assert _jump_chain.cache_info().currsize == 1
        assert _jump_chain(0.6).tables(1)[0].shape == (65, 65)


class TestRenewalRecord:
    def test_scalar_call_is_the_array_call(self):
        ks = np.arange(1, 300)
        for mu in (1e-10, 0.37, 5.0, 50.0):
            probs = hitting_probability(ks, mu)
            assert probs.shape == ks.shape
            scalars = [hitting_probability(int(k), mu) for k in ks]
            assert all(type(p) is float for p in scalars)
            assert np.array(scalars).tobytes() == probs.tobytes()
            with pytest.raises(ValueError, match="state must be >= 1"):
                hitting_probability(np.array([3, 0]), mu)

    @pytest.mark.parametrize("mu", [1e-10, 0.37, 5.0, 50.0])
    def test_grown_record_starts_with_a_fresh_record(self, mu):
        grown = _JumpChain(mu)
        for n in (3, 40, 7000):
            grown.upto(n)
        long = grown.upto(7000)
        for n in (1, 2, 30, 41, 500):
            short = _JumpChain(mu).upto(n)
            assert long[:short.size].tobytes() == short.tobytes()

    def test_state_sweep_builds_once(self):
        # the first build covers 64 states: the sweep j = 1..20 used to
        # rebuild pi at 2, 4, .., 32 states
        _jump_chain.cache_clear()
        hitting_probability(1, 0.9)
        pi = _jump_chain(0.9).pi
        for j in range(2, 21):
            hitting_probability(j, 0.9)
        assert _jump_chain(0.9).pi is pi and pi.size == 64

    def test_read_only(self):
        pi = _jump_chain(0.8).upto(40)
        with pytest.raises(ValueError):
            pi[1] = 0.5
        with pytest.raises(ValueError):
            _jump_chain(0.8).upto(40)[2:5] *= 2.0

    def test_sweep_builds_no_chain_table(self):
        _jump_chain.cache_clear()
        for mu in (0.25, 1.0, 4.0):
            law = IteratedLaw(ModelParams(1.5, mu))
            hitting_probability(np.arange(1, 61), mu)
            for k in range(1, 61):
                hitting_probability(k, mu)
                mean_crossing_time_constant(k, law)
                law.mean_sojourn(k)
            assert _jump_chain(mu)._tables[1] is None  # no level table built
        assert _jump_chain.cache_info().currsize == 3

    @pytest.mark.parametrize("mu", [1e-5, 0.5])
    def test_renewal_limit(self, mu):
        # pi_k -> (1 - e^{-mu})/mu, reached at k = 2000 to double precision;
        # the visit table at level 2048 was 1.5e-13 off at mu = 0.5
        limit = -math.expm1(-mu) / mu
        assert abs(hitting_probability(2000, mu) - limit) <= 1e-14 * limit


def test_chain_quantities_at_mu_1e9_within_1_gb():
    # an array over every batch size 0..mu takes 8 GB at mu = 1e9, and the
    # nonzero window of Poisson(mu) is about 77 sqrt(mu) long; every step is
    # then far above the levels asked, so the first jump crosses them all,
    # and the batch samplers, which draw from the same record, overshoot
    # state 2 and cross level 3 at their first jump epoch; their step draws,
    # through a guide table shorter than the inverse-CDF table, are its
    # searchsorted draws, about mu; its last entry, summed in chunks, is
    # within 1e-15 of 1 (one running sum ended 1.8e-13 below it)
    code = """if True:
        import resource, sys
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        import numpy as np
        from poissonsub import *
        from poissonsub import mc
        from poissonsub.cli import main
        law, ts = IteratedLaw(ModelParams(1.0, 1e9)), np.array([0.5, 2.0])
        print(repr([hitting_probability(2, 1e9), mean_crossing_time_constant(3, law),
                    *survival_nonincreasing(Boundary.constant(3), ts, law).tolist(),
                    *crossing_density_constant(3, ts, law).tolist(),
                    *hitting_cdf(3, ts, law).tolist()]))
        hit = mc.batch_hitting(2, law.params, 60.0, 1000, mc.make_rng(0))
        cross = mc.batch_first_crossing(Boundary.constant(3), law.params, 60.0, 1000,
                                        mc.make_rng(1))
        chain, n = mc._jump_chain(1e9), 100_000
        x = mc._ztp(1e9, chain.first, chain.cdf, chain.guide, n, mc.make_rng(2))
        i = np.searchsorted(chain.cdf, mc.make_rng(2).random(n), side="right")
        print(repr([bool(np.isnan(hit).all()),
                    cross.tobytes() == mc.make_rng(1).standard_exponential(1000).tobytes(),
                    chain.guide.size < chain.cdf.size,
                    np.array_equal(x, i + (chain.first - 1)),
                    abs(float(x.mean()) - 1e9) < 6 * 1e9**0.5 / n**0.5,
                    bool(abs(chain.cdf[-1] - 1.0) <= 1e-15)]))
        sys.exit(main(["hitting", "--prob", "--k", "2", "--mu", "1e9"]))
    """
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": str(Path(poissonsub.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=600)
    assert run.returncode == 0, run.stderr[-2000:]
    lines = run.stdout.splitlines()
    e = np.exp(-np.array([0.5, 2.0])).tolist()
    np.testing.assert_allclose(ast.literal_eval(lines[0]), [0.0, 1.0, *e, *e, 0.0, 0.0],
                               rtol=1e-15, atol=0.0)
    assert lines[1] == "[True, True, True, True, True, True]"
    assert lines[2:] == ["k,mu,prob", "2,1000000000,0"]


def test_passage_densities_on_a_long_grid_within_1_gb():
    # one (k x times) block over 1.5e6 times at k = 100 would take 1.2 GB;
    # the blocks of special._in_blocks hold about 4 MB each
    code = """if True:
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        import numpy as np
        from poissonsub import *
        law, ts = IteratedLaw(ModelParams(1.0, 1.0)), np.linspace(0.0, 600.0, 1_500_000)
        for fn in (crossing_density_constant, hitting_density):
            grid = fn(100, ts, law)
            picks = np.arange(0, ts.size, 99_991)
            scalar = [fn(100, t, law) for t in ts[picks].tolist()]
            print(repr([grid.shape, float(np.abs(grid[picks] / scalar - 1).max()),
                        float(grid.max())]))
    """
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": str(Path(poissonsub.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=600)
    assert run.returncode == 0, run.stderr[-2000:]
    for line in run.stdout.splitlines():
        shape, worst, top = ast.literal_eval(line)
        assert shape == (1_500_000,) and worst <= 1e-15 and 0.0 < top < 1.0
