"""Tests for the iterated Poisson process law."""

import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from poissonsub import (
    IteratedLaw,
    JumpSpec,
    ModelParams,
    SeriesControl,
    hitting_probability,
    laplace_exponent,
    mean_crossing_time_constant,
    moments_Z,
)
from poissonsub.verify import bell_series, cdf_closed_form

import mp_oracles as mo
from mp_oracles import rel


@pytest.fixture
def law():
    return IteratedLaw(ModelParams(2.0, 1.0))


class TestPmf:
    def test_empty_state_closed_form(self, law):
        lam, mu = 2.0, 1.0
        for t in (0.3, 1.0, 4.0):
            expect = math.exp(-lam * t * (1 - math.exp(-mu)))
            assert law.pmf(0, t) == pytest.approx(expect, rel=1e-13)

    def test_first_state_closed_form(self, law):
        lam, mu, t = 2.0, 1.0, 1.7
        expect = law.pmf(0, t) * mu * lam * t * math.exp(-mu)
        assert law.pmf(1, t) == pytest.approx(expect, rel=1e-12)

    def test_time_zero_is_degenerate(self, law):
        assert law.pmf(0, 0.0) == 1.0
        assert law.pmf(3, 0.0) == 0.0

    @given(lam=st.sampled_from([0.5, 1.0, 2.0, 4.0]),
           mu=st.sampled_from([0.5, 1.0, 3.0]),
           t=st.floats(0.1, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_normalization(self, lam, mu, t):
        law = IteratedLaw(ModelParams(lam, mu))
        pv = law.pmf_vector(t)
        assert np.all(pv >= 0)
        assert abs(pv.sum() - 1.0) < 1e-10

    def test_recursive_equals_direct(self):
        # the recursion against the Bell-series closed form
        # mu^n/n! e^{-rate t} B_n(lam t e^{-mu})
        law = IteratedLaw(ModelParams(2.0, 1.0))
        t = 1.5
        for n in (1, 2, 5, 12):
            bell = math.exp(-law.params.rate * t) / math.factorial(n) * bell_series(
                n, 2.0 * t * math.exp(-1.0))
            assert rel(law.pmf(n, t), bell) < 1e-10

    def test_semigroup_identity(self, law):
        s, t = 0.6, 2.0
        for n in range(18):
            conv = math.fsum(law.pmf(j, s) * law.pmf(n - j, t - s)
                             for j in range(n + 1))
            assert abs(conv - law.pmf(n, t)) < 1e-10

    def test_moments_sum(self):
        lam, mu, t = 2.0, 3.0, 1.0
        law = IteratedLaw(ModelParams(lam, mu), SeriesControl(tolerance=1e-14))
        pv = law.pmf_vector(t)
        ns = np.arange(len(pv))
        mean = float(ns @ pv)
        var = float((ns**2) @ pv) - mean**2
        assert rel(mean, lam * mu * t) < 1e-6
        assert rel(var, lam * mu * (1 + mu) * t) < 1e-6


class TestLargeLambdaT:
    def test_no_stall_at_default_tolerance(self):
        # a stop rule on the running sum 1 - cum stalled here, because the
        # rounding of cum exceeds the tolerance
        law = IteratedLaw(ModelParams(1.0, 1.0))
        pv = law.pmf_vector(1500.0)
        assert pv.size < 2500
        assert math.fsum(pv) >= 1.0 - 1e-12

    def test_underflowing_empty_state_against_mpmath(self):
        # lam t = 4000: p_0 = e^{-2528} underflows, the weights do not
        lam, mu, t = 2.0, 1.0, 2000.0
        law = IteratedLaw(ModelParams(lam, mu))
        pv = law.pmf_vector(t)
        assert pv[0] == 0.0
        assert law.log_pmf(0, t) == pytest.approx(-lam * t * (1 - math.exp(-mu)),
                                                  rel=1e-14)
        sd = math.sqrt(lam * mu * (1 + mu) * t)
        for n in (int(4000 - 7 * sd), 4000, int(4000 + 7 * sd)):
            with mpmath.workdps(30):
                assert rel(pv[n], mo.weights(lam, mu, t, n, first=n)[0]) < 1e-11


class TestEngine:
    @pytest.mark.parametrize("lam,mu,t,n", [
        (2.0, 1.0, 0.7, 40), (1.0, 1.0, 800.0, 1300), (2.0, 1.0, 2000.0, 4600),
        (1.0, 0.3, 1e-9, 300), (1.0, 4.0, 40.0, 700)])
    def test_prefix_of_a_longer_run_is_bit_for_bit(self, lam, mu, t, n):
        # a state's weight depends only on the states before it, rescales and
        # lifts included, so a shorter run is a prefix of a longer one
        law = IteratedLaw(ModelParams(lam, mu))
        full = law._log_weights(t, n)
        nj = law._severity.size
        for m in sorted({0, 1, nj - 1, nj, n // 2, n - 1} & set(range(n))):
            assert np.array_equal(full[:m + 1], law._log_weights(t, m)), m

    @pytest.mark.parametrize("lt", [100.0, 1000.0])
    @pytest.mark.parametrize("mu", [0.5, 2.0])
    def test_weights_against_explicit_mpmath(self, lt, mu):
        # at the mean and 7 sd either side of it (clipped at state 0)
        lam = 2.0
        law = IteratedLaw(ModelParams(lam, mu))
        mean, sd = lt * mu, math.sqrt(lt * mu * (1 + mu))
        ns = [max(0, round(mean + c * sd)) for c in (-7, 0, 7)]
        got = np.exp(law._log_weights(lt / lam, max(ns)))
        for n in ns:
            with mpmath.workdps(60):
                assert rel(got[n], mo.weights(lam, mu, lt / lam, n, first=n)[0]) < 1e-12, n


class TestSmallTime:
    @pytest.mark.parametrize("n", [60, 100])
    @pytest.mark.parametrize("t", [1e-9, 1e-6, 1e-3])
    def test_weights_past_the_bulk_of_the_batch_law(self, n, t):
        # a batch law cut at mu + 12 sqrt(mu) + 30 = 36 left p_60(1e-9)
        # 0.91% low and p_100(1e-9) 1.3% low
        law = IteratedLaw(ModelParams(1.0, 0.3))
        with mpmath.workdps(60):
            want = mo.weights(1.0, 0.3, t, n, first=n)[0]
            assert rel(law.pmf(n, t), want) < 1e-12
            assert abs(law.log_pmf(n, t) - float(mpmath.log(want))) < 1e-12


    @pytest.mark.parametrize("n,t", [(200, 1e-9), (300, 1e-9), (300, 1e-3), (400, 1e-12)])
    def test_log_weights_below_the_float_range(self, n, t):
        # log p_200(1e-9) = -866: the last 143 weights span more than the
        # float range; a batch law cut at 36 left it 0.041 off
        law = IteratedLaw(ModelParams(1.0, 0.3))
        with mpmath.workdps(60):
            want = mpmath.log(mo.weights(1.0, 0.3, t, n, first=n)[0])
        assert law.log_pmf(n, t) == pytest.approx(float(want), abs=1e-10)


class TestStateArrays:
    @pytest.mark.parametrize("method", ["pmf", "log_pmf", "cdf"])
    @pytest.mark.parametrize("t", [0.0, 0.7, 40.0])
    def test_array_matches_scalar_calls(self, law, method, t):
        fn = getattr(law, method)
        ns = np.array([7, 0, 3, 60, 3, 95])
        grid = fn(ns, t)
        scalar = np.array([fn(n, t) for n in ns.tolist()])
        assert isinstance(fn(3, t), float)
        assert grid.shape == ns.shape
        np.testing.assert_allclose(grid, scalar, rtol=1e-15, atol=0.0)
        assert fn(ns.reshape(2, 3), t).shape == (2, 3)
        assert fn(np.empty(0, dtype=int), t).shape == (0,)
        with pytest.raises(ValueError):
            fn(np.array([2, -1]), t)


class TestCdf:
    def test_single_term(self, law):
        assert law.cdf(0, 1.3) == pytest.approx(law.pmf(0, 1.3), rel=1e-14)

    def test_time_zero(self, law):
        for n in range(4):
            assert law.cdf(n, 0.0) == 1.0

    def test_partial_sum(self, law):
        direct = math.fsum(law.pmf(j, 1.0) for j in range(4))
        assert abs(law.cdf(3, 1.0) - direct) < 1e-12

    @pytest.mark.parametrize("lam,mu,t,n", [
        (2.0, 1.0, 1.0, 30), (50.0, 2.0, 40.0, 6000), (0.3, 0.2, 0.1, 10)])
    def test_prefix_sum_bound(self, lam, mu, t, n):
        # the docstring's bound: within (n + 1) 2^-53 of the exactly rounded sum
        law = IteratedLaw(ModelParams(lam, mu))
        w = law.pmf(np.arange(n + 1), t).tolist()
        # exactly rounded partial sums (what math.fsum gives), in linear time
        exact = np.minimum(1.0, [float(s) for s in itertools.accumulate(map(Fraction, w))])
        assert exact[n // 2] == min(1.0, math.fsum(w[:n // 2 + 1]))
        got = law.cdf(np.arange(n + 1), t)
        assert np.all(np.abs(got - exact) <= np.arange(1, n + 2) * 2.0**-53 * exact)
        assert law.cdf(n, t) == got[-1]

    @given(t=st.floats(0.1, 4.0))
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_state(self, t):
        law = IteratedLaw(ModelParams(2.0, 1.0))
        vals = [law.cdf(n, t) for n in range(15)]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))
        assert vals[-1] <= 1.0

    def test_closed_form_matches(self):
        law = IteratedLaw(ModelParams(1.0, 1.0))
        for n in (0, 1, 4, 8):
            for t in (0.0, 0.5, 1.0, 2.5):
                assert abs(cdf_closed_form(law, n, t) - law.cdf(n, t)) < 1e-12

    def test_closed_form_at_time_zero(self, law):
        # the corrected inner-sum start makes P_n(0) = 1, not 2
        for n in (1, 3, 7):
            assert cdf_closed_form(law, n, 0.0) == 1.0

    def test_closed_form_empty_state(self, law):
        assert cdf_closed_form(law, 0, 1.0) == pytest.approx(
            law.pmf(0, 1.0), rel=1e-13)


class TestConditionalPmf:
    def test_forced_normalization(self, law):
        assert law.conditional_pmf(0, 0.5, 1.0, 0) == 1.0

    def test_sums_to_one(self, law):
        for n in range(13):
            total = math.fsum(law.conditional_pmf(k, 0.3, 1.0, n)
                              for k in range(n + 1))
            assert abs(total - 1.0) < 1e-10

    def test_binomial_limit(self):
        law = IteratedLaw(ModelParams(1.0, 1.0))
        t, n = 1e4, 10
        s = 0.3 * t
        tv = 0.5 * sum(
            abs(law.conditional_pmf(k, s, t, n) - stats.binom.pmf(k, n, 0.3))
            for k in range(n + 1)
        )
        assert tv < 0.01

    def test_domain_errors(self, law):
        with pytest.raises(ValueError):
            law.conditional_pmf(3, 0.5, 1.0, 2)
        with pytest.raises(ValueError):
            law.conditional_pmf(1, 1.0, 1.0, 2)


UNIT = JumpSpec.degenerate_unit()


class TestDispersionAndSojourn:
    def test_dispersion_values(self):
        for t in (0.5, 1.0):
            assert moments_Z(t, ModelParams(3.0, 1.0), UNIT).dispersion_index == 2.0
            assert moments_Z(t, ModelParams(1.0, 1e-9), UNIT).dispersion_index == (
                pytest.approx(1.0))

    def test_dispersion_from_pmf(self):
        law = IteratedLaw(ModelParams(2.0, 3.0), SeriesControl(tolerance=1e-14))
        pv = law.pmf_vector(1.0)
        ns = np.arange(len(pv))
        mean = float(ns @ pv)
        var = float((ns**2) @ pv) - mean**2
        assert abs(var / mean - 4.0) < 1e-6

    def test_sojourn_exponential_state(self):
        law = IteratedLaw(ModelParams(1.0, 1.0))
        assert law.mean_sojourn(0) == pytest.approx(1 / (1 - math.exp(-1)),
                                                    rel=1e-12)
        law2 = IteratedLaw(ModelParams(2.5, 0.7))
        assert law2.mean_sojourn(0) == pytest.approx(
            1 / (2.5 * (1 - math.exp(-0.7))), rel=1e-12)

    def test_sojourn_integral_oracle(self):
        law = IteratedLaw(ModelParams(1.0, 1.0))
        q, _ = integrate.quad(lambda t: law.pmf(2, t), 0, np.inf, limit=200)
        assert abs(law.mean_sojourn(2) - q) < 1e-8

    @pytest.mark.parametrize("lam,n,mu,want", [
        (1.0, 1, 1.0, 0.9206735942077923), (1.5, 7, 0.8, 0.8333333908614562),
        (2.0, 40, 3.0, 0.1666666666666665), (0.5, 300, 0.2, 10.0),
        (1.0, 2000, 0.01, 100.0)])
    def test_sojourn_matches_renewal_values(self, lam, n, mu, want):
        # E{S_n} = pi_n / rate from ``mp_oracles.renewal``, rounded to the nearest float
        got = IteratedLaw(ModelParams(lam, mu)).mean_sojourn(n)
        assert abs(got - want) <= 1e-14 * want

    @pytest.mark.parametrize("mu", [1e-10, 1e-5, 1e-3, 0.05, 1.0, 8.0, 44.2923, 50.0])
    def test_renewal_quantities_against_renewal_sums(self, mu):
        # the sojourn mean, the hitting probability and the mean crossing time
        # read one renewal record; run on pi alone, without the centred run,
        # the recursion drifted 5.6e-13 at mu = 1e-5 and 1.0e-14 at mu = 44.2923
        lam = 1.5
        law = IteratedLaw(ModelParams(lam, mu))
        with mpmath.workdps(40):
            pi, rate = mo.renewal(mu, 5000), lam * -mpmath.expm1(-mpmath.mpf(mu))
            for n in (0, 1, 2, 3, 7, 30, 100, 400, 2000, 3001, 4999, 5000):
                assert rel(law.mean_sojourn(n), pi[n] / rate) < 1e-14, n
                if n:
                    assert rel(hitting_probability(n, mu), pi[n]) < 1e-14, n
                    assert rel(mean_crossing_time_constant(n, law),
                               mpmath.fsum(pi[:n]) / rate) < 1e-14, n

    @pytest.mark.parametrize("mu", [1e-10, 1e-8])
    def test_sojourn_closed_forms_at_small_mu(self, mu):
        # E{S_1} = mu e^{-mu} / (lam (1 - e^{-mu})^2) and
        # E{S_2} = mu^2 e^{-mu} (1 + e^{-mu}) / (2 lam (1 - e^{-mu})^3); the
        # sum over k of Pois(mu k; n) needs about n/mu terms here
        lam = 2.0
        law = IteratedLaw(ModelParams(lam, mu))
        with mpmath.workdps(40):
            m = mpmath.mpf(mu)
            e, a = mpmath.exp(-m), -mpmath.expm1(-m)
            s1 = m * e / (lam * a**2)
            s2 = m**2 * e * (1 + e) / (2 * lam * a**3)
        assert rel(law.mean_sojourn(1), float(s1)) < 1e-14
        assert rel(law.mean_sojourn(2), float(s2)) < 1e-14

    @pytest.mark.parametrize("mu", [1e-3, 0.3, 1.0, 8.0])
    def test_sojourn_times_rate_is_hitting_probability(self, mu):
        # state n is held for an exponential(rate) time once it is visited
        law = IteratedLaw(ModelParams(1.5, mu))
        for n in range(1, 31):
            assert abs(law.mean_sojourn(n) * law.params.rate
                       - hitting_probability(n, mu)) < 1e-14, n

    def test_sojourn_finite_positive(self):
        law = IteratedLaw(ModelParams(1.5, 0.8))
        for n in range(21):
            s = law.mean_sojourn(n)
            assert 0 < s < math.inf


def levy_limit(theta, xi, mu):
    """The exponent of Z at (lam = xi/mu, mu) next to the Poisson(xi)
    exponent xi (1 - e^{-theta}); the two coincide as mu -> 0."""
    psi = laplace_exponent(theta, ModelParams(xi / mu, mu), UNIT)
    return psi, xi * (1.0 - math.exp(-theta))


class TestLevyLimit:
    def test_zero_theta(self):
        assert levy_limit(0.0, 1.0, 0.1) == (0.0, 0.0)

    def test_small_mu_error(self):
        psi, target = levy_limit(1.0, 1.0, 1e-3)
        assert abs(psi - target) < 1e-3

    def test_first_order_rate(self):
        e1 = abs(np.subtract(*levy_limit(0.5, 2.0, 0.02)))
        e2 = abs(np.subtract(*levy_limit(0.5, 2.0, 0.01)))
        assert e2 < 0.6 * e1
