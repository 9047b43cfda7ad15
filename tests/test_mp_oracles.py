"""The ``mp_oracles`` references against closed forms and against each other."""

import mpmath
import pytest

import mp_oracles as mo

DPS = 30


def close(a, b, digits=DPS - 5):
    return abs(a - b) <= mpmath.mpf(10) ** -digits * abs(b)


@pytest.mark.parametrize("x", [1e-9, 3.7, 1e4])
def test_walk_out_sums_a_poisson_law_to_one(x):
    with mpmath.workdps(DPS):
        assert close(mo.walk_out(lambda m: [mo.poisson(m, x)], x)[0], 1)


@pytest.mark.parametrize("lam,mu,t,n", [(2.0, 1.0, 1.5, 80), (1.0, 0.3, 40.0, 120)])
def test_weights_sum_to_one_with_mean_lam_mu_t(lam, mu, t, n):
    with mpmath.workdps(DPS):
        w = mo.weights(lam, mu, t, n)
        assert close(mpmath.fsum(w), 1)
        assert close(mpmath.fsum(j * p for j, p in enumerate(w)), mpmath.mpf(lam) * mu * t)


@pytest.mark.parametrize("lam,mu,t", [(2.0, 1.0, 0.7), (1.0, 0.3, 1e-9), (2.0, 0.5, 500.0)])
def test_empty_state_closed_form(lam, mu, t):
    with mpmath.workdps(DPS):
        want = mpmath.exp(-lam * -mpmath.expm1(-mpmath.mpf(mu)) * t)
        assert close(mo.weights(lam, mu, t, 0)[0], want)
        assert close(mo.weights(lam, mu, t, 3)[0], want)


@pytest.mark.parametrize("lam,mu,t,levels", [(2.0, 1.0, 3.0, (0, 4, 17)),
                                             (1.0, 0.3, 1e-3, (0, 1, 9))])
def test_cdf_below_is_a_prefix_sum_of_weights(lam, mu, t, levels):
    with mpmath.workdps(DPS):
        w = mo.weights(lam, mu, t, max(levels))
        for level in levels:
            assert close(mo.cdf_below(level, t, lam, mu), mpmath.fsum(w[:level + 1]))


def test_late_peak_against_a_brute_sum():
    # at lam t = 1e-9 the terms of p_300 peak near m = 11; every m = 1..600
    lam, mu, t, n = 1.0, 0.3, 1e-9, 300
    with mpmath.workdps(60):
        x = mpmath.mpf(lam) * t
        brute = mpmath.fsum(mo.poisson(m, x) * mo.poisson(n, m * mpmath.mpf(mu))
                            for m in range(1, 601))
        assert close(mo.weights(lam, mu, t, n, first=n)[0], brute, 55)


@pytest.mark.parametrize("mu", [0.05, 1.0, 5.0])
def test_renewal_sequence_is_the_stirling_form(mu):
    with mpmath.workdps(40):
        pi = mo.renewal(mu, 30)
        for k in range(1, 31):
            assert close(pi[k], mo.hitting_probability(k, mu), 35), k


def test_poisson_edges():
    assert mo.poisson(0, 0.0) == 1 and mo.poisson(3, 0.0) == 0
    assert mo.poisson_upper(0, 2.0) == 1 and mo.poisson_upper(-1, 2.0) == 1
    assert mo.rel(3.0, mpmath.mpf(4)) == 0.25


@pytest.mark.parametrize("x", [0.3, 7.0, 40.0])
def test_mixture_density_is_the_derivative_of_the_cdf(x):
    # d/dz of the CDF at x = zeta z: zeta d/dx sum_n w_n P{Poisson(x) >= n}
    w, zeta = [0.1, 0.2, 0.05, 0.3, 0.25, 0.1], 1.7
    with mpmath.workdps(DPS):
        slope = mpmath.diff(lambda y: mo.mixture_cdf(w, y), x)
        assert close(mo.mixture_density(w, x, zeta), zeta * slope)
        assert close(mo.mixture_density(w[:2], x, zeta), mpmath.mpf(zeta) * w[1] * mpmath.exp(-x))
