"""Tests of the benchmark's oracles themselves, apart from poissonsub, and
of the closed forms that set the workloads' grids.

    python3 -m pytest benchmark/test_oracles.py -q
"""

import math
import os
import sys

import numpy as np
import pytest
from scipy import integrate
from scipy import special as sc

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracles as O  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("lam,mu,t", [(2.0, 1.0, 1.0), (0.7, 0.5, 3.0), (3.0, 2.0, 100.0),
                                      (2.0, 2.0, 500.0)])
def test_panjer_matches_mpmath(lam, mu, t):
    w = O.panjer_weights(lam, mu, t)
    mode = int(np.argmax(w))
    sd = math.sqrt(lam * mu * (1 + mu) * t)
    for n in {0, 1, mode, mode + int(3 * sd), max(0, mode - int(3 * sd))}:
        ref = O.mp_weight(lam, mu, t, n)
        if ref < 1e-300:
            assert w[n] < 1e-290
            continue
        assert abs(w[n] - ref) <= 1e-12 * ref, (n, w[n], ref)


@pytest.mark.parametrize("lam,mu,t", [(1.0, 0.5, 2.0), (2.5, 1.5, 40.0), (4.0, 2.0, 250.0)])
def test_panjer_mass_and_moments(lam, mu, t):
    w = O.panjer_weights(lam, mu, t)
    n = np.arange(w.size)
    mean = lam * mu * t
    var = lam * mu * (1 + mu) * t
    assert math.fsum(w) == pytest.approx(1.0, abs=1e-13)
    assert math.fsum(n * w) == pytest.approx(mean, rel=1e-12)
    assert math.fsum((n - mean) ** 2 * w) == pytest.approx(var, rel=1e-10)


def test_cumulants_match_weights_for_unit_jumps():
    lam, mu, t = 1.3, 0.8, 2.0
    w = O.panjer_weights(lam, mu, t)
    n = np.arange(w.size, dtype=float)
    m = [math.fsum(n**r * w) for r in range(1, 5)]
    c2 = m[1] - m[0] ** 2
    c3 = m[2] - 3 * m[1] * m[0] + 2 * m[0] ** 3
    c4 = m[3] - 4 * m[2] * m[0] - 3 * m[1] ** 2 + 12 * m[1] * m[0] ** 2 - 6 * m[0] ** 4
    k = O.z_cumulants(lam, mu, t, "degenerate_unit")
    assert k == pytest.approx([m[0], c2, c3, c4], rel=1e-9)


def test_exp_mixture_forms_agree():
    lam, mu, t, zeta = 1.5, 1.2, 3.0, 0.8
    w = O.panjer_weights(lam, mu, t)
    z = np.linspace(-1.0, 40.0, 301)
    ns = np.arange(1, w.size)
    direct = np.where(z >= 0, w[0], 0.0) + np.array(
        [math.fsum(w[1:] * sc.gammainc(ns, zeta * max(zi, 0.0))) if zi >= 0 else 0.0
         for zi in z])
    assert np.allclose(O.exp_cdf(z, w, zeta), direct, rtol=1e-12, atol=1e-14)
    mass = integrate.quad(lambda x: O.exp_density(np.array([x]), w, zeta)[0], 0, 200,
                          limit=200)[0]
    assert mass == pytest.approx(1.0 - O.atom(lam, mu, t), abs=1e-9)


def test_normal_density_is_cdf_derivative():
    lam, mu, t, eta, sigma = 2.0, 0.9, 1.5, 0.6, 1.1
    w = O.panjer_weights(lam, mu, t)
    z = np.linspace(-5.0, 15.0, 41)
    h = 1e-5
    zz = z[np.abs(z) > 10 * h]  # the atom sits at 0
    fd = (O.normal_cdf(zz + h, w, eta, sigma) - O.normal_cdf(zz - h, w, eta, sigma)) / (2 * h)
    assert np.allclose(O.normal_density(zz, w, eta, sigma), fd, rtol=1e-6, atol=1e-9)


@pytest.mark.parametrize("k,mu", [(1, 1.0), (5, 0.7), (12, 1.8)])
def test_crossing_flux_is_minus_survival_derivative(k, mu):
    lam = 1.4
    for t in (0.3, 2.0, 7.0):
        h = 1e-5 * t
        fd = -(O.survival_constant(k, t + h, lam, mu)
               - O.survival_constant(k, t - h, lam, mu)) / (2 * h)
        assert O.crossing_flux(k, t, lam, mu) == pytest.approx(fd, rel=1e-6, abs=1e-12)


@pytest.mark.parametrize("k,mu", [(1, 1.0), (4, 0.6), (9, 1.5)])
def test_hitting_forms_agree(k, mu):
    lam = 1.2
    pi = O.hitting_probability(k, mu)
    total = integrate.quad(lambda s: O.hitting_flux(k, s, lam, mu), 0, np.inf, limit=400)[0]
    assert total == pytest.approx(pi, rel=1e-8)
    for t in (0.5, 3.0, 10.0):
        part = integrate.quad(lambda s: O.hitting_flux(k, s, lam, mu), 0, t, limit=200)[0]
        assert O.hitting_cdf(k, t, lam, mu) == pytest.approx(part, rel=1e-8, abs=1e-14)


def test_hitting_probability_renewal_limit():
    # renewal theorem: pi_k -> 1 / E[effective jump] = (1 - e^{-mu}) / mu
    mu = 1.3
    assert O.hitting_probability(80, mu) == pytest.approx(-math.expm1(-mu) / mu, rel=1e-9)
    assert O.hitting_probability(1, mu) == pytest.approx(
        mu * math.exp(-mu) / -math.expm1(-mu), rel=1e-14)


@pytest.mark.parametrize("k,mu", [(1, 1.0), (6, 0.8), (15, 1.6)])
def test_mean_crossing_is_survival_integral(k, mu):
    lam = 0.9
    integral = integrate.quad(lambda s: O.survival_constant(k, s, lam, mu), 0, np.inf,
                              limit=400)[0]
    assert O.mean_crossing_time(k, lam, mu) == pytest.approx(integral, rel=1e-8)


def test_increasing_boundary_against_simulation():
    """Simulated paths of Z with the boundary k + s checked at every jump."""
    k, lam, mu, n_paths = 3, 1.5, 1.0, 40_000
    rng = np.random.default_rng(7)
    ts = (0.5, 1.0, 2.5, 4.0)
    crossed_at = np.full(n_paths, np.inf)
    for p in range(n_paths):
        s, z = 0.0, 0
        while s < ts[-1]:
            s += rng.exponential(1.0 / lam)
            z += rng.poisson(mu)
            if s < ts[-1] and z >= k + s:
                crossed_at[p] = s
                break
    rows = O.avoiding_rows(k, 4, lam, mu)
    for t in ts:
        want = O.survival_increasing(k, t, lam, mu, rows)
        emp = float(np.mean(crossed_at > t))
        se = math.sqrt(want * (1 - want) / n_paths)
        assert abs(emp - want) <= 5 * se, (t, emp, want)
        assert want >= O.survival_constant(k, t, lam, mu)


def test_decreasing_boundary_reaches_zero():
    assert O.survival_decreasing(3, 3.0, 1.0, 1.0) == 0.0
    assert O.survival_decreasing(3, 0.5, 1.0, 1.0) == pytest.approx(
        O.survival_constant(3, 0.5, 1.0, 1.0))


@pytest.mark.parametrize("lt,mu", [(2.5, 0.7), (8.5, 1.4), (100.0, 2.0), (800.0, 0.5)])
def test_count_range_holds_the_weights(lt, mu):
    w = O.panjer_weights(1.0, mu, lt)
    ns = np.nonzero(w > 1e-18)[0]
    lo, hi = workloads._count_range(1.0, mu, lt)
    assert lo <= max(1, ns.min()) and ns.max() <= hi


@pytest.mark.parametrize("mu", [0.7, 1.0, 1.4])
def test_time_scale_is_near_mean_crossing_time(mu):
    for k in (2, 6, 12, 20):
        assert workloads._time_scale(k, 1.5, mu) == pytest.approx(
            O.mean_crossing_time(k, 1.5, mu), rel=5e-3)
