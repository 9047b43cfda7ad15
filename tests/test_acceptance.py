"""Acceptance gate: one test per release criterion, each printing a single
pass/fail line with its measured runtime against the stated budget."""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy import integrate, stats

from poissonsub import (
    Boundary,
    IteratedLaw,
    JumpSpec,
    ModelParams,
    SeriesControl,
    atom_mass_Z,
    cpp_cdf_Z_grid,
    cpp_density_Z_grid,
    crossing_density_constant,
    hitting_cdf,
    hitting_density,
    hitting_probability,
    laplace_exponent,
    mean_crossing_time_constant,
    survival_linear_increasing,
    survival_nonincreasing,
)
from poissonsub import mc
from poissonsub.verify import bell_poly, bell_series, gauss_panel_mass, ks_distance


@contextmanager
def criterion(capsys, name, budget_s):
    """Time the enclosed checks and emit one [PASS]/[FAIL] line."""
    start = time.perf_counter()
    try:
        yield
    except Exception:
        elapsed = time.perf_counter() - start
        with capsys.disabled():
            print(f"[FAIL] {name} ({elapsed:.2f}s, budget {budget_s:g}s)")
        raise
    elapsed = time.perf_counter() - start
    status = "PASS" if elapsed < budget_s else "FAIL"
    with capsys.disabled():
        print(f"[{status}] {name} ({elapsed:.2f}s, budget {budget_s:g}s)")
    assert elapsed < budget_s, f"{name} exceeded its {budget_s}s budget"


MASSES = {
    1.0: [0.4685, 0.7175, 0.8499, 0.9202, 0.9576],
    2.0: [0.7175, 0.9202, 0.9775, 0.9936, 0.9982],
}


def test_continuous_mass_table(capsys):
    with criterion(capsys, "continuous-mass-table", 1.0):
        jumps = JumpSpec.exponential(1.0)
        for lam, expected in MASSES.items():
            params = ModelParams(lam, 1.0)
            for t, target in zip(range(1, 6), expected):
                mass = 1.0 - atom_mass_Z(float(t), params)
                assert abs(mass - target) < 5e-5
                hi = lam * t + 12 * math.sqrt(2 * lam * t) + 20
                quad = gauss_panel_mass(
                    lambda z: cpp_density_Z_grid(z, float(t), params, jumps),
                    hi)
                assert abs(quad - target) < 1e-4


def test_bell_polynomial_cross_validation(capsys):
    with criterion(capsys, "bell-cross-validation", 1.0):
        for x in (0.1, 1.0, 10.0, 50.0):
            # third route: the binomial recurrence, independent of both the
            # Stirling expansion and the weighted series
            rec = [1.0]
            for n in range(20):
                rec.append(x * math.fsum(
                    math.comb(n, j) * rec[j] for j in range(n + 1)))
            for n in range(21):
                direct = bell_poly(n, x).value
                series = bell_series(n, x)
                for other in (series, rec[n]):
                    assert abs(direct - other) / max(direct, other) < 1e-9


def test_iterated_law_identities(capsys):
    with criterion(capsys, "iterated-law-identities", 5.0):
        for lam in (1.0, 2.0, 4.0):
            for mu in (0.5, 1.0, 3.0):
                law = IteratedLaw(ModelParams(lam, mu), SeriesControl(tolerance=1e-13))
                for t in (0.5, 1.0, 2.0):
                    pv = law.pmf_vector(t)
                    assert abs(pv.sum() - 1.0) < 1e-10
                    for n in (1, 3, 7):
                        # Bell-series closed form mu^n/n! e^{-rate t} B_n(lam t e^{-mu})
                        bell = (mu**n / math.factorial(n) * math.exp(-law.params.rate * t)
                                * bell_series(n, lam * t * math.exp(-mu)))
                        assert abs(bell - law.pmf(n, t)) < 1e-10
                    s = 0.4 * t
                    for n in (0, 2, 5):
                        conv = math.fsum(law.pmf(j, s) * law.pmf(n - j, t - s)
                                         for j in range(n + 1))
                        assert abs(conv - law.pmf(n, t)) < 1e-10
                    ns = np.arange(len(pv))
                    mean = float(ns @ pv)
                    var = float((ns**2) @ pv) - mean**2
                    assert abs(mean - lam * mu * t) / (lam * mu * t) < 1e-6
                    ref = lam * mu * (1 + mu) * t
                    assert abs(var - ref) / ref < 1e-6


def test_constant_boundary_crossing(capsys):
    with criterion(capsys, "constant-boundary-crossing", 30.0):
        params = ModelParams(2.0, 1.0)
        law = IteratedLaw(params)
        a = law.params.rate

        ts = mc.batch_first_crossing(Boundary.constant(1), params, 50.0,
                                     100_000, mc.make_rng(42))
        ts = ts[~np.isnan(ts)]
        res = stats.kstest(ts, "expon", args=(0.0, 1.0 / a))
        assert res.pvalue > 0.05

        h = 1e-5
        for k in (2, 3, 4):
            q, _ = integrate.quad(lambda t: crossing_density_constant(k, t, law),
                                  0, np.inf, limit=400)
            assert abs(q - 1.0) < 1e-6
            for t in (0.3, 1.0, 2.5):
                fd = -(law.cdf(k - 1, t + h) - law.cdf(k - 1, t - h)) / (2 * h)
                assert abs(crossing_density_constant(k, t, law) - fd) < 1e-6

        for k in (1, 2, 3, 4):
            q, _ = integrate.quad(
                lambda t: survival_nonincreasing(Boundary.constant(k), t, law),
                0, np.inf, limit=400, epsabs=1e-13, epsrel=1e-13)
            closed = mean_crossing_time_constant(k, law)
            assert abs(closed - q) / q < 1e-8


def test_hitting_quantities(capsys):
    with criterion(capsys, "hitting-quantities", 60.0):
        for mu in (0.5, 1.0, 2.0):
            law = IteratedLaw(ModelParams(1.0, mu))
            for k in (1, 2, 3, 4):
                pi = hitting_probability(k, mu)
                assert abs(hitting_cdf(k, 1e5, law) - pi) < 1e-8
                q, _ = integrate.quad(lambda t: hitting_density(k, t, law),
                                      0, np.inf, limit=400,
                                      epsabs=1e-12, epsrel=1e-12)
                assert abs(q - pi) < 1e-8

        n = 1_000_000
        rng1, rng2 = mc.substreams(42, 2)
        freqs = {}
        for lam, rng in ((1.0, rng1), (2.0, rng2)):
            params = ModelParams(lam, 1.0)
            ts = mc.batch_hitting(2, params, mc.default_horizon(params), n, rng)
            freqs[lam] = float(np.mean(~np.isnan(ts)))
        pi = hitting_probability(2, 1.0)
        se = math.sqrt(pi * (1 - pi) / n)
        assert abs(freqs[1.0] - pi) < 3 * se
        assert abs(freqs[2.0] - pi) < 3 * se
        # two-proportion comparison: the hit chance must not depend on lam
        pooled = 0.5 * (freqs[1.0] + freqs[2.0])
        se2 = math.sqrt(2 * pooled * (1 - pooled) / n)
        assert abs(freqs[1.0] - freqs[2.0]) < 3 * se2


def test_linear_increasing_boundary(capsys):
    with criterion(capsys, "linear-increasing-boundary", 60.0):
        from poissonsub import avoiding_table

        law = IteratedLaw(ModelParams(2.0, 1.0))
        for k in (1, 2, 3, 4):
            tab = avoiding_table(k, 5, law)
            for n in range(6):
                free = np.array([law.pmf(j, float(n))
                                 for j in range(len(tab.rows[n]))])
                assert np.all(tab.rows[n] <= free + 1e-13)
                assert tab.survival_at_integer(n) == float(tab.rows[n].sum())
                right = survival_linear_increasing(k, n + 1e-13, law)
                assert abs(right - tab.survival_at_integer(n)) < 1e-12

        n_paths = 100_000
        streams = iter(mc.substreams(7, 12))
        for k in (1, 2, 3, 4):
            for t in (1.0, 2.5, 4.0):
                rng = next(streams)
                ts = mc.batch_first_crossing(
                    Boundary.linear_increasing(k), ModelParams(2.0, 1.0), t,
                    n_paths, rng)
                freq = float(np.mean(np.isnan(ts)))
                p = survival_linear_increasing(k, t, law)
                se = math.sqrt(p * (1 - p) / n_paths)
                assert abs(freq - p) < 3 * se


def test_continuous_jump_distributional_equivalence(capsys):
    with criterion(capsys, "continuous-jump-distribution", 120.0):
        n = 1_000_000
        params = ModelParams(1.0, 1.0)
        t = 1.0
        atom = atom_mass_Z(t, params)
        specs = (JumpSpec.exponential(1.0), JumpSpec.normal(0.5, 1.0))
        for jumps, rng in zip(specs, mc.substreams(42, 2)):
            zs = mc.sample_Z(params, jumps, t, n, rng)
            d = ks_distance(zs, lambda u: cpp_cdf_Z_grid(u, t, params, jumps),
                            atom_at_zero=atom)
            assert d < 1.63 / math.sqrt(n)
            freq0 = float(np.mean(zs == 0.0))
            se = math.sqrt(atom * (1 - atom) / n)
            assert abs(freq0 - atom) < 3 * se


def test_limit_properties(capsys):
    with criterion(capsys, "limit-properties", 5.0):
        for theta in (0.5, 1.0):
            # the exponent at (lam = 1/mu, mu) against the Poisson(1) exponent
            errs = [abs(laplace_exponent(theta, ModelParams(1.0 / m, m),
                                         JumpSpec.degenerate_unit())
                        - (1.0 - math.exp(-theta)))
                    for m in (1e-1, 1e-2, 1e-3)]
            # first-order convergence: a ten-fold smaller mu must shrink the
            # error by well over the factor two that halving would give
            assert errs[1] <= errs[0] / 5
            assert errs[2] <= errs[1] / 5

        law = IteratedLaw(ModelParams(1.0, 1.0))
        t, n_cond = 1e4, 10
        tv = 0.5 * math.fsum(
            abs(law.conditional_pmf(k, 0.3 * t, t, n_cond)
                - stats.binom.pmf(k, n_cond, 0.3))
            for k in range(n_cond + 1))
        assert tv < 0.01
