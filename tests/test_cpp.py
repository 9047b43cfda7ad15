"""Tests for the subordinated compound Poisson law and its specializations."""

import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sc

from poissonsub import (
    IteratedLaw,
    JumpSpec,
    ModelParams,
    atom_mass_Z,
    cpp_cdf_Y,
    cpp_cdf_Z_grid,
    cpp_density_Z_grid,
    laplace_exponent,
    moments_Z,
)
from poissonsub import cpp, mc
from poissonsub.cpp import _poisson_weights
from poissonsub.verify import (
    _conv_cdf_fsum,
    _exp_jump_cdf,
    _exp_jump_density_grid,
    conv_cdf,
    conv_pdf,
    gauss_panel_mass,
)

import mp_oracles as mo

PARAMS = ModelParams(1.0, 1.0)
EXP = JumpSpec.exponential(1.0)
NORM = JumpSpec.normal(0.5, 1.0)
UNIT = JumpSpec.degenerate_unit()


class TestJumpSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            JumpSpec.exponential(0.0)
        with pytest.raises(ValueError):
            JumpSpec.normal(0.0, -1.0)
        with pytest.raises(ValueError):
            JumpSpec("weibull")
        for bad in ((math.inf,), (math.nan,)):
            with pytest.raises(ValueError, match="finite"):
                JumpSpec.exponential(*bad)
        for bad in ((math.nan, 1.0), (math.inf, 1.0), (0.0, math.inf), (0.0, math.nan)):
            with pytest.raises(ValueError, match="finite"):
                JumpSpec.normal(*bad)

    def test_moments(self):
        assert JumpSpec.degenerate_unit().xi == 1.0
        assert JumpSpec.exponential(2.0).xi == 0.5
        assert JumpSpec.exponential(2.0).sigma2 == 0.25
        assert NORM.xi == 0.5 and NORM.sigma2 == 1.0

    def test_mgf_domain(self):
        with pytest.raises(ValueError):
            JumpSpec.exponential(1.0).mgf(1.0)  # boundary of convergence
        assert JumpSpec.exponential(1.0).mgf(0.5) == pytest.approx(2.0)


class TestConvOracles:
    """The closed-form n-fold convolutions of verify, over any broadcast
    shape of orders and points."""

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_exponential_conv_pdf_quiet_across_zero_and_inf(self, n):
        # off the support the (n - 1) log z term must not become 0 * -inf,
        # nor 0 * inf or inf - inf at z = +inf
        zs = np.linspace(-1.0, 2.0, 7)  # holds z = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pdf = conv_pdf(JumpSpec.exponential(1.5), n, zs)
            at_inf = conv_pdf(JumpSpec.exponential(1.5), n, math.inf)
            dens = cpp_density_Z_grid(zs[zs != 0.0], 1.0, PARAMS, EXP)
        assert np.all(pdf[zs < 0] == 0.0) and at_inf == 0.0
        assert pdf[zs == 0.0][0] == (1.5 if n == 1 else 0.0)
        assert pdf[-1] == pytest.approx(
            1.5**n * 2.0 ** (n - 1) * math.exp(-3.0) / math.factorial(n - 1), rel=1e-14)
        assert np.all(dens[:2] == 0.0) and np.all(dens[2:] > 0.0)

    def test_normal_quiet_far_from_the_mean(self):
        # the square of (z - n eta) / (sigma sqrt n) used to overflow with a
        # RuntimeWarning; its inf gives exp(-inf) = 0, as does the quotient's
        # inf, and a normal CDF cell at -inf is ndtr(-inf) = 0
        normal, narrow = JumpSpec.normal(0.5, 1.0), JumpSpec.normal(0.5, 1e-10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for jumps, z in ((normal, 1e200), (normal, -1e200), (narrow, 1e300)):
                assert conv_pdf(jumps, 3, z) == 0.0
                assert cpp_density_Z_grid(z, 1.0, PARAMS, jumps) == 0.0
                dens = cpp_density_Z_grid(np.array([z, 1.0]), 1.0, PARAMS, jumps)
                assert dens[0] == 0.0 and dens[1] > 0.0
            assert cpp_cdf_Z_grid(-1e300, 1.0, PARAMS, narrow) == 0.0
            assert np.all(conv_cdf(narrow, np.arange(1, 5)[:, None], [-1e300])[:, 0] == 0.0)

    def test_exponential_conv_quiet_above_the_overflow(self):
        # zeta z overflows above 1.8e308 / zeta; the oracles clip z at
        # 1e300 / zeta, where every cell is already 0 or 1
        jumps = JumpSpec.exponential(1.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for z in (1.5e308, math.inf):
                assert conv_pdf(jumps, 3, z) == 0.0 and conv_cdf(jumps, 3, z) == 1.0
                assert np.all(conv_pdf(jumps, np.arange(1, 5)[:, None], [z, 1.0])[:, 0] == 0.0)
                assert np.all(conv_cdf(jumps, np.arange(1, 5)[:, None], [z, 1.0])[:, 0] == 1.0)

    @pytest.mark.parametrize("jumps", [
        JumpSpec.degenerate_unit(), JumpSpec.exponential(1.5),
        JumpSpec.normal(0.5, 1.2), JumpSpec.normal(-1.0, 0.3)])
    def test_block_of_orders_equals_scalar_calls(self, jumps):
        # one (N x Z) block holds, bit for bit, the rows of the per-n calls
        ns = np.arange(1, 41)[:, None]
        zs = np.concatenate([[-3.0, -1e-300, -0.0, 0.0, 1e-300],
                             np.linspace(0.25, 60.0, 30)])
        kernels = [conv_cdf] + ([conv_pdf] if jumps.is_continuous else [])
        for conv in kernels:
            block = conv(jumps, ns, zs)
            assert block.shape == (40, zs.size)
            for i, n in enumerate(ns[:, 0]):
                row = [conv(jumps, int(n), z) for z in zs]
                assert all(type(v) is float for v in row)
                assert np.array_equal(block[i], row)
                assert np.array_equal(block[i], conv(jumps, int(n), zs))
        if jumps.kind == "exponential":
            pdf = conv_pdf(jumps, ns, zs)
            # z = -0.0 and 0.0 both sit on the atom of the n = 1 density
            assert np.all(pdf[:, :2] == 0.0)
            assert np.all(conv_cdf(jumps, ns, zs)[:, :4] == 0.0)
            assert np.all(pdf[0, 2:4] == 1.5) and np.all(pdf[1:, 2:4] == 0.0)

    def test_orders_below_one_rejected(self):
        for conv in (conv_cdf, conv_pdf):
            with pytest.raises(ValueError):
                conv(EXP, 0, 1.0)
            with pytest.raises(ValueError):
                conv(EXP, np.arange(0, 3)[:, None], np.ones(2))


class TestNormalCdfSaturation:
    """The normal-jump CDF kernel of cpp runs ndtr only below its
    saturation and gives the bytes of the full block ``verify.conv_cdf``."""

    def test_ndtr_is_one_from_the_saturation_on(self):
        # a scipy whose ndtr saturates later fails here, not in the bytes
        u = np.concatenate([np.linspace(cpp._NDTR_SAT, 40.0, 400_001),
                            np.geomspace(40.0, 1e6, 10_001), [1e300, math.inf]])
        assert cpp._NDTR_SAT <= min(8.5, cpp._NDTR_ONE)
        assert np.all(sc.ndtr(u) == 1.0)

    @pytest.mark.parametrize("eta", [-0.8, 0.0, 0.8])
    @pytest.mark.parametrize("sigma", [0.05, 1.0, 20.0])
    def test_block_is_the_full_block_bit_for_bit(self, eta, sigma):
        # at the shapes a mixture passes: (N, 1) orders from 1, flat points
        rng = np.random.default_rng(7)
        jumps = JumpSpec.normal(eta, sigma)
        hi = 600 * abs(eta) + 10 * sigma * math.sqrt(600) + 5
        grid = np.sort(np.concatenate([np.linspace(-hi, hi, 41),
                                       np.linspace(-3.0, 12.0, 31)]))
        odd = np.concatenate([grid, [math.nan, math.inf, -math.inf, 0.0, -0.0]])
        zs = [grid, grid[::-1], rng.permutation(odd), np.array([2.0]),
              np.array([math.nan]), np.array([])]
        for n in [1, 2, 31, 32, 33, 100, 257, 600]:
            ns = np.arange(1, n + 1)[:, None]
            for z in zs:
                got = cpp._normal_cdf(ns, z, jumps)
                want = conv_cdf(jumps, ns, z)
                assert got.tobytes() == want.tobytes(), (n, z.size)
                assert got.shape == want.shape == (n, z.size)

    def test_threshold_below_rounding_skips_nothing(self):
        # at sigma 1e-15 the threshold n eta + 8.5 sigma sqrt(n) is a few
        # ulps above n eta, and the argument at it, rounded, can fall below
        # the saturation of ndtr; such rows must evaluate every point
        jumps = JumpSpec.normal(0.8, 1e-15)
        ns = np.arange(1, 601)[:, None]
        z = np.sort(np.concatenate([0.8 * np.arange(1, 601) + d
                                    for d in (0.0, 1e-13, 2.3e-13, 1e-12)]))
        got = cpp._normal_cdf(ns, z, jumps)
        assert got.tobytes() == conv_cdf(jumps, ns, z).tobytes()
        assert np.any((got > 0.0) & (got < 1.0))


class TestCdfY:
    def test_negative_support_exponential(self):
        assert cpp_cdf_Y(-0.5, 1.0, PARAMS, EXP) == 0.0

    def test_atom_at_zero(self):
        for t in (0.5, 1.0, 2.0):
            assert cpp_cdf_Y(0.0, t, PARAMS, EXP) == pytest.approx(
                math.exp(-t), rel=1e-12)
            assert cpp_cdf_Y(0.0, t, PARAMS, NORM) > math.exp(-t)

    def test_monte_carlo_oracle(self):
        # Y(t) sampled directly as a compound Poisson sum
        rng = mc.make_rng(11)
        n = 200_000
        counts = rng.poisson(1.0, n)
        ys = rng.standard_gamma(counts.astype(float))
        p_hat = float(np.mean(ys <= 3.0))
        se = math.sqrt(p_hat * (1 - p_hat) / n)
        assert abs(cpp_cdf_Y(3.0, 1.0, PARAMS, EXP) - p_hat) < 3 * se

    @pytest.mark.parametrize("t", [0.0, 1.0, 40.0, 300.0])
    def test_grid_equals_pointwise_calls(self, t):
        # unit jumps read prefix sums, bit for bit; a continuous mixture is one
        # BLAS matrix-vector product per block, which rounds a point's sum
        # differently at another block width: up to 4 ulps apart here
        ys = np.array([-1.0, 0.0, 0.5, 1.0, 2.5, 7.0, 60.0, 200.0, 450.0, math.nan])
        for jumps in (EXP, NORM, JumpSpec.degenerate_unit()):
            grid = cpp_cdf_Y(ys, t, PARAMS, jumps)
            points = [cpp_cdf_Y(y, t, PARAMS, jumps) for y in ys.tolist()]
            assert all(type(p) is float for p in points)
            if jumps.is_continuous and t > 0:
                np.testing.assert_allclose(grid, points, rtol=2e-15, atol=0.0)
            else:
                np.testing.assert_array_equal(grid, points)

    @pytest.mark.parametrize("jumps", [UNIT, EXP, NORM])
    def test_time_zero_is_the_one_mixture(self, jumps):
        # the Poisson(0) weights are [1, 0, ..], so the mixture is the step
        # [y >= 0] there, as cpp_cdf_Z_grid's is
        y = np.array([-math.inf, -1e300, -0.0, 0.0, 5e-324, 1e301, math.inf, math.nan])
        for grid in (y, y.reshape(2, 4), y[:0]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = cpp_cdf_Y(grid, 0.0, PARAMS, jumps)
            want = np.where(np.isnan(grid), grid, grid >= 0)
            assert got.shape == grid.shape and got.tobytes() == want.tobytes()
        for point, want in zip(y.tolist(), np.where(np.isnan(y), y, y >= 0).tolist()):
            one = cpp_cdf_Y(point, 0.0, PARAMS, jumps)
            assert type(one) is float and np.array(one).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("t", [1e300, 1.7e308])
    def test_mu_t_past_the_float_range(self, t):
        # the count range of the weights used to overflow in an OverflowError
        with pytest.raises(ValueError, match="mu t"):
            cpp_cdf_Y(3.0, t, ModelParams(1.0, 2.0), EXP)


class TestCdfZ:
    def test_time_zero(self):
        assert cpp_cdf_Z_grid(0.5, 0.0, PARAMS, EXP) == 1.0
        assert cpp_cdf_Z_grid(-0.5, 0.0, PARAMS, NORM) == 0.0

    def test_atom_jump_size(self):
        t = 1.0
        below, at = cpp_cdf_Z_grid([-1e-12, 0.0], t, PARAMS, EXP)
        assert below == pytest.approx(0.0, abs=1e-12)
        assert at - below == pytest.approx(atom_mass_Z(t, PARAMS), abs=1e-10)

    def test_atom_at_small_mu(self):
        # rate = lam (1 - e^{-mu}) cancels if 1 - e^{-mu} is taken as written
        params, t = ModelParams(1e10, 1e-10), 1.0
        atom = atom_mass_Z(t, params)
        below, at = cpp_cdf_Z_grid([-1.0, 0.0], t, params, EXP)
        assert atom == pytest.approx(IteratedLaw(params).pmf(0, t), rel=1e-15, abs=0.0)
        assert atom == pytest.approx(at - below, rel=1e-15, abs=0.0)

    def test_degenerate_matches_iterated(self):
        law = IteratedLaw(PARAMS)
        unit = JumpSpec.degenerate_unit()
        vals = cpp_cdf_Z_grid(np.arange(11) + 0.5, 1.0, PARAMS, unit)
        for n in range(11):
            assert abs(vals[n] - law.cdf(n, 1.0)) < 1e-12

    @given(t=st.floats(0.1, 3.0))
    @settings(max_examples=20, deadline=None)
    def test_cdf_axioms(self, t):
        zs = np.linspace(-4.0, 12.0, 60)
        for jumps in (EXP, NORM):
            vals = cpp_cdf_Z_grid(zs, t, PARAMS, jumps)
            assert np.all(np.diff(vals) >= -1e-12)
            assert vals[0] < 0.05 and vals[-1] > 0.95
            assert np.all((vals >= 0) & (vals <= 1))

    def test_grid_matches_scalar(self):
        # against a compensated sum over per-n scalar kernel calls
        zs = np.array([-1.0, 0.0, 0.7, 3.2])
        w = IteratedLaw(PARAMS).pmf_vector(1.2)
        for jumps in (EXP, NORM, JumpSpec.degenerate_unit()):
            grid = cpp_cdf_Z_grid(zs, 1.2, PARAMS, jumps)
            scalar = [(w[0] if z >= 0 else 0.0) + math.fsum(
                w[n] * conv_cdf(jumps, n, z) for n in range(1, len(w))) for z in zs]
            np.testing.assert_allclose(grid, scalar, atol=1e-14)
            assert cpp_cdf_Z_grid(zs[2], 1.2, PARAMS, jumps) == grid[2]

    @pytest.mark.parametrize("jumps", [JumpSpec.degenerate_unit(), EXP, NORM])
    @pytest.mark.parametrize("t", [0.0, 1.2])
    def test_one_point_gives_a_float(self, jumps, t):
        # as for every other law; at t = 0 the CDF gave a 0-d array
        for z in (math.nan, -1.0, 0.0, 0.7, np.array(0.7)):
            assert type(cpp_cdf_Z_grid(z, t, PARAMS, jumps)) is float
            if jumps.is_continuous and t > 0:
                assert type(cpp_density_Z_grid(z, t, PARAMS, jumps)) is float


class TestDensityZ:
    def test_no_density_for_discrete_law(self):
        with pytest.raises(ValueError):
            cpp_density_Z_grid([1.0], 1.0, PARAMS, JumpSpec.degenerate_unit())

    def test_normal_symmetry(self):
        sym = JumpSpec.normal(0.0, 1.0)
        zs = np.array([0.5, 1.0, 2.5])
        np.testing.assert_allclose(cpp_density_Z_grid(zs, 1.0, PARAMS, sym),
                                   cpp_density_Z_grid(-zs, 1.0, PARAMS, sym), rtol=1e-12)

    def test_exponential_matches_closed_form(self):
        zs = np.linspace(0.2, 8.0, 14)
        np.testing.assert_allclose(cpp_density_Z_grid(zs, 1.0, PARAMS, EXP),
                                   _exp_jump_density_grid(zs, 1.0, PARAMS, 1.0),
                                   rtol=0, atol=1e-10)

    def test_block_memory(self):
        # normal jumps at lam t = 200 mix about 350 orders over 20 000
        # points; a whole (N x Z) matrix and its per-n rows took 110 MB
        zs = np.linspace(-50.0, 400.0, 20_000)
        params = ModelParams(2.0, 1.0)
        tracemalloc.start()
        try:
            cpp_density_Z_grid(zs, 100.0, params, NORM)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6

    def test_mass_atom_identity(self):
        # continuous mass plus the atom must account for everything
        for jumps, lo, hi in ((EXP, 0.0, 40.0), (NORM, -15.0, 25.0)):
            zs = np.linspace(lo + 1e-9, hi, 20_001)
            dens = cpp_density_Z_grid(zs, 1.0, PARAMS, jumps)
            mass = float(np.trapezoid(dens, zs))
            assert abs(mass + atom_mass_Z(1.0, PARAMS) - 1.0) < 1e-6


class TestExponentialSpecialization:
    """The paper's two exponential-jump CDF series and its density series,
    kept in ``verify`` as oracles, against the mixture."""

    def test_atom(self):
        law = IteratedLaw(PARAMS)
        assert _exp_jump_cdf(0.0, 1.0, PARAMS, 1.0) == pytest.approx(
            law.pmf(0, 1.0), abs=1e-12)

    def test_time_zero(self):
        assert _exp_jump_cdf(3.0, 0.0, PARAMS, 1.0) == 1.0

    def test_below_support(self):
        assert _exp_jump_cdf(-1.0, 1.0, PARAMS, 1.0) == 0.0

    def test_alternative_form_agrees(self):
        # the alternative series sum_j p(j; zeta z) sum_{m<=j} p_m(t) is
        # the production path
        zs = np.array([0.0, 0.3, 1.0, 4.0, 9.0])
        for t in (0.5, 1.0, 3.0):
            for z, g in zip(zs, cpp_cdf_Z_grid(zs, t, PARAMS, EXP)):
                assert abs(_exp_jump_cdf(z, t, PARAMS, 1.0) - g) < 1e-10

    def test_generic_mixture_agrees(self):
        zs = np.linspace(0.0, 8.0, 9)
        grid = cpp_cdf_Z_grid(zs, 1.0, PARAMS, EXP)
        for z, g in zip(zs, grid):
            assert abs(_exp_jump_cdf(z, 1.0, PARAMS, 1.0) - g) < 1e-10

    def test_density_small_z_limit(self):
        law = IteratedLaw(PARAMS)
        limit = law.pmf(1, 1.0)  # times zeta = 1
        assert cpp_density_Z_grid(1e-9, 1.0, PARAMS, EXP) == pytest.approx(
            limit, rel=1e-6)

    def test_density_mass(self):
        params = ModelParams(2.0, 1.0)
        mass = gauss_panel_mass(
            lambda z: _exp_jump_density_grid(z, 1.0, params, 1.0), 60.0)
        assert mass == pytest.approx(0.7175, abs=5e-5)
        assert mass == pytest.approx(1.0 - atom_mass_Z(1.0, params), abs=1e-9)


class TestExponentialCdfKernel:
    """The exponential-jump CDF: one Poisson-pmf block over the cumulative
    weights plus one gammainc per point."""

    @pytest.mark.parametrize("lt, mu, fracs", [
        (100.0, 0.5, (1e-3, 0.03, 0.1, 0.3, 0.6, 1.0, 1.3)),
        (100.0, 2.0, (1e-3, 0.03, 0.1, 0.3, 0.6, 1.0, 1.3)),
        (1000.0, 0.5, (1e-3, 0.03, 0.1, 0.3, 0.6, 1.0, 1.3)),
        (1000.0, 2.0, (1e-3, 0.03, 0.1, 0.3)),  # F from 1e-361 to 3e-87
    ])
    def test_relative_accuracy_against_mpmath(self, lt, mu, fracs):
        # z at fractions of the mean of Z(t), from the far lower tail to F
        # near 1.  The reference is taken at x = fl(zeta z), the point the
        # kernel sees: in the lower tail F moves by hundreds of ulps per ulp
        # of x, which no kernel can undo.
        zeta, t = 1.7, 10.0
        params = ModelParams(lt / t, mu)
        w = IteratedLaw(params).pmf_vector(t)
        zs = lt * mu / zeta * np.array(fracs)
        got = cpp_cdf_Z_grid(zs, t, params, JumpSpec.exponential(zeta))
        for z, g in zip(zs, got):
            with mpmath.workdps(40):
                ref = mo.mixture_cdf(w, zeta * z)
            if ref >= 1e-280:
                assert abs(g - ref) <= 1e-14 * ref, (z, g, ref)
            else:
                assert g <= 1e-280

    @given(lam=st.floats(0.2, 5.0), mu=st.floats(0.1, 3.0), t=st.floats(0.01, 10.0),
           zeta=st.floats(0.1, 10.0), q=st.floats(0.0, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_matches_gammainc_terms(self, lam, mu, t, zeta, q):
        # against the gammainc block of verify.conv_cdf, summed exactly
        params, jumps = ModelParams(lam, mu), JumpSpec.exponential(zeta)
        w = IteratedLaw(params).pmf_vector(t)
        z = q * lam * mu * t / zeta  # q times the mean of Z(t)
        assert cpp_cdf_Z_grid(z, t, params, jumps) == pytest.approx(
            _conv_cdf_fsum(z, w, jumps), rel=1e-12, abs=1e-300)

    def test_at_and_below_zero(self):
        jumps = JumpSpec.exponential(1.7)
        w = IteratedLaw(PARAMS).pmf_vector(1.0)
        below, neg0, pos0, tiny = cpp_cdf_Z_grid([-1.0, -0.0, 0.0, 1e-300], 1.0, PARAMS, jumps)
        assert below == 0.0
        assert neg0 == pos0 == w[0]  # the atom; P(n, 0) = 0 for every n >= 1
        assert tiny == pytest.approx(_conv_cdf_fsum(1e-300, w, jumps), rel=1e-15)

    @pytest.mark.parametrize("t, size", [(1e-10, 1), (1e-8, 2)])
    def test_one_or_two_weights(self, t, size):
        params = ModelParams(1.0, 0.01)
        w = IteratedLaw(params).pmf_vector(t)
        assert w.size == size
        zs = np.array([-1.0, 0.0, 0.5, 3.0])
        np.testing.assert_allclose(cpp_cdf_Z_grid(zs, t, params, EXP),
                                   [_conv_cdf_fsum(z, w, EXP) for z in zs], rtol=1e-15)

    def test_cdf_Y(self):
        # Y(t) mixes the same kernel over Poisson(mu t) weights
        jumps = JumpSpec.exponential(0.6)
        for t in (0.5, 4.0, 300.0):
            w = _poisson_weights(PARAMS.mu * t, 1e-12)
            for y in (0.0, 0.2 * t, 1.5 * t, 3.0 * t):
                assert cpp_cdf_Y(y, t, PARAMS, jumps) == pytest.approx(
                    _conv_cdf_fsum(y, w, jumps), rel=1e-13)

    def test_no_warning_at_the_edges(self):
        # x = 0 takes log(0) inside the block; x = inf must not give inf - inf
        zs = np.array([-np.inf, -1.0, -0.0, 0.0, 1e-300, 2.0, 1e305, np.inf, np.nan])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = cpp_cdf_Z_grid(zs, 1.0, PARAMS, JumpSpec.exponential(1.7))
            at0 = cpp_cdf_Y(0.0, 1.0, PARAMS, EXP)
        assert got[0] == 0.0 and at0 == pytest.approx(math.exp(-1.0), rel=1e-14)
        assert got[-3] == got[-2] == pytest.approx(1.0, abs=1e-12)
        assert math.isnan(got[-1])


class TestExponentialDensityKernel:
    """The exponential-jump density: zeta sum_n w_n Pois(zeta z; n - 1), one
    block of stepped Poisson cells."""

    @pytest.mark.parametrize("lt", [100.0, 800.0, 1000.0])
    @pytest.mark.parametrize("mu", [0.5, 2.0])
    def test_relative_accuracy_against_mpmath(self, lt, mu):
        # z at fractions of the mean of Z(t), against the reference at
        # x = fl(zeta z), as for the CDF; the conv_pdf form, exp of a sum of
        # logs, was up to 9e-13 off here
        zeta, t = 1.7, 10.0
        params = ModelParams(lt / t, mu)
        w = IteratedLaw(params).pmf_vector(t)
        zs = lt * mu / zeta * np.array([1e-3, 0.03, 0.1, 0.3, 0.6, 1.0, 1.3])
        got = cpp_density_Z_grid(zs, t, params, JumpSpec.exponential(zeta))
        for z, g in zip(zs, got):
            with mpmath.workdps(40):
                ref = mo.mixture_density(w, zeta * z, zeta)
            if ref >= 1e-280:
                assert abs(g - ref) <= 1e-14 * ref, (z, g, ref)
            else:
                assert g <= 1e-280

    def test_edges(self):
        # below 0 the density is 0, at 0 it is zeta w_1, and far points are
        # clipped the way the CDF clips them
        zeta = 1.7
        w = IteratedLaw(PARAMS).pmf_vector(1.0)
        zs = np.array([-np.inf, -1.0, -0.0, 0.0, 5e-324, 1e300, 1e305, np.inf, np.nan])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = cpp_density_Z_grid(zs, 1.0, PARAMS, JumpSpec.exponential(zeta))
            alone = [cpp_density_Z_grid(z, 1.0, PARAMS, JumpSpec.exponential(zeta))
                     for z in zs.tolist()]
        assert got[0] == got[1] == 0.0
        assert got[2] == got[3] == pytest.approx(zeta * w[1], rel=1e-15)
        assert got[4] == pytest.approx(zeta * w[1], rel=1e-15)
        assert not got[5:8].any() and math.isnan(got[8])
        assert all(type(a) is float for a in alone)
        np.testing.assert_allclose(alone, got, rtol=2e-15, atol=0.0)

    @pytest.mark.parametrize("t", [0.5, 3.0, 40.0])
    def test_against_the_conv_pdf_block(self, t):
        # the closed-form n-fold densities of verify.conv_pdf, summed exactly
        jumps = JumpSpec.exponential(1.3)
        w = IteratedLaw(PARAMS).pmf_vector(t)
        zs = np.linspace(0.01, 4.0 * t + 10.0, 41)
        got = cpp_density_Z_grid(zs, t, PARAMS, jumps)
        block = conv_pdf(jumps, np.arange(1, w.size)[:, None], zs)
        want = [math.fsum(w[1:] * col) for col in block.T]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def _unit_block_mixture(w: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The unit-jump CDF as the atom plus the conv_cdf step block over the
    orders 1..N-1, each point's column summed with fsum."""
    block = conv_cdf(UNIT, np.arange(1, w.size)[:, None], z)
    return np.array([min(1.0, math.fsum(np.append(w[0] * (zi >= 0), w[1:] * col)))
                     for zi, col in zip(z, block.T)])


class TestUnitCdf:
    @staticmethod
    def _points(n_orders):
        top = n_orders - 1
        whole = np.arange(0.0, n_orders + 2)
        return np.concatenate(([-np.inf, -1.0, -0.5, -0.0, 0.0], whole, whole + 0.5,
                               [top - 1e-9, top, n_orders, 1e300, np.inf]))

    @pytest.mark.parametrize("t", [0.4, 3.0, 60.0])
    def test_grid_against_the_block_mixture(self, t):
        w = IteratedLaw(PARAMS).pmf_vector(t)
        z = self._points(w.size)
        got = cpp_cdf_Z_grid(z, t, PARAMS, UNIT)
        np.testing.assert_allclose(got, _unit_block_mixture(w, z), rtol=1e-14, atol=0.0)
        assert got[3] == got[4] == pytest.approx(w[0], rel=1e-15)  # -0.0 is 0

    @pytest.mark.parametrize("t", [0.4, 3.0, 60.0])
    def test_cdf_Y_against_the_block_mixture(self, t):
        w = _poisson_weights(PARAMS.mu * t, 1e-12)
        z = self._points(w.size)
        got = [cpp_cdf_Y(y, t, PARAMS, UNIT) for y in z]
        np.testing.assert_allclose(got, _unit_block_mixture(w, z), rtol=1e-14, atol=0.0)


class TestNan:
    def test_unit_grid(self):
        got = cpp_cdf_Z_grid([math.nan, 1.0], 1.0, PARAMS, UNIT)
        assert math.isnan(got[0]) and got[1] > 0.0
        assert math.isnan(cpp_cdf_Z_grid(math.nan, 1.0, PARAMS, UNIT))

    @pytest.mark.parametrize("jumps", [UNIT, EXP, NORM])
    def test_time_zero_grid(self, jumps):
        got = cpp_cdf_Z_grid([-1.0, math.nan, 0.0], 0.0, PARAMS, jumps)
        assert got[0] == 0.0 and math.isnan(got[1]) and got[2] == 1.0
        # the weights at t = 0 are [1], so the mixture is the step [z >= 0]
        z = np.array([-math.inf, -1e300, -0.0, 0.0, 5e-324, 1e301, math.inf, math.nan])
        for grid in (z, z.reshape(2, 4)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = cpp_cdf_Z_grid(grid, 0.0, PARAMS, jumps)
            want = np.where(np.isnan(grid), grid, grid >= 0)
            assert got.shape == grid.shape and got.tobytes() == want.tobytes()
        for point, want in ((-1e-300, 0.0), (0.0, 1.0), (math.nan, math.nan)):
            one = cpp_cdf_Z_grid(point, 0.0, PARAMS, jumps)
            assert type(one) is float and np.array(one).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("jumps", [UNIT, EXP, NORM])
    @pytest.mark.parametrize("t", [0.0, 1.0])
    def test_cdf_Y(self, jumps, t):
        assert math.isnan(cpp_cdf_Y(math.nan, t, PARAMS, jumps))

    @pytest.mark.parametrize("jumps", [EXP, NORM])
    def test_density(self, jumps):
        # the exponential n-fold density once read NaN as off its support
        got = cpp_density_Z_grid([math.nan, -1.0, 0.0, 1.0], 1.0, PARAMS, jumps)
        assert math.isnan(got[0]) and np.all(np.isfinite(got[1:])) and got[3] > 0.0
        assert np.all(np.isnan(conv_pdf(jumps, np.arange(1, 5)[:, None], [math.nan])))
        assert math.isnan(conv_pdf(jumps, 1, math.nan))

    @pytest.mark.parametrize("jumps", [NORM, JumpSpec.normal(-1.0, 0.3)])
    def test_normal_density_nonnegative(self, jumps):
        # a sum of nonnegative weights times Gaussian densities: never below
        # 0, not even -0.0, with no clamp, and NaN stays NaN
        z = np.concatenate([[math.nan, -math.inf, math.inf, -1e150, 1e150, -0.0],
                            np.linspace(-40.0, 80.0, 333)])
        for t in (1e-9, 1.0, 30.0):
            got = cpp_density_Z_grid(z, t, PARAMS, jumps)
            assert math.isnan(got[0]) and not np.isnan(got[1:]).any()
            assert not np.signbit(got[1:]).any()
            assert got[1:3].tolist() == [0.0, 0.0] and got[1:].max() > 0.0


class TestNormalSpecialization:
    def test_symmetric_split_at_zero(self):
        p0 = atom_mass_Z(1.0, PARAMS)
        below, at = cpp_cdf_Z_grid([-1e-12, 0.0], 1.0, PARAMS, JumpSpec.normal(0.0, 1.0))
        assert below == pytest.approx((1 - p0) / 2, abs=1e-10)
        assert at == pytest.approx((1 + p0) / 2, abs=1e-10)

    def test_time_zero_indicator(self):
        assert list(cpp_cdf_Z_grid([-0.1, 0.1], 0.0, PARAMS, NORM)) == [0.0, 1.0]

    def test_monte_carlo_oracle(self):
        from poissonsub.verify import ks_distance

        rng = mc.make_rng(5)
        n = 200_000
        zs = mc.sample_Z(PARAMS, NORM, 1.0, n, rng)
        d = ks_distance(zs, lambda u: cpp_cdf_Z_grid(u, 1.0, PARAMS, NORM),
                        atom_at_zero=atom_mass_Z(1.0, PARAMS))
        assert d < 1.63 / math.sqrt(n)


class TestLaplaceExponent:
    def test_zero(self):
        for jumps in (EXP, NORM, JumpSpec.degenerate_unit()):
            assert laplace_exponent(0.0, PARAMS, jumps) == pytest.approx(0.0)

    def test_degenerate_closed_form(self):
        lam, mu, theta = 2.0, 1.5, 0.7
        params = ModelParams(lam, mu)
        expect = lam * (1 - math.exp(-mu * (1 - math.exp(-theta))))
        assert laplace_exponent(theta, params, JumpSpec.degenerate_unit()) == \
            pytest.approx(expect, rel=1e-13)

    def test_normal_closed_form(self):
        theta, eta, sigma = 0.4, 0.5, 1.2
        jumps = JumpSpec.normal(eta, sigma)
        expect = 1.0 * (1 - math.exp(
            -1.0 * (1 - math.exp(-eta * theta + sigma**2 * theta**2 / 2))))
        assert laplace_exponent(theta, PARAMS, jumps) == pytest.approx(
            expect, rel=1e-13)

    def test_convergence_region(self):
        with pytest.raises(ValueError):
            laplace_exponent(-1.0, PARAMS, EXP)  # theta = -zeta boundary
        laplace_exponent(-0.5, PARAMS, EXP)  # inside the region

    def test_matches_monte_carlo(self):
        rng = mc.make_rng(9)
        n = 200_000
        zs = mc.sample_Z(PARAMS, EXP, 2.0, n, rng)
        for theta in (0.1, 0.5, 1.0):
            vals = np.exp(-theta * zs)
            se = float(np.std(vals, ddof=1)) / math.sqrt(n)
            target = math.exp(-2.0 * laplace_exponent(theta, PARAMS, EXP))
            assert abs(float(vals.mean()) - target) < 3 * se


class TestMoments:
    def test_exponential_mean(self):
        m = moments_Z(2.0, ModelParams(3.0, 1.5), JumpSpec.exponential(2.0))
        assert m.mean == pytest.approx(3.0 * 1.5 * 2.0 / 2.0)

    def test_degenerate(self):
        m = moments_Z(1.0, ModelParams(2.0, 3.0), JumpSpec.degenerate_unit())
        assert m.mean == pytest.approx(6.0)
        assert m.variance == pytest.approx(2.0 * 3.0 * 4.0)

    def test_time_zero(self):
        m = moments_Z(0.0, PARAMS, EXP)
        assert m.mean == 0.0 and m.variance == 0.0

    @pytest.mark.parametrize("lam", [1.0, 2.0])
    @pytest.mark.parametrize("mu", [0.5, 1.0])
    @pytest.mark.parametrize("t", [1.0, 2.0])
    def test_quadrature_consistency(self, lam, mu, t):
        params = ModelParams(lam, mu)
        for jumps in (JumpSpec.exponential(1.0), JumpSpec.normal(0.5, 1.0)):
            m = moments_Z(t, params, jumps)
            # the compound tail decays like e^{-z} times a series, far
            # heavier than a Gaussian tail, so the window must be wide
            sd = math.sqrt(m.variance)
            lo = 1e-9 if jumps.kind == "exponential" else m.mean - 40 * sd
            hi = m.mean + 40 * sd
            zs = np.linspace(lo, hi, 200_001)
            zs = zs[zs != 0.0]
            dens = cpp_density_Z_grid(zs, t, params, jumps)
            mean = float(np.trapezoid(dens * zs, zs))
            ez2 = float(np.trapezoid(dens * zs**2, zs))
            var = ez2 - mean**2  # atom at 0 contributes nothing to either
            assert abs(mean - m.mean) / m.mean < 1e-4
            assert abs(var - m.variance) / m.variance < 1e-4

    def test_strong_law_trend(self):
        rng = mc.make_rng(17)
        n = 100_000
        t = 200.0
        zs = mc.sample_Z(PARAMS, EXP, t, n, rng) / t
        se = float(np.std(zs, ddof=1)) / math.sqrt(n)
        assert abs(float(zs.mean()) - 1.0) < 3 * se
