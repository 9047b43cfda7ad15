"""Oracle-backed tests for the special functions: the truncation policy and
the Poisson pmf of ``special``, and the reference forms that ``verify`` keeps
as oracles."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize

from poissonsub import special
from poissonsub.iterated import _jump_chain
from poissonsub.special import SeriesControl
from poissonsub.verify import (
    N_MAX,
    UnsupportedDegreeError,
    bell_poly,
    bell_poly_derivative,
    bell_series,
    lower_incomplete_gamma,
    poisson_cdf,
    poisson_pmf,
    stirling2,
)

import mp_oracles as mo
from mp_oracles import rel


class TestPoissonKernels:
    def test_zero_count(self):
        for a in (0.0, 0.5, 3.0, 200.0):
            assert poisson_pmf(0, a) == pytest.approx(math.exp(-a), rel=1e-14)

    def test_direct_value(self):
        assert poisson_pmf(2, 1.0) == pytest.approx(math.exp(-1) / 2, rel=1e-14)

    def test_normalization(self):
        # tail below 1e-12 for K = mean + 12 sd
        k_max = int(5 + 12 * math.sqrt(5)) + 10
        total = math.fsum(poisson_pmf(m, 5.0) for m in range(k_max))
        assert abs(total - 1.0) < 1e-12

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            poisson_pmf(-1, 1.0)
        with pytest.raises(ValueError):
            poisson_pmf(2, -0.5)
        with pytest.raises(ValueError):
            poisson_cdf(2, -0.5)

    def test_cdf_single_term(self):
        assert poisson_cdf(0, 2.5) == pytest.approx(math.exp(-2.5), rel=1e-13)

    def test_cdf_degenerate_rate(self):
        for n in range(5):
            assert poisson_cdf(n, 0.0) == 1.0

    def test_cdf_against_partial_sums(self):
        # independent oracle: direct summation of the pmf
        for a in (0.3, 1.0, 4.5, 20.0):
            for n in (0, 1, 3, 10, 40):
                direct = math.fsum(poisson_pmf(i, a) for i in range(n + 1))
                assert poisson_cdf(n, a) == pytest.approx(direct, abs=1e-13)

    def test_cdf_tail_matches_direct_sum(self):
        tail = math.fsum(poisson_pmf(i, 1.0) for i in range(11, 40))
        assert 1.0 - poisson_cdf(10, 1.0) == pytest.approx(tail, rel=1e-7)
        assert 1.0 - poisson_cdf(10, 1.0) < 2e-8


EPS = np.finfo(float).eps


def tail_points(m, log_p=math.log(1e-300)):
    """The x below and above m where log Pois(x; m) = log_p."""
    def f(x):
        return m * math.log(x) - x - math.lgamma(m + 1) - log_p
    lo = optimize.brentq(f, 1e-320, m) if m else None
    return [x for x in (lo, optimize.brentq(f, m + 1e-9, m + 800.0 + 60 * math.sqrt(m)))
            if x is not None]


class TestPoissonPmf:
    """``special.poisson_pmf``, the package's Poisson pmf of Loader's form (not
    the scalar oracle ``verify.poisson_pmf``)."""

    @staticmethod
    def assert_cells(counts, x, got, stepped=False):
        # the pmf is the exp of its log, so an ulp of the log is worth |log p|
        # ulps of p, and a relative change d of x moves p by (m - x) d, so the
        # rounding of r = x/m is worth |x - m| ulps: a few of each.  A stepped
        # cell adds three roundings of eps/2 for each of its m mod 8 steps
        for m, row in zip(counts, np.atleast_2d(got.T).T):
            steps = m % 8 if stepped else 0
            for xi, g in zip(np.atleast_1d(x), np.atleast_1d(row)):
                with mpmath.workdps(50):
                    want = mo.poisson(m, xi)
                scale = 1 + abs(float(mpmath.log(want))) + abs(xi - m) if want else 1
                assert abs(g - want) <= (4 * scale + 1.5 * steps) * EPS * want, (m, xi, g, want)

    def test_zero_count_and_zero_point(self):
        x = np.array([0.0, 1e-300, 0.5, 3.0, 700.0, 1e4])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(special.poisson_pmf(range(1), x)[0], np.exp(-x))
            assert special.poisson_pmf(range(4), 0.0).tolist() == [1.0, 0.0, 0.0, 0.0]
            assert not special.poisson_pmf(range(3, 7), [0.0, 0.0]).any()
            # a point below the smallest normal: x/m underflows to 0 for large m
            tiny = special.poisson_pmf(range(1, 50), 5e-324)
        assert tiny[0] == 5e-324 and not tiny[1:].any()

    @pytest.mark.parametrize("m", [1, 2, 5, 15, 16, 17, 50, 400, 1000, 10**4, 10**5])
    def test_cells_against_mpmath(self, m):
        # on the diagonal, about one sd off it, across r = 1/2, and in both
        # tails down to 1e-300; exp(m log x - x - log m!) is up to 7e-11 off at 1e5
        s = math.sqrt(m)
        xs = [m * (1 - 1e-9), m * (1 + 1e-9), m - s, m + s, 0.49 * m, 0.5 * m,
              2 * m, *tail_points(m)]
        got = special.poisson_pmf(range(m, m + 1), xs)[0]
        self.assert_cells([m], xs, got)
        with mpmath.workdps(50):
            assert min(mo.poisson(m, x) for x in xs) < 1e-299

    def test_block_of_counts(self):
        x = np.array([1e-3, 0.7, 9.5, 40.0, 333.3])
        block = special.poisson_pmf(range(60), x)
        assert block.shape == (60, 5)
        self.assert_cells(range(60), x, block)
        for m in (0, 1, 17, 59):
            assert np.array_equal(special.poisson_pmf(range(m, m + 1), x)[0], block[m])

    def test_range_from_above_zero(self):
        # a block that starts above 0 holds the rows of the range from 0
        counts = range(106, 494)
        block = special.poisson_pmf(counts, 300.0)
        assert np.array_equal(block, special.poisson_pmf(range(counts.stop), 300.0)[106:])
        self.assert_cells(counts, 300.0, block)
        # the jump-chain record's window at mu = 1e4 starts where the pmf
        # leaves the float range, far above 0; its cells are the rows of the
        # range from 0, and its inverse-CDF table, the samplers', holds the
        # partial sums of the zero-truncated law
        mu = 1e4
        chain = _jump_chain(mu)
        first, c = chain.first, chain.cdf
        counts = range(first, first + chain.batches.size)
        block = special.poisson_pmf(counts, mu)
        assert first > 5000 and c.size < 80 * math.sqrt(mu)
        assert np.array_equal(block, chain.batches)
        assert np.array_equal(block, special.poisson_pmf(range(counts.stop), mu)[first:])
        lo, hi = np.flatnonzero(block > 1e-300)[[0, -1]]  # the ends are subnormal
        self.assert_cells(counts[lo:hi + 1], mu, block[lo:hi + 1])
        with mpmath.workdps(50):
            nonzero = -mpmath.expm1(-mu)
            below = (mo.poisson_below(first, mu) - mo.poisson(0, mu)) / nonzero
            assert below < 1e-300
            for i in (0, 2000, 3800, c.size - 1):
                head = mo.poisson_below(first + i, mu) - mo.poisson_below(first, mu)
                assert abs(c[i] - (below + head / nonzero)) < 1e-14

    def test_shapes(self):
        assert special.poisson_pmf(range(5), 2.0).shape == (5,)
        assert special.poisson_pmf(range(2, 5), np.ones((2, 3))).shape == (3, 2, 3)
        assert special.poisson_pmf(range(3, 3), [1.0, 2.0]).shape == (0, 2)
        assert special.poisson_pmf(range(0, 1), np.ones((2, 3))).shape == (1, 2, 3)
        zero, m, head = special._count_part(range(0, 4))
        assert zero and m.tolist() == [1.0, 2.0, 3.0] and head.size == 4 and head[0] == 0.0
        assert not (m.flags.writeable or head.flags.writeable)
        special._count_part.cache_clear()  # a long range is not kept
        special.poisson_pmf(range(special._CACHED_COUNTS + 1), 1e4)
        assert special._count_part.cache_info().currsize == 0


class TestPoissonPmfStepped:
    """``special.poisson_pmf_stepped``: a Loader cell at every count that is a
    multiple of 8, ratio steps up from it in between."""

    X = np.array([0.0, 5e-324, 1e-3, 0.7, 9.5, 40.0, 333.3, 730.0, 760.0, 2e3, 1e300, np.nan])

    def test_bits_depend_on_count_and_point_alone(self):
        for stop in (1, 8, 9, 60, 203):
            whole = special.poisson_pmf_stepped(range(stop), self.X)
            assert whole.shape == (stop, self.X.size)
            for start in range(0, stop, 7):
                part = special.poisson_pmf_stepped(range(start, stop), self.X)
                assert part.tobytes() == whole[start:].tobytes(), (start, stop)
            for m in range(0, stop, 5):
                row = special.poisson_pmf_stepped(range(m, m + 1), self.X)[0]
                assert row.tobytes() == whole[m].tobytes(), m
        grid = special.poisson_pmf_stepped(range(3, 203), self.X)
        for i, x in enumerate(self.X.tolist()):
            alone = special.poisson_pmf_stepped(range(3, 203), x)
            assert alone.shape == (200,) and alone.tobytes() == grid[:, i].tobytes(), x
        square = special.poisson_pmf_stepped(range(9, 30), self.X[:10].reshape(2, 5))
        assert square.tobytes() == grid[6:27, :10].tobytes()

    def test_loader_cells_and_ratio_steps(self):
        block = special.poisson_pmf_stepped(range(1, 400), self.X)
        loader = special.poisson_pmf(range(400), self.X)
        assert block[7::8].tobytes() == loader[8::8].tobytes()
        assert special.poisson_pmf_stepped(range(1), self.X).tobytes() == loader[:1].tobytes()
        # Pois(x; m) = Pois(x; m - 1) fl(x fl(1/m)) between them, where the
        # Loader cell they step from is normal (not at e^{-730}, for one)
        for m in range(2, 400):
            if m % 8:
                step = block[m - 2] * (self.X * (1.0 / m))
                normal = ~(loader[m - m % 8] < np.finfo(float).tiny)
                assert np.array_equal(block[m - 1, normal], step[normal], equal_nan=True), m

    @pytest.mark.parametrize("m", [1, 2, 5, 6, 7, 8, 9, 15, 16, 17, 50, 63, 400, 1001,
                                   9999, 10**4])
    def test_cells_against_mpmath(self, m):
        # r = x/m from 1/2 to 2 where the pmf is at least 1e-300, and both
        # tails at 1e-300; the right tails at m = 5..7 step up from a
        # subnormal e^{-x}, where the cells are Loader cells
        s = math.sqrt(m)
        xs = [x for x in (0.5 * m, 0.7 * m, m - s, m * (1 - 1e-9), m * (1 + 1e-9), m + s,
                          1.5 * m, 2 * m) if mo.poisson(m, x) >= 1e-300]
        assert len(xs) >= 4
        xs += tail_points(m)
        got = special.poisson_pmf_stepped(range(m, m + 1), xs)[0]
        TestPoissonPmf.assert_cells([m], xs, got, stepped=True)

    def test_steps_from_a_subnormal_are_loader_cells(self):
        # e^{-x} is subnormal past x = 708; the seventh step climbs past
        # tiny / 4, so all seven cells are Loader's
        x = np.array([709.0, 720.0, 730.0, 740.0])
        block = special.poisson_pmf_stepped(range(8), x)
        assert np.all((block[0] > 0) & (block[0] < np.finfo(float).tiny))
        assert block.tobytes() == special.poisson_pmf(range(8), x).tobytes()

    def test_edges_raise_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            block = special.poisson_pmf_stepped(range(40), [0.0, 5e-324, np.nan, 1e300])
            above = special.poisson_pmf_stepped(range(3, 17), [0.0, 5e-324, np.nan, 1e300])
            empty = special.poisson_pmf_stepped(range(5, 5), [1.0, 2.0])
        assert block[:, 0].tolist() == [1.0] + [0.0] * 39
        assert block[:, 1].tolist() == [1.0, 5e-324] + [0.0] * 38
        assert np.all(np.isnan(block[:, 2])) and not block[:, 3].any()
        assert above.tobytes() == block[3:17].tobytes() and empty.shape == (0, 2)


def brute_force_partitions(n, k):
    """Count partitions of {0..n-1} into k nonempty blocks by enumeration."""
    if n == 0:
        return 1 if k == 0 else 0

    def rec(items, blocks):
        if not items:
            return 1 if len(blocks) == k else 0
        first, rest = items[0], items[1:]
        total = 0
        for i in range(len(blocks)):
            total += rec(rest, blocks[:i] + [blocks[i] + [first]] + blocks[i + 1:])
        if len(blocks) < k:
            total += rec(rest, blocks + [[first]])
        return total

    return rec(list(range(n)), [])


class TestStirling:
    def test_empty_partition(self):
        assert stirling2(0, 0) == 1

    def test_known_coefficient(self):
        # coefficient of x^2 in the degree-4 Bell polynomial
        assert stirling2(4, 2) == 7

    def test_against_enumeration(self):
        for n in range(7):
            for k in range(n + 1):
                assert stirling2(n, k) == brute_force_partitions(n, k)

    def test_above_diagonal_is_zero(self):
        assert stirling2(3, 5) == 0

    def test_degree_cap(self):
        assert stirling2(N_MAX, 3) > 0
        with pytest.raises(UnsupportedDegreeError):
            stirling2(N_MAX + 1, 3)

    def test_row_sums_are_bell_numbers(self):
        for n in range(16):
            row_sum = sum(stirling2(n, k) for k in range(n + 1))
            assert row_sum == pytest.approx(bell_poly(n, 1.0).value, rel=1e-12)


class TestBellPoly:
    def test_degree_zero(self):
        for x in (0.0, 0.5, 17.0):
            assert bell_poly(0, x).value == 1.0

    def test_low_degrees(self):
        assert bell_poly(2, 2.0).value == pytest.approx(6.0, rel=1e-14)
        assert bell_poly(5, 1.0).value == pytest.approx(52.0, rel=1e-14)

    def test_log_value_consistent(self):
        ev = bell_poly(12, 7.5)
        assert ev.value == pytest.approx(math.exp(ev.log_value), rel=1e-12)

    def test_degree_cap(self):
        with pytest.raises(UnsupportedDegreeError):
            bell_poly(N_MAX + 1, 1.0)

    def test_against_series(self):
        for x in (0.1, 1.0, 10.0, 50.0):
            for n in range(21):
                assert rel(bell_poly(n, x).value, bell_series(n, x)) < 1e-10

    @given(n=st.integers(0, 19), x=st.floats(0.01, 50.0))
    @settings(max_examples=200, deadline=None)
    def test_recursion_identity(self, n, x):
        lhs = bell_poly(n + 1, x).value
        rhs = x * (bell_poly_derivative(n, x) + bell_poly(n, x).value)
        assert rel(lhs, rhs) < 1e-9

    @given(n=st.integers(1, 15), x=st.floats(0.1, 20.0))
    @settings(max_examples=100, deadline=None)
    def test_lower_bounds(self, n, x):
        v = bell_poly(n, x).value
        assert v >= x**n * (1 - 1e-12)
        assert v >= x * (1 - 1e-12)

    def test_binomial_convolution_identity(self):
        a, b = 1.3, 2.2
        for n in range(16):
            conv = math.fsum(
                math.comb(n, k) * bell_poly(k, a).value * bell_poly(n - k, b).value
                for k in range(n + 1)
            )
            assert rel(conv, bell_poly(n, a + b).value) < 1e-9


class TestBellDerivative:
    def test_constant_and_linear(self):
        assert bell_poly_derivative(0, 3.0) == 0.0
        assert bell_poly_derivative(1, 0.7) == pytest.approx(1.0, rel=1e-12)

    def test_finite_difference_oracle(self):
        h = 1e-6
        fd = (bell_poly(3, 1 + h).value - bell_poly(3, 1 - h).value) / (2 * h)
        assert abs(bell_poly_derivative(3, 1.0) - fd) < 1e-6

    def test_at_zero_coefficient_path(self):
        # linear coefficient of every Bell polynomial is 1
        for n in range(1, 10):
            assert bell_poly_derivative(n, 0.0) == 1.0


class TestLowerIncompleteGamma:
    def test_exponential_cdf(self):
        for z in (0.1, 1.0, 5.0):
            assert lower_incomplete_gamma(1.0, z) == pytest.approx(
                1 - math.exp(-z), rel=1e-13)

    def test_empty_integral(self):
        assert lower_incomplete_gamma(3.2, 0.0) == 0.0

    def test_quadrature_oracle(self):
        for a, z in ((2.0, 1.0), (0.5, 2.0), (4.7, 3.3)):
            q, _ = integrate.quad(lambda t: t ** (a - 1) * math.exp(-t), 0, z)
            assert lower_incomplete_gamma(a, z) == pytest.approx(q, rel=1e-10)

    def test_known_value(self):
        assert lower_incomplete_gamma(2.0, 1.0) == pytest.approx(
            1 - 2 * math.exp(-1), rel=1e-12)

    def test_integer_shape_closed_form(self):
        a, z = 4, 2.5
        closed = math.factorial(a - 1) * (
            1 - math.exp(-z) * math.fsum(z**i / math.factorial(i) for i in range(a))
        )
        assert lower_incomplete_gamma(a, z) == pytest.approx(closed, rel=1e-12)

    def test_monotone_and_limit(self):
        vals = [lower_incomplete_gamma(3.0, z) for z in (0, 1, 2, 5, 50)]
        assert all(x <= y for x, y in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(math.gamma(3.0), rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            lower_incomplete_gamma(0.0, 1.0)


class TestSeriesControl:
    def test_invariants(self):
        with pytest.raises(ValueError):
            SeriesControl(tolerance=0.0)
        with pytest.raises(ValueError):
            SeriesControl(tolerance=1.5)


def _mixtures():
    """The seven mixtures over a grid of points, each as (name, law at x)."""
    from poissonsub import (Boundary, IteratedLaw, JumpSpec, ModelParams, cpp_cdf_Y,
                            cpp_cdf_Z_grid, cpp_density_Z_grid, crossing_density_constant,
                            hitting_cdf, hitting_density, survival_nonincreasing)
    params = ModelParams(2.0, 1.5)
    law = IteratedLaw(params)
    out = []
    for jumps in (JumpSpec.exponential(1.3), JumpSpec.normal(0.5, 1.0)):
        out += [(f"cdf_Y {jumps.kind}", lambda z, j=jumps: cpp_cdf_Y(z, 3.0, params, j)),
                (f"cdf_Z {jumps.kind}", lambda z, j=jumps: cpp_cdf_Z_grid(z, 3.0, params, j)),
                (f"density_Z {jumps.kind}",
                 lambda z, j=jumps: cpp_density_Z_grid(z, 3.0, params, j))]
    return out + [
        ("survival", lambda t: survival_nonincreasing(Boundary.linear_decreasing(9), t, law)),
        ("crossing density", lambda t: crossing_density_constant(9, t, law)),
        ("hitting density", lambda t: hitting_density(9, t, law)),
        ("hitting cdf", lambda t: hitting_cdf(9, t, law)),
    ]


class TestBlocks:
    # points of any sign, 0 among them, on a 2-d grid: the laws of z take
    # them as they are, the passage laws as times |x|
    X = np.linspace(-4.0, 9.0, 77).reshape(7, 11)

    @pytest.mark.parametrize("name, law", _mixtures())
    @pytest.mark.parametrize("cells", [1, 40, 300])
    def test_many_blocks_match_one(self, name, law, cells, monkeypatch):
        x = np.abs(self.X) if name in ("survival", "crossing density", "hitting density",
                                       "hitting cdf") else self.X
        one = law(x)
        monkeypatch.setattr(special, "_BLOCK_CELLS", cells)  # one to a few points a block
        many = law(x)
        assert many.shape == one.shape == x.shape
        if name == "survival":  # summed along each time's own row
            assert many.tobytes() == one.tobytes()
        else:
            np.testing.assert_allclose(many, one, rtol=1e-15, atol=0.0)
        for point in (x[3, 4], x[3, 4:5]):
            single = law(point)
            assert isinstance(single, float) if np.ndim(point) == 0 else single.shape == (1,)
            np.testing.assert_allclose(single, one[3, 4], rtol=1e-15, atol=0.0)

    def test_block_width(self, monkeypatch):
        widths = []
        law = lambda x: (widths.append(x.size), x + 1.0)[1]
        assert special._in_blocks(law, 3, 2.0) == 3.0
        assert special._in_blocks(law, 3, np.arange(10.0)).tolist() == list(range(1, 11))
        monkeypatch.setattr(special, "_BLOCK_CELLS", 12)
        x = np.arange(10.0).reshape(2, 5)
        assert special._in_blocks(law, 3, x).tolist() == (x + 1.0).tolist()
        assert special._in_blocks(law, 0, x).shape == (2, 5)  # no orders: 12 points a block
        assert special._in_blocks(law, 30, np.arange(2.0)).tolist() == [1.0, 2.0]
        assert special._in_blocks(law, 30, 5.0) == 6.0  # more orders than cells
        assert widths == [1, 10, 4, 4, 2, 10, 1, 1, 1]
