"""Verification suites: formula cross-checks, figure-data reproduction and
analytic-vs-Monte-Carlo comparisons.

Each check returns a CheckResult with the measured discrepancy and its
tolerance; the CLI prints one line per check and exits nonzero on failure.
The paper's alternative forms live here, and only here, as oracles for the
production paths: the Stirling numbers and Bell polynomials (exact-coefficient
forms limited to degree ``N_MAX``, and the log-space Bell series), the scalar
Poisson kernels and incomplete gamma function, the Stirling and Bell closed
forms of the law and of the first-passage quantities, the crossing and
hitting densities as flux sums over the weight engine's law weights, the
direct exponential-jump CDF series of Z(t), the n-fold convolutions of the
jump law in closed form (``conv_cdf``: the step, gammainc and the full ndtr
block; ``conv_pdf``: the gammaln and Gaussian densities) with the mixtures
summed over them term by term.  The paper's alternative CDF series is the
production path in ``cpp``; the per-path samplers that the batch samplers
of ``mc`` are checked against live in the tests.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sc
from scipy import stats

from . import VERIFY_SUITES as SUITES, cpp, crossing, mc
from .iterated import IteratedLaw, _jump_chain
from .params import JumpSpec, ModelParams
from .special import SeriesControl, _float_if_scalar

# per-time continuous-part masses 1 - e^{-lam t (1-e^{-mu})} at mu = 1,
# rounded to 4 decimals, for lam = 1 and lam = 2, t = 1..5
MASS_TABLE = {
    1.0: [0.4685, 0.7175, 0.8499, 0.9202, 0.9576],
    2.0: [0.7175, 0.9202, 0.9775, 0.9936, 0.9982],
}


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] {self.name}: measured {self.measured:.3e} "
                f"vs tolerance {self.tolerance:.3e}")


def _rel(a: float, b: float) -> float:
    scale = max(abs(a), abs(b), 1e-300)
    return abs(a - b) / scale


def ks_distance(samples: np.ndarray, cdf, atom_at_zero: float = 0.0) -> float:
    """Kolmogorov distance sup_z |F_emp(z) - F(z)| for a law that is
    continuous except for a possible atom at 0.

    Ties in the sample (the empirical atom) are collapsed so both CDFs are
    compared with their actual jumps, not the per-observation staircase.
    """
    u, counts = np.unique(samples, return_counts=True)
    n = samples.size
    right = np.cumsum(counts) / n
    left = right - counts / n
    f_right = np.asarray(cdf(u), dtype=float)
    f_left = f_right - np.where(u == 0.0, atom_at_zero, 0.0)
    return float(max(np.max(np.abs(right - f_right)),
                     np.max(np.abs(left - f_left))))


def gauss_panel_mass(density_grid, hi: float, panels: int = 64,
                     order: int = 24) -> float:
    """Integral over (0, hi] of a vectorized density, by fixed-order
    Gauss-Legendre quadrature on equal panels."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(0.0, hi, panels + 1)
    half = 0.5 * (edges[1] - edges[0])
    mids = 0.5 * (edges[:-1] + edges[1:])
    zs = (mids[:, None] + half * nodes[None, :]).ravel()
    vals = density_grid(zs).reshape(panels, order)
    return float(np.sum(vals @ weights) * half)


def chi_square_pvalue(counts: np.ndarray, expected: np.ndarray,
                      min_expected: float = 5.0) -> float:
    """Goodness-of-fit p-value, pooling trailing states until every cell has
    expected count >= min_expected."""
    keep = expected >= min_expected
    if keep.all():
        obs, exp = counts.astype(float), expected.astype(float)
    else:
        obs = np.append(counts[keep], counts[~keep].sum())
        exp = np.append(expected[keep], expected[~keep].sum())
    total = counts.sum()
    exp = exp * (total / exp.sum())
    stat = float(np.sum((obs - exp) ** 2 / exp))
    return float(stats.chi2.sf(stat, df=len(obs) - 1))


# -- reference special functions ----------------------------------------------

# Largest degree for which exact-integer Stirling coefficients are kept.
# Beyond this, polynomial-form evaluation refuses rather than losing precision.
N_MAX = 25


class UnsupportedDegreeError(ValueError):
    """Raised for polynomial degrees above the exact-coefficient cap."""


@dataclass(frozen=True)
class BellEval:
    """One Bell-polynomial evaluation, carried in both linear and log scale."""

    n: int
    x: float
    value: float
    log_value: float


def _build_stirling_triangle(n_max: int) -> list[list[int]]:
    # additive recurrence S2(n,k) = k*S2(n-1,k) + S2(n-1,k-1), exact ints
    tri = [[1]]
    for n in range(1, n_max + 1):
        prev = tri[-1]
        row = [0] * (n + 1)
        for k in range(1, n + 1):
            row[k] = k * (prev[k] if k <= n - 1 else 0) + prev[k - 1]
        tri.append(row)
    return tri


_STIRLING = _build_stirling_triangle(N_MAX)


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind, exact.  S2(n,k) = 0 for k > n."""
    if n < 0 or k < 0:
        raise ValueError("stirling2 requires n >= 0 and k >= 0")
    if n > N_MAX:
        raise UnsupportedDegreeError(f"stirling2 supports n <= {N_MAX}, got {n}")
    if k > n:
        return 0
    return _STIRLING[n][k]


def poisson_pmf(m: int, a: float) -> float:
    """P{Poisson(a) = m} = e^{-a} a^m / m!, computed in log space."""
    if m < 0:
        raise ValueError(f"count must be nonnegative, got {m}")
    if a < 0:
        raise ValueError(f"rate must be nonnegative, got {a}")
    if a == 0.0:
        return 1.0 if m == 0 else 0.0
    return math.exp(-a + m * math.log(a) - math.lgamma(m + 1))


def poisson_cdf(n: int, a: float) -> float:
    """P{Poisson(a) <= n}, the partial sum of poisson_pmf."""
    if n < 0:
        raise ValueError(f"count must be nonnegative, got {n}")
    if a < 0:
        raise ValueError(f"rate must be nonnegative, got {a}")
    # regularized upper incomplete gamma identity; exact partial-sum semantics
    return float(sc.pdtr(n, a))


def bell_poly(n: int, x: float) -> BellEval:
    """Bell polynomial B_n(x) = sum_k S2(n,k) x^k with compensated summation."""
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    if n > N_MAX:
        raise UnsupportedDegreeError(f"bell_poly supports n <= {N_MAX}, got {n}")
    if x < 0:
        raise ValueError(f"argument must be nonnegative, got {x}")
    if n == 0:
        return BellEval(0, x, 1.0, 0.0)
    value = math.fsum(_STIRLING[n][k] * x**k for k in range(1, n + 1))
    log_value = math.log(value) if value > 0.0 else -math.inf
    return BellEval(n, x, value, log_value)


def bell_poly_derivative(n: int, x: float) -> float:
    """B'_n(x), via the identity B'_n = -B_n + B_{n+1}/x for x > 0.

    At x = 0 the identity form degenerates; the coefficient derivative
    S2(n,1) = 1 (n >= 1) is returned instead.
    """
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    if n > N_MAX - 1:
        raise UnsupportedDegreeError(
            f"bell_poly_derivative supports n <= {N_MAX - 1}, got {n}"
        )
    if x < 0:
        raise ValueError(f"argument must be nonnegative, got {x}")
    if x == 0.0:
        return 0.0 if n == 0 else float(_STIRLING[n][1])
    return -bell_poly(n, x).value + bell_poly(n + 1, x).value / x


def log_bell_series(n: int, x: float) -> float:
    """log B_n(x) via the Poisson-weighted power series sum_k k^n x^k e^{-x}/k!.

    Valid for any degree n >= 0 (no Stirling cap) and finite x >= 0.
    """
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    if not 0 <= x < math.inf:
        raise ValueError(f"argument must be finite and nonnegative, got {x}")
    if n == 0:
        return 0.0
    if x == 0.0:
        return -math.inf
    log_x = math.log(x)
    log_tol = math.log(SeriesControl.tolerance)
    total = -math.inf
    peak = -math.inf
    chunk = 512
    for k0 in itertools.count(1, chunk):
        ks = np.arange(k0, k0 + chunk, dtype=float)
        lt = n * np.log(ks) + ks * log_x - x - sc.gammaln(ks + 1.0)
        total = np.logaddexp(total, sc.logsumexp(lt))
        peak = max(peak, float(lt.max()))
        last = float(lt[-1])
        # terms are unimodal in k: past the mode the ratio drops below 1/2
        # once k+1 > 2 x e^{n/k}, so the remaining tail is < 2 e^{last}
        k_last = k0 + chunk - 1
        past_mode = last < peak and (k_last + 1) > 2.0 * x * math.exp(n / k_last)
        if past_mode and last < total + log_tol:
            break
    return float(total)


def bell_series(n: int, x: float) -> float:
    """B_n(x) via the truncated infinite series (linear scale)."""
    return math.exp(log_bell_series(n, x))


def lower_incomplete_gamma(a: float, z: float) -> float:
    """gamma(a, z) = int_0^z t^{a-1} e^{-t} dt for a > 0, z >= 0."""
    if a <= 0:
        raise ValueError(f"shape must be positive, got {a}")
    if z < 0:
        raise ValueError(f"upper limit must be nonnegative, got {z}")
    return float(sc.gammainc(a, z) * sc.gamma(a))


# -- the paper's closed forms ------------------------------------------------


def _stirling_coef(i: int, k: int, mu: float) -> float:
    """C_i = sum_{j=i}^{k-1} S2(j, i) mu^j / j!."""
    return math.fsum(stirling2(j, i) * mu**j / math.factorial(j) for j in range(i, k))


def cdf_closed_form(law: IteratedLaw, n: int, t: float) -> float:
    """Stirling-expanded form of P_n(t).

    The inner power sum starts at k = 1: starting it at k = 0 double
    counts the constant term and gives P_n(0) = 2 for n >= 1.
    """
    if n < 0:
        raise ValueError(f"state must be nonnegative, got {n}")
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    mu = law.params.mu
    ct = law.params.lam * t * math.exp(-mu)
    inner = math.fsum(ct**k * _stirling_coef(k, n + 1, mu) for k in range(1, n + 1))
    return math.exp(-law.params.rate * t) * (1.0 + inner)


def crossing_density_constant_stirling(k: int, t: float, law: IteratedLaw) -> float:
    """Stirling-expanded form of the constant-boundary crossing density.
    The bracketed power sum starts at i = 1 (the printed i = 0 start double
    counts the constant term)."""
    if k < 1:
        raise ValueError(f"boundary level must be >= 1, got {k}")
    if t <= 0:
        raise ValueError(f"time must be positive, got {t}")
    lam, mu = law.params.lam, law.params.mu
    a = law.params.rate
    c = lam * math.exp(-mu)
    ct = c * t
    p0 = math.exp(-a * t)
    coef = [_stirling_coef(i, k, mu) for i in range(k)]
    s1 = 1.0 + math.fsum(ct**i * coef[i] for i in range(1, k))
    s2 = math.fsum(i * ct ** (i - 1) * coef[i] for i in range(1, k))
    return p0 * a * s1 - p0 * c * s2


def _mean_crossing_time_stirling(k: int, law: IteratedLaw) -> float:
    """E(T) for the constant boundary k: the integral of P_{k-1}(t)."""
    mu = law.params.mu
    em1 = math.expm1(mu)
    inner = math.fsum(math.factorial(i) / em1**i * _stirling_coef(i, k, mu)
                      for i in range(1, k))
    return (1.0 + inner) / law.params.rate


def _hitting_density_bell(k: int, t: float, law: IteratedLaw) -> float:
    lam, mu = law.params.lam, law.params.mu
    ct = lam * math.exp(-mu) * t
    return (math.exp(-mu) * mu**k / math.factorial(k) * lam
            * math.exp(-law.params.rate * t) * bell_poly_derivative(k, ct))


def _hitting_cdf_stirling(k: int, t: float, law: IteratedLaw) -> float:
    """The Stirling sum formally includes j = 0, which vanishes because
    S2(k, 0) = 0 for k >= 1 (this is what makes F_H(0) = 0)."""
    lam, mu = law.params.lam, law.params.mu
    a = law.params.rate
    ct = lam * math.exp(-mu) * t
    em1 = math.expm1(mu)
    gam = math.fsum(stirling2(k, j) * lower_incomplete_gamma(j + 1, a * t) / em1**j
                    for j in range(0, k + 1))
    return mu**k / math.factorial(k) * (math.exp(-a * t) * bell_poly(k, ct).value + gam)


def _crossing_density_flux(k: int, t: float, law: IteratedLaw) -> float:
    """Constant-boundary crossing density from the law weights of the
    weight engine: lam sum_{j<k} p_j(t) P{Poisson(mu) >= k - j}."""
    w = np.exp(law._log_weights(t, k - 1))
    return law.params.lam * float(w @ sc.pdtrc(np.arange(k - 1, -1, -1), law.params.mu))


def _hitting_density_flux(k: int, t: float, law: IteratedLaw) -> float:
    """Hitting density from the law weights of the weight engine:
    lam sum_{j<k} p_j(t) P{Poisson(mu) = k - j}."""
    w = np.exp(law._log_weights(t, k - 1))
    q = np.array([poisson_pmf(i, law.params.mu) for i in range(k, 0, -1)])
    return law.params.lam * float(w @ q)


def _hitting_probability_stirling(k: int, mu: float) -> float:
    em1 = math.expm1(mu)
    s = math.fsum(stirling2(k, j) * math.factorial(j) / em1**j for j in range(1, k + 1))
    return mu**k / math.factorial(k) * s


def _exp_jump_cdf(z: float, t: float, params: ModelParams, zeta: float) -> float:
    """CDF of Z(t) for exponential(zeta) jumps via the direct series
    1 - sum_m p_m(t) P(m-1; zeta z)."""
    if z < 0:
        return 0.0
    if t == 0.0:
        return 1.0
    w = IteratedLaw(params).pmf_vector(t)
    s = math.fsum(w[m] * poisson_cdf(m - 1, zeta * z) for m in range(1, len(w)))
    # the truncated tail of the weights carries P(m-1;.) <= 1, so this
    # underestimates the subtracted mass by at most the tail tolerance
    return min(1.0, max(0.0, 1.0 - s - (1.0 - w.sum())))


def _conv_args(n, z):
    """Orders and points as arrays; an order below 1 is an error."""
    n = np.asarray(n)
    if np.any(n < 1):
        raise ValueError("convolution order must be >= 1")
    return n, np.asarray(z, dtype=float)


def conv_cdf(jumps: JumpSpec, n, z):
    """n-fold convolution CDF F_X^{(n)}(z) of the jump law in closed form:
    the step [z >= n], gammainc(n, zeta z), or ndtr((z - n eta) / (sigma
    sqrt n)) on every cell, with zeta z as ``cpp._exp_point`` clips it, so
    no product overflows.  The orders n >= 1 broadcast against the points z;
    one order at one point gives a float."""
    n, z = _conv_args(n, z)
    if jumps.kind == "degenerate_unit":
        out = np.greater_equal(z, n).astype(float)
    elif jumps.kind == "exponential":
        # gammainc(n, 0) = 0, so z < 0 needs no mask
        out = sc.gammainc(n, cpp._exp_point(z, jumps.zeta))
    else:
        out = sc.ndtr((z - n * jumps.eta) / (jumps.sigma * np.sqrt(n)))
    return _float_if_scalar(out)


def conv_pdf(jumps: JumpSpec, n, z):
    """n-fold convolution density f_X^{(n)}(z) of a continuous jump law, at
    orders and points as in ``conv_cdf``: the Gaussian for normal jumps, and
    for exponential ones the exp of (n - 1) log(zeta z) + log zeta - zeta z
    - gammaln(n) on (0, inf), which loses about |log f| ulps."""
    if not jumps.is_continuous:
        raise ValueError("degenerate_unit jumps have no density")
    n, z = _conv_args(n, z)
    if jumps.kind == "exponential":
        off = z <= 0  # False at NaN, which stays NaN
        zz = np.where(off, 1.0, cpp._exp_point(z, jumps.zeta))  # log(1) = 0 off the support
        f = np.exp((n - 1) * np.log(zz) + math.log(jumps.zeta) - zz - sc.gammaln(n))
        out = np.where((z == 0) & (n == 1), jumps.zeta, np.where(off, 0.0, f))
    else:
        s = jumps.sigma * np.sqrt(n)
        out = np.exp(-0.5 * np.square((z - n * jumps.eta) / s)) / (s * math.sqrt(2 * math.pi))
    return _float_if_scalar(out)


def _conv_cdf_fsum(z: float, w: np.ndarray, jumps: JumpSpec) -> float:
    """The mixture CDF w_0 [z >= 0] + sum_n w_n F_X^{(n)}(z) term by term:
    one exactly rounded sum over the block of ``conv_cdf``."""
    col = conv_cdf(jumps, np.arange(1, len(w))[:, None], [z])[:, 0]
    return min(1.0, math.fsum([w[0] * (z >= 0), *(w[1:] * col)]))


def _exp_jump_density_grid(z: np.ndarray, t: float, params: ModelParams,
                           zeta: float) -> np.ndarray:
    """Exponential-jump density series sum_n p_n(t) f_X^{(n)}(z), z > 0, over
    the gammaln block of ``conv_pdf``."""
    z = np.asarray(z, dtype=float)
    if np.any(z <= 0):
        raise ValueError("density is defined for z > 0")
    w = IteratedLaw(params).pmf_vector(t)
    return w[1:] @ conv_pdf(JumpSpec.exponential(zeta), np.arange(1, w.size)[:, None], z)


# -- suites ------------------------------------------------------------------


def formula_cross_checks() -> list[CheckResult]:
    out = []

    worst = 0.0
    for x in (0.1, 1.0, 10.0, 50.0):
        for n in range(21):
            direct = bell_poly(n, x).value
            series = bell_series(n, x)
            worst = max(worst, _rel(direct, series))
            if n <= 19:
                rec = x * (bell_poly_derivative(n, x) + direct)
                worst = max(worst, _rel(rec, bell_poly(n + 1, x).value))
    out.append(CheckResult("bell polynomial: direct vs series vs recursion",
                           worst < 1e-9, worst, 1e-9))

    law = IteratedLaw(ModelParams(2.0, 1.0))
    t = 1.5
    bell_x = law.params.lam * t * math.exp(-law.params.mu)
    worst = max(
        _rel(law.pmf(n, t), math.exp(n * math.log(law.params.mu) - math.lgamma(n + 1)
                                     - law.params.rate * t) * bell_series(n, bell_x))
        for n in range(21))
    out.append(CheckResult("iterated pmf: weights vs Bell series",
                           worst < 1e-10, worst, 1e-10))

    worst = max(abs(cdf_closed_form(law, n, t) - law.cdf(n, t))
                for n in range(11) for t in (0.0, 0.5, 1.0, 2.0))
    out.append(CheckResult("iterated cdf: Stirling expansion vs partial sum",
                           worst < 1e-12, worst, 1e-12))

    worst = 0.0
    s, t = 0.75, 2.0
    for n in range(11):
        for j in range(n + 1):
            direct = law.conditional_pmf(j, s, t, n)
            worst = max(worst, 0.0 if direct >= 0 else abs(direct))
        tot = math.fsum(law.conditional_pmf(j, s, t, n) for j in range(n + 1))
        worst = max(worst, abs(tot - 1.0))
    out.append(CheckResult("conditional pmf normalizes (Bell convolution identity)",
                           worst < 1e-10, worst, 1e-10))

    params = ModelParams(1.0, 1.0)
    jumps = JumpSpec.exponential(1.0)
    worst = 0.0
    zs = np.linspace(0.0, 8.0, 17)
    for t in (0.5, 1.0, 2.0):
        w = IteratedLaw(params).pmf_vector(t)
        grid = cpp.cpp_cdf_Z_grid(zs, t, params, jumps)
        for z, g in zip(zs, grid):
            worst = max(worst, abs(_exp_jump_cdf(z, t, params, 1.0) - g),
                        abs(_conv_cdf_fsum(z, w, jumps) - g))
    out.append(CheckResult("exponential jumps: direct vs generic vs alternative CDF",
                           worst < 1e-10, worst, 1e-10))

    zs = np.linspace(0.25, 8.0, 16)
    worst = float(np.max(np.abs(_exp_jump_density_grid(zs, 1.0, params, 1.0)
                                - cpp.cpp_density_Z_grid(zs, 1.0, params, jumps))))
    out.append(CheckResult("exponential jumps: density series vs generic mixture",
                           worst < 1e-10, worst, 1e-10))

    # lam t = 500, relative, from F near 1e-104 to 1: the production series
    # against the gammainc terms summed one by one
    params, jumps = ModelParams(5.0, 1.0), JumpSpec.exponential(2.0)
    w = IteratedLaw(params).pmf_vector(100.0)
    zs = np.array([5.0, 25.0, 75.0, 150.0, 200.0, 250.0, 300.0, 400.0])
    grid = cpp.cpp_cdf_Z_grid(zs, 100.0, params, jumps)
    worst = max(_rel(_conv_cdf_fsum(z, w, jumps), g) for z, g in zip(zs, grid))
    out.append(CheckResult("exponential jumps: alternative vs generic CDF at lam t = 500",
                           worst < 1e-12, worst, 1e-12))

    worst = 0.0
    for n in range(16):
        conv = math.fsum(law.pmf(j, 0.6) * law.pmf(n - j, 1.4) for j in range(n + 1))
        worst = max(worst, abs(conv - law.pmf(n, 2.0)))
    out.append(CheckResult("iterated pmf semigroup identity",
                           worst < 1e-10, worst, 1e-10))

    worst = 0.0
    for k in (1, 2, 3, 4):
        lim = crossing.hitting_cdf(k, 2000.0 / law.params.rate, law)
        worst = max(worst, abs(lim - crossing.hitting_probability(k, law.params.mu)))
    out.append(CheckResult("hitting cdf limit equals hitting probability",
                           worst < 1e-8, worst, 1e-8))

    # pi_k from the renewal sequence against the column sums of the visit
    # table of the same record, and at k = 2000 against the renewal limit
    # (1 - e^{-mu})/mu, reached there to double precision
    worst = max(max(*map(_rel, crossing.hitting_probability(np.arange(1, 65), mu),
                         _jump_chain(mu).tables(64)[0][:65, 1:65].sum(axis=0)),
                    _rel(crossing.hitting_probability(2000, mu), -math.expm1(-mu) / mu))
                for mu in (0.05, 0.5, 1.0, 3.0, 8.0))
    out.append(CheckResult("hitting probability: renewal record vs chain column sums "
                           "and renewal limit", worst < 1e-13, worst, 1e-13))

    worst = max(
        abs(crossing.crossing_density_constant(k, t, law)
            - crossing_density_constant_stirling(k, t, law))
        for k in (1, 2, 3, 4) for t in (0.25, 1.0, 2.5)
    )
    out.append(CheckResult("constant-boundary density: direct vs Stirling form",
                           worst < 1e-10, worst, 1e-10))

    # the flux and chain sums against the paper's forms, at times from the
    # mean crossing time on, where the Stirling forms do not cancel
    worst = 0.0
    mu = law.params.mu
    for k in range(1, 21):
        worst = max(worst,
                    _rel(crossing.hitting_probability(k, mu),
                         _hitting_probability_stirling(k, mu)),
                    _rel(crossing.mean_crossing_time_constant(k, law),
                         _mean_crossing_time_stirling(k, law)))
        for t in np.array([1.0, 2.0, 4.0]) * _mean_crossing_time_stirling(k, law):
            worst = max(worst,
                        _rel(crossing.crossing_density_constant(k, t, law),
                             crossing_density_constant_stirling(k, t, law)),
                        _rel(crossing.hitting_density(k, t, law),
                             _hitting_density_bell(k, t, law)),
                        _rel(crossing.hitting_cdf(k, t, law),
                             _hitting_cdf_stirling(k, t, law)))
    out.append(CheckResult("first passage: flux and chain sums vs Stirling forms, k <= 20",
                           worst < 1e-12, worst, 1e-12))

    # the two engines: jump-chain mixtures on a t-grid against the flux sums
    # over the law weights, from a hundredth of the mean crossing time on
    worst = 0.0
    for k in range(1, 21):
        ts = np.array([0.01, 0.1, 1.0, 4.0]) * crossing.mean_crossing_time_constant(k, law)
        for chain, flux in ((crossing.crossing_density_constant, _crossing_density_flux),
                            (crossing.hitting_density, _hitting_density_flux)):
            worst = max(worst, *map(_rel, chain(k, ts, law), [flux(k, t, law) for t in ts]))
    out.append(CheckResult("first-passage densities: jump chain vs weight engine, k <= 20",
                           worst < 1e-12, worst, 1e-12))
    return out


def figure_reproduction() -> list[CheckResult]:
    out = []
    jumps = JumpSpec.exponential(1.0)
    for lam, masses in MASS_TABLE.items():
        params = ModelParams(lam, 1.0)
        worst = max(
            abs((1.0 - cpp.atom_mass_Z(t, params)) - masses[t - 1])
            for t in range(1, 6)
        )
        out.append(CheckResult(
            f"continuous-part masses, lam={lam:g}, t=1..5", worst < 5e-5, worst, 5e-5))
        worst_q = 0.0
        for t in range(1, 6):
            hi = params.lam * t + 12.0 * math.sqrt(2.0 * params.lam * t) + 20.0
            q = gauss_panel_mass(
                lambda z: cpp.cpp_density_Z_grid(z, float(t), params, jumps), hi)
            worst_q = max(worst_q, abs(q - masses[t - 1]))
        out.append(CheckResult(
            f"density quadrature masses, lam={lam:g}, t=1..5",
            worst_q < 1e-4, worst_q, 1e-4))
    return out


def analytic_vs_mc(seed: int = 42, replicates: int = 100_000) -> list[CheckResult]:
    out = []
    rngs = mc.substreams(seed, 8)

    # empirical pmf of the iterated process vs analytic, chi-square at 1%
    params = ModelParams(4.0, 3.0)
    law = IteratedLaw(params)
    zs = mc.sample_Z(params, JumpSpec.degenerate_unit(), 1.0, replicates, rngs[0])
    hi = int(zs.max())
    counts = np.bincount(zs.astype(int), minlength=hi + 1)
    expected = replicates * np.array([law.pmf(n, 1.0) for n in range(hi + 1)])
    p = chi_square_pvalue(counts, expected)
    out.append(CheckResult("iterated pmf vs empirical frequencies (chi-square)",
                           p > 0.01, p, 0.01))

    # Kolmogorov band for the continuous-jump CDFs
    band = 1.63 / math.sqrt(replicates)
    params = ModelParams(1.0, 1.0)
    for jumps, label in (
        (JumpSpec.exponential(1.0), "exponential"),
        (JumpSpec.normal(0.5, 1.0), "normal"),
    ):
        zs = mc.sample_Z(params, jumps, 1.0, replicates, rngs[1])
        d = ks_distance(zs, lambda u: cpp.cpp_cdf_Z_grid(u, 1.0, params, jumps),
                        atom_at_zero=cpp.atom_mass_Z(1.0, params))
        out.append(CheckResult(f"{label}-jump CDF vs empirical (Kolmogorov)",
                               d < band, d, band))

    # atom frequency at 0
    zs = mc.sample_Z(params, JumpSpec.exponential(1.0), 1.0, replicates, rngs[2])
    freq = float(np.mean(zs == 0.0))
    p0 = cpp.atom_mass_Z(1.0, params)
    se = math.sqrt(p0 * (1 - p0) / replicates)
    out.append(CheckResult("atom mass at 0 vs empirical frequency",
                           abs(freq - p0) < 3 * se, abs(freq - p0), 3 * se))

    # constant boundary k=1: crossing times are exponential
    law2 = IteratedLaw(ModelParams(2.0, 1.0))
    ts = mc.batch_first_crossing(crossing.Boundary.constant(1), law2.params,
                                 mc.default_horizon(law2.params),
                                 min(replicates, 100_000), rngs[3])
    ts = ts[~np.isnan(ts)]
    p = stats.kstest(ts, lambda x: 1.0 - np.exp(-law2.params.rate * x)).pvalue
    out.append(CheckResult("constant boundary k=1: exponential crossing law (KS)",
                           p > 0.05, p, 0.05))

    # hitting frequencies vs pi_k, and lambda invariance
    for k in (1, 2):
        pik = crossing.hitting_probability(k, 1.0)
        freqs = []
        for i, lam in enumerate((1.0, 2.0)):
            pars = ModelParams(lam, 1.0)
            hs = mc.batch_hitting(k, pars, mc.default_horizon(pars),
                                  replicates, rngs[4 + i])
            freqs.append(float(np.mean(~np.isnan(hs))))
        se = math.sqrt(pik * (1 - pik) / replicates)
        worst = max(abs(f - pik) for f in freqs)
        out.append(CheckResult(f"hitting frequency vs pi_{k} (both lambdas)",
                               worst < 3 * se, worst, 3 * se))

    # strong law and Laplace transform
    params = ModelParams(1.0, 1.0)
    jumps = JumpSpec.exponential(1.0)
    t_long = 200.0
    zs = mc.sample_Z(params, jumps, t_long, replicates, rngs[6])
    target = params.lam * params.mu * jumps.xi
    se = float(np.std(zs / t_long, ddof=1)) / math.sqrt(replicates)
    err = abs(float(np.mean(zs / t_long)) - target)
    out.append(CheckResult("strong-law trend of Z(t)/t", err < 3 * se, err, 3 * se))

    zs = mc.sample_Z(params, jumps, 1.0, replicates, rngs[7])
    worst_sig = 0.0
    for theta in (0.1, 0.5, 1.0):
        vals = np.exp(-theta * zs)
        target = math.exp(-cpp.laplace_exponent(theta, params, jumps))
        se = float(np.std(vals, ddof=1)) / math.sqrt(replicates)
        worst_sig = max(worst_sig, abs(float(np.mean(vals)) - target) / se)
    out.append(CheckResult("Laplace transform vs exponent (3 SE, theta grid)",
                           worst_sig < 3.0, worst_sig, 3.0))
    return out


def run_suite(name: str, seed: int = 42, replicates: int = 100_000) -> list[CheckResult]:
    if name == "formula-cross-checks":
        return formula_cross_checks()
    if name == "figure-reproduction":
        return figure_reproduction()
    if name == "analytic-vs-mc":
        return analytic_vs_mc(seed=seed, replicates=replicates)
    raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
