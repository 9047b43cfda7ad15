"""Law of the subordinated compound Poisson process Z(t) = Y[N(t)].

The CDF and density are mixtures of the n-fold convolutions of the jump
law, weighted by the iterated Poisson pmf from ``IteratedLaw.pmf_vector``,
so truncation follows the same tail-mass rule everywhere.  Each quantity has
one path, vectorised over its z-grid in the (orders x points) blocks of
``special._in_blocks``: the orders 1..N as an (N, 1) column by one flat array
of points.  For normal jumps a block is the closed form, ``_normal_cdf``
(ndtr only below its saturation) or ``_normal_pdf``.  For exponential jumps
the CDF is the paper's alternative series: a block of
``special.poisson_pmf_stepped`` cells Pois(zeta z; m) over the cumulative
weights, one ``gammainc`` per point; the density is the same block one count
lower over the weights.  For unit jumps the CDF is one prefix sum of the
weights read at floor(z).  The closed forms ``verify.conv_cdf`` and
``conv_pdf`` are the oracles of all three.  A NaN point gives NaN for every
jump law and time, and one point gives a float.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as sc

from .iterated import IteratedLaw
from .params import JumpSpec, ModelParams, MomentSummary, check_time
from .special import (SeriesControl, _float_if_scalar, _in_blocks, poisson_pmf,
                      poisson_pmf_stepped)

_DEFAULT_CTL = SeriesControl()


def atom_mass_Z(t: float, params: ModelParams) -> float:
    """Mass of the atom at 0: P{Z(t) = 0} = e^{-rate t}, rate = lam (1 - e^{-mu}),
    for jump laws that are continuous at 0."""
    check_time(t)
    return math.exp(-params.rate * t)


def _poisson_weights(a: float, tol: float) -> np.ndarray:
    """pmf vector of Poisson(a) through the point where tail mass < tol."""
    n_hi = int(a + 12.0 * math.sqrt(a) + 30.0)
    while sc.pdtrc(n_hi, a) >= tol:  # P{Poisson(a) > n_hi}
        n_hi *= 2
    return poisson_pmf(range(n_hi + 1), a)


def _mixture(c: np.ndarray, z: np.ndarray, kernel):
    """sum_{n=1..N} c[n-1] kernel(n, z) over the points z: one gemv per
    (N x points) block of the kernel."""
    ns = np.arange(1, c.size + 1)[:, None]
    return _in_blocks(lambda z: (c @ kernel(ns, z.ravel())).reshape(z.shape), c.size, z)


# ndtr(u) is exactly 1.0 for every u >= 8.2924 (scipy 1.17; a test pins it
# from _NDTR_SAT on), so a normal CDF cell whose argument reaches it needs
# no ndtr: 50-57% of the cells of a mixture at lambda t 100 to 800.  The
# skip thresholds sit at _NDTR_ONE, clear of _NDTR_SAT by far more than
# their rounding.
_NDTR_SAT, _NDTR_ONE = 8.3, 8.5
# bands of orders per normal CDF block, each with one skip threshold
_CDF_BANDS = 32


def _normal_cdf(ns: np.ndarray, z: np.ndarray, jumps: JumpSpec) -> np.ndarray:
    """The block ndtr((z - n eta) / (sigma sqrt n)) of the orders ns, an
    (N, 1) column, by the flat points z, each cell by the same operations as
    over the whole block but only where its argument can fall below
    _NDTR_ONE; the other cells hold 1.0.  Each of _CDF_BANDS bands of rows
    evaluates the one slice that spans the points below its largest
    threshold n eta + _NDTR_ONE sigma sqrt(n) (NaN too); on a sorted grid it
    holds nothing else, and a cell above the threshold comes out 1.0 from
    ndtr itself.  Rounding is monotone, so a row's threshold serves wherever
    the argument rounded at it reaches _NDTR_SAT; a row where it does not
    skips nothing.  ``where=`` is no way to skip cells: scipy.special's
    ufuncs crash on it (numpy 2.4, scipy 1.17)."""
    out = np.ones((ns.shape[0], z.size))
    if not out.size:
        return out
    mean, scale = ns * jumps.eta, jumps.sigma * np.sqrt(ns)
    top = mean + _NDTR_ONE * scale
    top[~((top - mean) / scale >= _NDTR_SAT)] = np.inf
    size = -(-ns.shape[0] // _CDF_BANDS)
    starts = np.arange(0, ns.shape[0], size)
    evaluate = ~(z >= np.maximum.reduceat(top, starts))  # (bands x points)
    first = evaluate.argmax(axis=1).tolist()
    stop = (z.size - evaluate[:, ::-1].argmax(axis=1)).tolist()
    for b, r in enumerate(starts.tolist()):
        if not evaluate[b, first[b]]:
            continue
        band, cols = slice(r, r + size), slice(first[b], stop[b])
        cells = out[band, cols]
        np.subtract(z[cols], mean[band], out=cells)
        cells /= scale[band]
        sc.ndtr(cells, out=cells)
    return out


def _normal_pdf(ns: np.ndarray, z: np.ndarray, jumps: JumpSpec) -> np.ndarray:
    """The block of normal n-fold densities, mean n eta and standard
    deviation sigma sqrt(n), for orders and points as in ``_normal_cdf``."""
    s = jumps.sigma * np.sqrt(ns)
    out = np.subtract(z, ns * jumps.eta)
    out /= s
    np.square(out, out=out)
    out *= -0.5
    np.exp(out, out=out)
    out /= s * math.sqrt(2 * math.pi)
    return out


def _step(z: np.ndarray) -> np.ndarray:
    """The CDF of the point mass at 0, [z >= 0], with NaN kept as NaN."""
    return np.where(np.isnan(z), z, z >= 0)


def _exp_point(z: np.ndarray, zeta: float) -> np.ndarray:
    """x = zeta z, with z clipped to [0, 1e300 / zeta]: past 1e300 every Poisson
    pmf cell is 0 and gammainc is 1, as at z = inf."""
    return zeta * np.clip(z, 0.0, 1e300 / zeta)


def _cdf_mixture(w: np.ndarray, z, jumps: JumpSpec) -> np.ndarray:
    """The mixture CDF: the atom w[0] at 0 plus the n-fold jump CDFs.

    For unit jumps F(z) = w_0 + .. + w_m with m = min(floor z, N - 1), and 0
    below z = 0: the prefix sums are read at floor(z) clipped to [-1, N - 1],
    with a 0 appended for index -1.

    For exponential(zeta) jumps P(n, x) = P{Poisson(x) >= n}, x = zeta z,
    so with W_m = w_1 + .. + w_m the jump part is the nonnegative sum
    sum_{m=1..N} Pois(x; m) W_m + W_N P{Poisson(x) > N}: one Poisson pmf
    per cell and one gammainc per point, not one per cell."""
    z = np.asarray(z, dtype=float)
    if jumps.kind == "degenerate_unit":
        cum = np.append(np.cumsum(w), 0.0)
        m = np.nan_to_num(np.floor(np.clip(z, -1.0, w.size - 1)), nan=-1.0)
        return np.minimum(1.0, np.where(np.isnan(z), z, cum[m.astype(np.intp)]))
    if jumps.kind == "exponential":
        x = _exp_point(z, jumps.zeta)
        pmf = lambda n, x: poisson_pmf_stepped(range(1, w.size), x)
        jump = _mixture(np.cumsum(w[1:]), x, pmf) + w[1:].sum() * sc.gammainc(w.size, x)
    else:
        jump = _mixture(w[1:], z, lambda n, z: _normal_cdf(n, z, jumps))
    return np.minimum(1.0, w[0] * _step(z) + jump)


def cpp_cdf_Y(y, t: float, params: ModelParams, jumps: JumpSpec,
              ctl: SeriesControl = _DEFAULT_CTL):
    """CDF of the plain compound Poisson process Y(t) driven by M(t) at one
    point or an array of points y; one point gives a float."""
    check_time(t)
    y = np.asarray(y, dtype=float)
    if t == 0.0:
        return _float_if_scalar(_step(y))
    w = _poisson_weights(params.mu * t, ctl.tolerance)
    return _float_if_scalar(_cdf_mixture(w, y, jumps))


def cpp_cdf_Z_grid(z: np.ndarray, t: float, params: ModelParams, jumps: JumpSpec,
                   ctl: SeriesControl = _DEFAULT_CTL) -> np.ndarray:
    """CDF of Z(t) = Y[N(t)] at every point of z: the mixture of n-fold jump
    convolutions over the iterated Poisson weights, which are [1] at t = 0.
    Right-continuous; includes the atom at 0.  One point gives a float."""
    check_time(t)
    return _float_if_scalar(_cdf_mixture(IteratedLaw(params, ctl).pmf_vector(t), z, jumps))


def cpp_density_Z_grid(z: np.ndarray, t: float, params: ModelParams,
                       jumps: JumpSpec, ctl: SeriesControl = _DEFAULT_CTL) -> np.ndarray:
    """Density of the absolutely continuous part of Z(t) at every point of
    z (z != 0, t > 0); one point gives a float.

    For exponential(zeta) jumps the n-fold density is zeta Pois(zeta z; n - 1),
    so the density is zeta sum_n w_n Pois(x; n - 1), x = zeta z as in the CDF:
    one block of stepped Poisson cells, 0 below z = 0 and zeta w_1 at z = 0."""
    if not jumps.is_continuous:
        raise ValueError("degenerate_unit jumps have a discrete law, no density")
    check_time(t, positive=True)
    z = np.asarray(z, dtype=float)
    w = IteratedLaw(params, ctl).pmf_vector(t)
    if jumps.kind == "exponential":
        mix = _mixture(w[1:], _exp_point(z, jumps.zeta),
                       lambda n, x: poisson_pmf_stepped(range(w.size - 1), x))
        return _float_if_scalar(np.where(z < 0, 0.0, jumps.zeta * mix))
    return _mixture(w[1:], z, lambda n, z: _normal_pdf(n, z, jumps))


def laplace_exponent(theta: float, params: ModelParams, jumps: JumpSpec) -> float:
    """Levy exponent Psi(theta) with E{e^{-theta Z(t)}} = e^{-t Psi(theta)}."""
    if jumps.kind == "exponential" and -theta >= jumps.zeta:
        raise ValueError(
            f"theta = {theta} outside the convergence region (need theta > "
            f"-zeta = {-jumps.zeta})"
        )
    mx = jumps.mgf(-theta)
    return params.lam * (1.0 - math.exp(-params.mu * (1.0 - mx)))


def moments_Z(t: float, params: ModelParams, jumps: JumpSpec) -> MomentSummary:
    """Mean lam mu xi t and variance lam mu [sigma2 + (mu+1) xi^2] t."""
    check_time(t)
    xi, s2 = jumps.xi, jumps.sigma2
    mean = params.lam * params.mu * xi * t
    var = params.lam * params.mu * (s2 + (params.mu + 1.0) * xi**2) * t
    disp = var / mean if mean != 0.0 else math.nan
    return MomentSummary(mean=mean, variance=var, dispersion_index=disp,
                         xi=xi, sigma2=s2)
