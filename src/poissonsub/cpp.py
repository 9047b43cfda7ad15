"""Law of the subordinated compound Poisson process Z(t) = Y[N(t)].

The CDF and density are mixtures of the closed-form n-fold convolutions
``JumpSpec.conv_cdf`` and ``conv_pdf`` of the jump law, weighted by the
iterated Poisson pmf from ``IteratedLaw.pmf_vector``, so truncation follows
the same tail-mass rule everywhere.  Each quantity has one path, vectorised
over its z-grid; the paper's exponential-jump series are oracles in
``verify``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as sc

from .iterated import IteratedLaw
from .params import JumpSpec, ModelParams, MomentSummary
from .special import SeriesControl, log_poisson_pmf

_DEFAULT_CTL = SeriesControl()


def atom_mass_Z(t: float, params: ModelParams) -> float:
    """Mass of the atom at 0: P{Z(t) = 0} = e^{-lam t (1 - e^{-mu})} for
    jump laws that are continuous at 0."""
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    return math.exp(-params.lam * t * (1.0 - math.exp(-params.mu)))


def _poisson_weights(a: float, tol: float) -> np.ndarray:
    """pmf vector of Poisson(a) through the point where tail mass < tol."""
    if a == 0.0:
        return np.array([1.0])
    n_hi = int(a + 12.0 * math.sqrt(a) + 30.0)
    while sc.pdtrc(n_hi, a) >= tol:  # P{Poisson(a) > n_hi}
        n_hi *= 2
    return np.exp(log_poisson_pmf(np.arange(n_hi + 1), a))


def _mixture(w: np.ndarray, z: np.ndarray, conv) -> np.ndarray:
    """sum_{n>=1} w[n] conv(n, z) over the points z, one (N x width) block
    of the n-fold kernel at a time, with N x width about 2**20 cells."""
    ns = np.arange(1, len(w))[:, None]
    width = max(1, 2**20 // max(1, ns.size))
    flat = z.ravel()
    out = np.empty(flat.size)
    for lo in range(0, flat.size, width):
        out[lo:lo + width] = w[1:] @ conv(ns, flat[lo:lo + width])
    return out.reshape(z.shape)


def _cdf_mixture(w: np.ndarray, z, jumps: JumpSpec) -> np.ndarray:
    """The mixture CDF: the atom w[0] at 0 plus the n-fold jump CDFs."""
    z = np.asarray(z, dtype=float)
    return np.minimum(1.0, w[0] * (z >= 0) + _mixture(w, z, jumps.conv_cdf))


def cpp_cdf_Y(y: float, t: float, params: ModelParams, jumps: JumpSpec,
              ctl: SeriesControl = _DEFAULT_CTL) -> float:
    """CDF of the plain compound Poisson process Y(t) driven by M(t)."""
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    if t == 0.0:
        return 1.0 if y >= 0 else 0.0
    return float(_cdf_mixture(_poisson_weights(params.mu * t, ctl.tolerance), y, jumps))


def cpp_cdf_Z_grid(z: np.ndarray, t: float, params: ModelParams, jumps: JumpSpec,
                   ctl: SeriesControl = _DEFAULT_CTL) -> np.ndarray:
    """CDF of Z(t) = Y[N(t)] at every point of z: the mixture of n-fold jump
    convolutions over the iterated Poisson weights.  Right-continuous;
    includes the atom at 0.  A scalar value is the call on one point."""
    z = np.asarray(z, dtype=float)
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    if t == 0.0:
        return np.where(z >= 0, 1.0, 0.0)
    return _cdf_mixture(IteratedLaw(params, ctl).pmf_vector(t), z, jumps)


def cpp_density_Z_grid(z: np.ndarray, t: float, params: ModelParams,
                       jumps: JumpSpec, ctl: SeriesControl = _DEFAULT_CTL) -> np.ndarray:
    """Density of the absolutely continuous part of Z(t) at every point of
    z (z != 0, t > 0)."""
    if not jumps.is_continuous:
        raise ValueError("degenerate_unit jumps have a discrete law, no density")
    if t <= 0:
        raise ValueError(f"time must be positive, got {t}")
    z = np.asarray(z, dtype=float)
    w = IteratedLaw(params, ctl).pmf_vector(t)
    return np.maximum(0.0, _mixture(w, z, jumps.conv_pdf))


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
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    xi, s2 = jumps.xi, jumps.sigma2
    mean = params.lam * params.mu * xi * t
    var = params.lam * params.mu * (s2 + (params.mu + 1.0) * xi**2) * t
    disp = var / mean if mean != 0.0 else math.nan
    return MomentSummary(mean=mean, variance=var, dispersion_index=disp,
                         xi=xi, sigma2=s2)
