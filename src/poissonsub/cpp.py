"""Law of the subordinated compound Poisson process Z(t) = Y[N(t)].

The CDF/density are mixtures of closed-form n-fold convolutions of the jump
law; the mixture weights are the iterated Poisson pmf from
``IteratedLaw.pmf_vector``, so truncation follows the same tail-mass rule
everywhere.
Exponential-jump and normal-jump specializations are exposed both through
the generic mixture and through their direct series forms.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as sc

from .iterated import IteratedLaw
from .params import JumpSpec, ModelParams, MomentSummary
from .special import SeriesControl, log_poisson_pmf, poisson_cdf, poisson_pmf

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


def cpp_cdf_Y(y: float, t: float, params: ModelParams, jumps: JumpSpec,
              ctl: SeriesControl = _DEFAULT_CTL) -> float:
    """CDF of the plain compound Poisson process Y(t) driven by M(t)."""
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    if t == 0.0:
        return 1.0 if y >= 0 else 0.0
    w = _poisson_weights(params.mu * t, ctl.tolerance)
    total = w[0] if y >= 0 else 0.0
    total += math.fsum(w[m] * jumps.conv_cdf(m, y) for m in range(1, len(w)))
    return min(1.0, total)


def cpp_cdf_Z(z: float, t: float, params: ModelParams, jumps: JumpSpec,
              ctl: SeriesControl = _DEFAULT_CTL) -> float:
    """CDF of Z(t) = Y[N(t)] as the mixture of n-fold jump convolutions
    over the iterated Poisson weights.  Right-continuous; includes the atom
    at 0."""
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    if t == 0.0:
        return 1.0 if z >= 0 else 0.0
    law = IteratedLaw(params, ctl)
    w = law.pmf_vector(t)
    total = w[0] if z >= 0 else 0.0
    total += math.fsum(w[n] * jumps.conv_cdf(n, z) for n in range(1, len(w)))
    return min(1.0, total)


def cpp_density_Z(z: float, t: float, params: ModelParams, jumps: JumpSpec,
                  ctl: SeriesControl = _DEFAULT_CTL) -> float:
    """Density of the absolutely continuous part of Z(t), z != 0, t > 0."""
    if not jumps.is_continuous:
        raise ValueError("degenerate_unit jumps have a discrete law, no density")
    if t <= 0:
        raise ValueError(f"time must be positive, got {t}")
    if z == 0.0:
        raise ValueError("density is undefined at the atom z = 0")
    law = IteratedLaw(params, ctl)
    w = law.pmf_vector(t)
    return max(0.0, math.fsum(w[n] * jumps.conv_pdf(n, z) for n in range(1, len(w))))


def exp_jump_cdf(z: float, t: float, params: ModelParams, zeta: float,
                 ctl: SeriesControl = _DEFAULT_CTL) -> float:
    """CDF of Z(t) for exponential(zeta) jumps via the direct series
    1 - sum_m p_m(t) P(m-1; zeta z)."""
    if zeta <= 0:
        raise ValueError(f"zeta must be positive, got {zeta}")
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    if z < 0:
        return 0.0
    if t == 0.0:
        return 1.0
    law = IteratedLaw(params, ctl)
    w = law.pmf_vector(t)
    s = math.fsum(w[m] * poisson_cdf(m - 1, zeta * z) for m in range(1, len(w)))
    # the truncated tail of the weights carries P(m-1;.) <= 1, so this
    # underestimates the subtracted mass by at most the tail tolerance
    return min(1.0, max(0.0, 1.0 - s - (1.0 - w.sum())))


def exp_jump_cdf_alt(z: float, t: float, params: ModelParams, zeta: float,
                     ctl: SeriesControl = _DEFAULT_CTL) -> float:
    """Alternative series for the exponential-jump CDF:
    sum_j p(j; zeta z) sum_{m<=j} p_m(t)."""
    if zeta <= 0:
        raise ValueError(f"zeta must be positive, got {zeta}")
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    if z < 0:
        return 0.0
    if t == 0.0:
        return 1.0
    law = IteratedLaw(params, ctl)
    cum = np.cumsum(law.pmf_vector(t))
    a = zeta * z
    pz = _poisson_weights(a, ctl.tolerance)
    m = min(len(pz), len(cum))
    # beyond the computed weight vector the inner cumulative sum is ~1
    total = float(pz[:m] @ cum[:m]) + float(pz[m:].sum())
    return min(1.0, total)


def exp_jump_density(z: float, t: float, params: ModelParams, zeta: float,
                     ctl: SeriesControl = _DEFAULT_CTL) -> float:
    """Density of Z(t) for exponential(zeta) jumps:
    zeta sum_m p_m(t) p(m-1; zeta z), z > 0."""
    if zeta <= 0:
        raise ValueError(f"zeta must be positive, got {zeta}")
    if z <= 0:
        raise ValueError(f"density is defined for z > 0, got {z}")
    if t <= 0:
        raise ValueError(f"time must be positive, got {t}")
    law = IteratedLaw(params, ctl)
    w = law.pmf_vector(t)
    return zeta * math.fsum(
        w[m] * poisson_pmf(m - 1, zeta * z) for m in range(1, len(w))
    )


def normal_jump_cdf(z: float, t: float, params: ModelParams, eta: float,
                    sigma: float, ctl: SeriesControl = _DEFAULT_CTL) -> float:
    """CDF of Z(t) for normal(eta, sigma^2) jumps."""
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    return cpp_cdf_Z(z, t, params, JumpSpec.normal(eta, sigma), ctl)


def cpp_cdf_Z_grid(z: np.ndarray, t: float, params: ModelParams, jumps: JumpSpec,
                   ctl: SeriesControl = _DEFAULT_CTL,
                   chunk: int = 20_000) -> np.ndarray:
    """Vectorized cpp_cdf_Z over an array of z values (chunked so the
    weights-by-grid matrix stays small)."""
    z = np.asarray(z, dtype=float)
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    if t == 0.0:
        return np.where(z >= 0, 1.0, 0.0)
    law = IteratedLaw(params, ctl)
    w = law.pmf_vector(t)
    ns = np.arange(1, len(w))
    out = np.empty_like(z)
    for lo in range(0, z.size, chunk):
        zz = z[lo:lo + chunk]
        if jumps.kind == "exponential":
            fm = sc.gammainc(ns[:, None], jumps.zeta * np.maximum(zz, 0.0)[None, :])
            fm[:, zz < 0] = 0.0
        elif jumps.kind == "normal":
            fm = sc.ndtr(
                (zz[None, :] - ns[:, None] * jumps.eta)
                / (jumps.sigma * np.sqrt(ns)[:, None])
            )
        else:
            fm = (zz[None, :] >= ns[:, None]).astype(float)
        out[lo:lo + chunk] = w[0] * (zz >= 0) + w[1:] @ fm
    return np.minimum(1.0, out)


def cpp_density_Z_grid(z: np.ndarray, t: float, params: ModelParams,
                       jumps: JumpSpec, ctl: SeriesControl = _DEFAULT_CTL,
                       chunk: int = 20_000) -> np.ndarray:
    """Vectorized cpp_density_Z over an array of z values (z != 0)."""
    if not jumps.is_continuous:
        raise ValueError("degenerate_unit jumps have a discrete law, no density")
    if t <= 0:
        raise ValueError(f"time must be positive, got {t}")
    z = np.asarray(z, dtype=float)
    law = IteratedLaw(params, ctl)
    w = law.pmf_vector(t)
    out = np.empty_like(z)
    for lo in range(0, z.size, chunk):
        zz = z[lo:lo + chunk]
        fm = np.stack([jumps.conv_pdf(n, zz) for n in range(1, len(w))])
        out[lo:lo + chunk] = w[1:] @ fm
    return np.maximum(0.0, out)


def exp_jump_density_grid(z: np.ndarray, t: float, params: ModelParams,
                          zeta: float, ctl: SeriesControl = _DEFAULT_CTL) -> np.ndarray:
    """Vectorized exp_jump_density: zeta sum_m p_m(t) p(m-1; zeta z), z > 0."""
    if zeta <= 0:
        raise ValueError(f"zeta must be positive, got {zeta}")
    if t <= 0:
        raise ValueError(f"time must be positive, got {t}")
    z = np.asarray(z, dtype=float)
    if np.any(z <= 0):
        raise ValueError("density is defined for z > 0")
    law = IteratedLaw(params, ctl)
    w = law.pmf_vector(t)
    m = np.arange(len(w) - 1, dtype=float)[:, None]  # poisson counts m-1
    lp = -zeta * z[None, :] + m * np.log(zeta * z)[None, :] - sc.gammaln(m + 1.0)
    return zeta * (w[1:] @ np.exp(lp))


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
