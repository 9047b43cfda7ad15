"""Model parameter objects shared by the analytic modules and the simulator."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sc


@dataclass(frozen=True)
class ModelParams:
    """Intensities of the two Poisson processes: ``lam`` drives the
    subordinator N(t), ``mu`` drives the inner process M(t)."""

    lam: float
    mu: float

    def __post_init__(self):
        if not 0 < self.lam < math.inf:
            raise ValueError(f"lam must be finite and positive, got {self.lam}")
        if not 0 < self.mu < math.inf:
            raise ValueError(f"mu must be finite and positive, got {self.mu}")

    @property
    def rate(self) -> float:
        """Rate lam (1 - e^{-mu}) of the jumps of N that move Z: the exits
        from any state of Z are exponential with this parameter."""
        return self.lam * -math.expm1(-self.mu)


@dataclass(frozen=True)
class JumpSpec:
    """Jump-size law of the summands X_i.

    kind is one of ``degenerate_unit`` (X_i = 1 a.s.), ``exponential``
    (rate ``zeta``) or ``normal`` (mean ``eta``, std ``sigma``).
    """

    kind: str
    zeta: float | None = None
    eta: float | None = None
    sigma: float | None = None

    def __post_init__(self):
        if self.kind == "degenerate_unit":
            pass
        elif self.kind == "exponential":
            if self.zeta is None or not 0 < self.zeta < math.inf:
                raise ValueError(f"exponential jumps require a finite zeta > 0, got {self.zeta}")
        elif self.kind == "normal":
            if self.sigma is None or not 0 < self.sigma < math.inf:
                raise ValueError(f"normal jumps require a finite sigma > 0, got {self.sigma}")
            if self.eta is None or not math.isfinite(self.eta):
                raise ValueError(f"normal jumps require a finite mean eta, got {self.eta}")
        else:
            raise ValueError(f"unknown jump kind {self.kind!r}")

    @classmethod
    def degenerate_unit(cls) -> "JumpSpec":
        return cls("degenerate_unit")

    @classmethod
    def exponential(cls, zeta: float) -> "JumpSpec":
        return cls("exponential", zeta=zeta)

    @classmethod
    def normal(cls, eta: float, sigma: float) -> "JumpSpec":
        return cls("normal", eta=eta, sigma=sigma)

    @property
    def is_continuous(self) -> bool:
        return self.kind in ("exponential", "normal")

    @property
    def xi(self) -> float:
        """Jump mean E{X_1}."""
        if self.kind == "degenerate_unit":
            return 1.0
        if self.kind == "exponential":
            return 1.0 / self.zeta
        return self.eta

    @property
    def sigma2(self) -> float:
        """Jump variance Var(X_1)."""
        if self.kind == "degenerate_unit":
            return 0.0
        if self.kind == "exponential":
            return 1.0 / self.zeta**2
        return self.sigma**2

    def mgf(self, s: float) -> float:
        """Moment generating function E{e^{sX}} inside its convergence region."""
        if self.kind == "degenerate_unit":
            return math.exp(s)
        if self.kind == "exponential":
            if s >= self.zeta:
                raise ValueError(
                    f"mgf of exponential({self.zeta}) jumps diverges for s >= zeta "
                    f"(got s = {s})"
                )
            return self.zeta / (self.zeta - s)
        return math.exp(self.eta * s + 0.5 * self.sigma**2 * s**2)

    def conv_cdf(self, n, z):
        """n-fold convolution CDF F_X^{(n)}(z) in closed form.  The order n
        is an int >= 1 or an (N, 1) array of them that broadcasts against z;
        the result is one (N x Z) block, computed in place."""
        n, z, out = _conv_block(n, z)
        if self.kind == "degenerate_unit":
            np.greater_equal(z, n, out=out)
        elif self.kind == "exponential":
            # gammainc(n, 0) = 0, so z < 0 needs no mask
            sc.gammainc(n, self.zeta * np.maximum(z, 0.0), out=out)
        else:
            np.subtract(z, n * self.eta, out=out)
            out /= self.sigma * np.sqrt(n)
            sc.ndtr(out, out=out)
        return out if out.ndim else float(out)

    def conv_pdf(self, n, z):
        """n-fold convolution density f_X^{(n)}(z); continuous kinds only.
        Orders and block as in ``conv_cdf``."""
        if not self.is_continuous:
            raise ValueError("degenerate_unit jumps have no density")
        n, z, out = _conv_block(n, z)
        if self.kind == "exponential":
            off = z <= 0  # False at NaN, which stays NaN
            zz = np.where(off, 1.0, self.zeta * z)  # log(1) = 0 off the support
            np.multiply(n - 1, np.log(zz), out=out)
            out += math.log(self.zeta)
            out -= zz
            out -= sc.gammaln(n)
            np.exp(out, out=out)
            np.copyto(out, 0.0, where=off)
            np.copyto(out, self.zeta, where=(z == 0) & (n == 1))
        else:
            s = self.sigma * np.sqrt(n)
            np.subtract(z, n * self.eta, out=out)
            out /= s
            np.square(out, out=out)
            out *= -0.5
            np.exp(out, out=out)
            out /= s * math.sqrt(2 * math.pi)
        return out if out.ndim else float(out)


def check_time(t, positive: bool = False) -> None:
    """Raise ValueError unless every time in t, one or an array, is finite
    and nonnegative (positive with ``positive``).  NaN fails too."""
    if isinstance(t, (int, float)):
        lo = hi = t
    else:
        t = np.asarray(t, dtype=float)
        lo, hi = t.min(initial=1.0), t.max(initial=0.0)
    if not (lo > 0 if positive else lo >= 0):
        bad = lo
    elif not hi < math.inf:
        bad = hi
    else:
        return
    kind = "positive" if positive else "nonnegative"
    raise ValueError(f"time must be finite and {kind}, got {bad}")


def _conv_block(n, z):
    """Orders and points as arrays, and the block their product fills."""
    n = np.asarray(n)
    if np.any(n < 1):
        raise ValueError("convolution order must be >= 1")
    z = np.asarray(z, dtype=float)
    return n, z, np.empty(np.broadcast_shapes(n.shape, z.shape))


@dataclass(frozen=True)
class MomentSummary:
    """First two moments of Z(t) plus the jump-law inputs they derive from."""

    mean: float
    variance: float
    dispersion_index: float
    xi: float
    sigma2: float
