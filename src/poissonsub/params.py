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
            _normal_cdf(n, z, out, self.eta, self.sigma)
        return out if out.ndim else float(out)

    def conv_pdf(self, n, z):
        """n-fold convolution density f_X^{(n)}(z); continuous kinds only.
        Orders and block as in ``conv_cdf``.  The exponential branch, the exp
        of (n - 1) log(zeta z) - zeta z - gammaln(n), is an oracle: it loses
        about |log f| ulps, and ``cpp_density_Z_grid`` reads the stepped
        Poisson block instead."""
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


# ndtr(u) is exactly 1.0 for every u >= 8.2924 (scipy 1.17; a test pins it
# from _NDTR_SAT on), so a normal CDF cell whose argument reaches it needs
# no ndtr: 50-57% of the cells of a mixture at lambda t 100 to 800.  The
# skip thresholds sit at _NDTR_ONE, clear of _NDTR_SAT by far more than
# their rounding.
_NDTR_SAT, _NDTR_ONE = 8.3, 8.5
# bands of orders per normal CDF block, each with one skip threshold
_CDF_BANDS = 32


def _normal_cdf(n, z, out, eta: float, sigma: float) -> None:
    """out = ndtr((z - n eta) / (sigma sqrt n)), each cell by the same
    operations in the same order as over the whole block, but only on the
    cells whose argument can fall below _NDTR_ONE; the others hold 1.0.

    The block is viewed as rows of one order by the points that share it
    (the trailing axes along which n does not vary), and the rows are split
    into _CDF_BANDS bands.  A band skips the points at or above its largest
    threshold n eta + _NDTR_ONE sigma sqrt(n), over the band's rows where
    their points differ; the points below it (NaN too) are evaluated as
    the one slice that spans them, which on a sorted grid holds nothing
    else, and any cell of the slice above the threshold comes out 1.0 from
    ndtr itself.  Rounding is monotone, so a row's threshold serves wherever the argument
    rounded at the threshold itself reaches _NDTR_SAT; a row where it does
    not skips nothing.  ``where=`` is no way to skip cells: scipy.special's
    ufuncs crash on it (numpy 2.4, scipy 1.17)."""
    if not out.size:
        return
    n = n.reshape((1,) * (out.ndim - n.ndim) + n.shape)
    lead = n.ndim
    while lead and n.shape[lead - 1] == 1:
        lead -= 1
    rows = np.broadcast_to(n, out.shape[:lead] + n.shape[lead:]).reshape(-1, 1)
    block = out.reshape(rows.shape[0], math.prod(out.shape[lead:]))
    pts = np.broadcast_to(z, out.shape).reshape(block.shape)
    mean, scale = rows * eta, sigma * np.sqrt(rows)
    top = mean + _NDTR_ONE * scale
    top[~((top - mean) / scale >= _NDTR_SAT)] = np.inf
    block.fill(1.0)
    size = -(-rows.shape[0] // _CDF_BANDS)
    starts = np.arange(0, rows.shape[0], size)
    low = pts[:1] if pts.strides[0] == 0 else np.minimum.reduceat(pts, starts)
    evaluate = ~(low >= np.maximum.reduceat(top, starts))  # (bands x points)
    first = evaluate.argmax(axis=1).tolist()
    stop = (evaluate.shape[1] - evaluate[:, ::-1].argmax(axis=1)).tolist()
    for b, r in enumerate(starts.tolist()):
        if not evaluate[b, first[b]]:
            continue
        band, cols = slice(r, r + size), slice(first[b], stop[b])
        cells = block[band, cols]
        np.subtract(pts[band, cols], mean[band], out=cells)
        cells /= scale[band]
        sc.ndtr(cells, out=cells)


@dataclass(frozen=True)
class MomentSummary:
    """First two moments of Z(t) plus the jump-law inputs they derive from."""

    mean: float
    variance: float
    dispersion_index: float
    xi: float
    sigma2: float
