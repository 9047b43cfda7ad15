"""Model parameter objects shared by the analytic modules and the simulator.
The n-fold jump convolutions live with their readers, ``cpp`` and ``verify``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


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


def check_time(t, positive: bool = False) -> float:
    """Raise ValueError unless every time in t, one or an array, is finite
    and nonnegative (positive with ``positive``).  NaN fails too.  Returns
    the largest time (0.0 for no times)."""
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
        return hi
    kind = "positive" if positive else "nonnegative"
    raise ValueError(f"time must be finite and {kind}, got {bad}")


@dataclass(frozen=True)
class MomentSummary:
    """First two moments of Z(t) plus the jump-law inputs they derive from."""

    mean: float
    variance: float
    dispersion_index: float
    xi: float
    sigma2: float
