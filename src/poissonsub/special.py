"""Numerical building blocks shared by the process laws: the truncation
policy ``SeriesControl``; ``poisson_pmf``, the Poisson pmf of Loader's form,
read by the jump-chain record's batch window (and through it by the law
weights, the jump chain and the samplers) and the passage-time mixtures;
``poisson_pmf_stepped``, its block with ratio steps between the Loader cells
at multiples of 8, read by the exponential-jump CDF and density; and
``_in_blocks``, the one block loop of every mixture over a grid of points.
The paper's reference forms (Stirling numbers, Bell polynomials, scalar
Poisson kernels, incomplete gamma) live in ``verify``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class SeriesControl:
    """Truncation policy for all infinite-series evaluations:
    ``tolerance`` bounds the absolute mass left in the truncated tail."""

    tolerance: float = 1e-12

    def __post_init__(self):
        if not (0.0 < self.tolerance < 1.0):
            raise ValueError(f"tolerance must be in (0, 1), got {self.tolerance}")


# head(m) = m log m - m - log m! = -stirlerr(m) - log(2 pi m)/2, exactly rounded for
# m = 0..15; from 16 on, five terms of the Stirling series give stirlerr to 1e-16
_HEAD = np.array([
    0.0, -1.0, -1.3068528194400546, -1.4959226032237258, -1.6328763858683832,
    -1.7403021806115442, -1.828694396641771, -1.9037903176782212, -1.9690705693065629,
    -2.0268062840554952, -2.0785616431350586, -2.12545984509181, -2.168334698205882,
    -2.207822206123445, -2.244418568125061, -2.2785183673077407,
])
_CACHED_COUNTS = 1 << 14  # longer ranges are not kept: the cache holds at most 16 MB
# cells in one (orders x points) block of a mixture
_BLOCK_CELLS = 2**19
# the stepped block takes a Loader cell at every count that is a multiple of
# _STRIDE, and steps up from it to the next
_STRIDE = 8
_TINY = np.finfo(float).tiny  # the smallest normal float


@lru_cache(maxsize=64)
def _count_part(counts: range) -> tuple[bool, np.ndarray, np.ndarray]:
    """Whether the counts start at 0, the counts m >= 1, and every head(m)."""
    m = np.arange(counts.start, counts.stop, counts.step, dtype=float)
    big = np.maximum(m, 16.0)  # where the series serves
    mm = big * big
    stirlerr = (1/12 - (1/360 - (1/1260 - (1/1680 - 1/(1188 * mm)) / mm) / mm) / mm) / big
    head = np.where(m < 16, _HEAD[np.minimum(m, 15).astype(int)],
                    -stirlerr - 0.5 * np.log(2 * math.pi * big))
    zero = counts.start == 0 < counts.stop
    m.flags.writeable = head.flags.writeable = False
    return zero, m[zero:], head


@lru_cache(maxsize=8)
def _reciprocals(size: int) -> np.ndarray:
    """fl(1/m) at index m, for 1 <= m < size; index 0 holds 0."""
    r = np.zeros(size)
    np.divide(1.0, np.arange(1, size), out=r[1:])
    r.flags.writeable = False
    return r


def _loader(x, m, head, out: np.ndarray, zero: bool = False, scratch=None) -> np.ndarray:
    """Loader's cells exp(head(m) - m (r - 1 - log r)), r = x/m, into out, by
    the same operations wherever a cell is taken: at the counts m >= 1 below
    a first row for the count 0 if zero, exp(head(0) - x) = e^{-x}.  x/m
    must be smallest in out's last row; the logs go to scratch, a block of
    the shape of those rows, if given."""
    if zero:
        out[0] = x
    body = out[zero:]
    np.divide(x, m, body)
    # x/m falls with m, so a zero shows in the last row; only then is the
    # error state, dearer than a small block, set
    if np.count_nonzero(body[-1:]) == x.size:
        lg = np.log(body, out=scratch)
    else:
        with np.errstate(divide="ignore"):  # log 0 = -inf: Pois(0; m) = 0
            lg = np.log(body, out=scratch)
    body -= 1.0
    body -= lg
    body *= m
    np.subtract(head, out, out)
    return np.exp(out, out)


def poisson_pmf(counts: range, x, out=None, scratch=None) -> np.ndarray:
    """Pois(x; m) = x^m e^{-x} / m! for the counts m >= 0 of a range, at the
    points x >= 0, one or an array: one block of shape
    (len(counts),) + shape(x), the counts along its first axis.  It is
    written into out if given, and scratch, of the same shape, takes the
    logs in place of a new block.

    Loader's split (C. Loader, 2000, "Fast and accurate computation of
    binomial probabilities"; R's dpois), exp(head(m) - m (r - 1 - log r)) with
    r = x/m, has no piece much larger than the log-pmf, whereas
    exp(m log x - x - log m!) cancels log m! and loses about that many ulps.
    r - 1 is exact for r >= 1/2, so one log r per cell serves as log1p(r - 1);
    the equal (m - x) + m log r takes the rounding of r at full weight: 3.5e-12
    off at m = 1e5 near x = m, against 1e-15.  Pois(x; 0) = e^{-x}: Pois(0; 0) = 1."""
    x = np.asarray(x, dtype=float)
    part = _count_part if len(counts) <= _CACHED_COUNTS else _count_part.__wrapped__
    zero, m, head = part(counts)
    if out is None:
        out = np.empty((len(counts),) + x.shape)
    if x.ndim:
        shape = (-1,) + (1,) * x.ndim
        m, head = m.reshape(shape), head.reshape(shape)
    return _loader(x, m, head, out, zero, None if scratch is None else scratch[zero:])


def poisson_pmf_stepped(counts: range, x) -> np.ndarray:
    """The block of ``poisson_pmf`` for consecutive counts, at a third of its
    cost: at each count m that is a multiple of _STRIDE = 8 the cell is
    poisson_pmf's Loader cell, and from it each count up to the next is an
    exact ratio step, Pois(x; m) = Pois(x; m - 1) fl(x fl(1/m)), with the
    reciprocals cached.  A step costs two multiplies, not a divide, a log and
    an exp; its three roundings add at most 1.5 eps relative, so a cell's
    bound is its Loader cell's plus at most 10.5 eps.

    The steps a cell takes start at the multiple of 8 at or below its count,
    whatever the range, so its bits depend on (m, x) alone.  Where that
    Loader cell is subnormal and the seventh step reaches tiny/4, the steps
    climb from the few bits of a subnormal back into the normal range (the
    right tail, x above the count), so the seven cells above it are Loader
    cells too.  A subnormal has at least one bit, so a stepped cell that the
    rule misses is below tiny/2.  A Loader cell of 0 is a Pois(x; m) below
    2.5e-324, and seven steps up from it stay below 2e-307."""
    x = np.asarray(x, dtype=float)
    lo = counts.start - counts.start % _STRIDE
    hi = max(lo, counts.stop + -counts.stop % _STRIDE)
    anchors = range(lo, hi, _STRIDE)
    out = np.empty((hi - lo,) + x.shape)
    # groups of 8 rows: a Loader cell, then 7 steps
    block = out.reshape((len(anchors), _STRIDE) + x.shape)
    poisson_pmf(anchors, x, block[:, 0], block[:, 1])  # row 1 is free until the steps
    size = 1 << hi.bit_length()  # a power of 2 above hi, so that few are cached
    recip = _reciprocals(size) if size <= _CACHED_COUNTS else _reciprocals.__wrapped__(hi)
    recip = recip[lo:hi].reshape(block.shape[:2] + (1,) * x.ndim)
    np.multiply(recip[:, 1:], x, out=block[:, 1:])
    for j in range(1, _STRIDE):
        block[:, j] *= block[:, j - 1]
    climbs = block[:, -1] >= _TINY / 4
    climbs &= block[:, 0] < _TINY
    if climbs.any():
        k, at = np.divmod(np.flatnonzero(climbs), x.size)  # anchor and point
        i = _STRIDE * k + np.arange(1, _STRIDE)[:, None]  # (7 x cells), counts less lo
        part = _count_part if hi - lo <= _CACHED_COUNTS else _count_part.__wrapped__
        head = part(range(lo, hi))[2]
        cells = _loader(x.ravel()[at], i + float(lo), head[i], np.empty(i.shape))
        block.reshape(len(anchors), _STRIDE, x.size)[k, 1:, at] = cells.T
    return out[counts.start - lo:counts.stop - lo]


def _float_if_scalar(x):
    """A law's value at one point as a Python float; any other as the array."""
    return x if np.ndim(x) else float(x)


def _in_blocks(law, orders: int, x):
    """law(x) at one point or an array of points x of any shape, for a law
    that builds an (orders x points) block: on x as given when it fits one
    block of about _BLOCK_CELLS cells, else on runs of the flattened points
    that do, so a grid of any length runs in bounded memory.  law returns
    one value per point, in the shape of its argument; one point gives a
    float."""
    x = np.asarray(x, dtype=float)
    if x.size * orders <= max(_BLOCK_CELLS, orders):  # one point is always one block
        return _float_if_scalar(law(x))
    flat, width = x.ravel(), max(1, _BLOCK_CELLS // orders)
    return np.concatenate([law(flat[lo:lo + width])
                           for lo in range(0, flat.size, width)]).reshape(x.shape)
