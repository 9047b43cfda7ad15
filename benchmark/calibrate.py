"""Machine-speed calibration: a fixed computation timed next to the queries.

The cores this benchmark runs on are shared with work it cannot see: the
same query can take half as long again a few minutes later, and a run-long
median does not remove that.  So every query time is scaled by
``REFERENCE_S / t_kernel``, where ``t_kernel`` is the time this kernel takes
right then.  Figures are thus stated at the machine speed at which the kernel
takes ``REFERENCE_S``.  Set-up time is scaled by a pure-Python loop instead
(``run._loop_seconds``).  The kernel touches nothing of poissonsub; it mixes
the work the workloads do: a Python loop with number formatting (the CLI),
short numpy vectors through scipy special functions (the weights), and a
pass over a large array (the mixtures and samplers).
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy import special as sc

REFERENCE_S = 0.0028

_BIG = np.linspace(0.0, 50.0, 100_000)
_KS = np.arange(1.0, 513.0)


def kernel() -> float:
    acc = 0.0
    text = ",".join("%.12g" % (i * 0.7310585786300049) for i in range(400))
    acc += len(text)
    for n in range(1, 7):
        lt = n * np.log(_KS) + _KS * 0.3 - sc.gammaln(_KS + 1.0)
        acc += float(sc.logsumexp(lt))
    acc += float(np.exp(-_BIG).sum())
    return acc


def kernel_seconds(repeats: int = 1) -> float:
    """Median time of ``repeats`` runs of the kernel."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def smoothed_factors(kernel: list[float], half_window: int = 3) -> list[float]:
    """Speed factor for each query from the kernel times measured before it
    and its neighbours: the median over ``2 half_window + 1`` of them follows
    the machine's speed from one query to the next without taking the noise
    of a single 3 ms measurement."""
    out = []
    for i in range(len(kernel)):
        window = kernel[max(0, i - half_window): i + half_window + 1]
        out.append(REFERENCE_S / statistics.median(window))
    return out
