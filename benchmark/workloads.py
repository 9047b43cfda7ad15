"""The four workloads: each turns a seed into one round of queries.

A query calls poissonsub and returns its output; its check compares that
output with ``oracles`` or with a property the exact law must have, and runs
only after the timed phase.  Building a round runs no oracle, so the oracles'
cost is in no metric, set-up included.  The make-up of a round is fixed per workload;
the seed draws the parameters inside it.  Costs therefore repeat from seed to
seed, and a percentile falls on the same kind of query in every run.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracles as O

WORKLOADS = ("law-large", "grid-small", "first-passage", "mc-oracle")

# Accuracy the checks ask for.  Weights and mixtures may be off by the tail
# mass the program chose to drop (its SeriesControl tolerance) plus rounding.
RTOL = 1e-9
ROUND_SLACK = 1e-11
FP_RTOL = 1e-8  # first-passage scalars
CROSS_RTOL = 1e-6  # constant-boundary crossing density: Bell-form cancellation
MC_SE = 5.0


@dataclass
class Query:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    # Turns run()'s return value into the output to digest and check; runs
    # outside the timed window (the CLI writes files that are read back here).
    collect: Callable[[object], object] = lambda out: out
    rows_needed: int = 0  # avoiding-table rows the query needs (trace ratio)


def _close(got, want, atol, rtol, what: str, slope=None, dz=None) -> list[str]:
    """Elementwise |got - want| <= atol + rtol |want| (+ slope * dz for values
    read back at printed, rounded abscissae)."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{what}: shape {got.shape} != {want.shape}"]
    allow = atol + rtol * np.abs(want)
    if slope is not None:
        allow = allow + slope * dz
    bad = ~(np.abs(got - want) <= allow)
    if bad.any():
        i = int(np.argmax(np.where(bad, np.abs(got - want) - allow, -np.inf)))
        return [f"{what}: {int(bad.sum())} of {got.size} off; worst at index {i}: "
                f"got {got.flat[i]!r}, want {want.flat[i]!r}"]
    return []


def _local_slope(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Largest neighbouring difference quotient at each point."""
    if x.size < 2:
        return np.zeros_like(y)
    d = np.abs(np.diff(y) / np.maximum(np.diff(x), 1e-300))
    return np.maximum(np.r_[d, d[-1]], np.r_[d[0], d])


def _cdf_props(z, f, what) -> list[str]:
    f = np.asarray(f)
    errs = []
    if np.any(f < 0) or np.any(f > 1):
        errs.append(f"{what}: CDF outside [0, 1]")
    order = np.argsort(z, kind="stable")
    fs = f[order]
    if np.any(np.diff(fs) < -16 * np.finfo(float).eps * fs[1:]):  # rounding aside
        errs.append(f"{what}: CDF decreases")
    return errs


def _weights_check(w, lam, mu, t, tol, what) -> list[str]:
    """Weights against the Panjer recursion, plus total mass, mean and variance."""
    w = np.asarray(w, dtype=float)
    o = O.panjer_weights(lam, mu, t, max(w.size - 1, O.weight_count(lam, mu, t)))
    ref = o[: w.size]
    errs = []
    ok = ref > 1e-280
    errs += _close(w[ok], ref[ok], 0.0, RTOL, f"{what} weights")
    errs += _close(w[~ok], ref[~ok], 1e-280, 0.0, f"{what} weights (underflow range)")
    mass = math.fsum(w)
    if not (1.0 - tol - ROUND_SLACK <= mass <= 1.0 + ROUND_SLACK):
        errs.append(f"{what}: mass {mass!r} outside [1 - {tol}, 1]")
    n = np.arange(o.size, dtype=float)
    # the closed-form moments less what the dropped tail carries
    tail1 = math.fsum(n[w.size:] * o[w.size:])
    tail2 = math.fsum(n[w.size:] ** 2 * o[w.size:])
    mean = lam * mu * t
    var = lam * mu * (1.0 + mu) * t
    m1 = math.fsum(n[: w.size] * w)
    m2 = math.fsum(n[: w.size] ** 2 * w)
    if abs(m1 + tail1 - mean) > 1e-10 * mean:
        errs.append(f"{what}: mean {m1!r}, want {mean!r} less tail {tail1!r}")
    if abs(m2 + tail2 - (var + mean**2)) > 1e-10 * (var + mean**2):
        errs.append(f"{what}: second moment {m2!r} off variance {var!r}")
    return errs


def _jump_kind(name):
    return {"unit": "degenerate_unit", "exp": "exponential", "normal": "normal"}[name]


def _mixture(kind: str, cdf: bool, z, w, jp) -> np.ndarray:
    if kind == "unit":
        return O.unit_cdf(z, w)
    if kind == "exp":
        return (O.exp_cdf if cdf else O.exp_density)(z, w, jp["zeta"])
    return (O.normal_cdf if cdf else O.normal_density)(z, w, jp["eta"], jp["sigma"])


def _density_bound(kind: str, jp) -> float:
    """Upper bound on every n-fold jump density."""
    if kind == "exp":
        return jp["zeta"]
    return 1.0 / (jp["sigma"] * math.sqrt(2.0 * math.pi))


def _count_range(lam, mu, t, eps: float = 1e-18) -> tuple[int, int]:
    """Counts n >= 1 outside which N(t) has probability below ``eps``, from
    Chernoff bounds on the closed-form cumulant generating function
    K(s) = lam t (exp(mu (e^s - 1)) - 1): no oracle runs while a round is built."""
    s = np.linspace(1e-3, 6.0, 3000)
    log_eps = math.log(eps)
    with np.errstate(over="ignore"):
        hi = np.min((lam * t * np.expm1(mu * np.expm1(s)) - log_eps) / s)
    lo = np.max((log_eps - lam * t * np.expm1(mu * np.expm1(-s))) / s)
    return max(1, math.floor(lo)), math.ceil(hi)


def _z_range(kind: str, lam, mu, t, jp, sds: float = 9.0):
    """An interval that holds all but a negligible part of the continuous mass."""
    n_lo, n_hi = _count_range(lam, mu, t)
    if kind == "exp":
        lo = max(0.0, (n_lo - sds * math.sqrt(n_lo)) / jp["zeta"])
        return lo, (n_hi + sds * math.sqrt(n_hi) + 30.0) / jp["zeta"]
    ns = np.arange(n_lo, n_hi + 1, dtype=float)
    eta, sig = jp["eta"], jp["sigma"]
    lo = float(np.min(ns * eta - sds * sig * np.sqrt(ns)))
    hi = float(np.max(ns * eta + sds * sig * np.sqrt(ns)))
    return lo, hi


def _time_scale(k, lam, mu) -> float:
    """About E(T_k): Wald's identity with the mean overshoot mu/2 of a walk
    of Poisson(mu) steps, within 0.5% of the renewal value for k >= 2 and
    11% for k = 1.  It sets only the scale of the t-grids, so that building a
    round runs no oracle."""
    return (k + 0.5 * mu) / (lam * mu)


def _grid_check(kind, is_cdf, z, got, lam, mu, t, jp, tol, what,
                printed=False, mass_h=None) -> list[str]:
    """A CDF or density table against the oracle mixture and the law's
    properties.  ``printed`` marks values read back from 12-digit text."""
    w = O.panjer_weights(lam, mu, t)
    want = _mixture(kind, is_cdf, z, w, jp)
    scale = 1.0 if (is_cdf or kind == "unit") else _density_bound(kind, jp)
    atol = (tol + ROUND_SLACK) * scale
    rtol = RTOL + (1e-11 if printed else 0.0)
    slope = dz = None
    if printed:
        slope = _local_slope(z, want)
        dz = 5e-12 * np.abs(z) + 1e-300
    errs = _close(got, want, atol, rtol, what, slope, dz)
    if is_cdf:
        errs += _cdf_props(z, got, what)
    else:
        if np.any(np.asarray(got) < 0):
            errs.append(f"{what}: negative density")
        if mass_h is not None:
            # midpoint rule: error h^2/24 (f'(hi) - f'(lo)) at leading order
            g = np.asarray(got, dtype=float)
            ends = abs(g[1] - g[0]) + abs(g[-1] - g[-2]) if g.size > 1 else 0.0
            mass = mass_h * math.fsum(g)
            cont = 1.0 - O.atom(lam, mu, t)
            if abs(mass - cont) > 1e-7 + mass_h * ends / 24.0 * 2.0:
                errs.append(f"{what}: density mass {mass!r}, want 1 - atom = {cont!r}")
    return errs


def _jump_at_zero(ps, lam, mu, t, jspec, ctl, what) -> list[str]:
    """F(0) - F(0-) must be the atom exp(-lam t (1 - e^{-mu}))."""
    eps = 1e-9
    f = ps.cpp.cpp_cdf_Z_grid(np.array([-eps, 0.0]), t, ps.ModelParams(lam, mu), jspec, ctl)
    jump = float(f[1] - f[0])
    want = O.atom(lam, mu, t)
    # the continuous part adds at most density_bound * eps across the step
    if abs(jump - want) > 1e-8 + (ctl.tolerance + ROUND_SLACK):
        return [f"{what}: jump at 0 is {jump!r}, atom is {want!r}"]
    return []


def _midpoint_grid(lo, hi, n):
    h = (hi - lo) / n
    return lo + h * (np.arange(n) + 0.5), h


def _harmonic(lo, hi, u):
    """Quantile u of the density proportional to 1/x^2 on [lo, hi]: strata
    that favour the small end, so a run fits many queries."""
    return 1.0 / (1.0 / lo - u * (1.0 / lo - 1.0 / hi))


def _jit(rng, x, r=0.02):
    """x moved by at most the share r: the seed varies a query, not its cost."""
    return float(x * (1.0 + rng.uniform(-r, r)))


def _jump_params(rng, kind):
    if kind == "exp":
        return {"zeta": _jit(rng, 1.0, 0.1)}
    if kind == "normal":
        return {"eta": _jit(rng, 0.8, 0.1), "sigma": _jit(rng, 1.0, 0.1)}
    return {}


def _jspec(ps, kind, jp):
    if kind == "unit":
        return ps.JumpSpec.degenerate_unit()
    if kind == "exp":
        return ps.JumpSpec.exponential(jp["zeta"])
    return ps.JumpSpec.normal(jp["eta"], jp["sigma"])


# -- law-large -----------------------------------------------------------------


LAW_KINDS = ("pmf", "unit_cdf", "exp_cdf", "exp_density", "normal_cdf", "normal_density")
LAW_MUS = (0.5, 1.0, 2.0)
LAW_TOL = 1e-10  # see README: keeps pmf_vector's stop rule clear of its stall


def law_large(ps, rng, ctx) -> list[Query]:
    ctl = ps.SeriesControl(tolerance=LAW_TOL)
    queries = []
    n_strata = len(LAW_KINDS) * len(LAW_MUS)
    for ki, kind in enumerate(LAW_KINDS):
        for mi, mu in enumerate(LAW_MUS):
            s = mi + len(LAW_MUS) * ((ki + 2 * mi) % len(LAW_KINDS))
            u = (s + 0.5 + rng.uniform(-0.04, 0.04)) / n_strata
            lt = _harmonic(100.0, 1000.0, u)
            lam = float(rng.uniform(0.5, 4.0))  # the cost depends on lam * t only
            t = lt / lam
            queries.append(_law_query(ps, rng, kind, lam, mu, t, ctl))
    return queries


def _law_query(ps, rng, kind, lam, mu, t, ctl) -> Query:
    params = ps.ModelParams(lam, mu)
    tol = ctl.tolerance
    what = f"{kind}(lam={lam:.4g}, mu={mu}, t={t:.4g})"
    if kind == "pmf":
        law = ps.IteratedLaw(params, ctl)
        return Query(kind, lambda: law.pmf_vector(t),
                     lambda w: _weights_check(w, lam, mu, t, tol, what))
    jkind, quantity = kind.split("_")
    jp = _jump_params(rng, jkind)
    jspec = _jspec(ps, jkind, jp)
    npts = int(rng.integers(495, 506))
    if jkind == "unit":
        mean, sd = lam * mu * t, math.sqrt(lam * mu * (1 + mu) * t)
        z = np.arange(max(-1, math.floor(mean - 8 * sd)), math.ceil(mean + 8 * sd) + 1,
                      dtype=float)
        h = None
    else:
        lo, hi = _z_range(jkind, lam, mu, t, jp)
        z, h = _midpoint_grid(lo, hi, npts)
    is_cdf = quantity == "cdf"
    # looked up at call time, so that a traced run sees the wrapped function
    fname = "cpp_cdf_Z_grid" if is_cdf else "cpp_density_Z_grid"

    def check(out):
        errs = _grid_check(jkind, is_cdf, z, out, lam, mu, t, jp, tol, what,
                           mass_h=None if is_cdf else h)
        if is_cdf and jkind != "unit":
            errs += _jump_at_zero(ps, lam, mu, t, jspec, ctl, what)
        return errs

    return Query(kind, lambda: getattr(ps.cpp, fname)(z, t, params, jspec, ctl), check)


# -- grid-small ----------------------------------------------------------------

# (command, jumps, format) in stratum order: each factor sits twice in the
# cheaper half and twice in the dearer half of the grid sizes.
GRID_ORDER = (
    ("cdf", "exp", "csv"), ("density", "normal", "json"), ("density", "exp", "json"),
    ("cdf", "normal", "csv"), ("density", "normal", "csv"), ("cdf", "exp", "json"),
    ("cdf", "normal", "json"), ("density", "exp", "csv"),
)


GRID_LT = (2.5, 5.0, 8.5)
GRID_MU = (0.7, 1.4)


def grid_small(ps, rng, ctx) -> list[Query]:
    queries = []
    for s, (cmd, jkind, fmt) in enumerate(GRID_ORDER):
        u = (s + 0.5 + rng.uniform(-0.02, 0.02)) / len(GRID_ORDER)
        npts = int(_harmonic(5000.0, 50000.0, u))
        lt = _jit(rng, GRID_LT[s % 3])
        mu = _jit(rng, GRID_MU[s % 2])
        queries.append(_cli_grid_query(ps, rng, ctx, s, cmd, jkind, fmt, npts, lt, mu))
    for i, fmt in enumerate(("csv", "json", "csv", "json")):
        lt = _jit(rng, GRID_LT[i % 3])
        mu = _jit(rng, GRID_MU[i // 2])
        queries.append(_cli_pmf_query(ps, rng, ctx, len(GRID_ORDER) + i, fmt, lt, mu))
    return queries


def _read_table(data: bytes, fmt: str):
    text = data.decode()
    if fmt == "json":
        payload = json.loads(text)
        rows = payload["rows"]
        if not rows:
            return [], {}
        return list(rows[0].keys()), {k: np.array([float(r[k]) for r in rows])
                                      for k in rows[0]}
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    cols = list(zip(*reader))
    return header, {k: np.array([float(v) for v in c]) for k, c in zip(header, cols)}


def _cli_run(ps, argv, path):
    def run():
        return ps.cli.main(argv)

    def collect(code):
        with open(path, "rb") as fh:
            return code, fh.read()

    return run, collect


def _cli_grid_query(ps, rng, ctx, idx, cmd, jkind, fmt, npts, lt, mu) -> Query:
    lam = float(rng.uniform(0.5, 3.0))
    t = lt / lam
    jp = _jump_params(rng, jkind)
    lo, hi = _z_range(jkind, lam, mu, t, jp)
    if cmd == "cdf":
        lo -= 1.0  # a few points left of the atom
    h = (hi - lo) / npts
    a = lo + 0.5 * h
    b = a + (npts - 1) * h
    path = os.path.join(ctx["tmpdir"], f"q{idx}.{fmt}")
    argv = [cmd, "--lambda", repr(lam), "--mu", repr(mu), "--t", repr(t),
            "--jumps", jkind, f"--z={a!r}..{b!r}:{h!r}", "--format", fmt,
            "--output", path]
    argv += (["--zeta", repr(jp["zeta"])] if jkind == "exp"
             else ["--eta", repr(jp["eta"]), "--sigma", repr(jp["sigma"])])
    run, collect = _cli_run(ps, argv, path)
    tol = 1e-12  # the CLI default
    what = f"cli {cmd} {jkind} {fmt} ({npts} points)"

    def check(out):
        code, data = out
        if code != 0:
            return [f"{what}: exit code {code}"]
        header, cols = _read_table(data, fmt)
        if header != ["t", "z", cmd]:
            return [f"{what}: columns {header}"]
        z, got = cols["z"], cols[cmd]
        errs = []
        if not (abs(z.size - npts) <= 1):
            errs.append(f"{what}: {z.size} rows for {npts} points")
        errs += _grid_check(jkind, cmd == "cdf", z, got, lam, mu, t, jp, tol, what,
                            printed=True, mass_h=None if cmd == "cdf" else h)
        if cmd == "cdf":
            errs += _jump_at_zero(ps, lam, mu, t, _jspec(ps, jkind, jp),
                                  ps.SeriesControl(), what)
        return errs

    return Query(f"cli_{cmd}_{jkind}_{fmt}", run, check, collect)


def _cli_pmf_query(ps, rng, ctx, idx, fmt, lt, mu) -> Query:
    lam = float(rng.uniform(0.5, 3.0))
    t_hi = lt / lam
    step = t_hi / 3.0
    path = os.path.join(ctx["tmpdir"], f"q{idx}.{fmt}")
    argv = ["pmf", "--lambda", repr(lam), "--mu", repr(mu),
            "--t", f"{step!r}..{t_hi!r}", "--t-step", repr(step),
            "--format", fmt, "--output", path]
    run, collect = _cli_run(ps, argv, path)
    what = f"cli pmf {fmt}"

    def check(out):
        code, data = out
        if code != 0:
            return [f"{what}: exit code {code}"]
        header, cols = _read_table(data, fmt)
        if header != ["t", "n", "pmf"]:
            return [f"{what}: columns {header}"]
        errs = []
        ts = np.unique(cols["t"])
        if ts.size != 3:
            errs.append(f"{what}: {ts.size} time points, want 3")
        for tv in ts:
            sel = cols["t"] == tv
            n = cols["n"][sel].astype(int)
            if not np.array_equal(n, np.arange(n.size)):
                errs.append(f"{what}: states not 0..N at t={tv}")
                continue
            # t is read back at 12 digits; |d p_n / dt| <= 2 lam max_n p_n
            got = cols["pmf"][sel]
            ref = O.panjer_weights(lam, mu, tv, n.size - 1)
            atol = 1e-15 + 2.0 * lam * 5e-12 * tv * float(ref.max())
            errs += _close(got, ref, atol, RTOL + 1e-11, f"{what} t={tv}")
            mass = math.fsum(got)
            if not (1.0 - 1e-12 - 1e-10 <= mass <= 1.0 + 1e-10):
                errs.append(f"{what}: mass {mass!r} at t={tv}")
        return errs

    return Query(f"cli_pmf_{fmt}", run, check, collect)


# -- first-passage -------------------------------------------------------------

# One round: (query kind, how many of it), cheapest class first.  The counts
# put the median inside the crossing-density class (Bell polynomials) and the
# 90th percentile inside the increasing-boundary class (scalar pmf and cdf
# calls); see README.
FP_MIX = (
    ("mean_crossing", 1), ("hitting_probability", 1), ("hitting_density", 4),
    ("hitting_cdf", 4), ("crossing_density", 6), ("avoiding_table", 2),
    ("survival_decreasing", 2), ("survival_constant", 2), ("survival_increasing", 6),
)
FP_POINTS = 24  # survival grids
FP_BELL_POINTS = 96  # crossing and hitting densities and the hitting CDF
FP_MU = (0.7, 1.0, 1.4)
FP_T_MAX = (12, 16, 20, 24, 27, 30)  # increasing boundary, by item
# Range of k per kind.  A crossing density costs about k^2, so all six take
# k = 12: one class of equal cost around the median, clear of its neighbours.
FP_K = {"crossing_density": (12, 12)}


def first_passage(ps, rng, ctx) -> list[Query]:
    queries = []
    for kind, count in FP_MIX:
        for i in range(count):
            k_lo, k_hi = FP_K.get(kind, (1, 20))
            k = int(round(k_lo + (k_hi - k_lo) * (i + 0.5) / count))
            lam = _jit(rng, 1.5)
            mu = _jit(rng, FP_MU[i % 3])
            t_max = FP_T_MAX[i] if kind == "survival_increasing" else None
            queries.append(_fp_query(ps, rng, kind, k, lam, mu, t_max))
    return queries


def _fp_query(ps, rng, kind, k, lam, mu, t_max) -> Query:
    law = ps.IteratedLaw(ps.ModelParams(lam, mu))
    cr = ps.crossing
    et = _time_scale(k, lam, mu)
    what = f"{kind}(k={k}, lam={lam:.4g}, mu={mu:.4g})"

    def tgrid(lo, hi, n=FP_POINTS):
        return np.linspace(max(0.05, lo), hi, n)

    if kind in ("survival_constant", "survival_decreasing"):
        if kind == "survival_constant":
            b, ts = cr.Boundary.constant(k), tgrid(0.05, 3 * et)
            ref = O.survival_constant
        else:
            b, ts = cr.Boundary.linear_decreasing(k), tgrid(0.05, k + 0.5)
            ref = O.survival_decreasing
        run = lambda: [cr.survival_nonincreasing(b, float(t), law) for t in ts]
        check = lambda out: _close(out, [ref(k, float(t), lam, mu) for t in ts],
                                   1e-300, FP_RTOL, what)
        return Query(kind, run, check)
    if kind == "survival_increasing":
        # the cost follows floor(t), the rows of the avoiding table it builds:
        # the seed moves only the fractional parts, so the cost repeats
        ts = np.floor(np.linspace(t_max / 6, t_max, 6)) + rng.uniform(0.25, 0.75, 6)
        run = lambda: [cr.survival_linear_increasing(k, float(t), law) for t in ts]

        def check(out):
            rows = O.avoiding_rows(k, t_max, lam, mu)
            want = [O.survival_increasing(k, float(t), lam, mu, rows) for t in ts]
            errs = _close(out, want, 1e-300, FP_RTOL, what)
            const = [O.survival_constant(k, float(t), lam, mu) for t in ts]
            if np.any(np.asarray(out) < np.asarray(const) * (1 - FP_RTOL)):
                errs.append(f"{what}: S_lin(t) below S_const(t)")
            return errs

        return Query(kind, run, check, rows_needed=t_max + 1)
    if kind == "crossing_density":
        # below ~0.2 E(T_k) the Bell form loses all digits to cancellation
        ts = tgrid(0.2 * et, 3 * et, FP_BELL_POINTS)
        run = lambda: [cr.crossing_density_constant(k, float(t), law) for t in ts]
        check = lambda out: _close(out, [O.crossing_flux(k, float(t), lam, mu) for t in ts],
                                   1e-300, CROSS_RTOL, what)
        return Query(kind, run, check)
    if kind == "mean_crossing":
        ks = range(1, k + 1)
        run = lambda: [cr.mean_crossing_time_constant(j, law) for j in ks]
        check = lambda out: _close(out, [O.mean_crossing_time(j, lam, mu) for j in ks],
                                   0.0, FP_RTOL, what)
        return Query(kind, run, check)
    if kind == "hitting_density":
        ts = tgrid(0.05, 3 * et, FP_BELL_POINTS)
        run = lambda: [cr.hitting_density(k, float(t), law) for t in ts]
        check = lambda out: _close(out, [O.hitting_flux(k, float(t), lam, mu) for t in ts],
                                   1e-300, FP_RTOL, what)
        return Query(kind, run, check)
    if kind == "hitting_cdf":
        ts = tgrid(0.05, 3 * et, FP_BELL_POINTS)
        run = lambda: [cr.hitting_cdf(k, float(t), law) for t in ts]
        check = lambda out: _close(out, [O.hitting_cdf(k, float(t), lam, mu) for t in ts],
                                   1e-300, FP_RTOL, what)
        return Query(kind, run, check)
    if kind == "hitting_probability":
        mus = np.linspace(0.25, 3.0, 12)
        ks = range(1, k + 1)
        run = lambda: [cr.hitting_probability(j, float(m)) for j in ks for m in mus]
        check = lambda out: _close(out, [O.hitting_probability(j, float(m))
                                         for j in ks for m in mus], 0.0, FP_RTOL, what)
        return Query(kind, run, check)
    horizon = int(round(_jit(rng, 50 + 150 * k / 20)))
    run = lambda: cr.avoiding_table(k, horizon, law)

    def check(table):
        want = O.avoiding_rows(k, horizon, lam, mu)
        if len(table.rows) != horizon + 1:
            return [f"{what}: {len(table.rows)} rows, want {horizon + 1}"]
        errs = []
        for n in range(0, horizon + 1, 10):
            errs += _close(table.rows[n], want[n], 1e-15, FP_RTOL, f"{what} row {n}")
        errs += _close(table.survival_at_integer(horizon), math.fsum(want[horizon]),
                       1e-15, FP_RTOL, f"{what} survival")
        return errs

    return Query(kind, run, check, rows_needed=horizon + 1)


# -- mc-oracle -----------------------------------------------------------------

# (kind, k or None, lam, mu) per query; sizes and parameters move by a few
# per cent with the seed, so each query's cost repeats from seed to seed.
# Sorted by cost, the samplers of Z(t) fill the bottom third, the batch
# crossings and hittings the middle (the median), and the increasing boundary
# sits at the 90th percentile below the one general-boundary query.
MC_DESIGN = (
    ("sample_Z_unit", None, 1.0, 0.7), ("sample_Z_unit", None, 4.0, 1.4),
    ("sample_Z_exp", None, 1.0, 1.0), ("sample_Z_exp", None, 4.0, 0.7),
    ("sample_Z_normal", None, 2.5, 1.4), ("sample_Z_normal", None, 4.0, 1.0),
    ("crossing_constant", 3, 1.5, 1.0), ("crossing_constant", 6, 1.5, 1.4),
    ("crossing_decreasing", 3, 1.5, 1.0), ("crossing_decreasing", 6, 1.5, 1.4),
    ("crossing_increasing", 2, 2.0, 1.0), ("crossing_increasing", 4, 2.0, 1.4),
    ("hitting", 3, 1.5, 1.0), ("hitting", 6, 1.5, 1.4),
    ("crossing_general", 2, 1.5, 1.0),
)
MC_SAMPLES = 150_000
MC_PATHS = 200_000
MC_GENERAL_PATHS = 100_000


def mc_oracle(ps, rng, ctx) -> list[Query]:
    return [_mc_query(ps, rng, kind, k, _jit(rng, lam), _jit(rng, mu),
                      int(rng.integers(0, 2**31)))
            for kind, k, lam, mu in MC_DESIGN]


def _within(emp, want, var, n, what) -> list[str]:
    se = math.sqrt(max(var, 1e-12) / n)
    if abs(emp - want) > MC_SE * se:
        return [f"{what}: {emp!r} vs {want!r}, {abs(emp - want) / se:.1f} standard errors"]
    return []


def _mc_query(ps, rng, kind, k, lam, mu, qseed) -> Query:
    mc = ps.mc
    params = ps.ModelParams(lam, mu)
    what = f"{kind}(k={k}, lam={lam:.4g}, mu={mu:.4g}, seed={qseed})"
    if kind.startswith("sample_Z"):
        jkind = kind.split("_")[-1]
        jp = _jump_params(rng, jkind)
        jspec = _jspec(ps, jkind, jp)
        t = _jit(rng, 1.0)
        size = int(_jit(rng, MC_SAMPLES))
        run = lambda: mc.sample_Z(params, jspec, t, size, mc.make_rng(qseed))

        def check(x):
            k1, k2, k3, k4 = O.z_cumulants(lam, mu, t, _jump_kind(jkind), **jp)
            errs = _within(float(np.mean(x)), k1, k2, size, f"{what} mean")
            errs += _within(float(np.var(x)), k2, k4 + 2 * k2**2, size, f"{what} variance")
            p0 = O.atom(lam, mu, t)
            errs += _within(float(np.mean(x == 0.0)), p0, p0 * (1 - p0), size,
                            f"{what} atom")
            return errs

        return Query(kind, run, check)
    if kind == "hitting":
        size = int(_jit(rng, MC_PATHS))
        horizon = mc.default_horizon(params)
        run = lambda: mc.batch_hitting(k, params, horizon, size, mc.make_rng(qseed))

        def check(x):
            hit = ~np.isnan(x)
            pi = O.hitting_probability(k, mu)
            errs = _within(float(hit.mean()), pi, pi * (1 - pi), size, f"{what} pi_k")
            et = O.mean_crossing_time(k, lam, mu)
            for t in (0.5 * et, et):
                f = O.hitting_cdf(k, t, lam, mu)
                errs += _within(float(np.mean(x <= t)), f, f * (1 - f), size,
                                f"{what} F_H({t:.3g})")
            return errs

        return Query(kind, run, check)
    horizon = mc.default_horizon(params)
    size = int(_jit(rng, MC_PATHS))
    cr = ps.crossing
    if kind == "crossing_constant":
        b, surv = cr.Boundary.constant(k), O.survival_constant
    elif kind == "crossing_decreasing":
        b, surv = cr.Boundary.linear_decreasing(k), O.survival_decreasing
    elif kind == "crossing_increasing":
        b = cr.Boundary.linear_increasing(k)
        surv = O.survival_increasing
        horizon = 30.0
    else:
        tau = _jit(rng, 1.0) * _time_scale(k, lam, mu)
        b = cr.Boundary.nonincreasing(k, lambda s, k=k, tau=tau: k / (1.0 + s / tau))

        def surv(k_, t, lam_, mu_, b=b):
            beta = b.value(t)
            return O.survival_constant(math.ceil(beta), t, lam_, mu_) if beta > 0 else 0.0

        size = int(_jit(rng, MC_GENERAL_PATHS))
    run = lambda: mc.batch_first_crossing(b, params, horizon, size, mc.make_rng(qseed))

    def check(x):
        et = O.mean_crossing_time(k, lam, mu)
        errs = []
        for t in (0.5 * et, et, 2 * et):
            if kind == "crossing_increasing" and t > horizon:
                continue
            s = surv(k, t, lam, mu)
            errs += _within(float(np.mean(x <= t)), 1.0 - s, s * (1 - s), size,
                            f"{what} P(T <= {t:.3g})")
        return errs

    return Query(kind, run, check)


ROUND_MAKERS = {
    "law-large": law_large,
    "grid-small": grid_small,
    "first-passage": first_passage,
    "mc-oracle": mc_oracle,
}


def build(workload: str, seed: int, ps, ctx) -> list[Query]:
    """One round of queries for ``workload``; the same seed gives the same round."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return ROUND_MAKERS[workload](ps, rng, ctx)
