"""Command-line surface: evaluate the process laws on grids, run the Monte
Carlo simulator, and run verification suites.  Emits CSV or JSON tables;
every number comes from a library call, the CLI only builds grids.

Exit codes: 0 success, 1 validation error, 2 verification failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from itertools import chain

import numpy as np

from . import VERIFY_SUITES, __version__, cpp, crossing, mc
from .iterated import IteratedLaw
from .params import JumpSpec, ModelParams
from .special import SeriesControl

_FMT = "%.12g"
_TINY = np.finfo(float).tiny  # smallest normal float
_MAX_POINTS = 10**7  # per range: a table of that many rows is already ~200 MB of text


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the documented validation code is 1
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def parse_range(spec: str, step: float) -> np.ndarray:
    """Parse 'a..b' (inclusive, given step), 'a..b:step', or a single value.
    The ends, the step and the number of steps of a range must be finite,
    and a range holds at most _MAX_POINTS points."""
    text = spec
    if ":" in spec:
        spec, s = spec.split(":", 1)
        step = float(s)
    if ".." in spec:
        a, b = (float(x) for x in spec.split("..", 1))
        if step <= 0:
            raise ValueError(f"step must be positive, got {step}")
        n = (b - a) / step
        if not all(map(math.isfinite, (a, b, step, n))):
            raise ValueError(f"range {text!r}: ends, step and count must be finite")
        if round(n) >= _MAX_POINTS:
            raise ValueError(f"range {text!r} has {round(n) + 1} points; "
                             f"at most {_MAX_POINTS} are allowed")
        grid = a + step * np.arange(round(n) + 1)
        return grid[grid <= b + 1e-12 * max(1.0, abs(b))]
    return np.array([float(spec)])


def _jump_spec(args) -> JumpSpec:
    if args.jumps == "unit":
        return JumpSpec.degenerate_unit()
    if args.jumps == "exp":
        if args.zeta is None:
            raise ValueError("exponential jumps require --zeta")
        return JumpSpec.exponential(args.zeta)
    if args.sigma is None or args.eta is None:
        raise ValueError("normal jumps require --eta and --sigma")
    return JumpSpec.normal(args.eta, args.sigma)


def _law(args) -> IteratedLaw:
    return IteratedLaw(ModelParams(args.lam, args.mu), SeriesControl(args.tolerance))


def _cells(col: np.ndarray, fmt: str) -> tuple[list, int | np.ndarray]:
    """The cells of a column as the line template takes them, and which are
    text (1), not raw floats (0): one int for the column or one per cell.
    A float is "%.12g"; in JSON the shortest repr of that 12-digit float (or
    NaN, Infinity, -Infinity).  An int is written as it is, an object column
    (ints and words) as ``str`` in CSV and ``json.dumps`` in JSON."""
    if col.dtype.kind != "f":
        plain = fmt == "csv" or col.dtype.kind in "iu"
        return list(map(str if plain else json.dumps, col.tolist())), 1
    x = np.ascontiguousarray(col, dtype=np.float64)
    # a column of runs of equal bits (t, one run per t) is formatted per run
    first = np.ones(x.size, dtype=bool)
    first[1:] = x.view(np.int64)[1:] != x.view(np.int64)[:-1]
    if 2 * np.count_nonzero(first) < x.size:
        vals, as_text = _cells(x[first], fmt)
        cells = [("%s" if t else _FMT) % v
                 for t, v in zip(np.broadcast_to(as_text, len(vals)).tolist(), vals)]
        return np.array(cells, dtype=object)[np.cumsum(first) - 1].tolist(), 1
    if fmt == "csv":
        return x.tolist(), 0
    # A decimal of at most 15 digits is the shortest repr of the normal float
    # it rounds to, so JSON writes the "%.12g" text but for layout (integral
    # values get ".0", [1e12, 1e16) no exponent): only zero, subnormal,
    # non-finite, large and near-integral cells are checked, each value once.
    a = np.abs(x)
    with np.errstate(invalid="ignore"):  # inf - inf
        near = np.abs(x - np.rint(x)) <= 1e-11 * a
    cand = np.flatnonzero(near | ~((a >= _TINY) & (a < 1e11)))
    bits, which = np.unique(x[cand].view(np.int64), return_inverse=True)
    texts = np.array([_FMT % v for v in bits.view(np.float64).tolist()], dtype=object)
    dumps = np.array([repr(r) if math.isfinite(r) else json.dumps(r)  # repr is faster
                      for r in map(float, texts)], dtype=object)
    rows = (dumps != texts)[which]
    cells, as_text = x.astype(object), np.zeros(x.size, dtype=np.int64)
    cells[cand[rows]], as_text[cand[rows]] = dumps[which[rows]], 1
    return cells.tolist(), (as_text if rows.any() else 0)


def _write_table(table: dict[str, np.ndarray], meta: dict, args) -> None:
    """Write a table, an ordered mapping from column name to column, as CSV
    or as JSON laid out as ``json.dumps(..., indent=2)`` lays it out.  The
    body is one ``%`` over a line template per row: raw floats go in under
    "%.12g", so CPython formats each once, and only the cells ``_cells``
    makes text (runs, ints, words, JSON cells that "%.12g" does not write)
    under "%s"; a row with a text float cell has a template of its own."""
    names, csv = list(table), args.format == "csv"
    cols, as_text = zip(*(_cells(table[k], args.format) for k in names))
    code = sum(t << j for j, t in enumerate(as_text))  # bit j: cell j is text
    keys = [""] * len(names) if csv else [
        f"      {json.dumps(k).replace('%', '%%')}: " for k in names]

    def line(c: int) -> str:
        cells = [k + ("%s" if c >> j & 1 else _FMT) for j, k in enumerate(keys)]
        return ",".join(cells) if csv else "    {\n" + ",\n".join(cells) + "\n    }"

    used, which = np.unique(code, return_inverse=True)
    lines = np.array(list(map(line, used.tolist())), dtype=object)[
        np.broadcast_to(which, len(cols[0]))].tolist()
    body = ("\n" if csv else ",\n").join(lines) % tuple(chain.from_iterable(zip(*cols)))
    head = ",".join(names) + "\n" if csv else json.dumps(
        {"metadata": meta, "rows": []}, indent=2)[:-len("[]\n}")] + "[\n"
    text = head + body + ("\n" if csv else "\n  ]\n}\n")
    if args.output is None:
        sys.stdout.write(text)
        return
    path = args.output
    outdir = os.environ.get("POISSONSUB_OUTDIR")
    if outdir and not os.path.isabs(path):
        path = os.path.join(outdir, path)
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _meta(args, **extra) -> dict:
    meta = {"command": args.command, "lam": args.lam, "mu": args.mu,
            "version": __version__}
    if getattr(args, "seed", None) is not None:
        meta["seed"] = args.seed
    meta.update(extra)
    return meta


# -- command implementations -------------------------------------------------
# Each returns a table: an ordered mapping from column name to a column array,
# with one block of rows per point of the outer grid (t, or k).


def _cat(blocks: list[np.ndarray]) -> np.ndarray:
    return np.concatenate(blocks) if blocks else np.empty(0)


def _cmd_pmf(args) -> dict[str, np.ndarray]:
    law = _law(args)
    ts = parse_range(args.t, args.t_step)
    if args.n is None:
        ps = [law.pmf_vector(float(t)) for t in ts]
        ns = [np.arange(p.size) for p in ps]
    else:
        n = parse_range(args.n, 1.0).astype(int)
        ns = [n] * ts.size
        ps = [law.pmf(n, t) for t in ts.tolist()]
    return {"t": np.repeat(ts, [p.size for p in ps]), "n": _cat(ns), "pmf": _cat(ps)}


def _cmd_cdf(args) -> dict[str, np.ndarray]:
    law, jumps = _law(args), _jump_spec(args)
    ts = parse_range(args.t, args.t_step)
    if jumps.kind == "degenerate_unit":
        ns = parse_range(args.n or "0..10", 1.0).astype(int)
        vals = [law.cdf(ns, t) for t in ts.tolist()]
        return {"t": np.repeat(ts, ns.size), "n": np.tile(ns, ts.size), "cdf": _cat(vals)}
    zs = parse_range(args.z, args.step)
    vals = [cpp.cpp_cdf_Z_grid(zs, float(t), law.params, jumps, law.ctl) for t in ts]
    return {"t": np.repeat(ts, zs.size), "z": np.tile(zs, ts.size), "cdf": _cat(vals)}


def _cmd_density(args) -> dict[str, np.ndarray]:
    law, jumps = _law(args), _jump_spec(args)
    ts = parse_range(args.t, args.t_step)
    zs = parse_range(args.z, args.step)
    zs = zs[zs != 0.0]
    vals = [cpp.cpp_density_Z_grid(zs, float(t), law.params, jumps, law.ctl) for t in ts]
    return {"t": np.repeat(ts, zs.size), "z": np.tile(zs, ts.size),
            "density": _cat(vals)}


def _cmd_moments(args) -> dict[str, np.ndarray]:
    params, jumps = ModelParams(args.lam, args.mu), _jump_spec(args)
    ts = parse_range(args.t, args.t_step)
    ms = [cpp.moments_Z(float(t), params, jumps) for t in ts]
    return {"t": ts, **{k: np.array([getattr(m, k) for m in ms], dtype=float)
                        for k in ("mean", "variance", "dispersion_index")}}


def _cmd_crossing(args) -> dict[str, np.ndarray]:
    law = _law(args)
    k = args.k
    if args.quantity == "mean":
        if args.boundary != "constant":
            raise ValueError("mean crossing time is available for the constant "
                             "boundary only")
        return {"k": np.array([k]),
                "mean": np.array([crossing.mean_crossing_time_constant(k, law)])}
    ts = parse_range(args.t, args.t_step)
    if args.quantity == "density":
        if args.boundary != "constant":
            raise ValueError("crossing density is available for the constant "
                             "boundary only")
        ts = ts[ts > 0]
        vals = crossing.crossing_density_constant(k, ts, law)
    elif args.boundary == "linear-increasing":
        vals = crossing.survival_linear_increasing(k, ts, law)
    else:
        b = (crossing.Boundary.constant(k) if args.boundary == "constant"
             else crossing.Boundary.linear_decreasing(k))
        vals = crossing.survival_nonincreasing(b, ts, law)
    return {"t": ts, "k": np.full(ts.size, k), args.quantity: vals}


def _cmd_hitting(args) -> dict[str, np.ndarray]:
    ks = parse_range(args.k, 1.0).astype(int)
    if args.prob:
        mus = parse_range(args.mu_grid or _FMT % args.mu, args.step)
        vals = [crossing.hitting_probability(k, mu)
                for k in ks.tolist() for mu in mus.tolist()]
        return {"k": np.repeat(ks, mus.size), "mu": np.tile(mus, ks.size),
                "prob": np.array(vals, dtype=float)}
    law = _law(args)
    ts = parse_range(args.t, args.t_step)
    pos = ts > 0  # the density cell at t = 0 is written as 0
    cdf, density = np.zeros((2, ks.size, ts.size))
    for i, k in enumerate(ks.tolist()):
        cdf[i] = crossing.hitting_cdf(k, ts, law)
        density[i, pos] = crossing.hitting_density(k, ts[pos], law)
    return {"k": np.repeat(ks, ts.size), "t": np.tile(ts, ks.size), "cdf": cdf.ravel(),
            "density": density.ravel()}


def _cmd_avoiding(args) -> dict[str, np.ndarray]:
    law = _law(args)
    table = crossing.avoiding_table(args.k, args.horizon, law)
    n, j, g = [], [], []
    for i, row in enumerate(table.rows):
        n += [i] * (row.size + 1)
        j += [*range(row.size), "survival"]
        g += [row, [table.survival_at_integer(i)]]
    return {"n": np.array(n), "j": np.array(j, dtype=object), "g": np.concatenate(g)}


def _cmd_simulate(args) -> dict[str, np.ndarray]:
    params, jumps = ModelParams(args.lam, args.mu), _jump_spec(args)
    rng = mc.make_rng(args.seed)
    zs = mc.sample_Z(params, jumps, args.horizon, args.replicates, rng)
    return {"replicate": np.arange(zs.size), "z": np.asarray(zs, dtype=float)}


def _add_command(sub, name: str, fn, about: str, seed: bool = False):
    """Add a table command: its subparser, with the common flags, runs fn."""
    p = sub.add_parser(name, help=about)
    p.set_defaults(fn=fn)
    p.add_argument("--lambda", dest="lam", type=float, default=1.0,
                   help="intensity of the subordinator N(t)")
    p.add_argument("--mu", type=float, default=1.0,
                   help="intensity of the inner process M(t)")
    p.add_argument("--jumps", choices=("unit", "exp", "normal"), default="unit")
    p.add_argument("--zeta", type=float, help="rate of exponential jumps")
    p.add_argument("--eta", type=float, help="mean of normal jumps")
    p.add_argument("--sigma", type=float, help="std of normal jumps")
    p.add_argument("--tolerance", type=float, default=1e-12)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", help="output file (default stdout; relative "
                   "paths resolve under $POISSONSUB_OUTDIR)")
    p.add_argument("--t-step", type=float, default=1.0,
                   help="step for t ranges (default 1)")
    p.add_argument("--step", type=float, default=0.01,
                   help="step for z/mu ranges (default 0.01)")
    if seed:
        p.add_argument("--seed", type=int, default=0)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="poissonsub")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _add_command(sub, "pmf", _cmd_pmf, "iterated-process pmf table")
    p.add_argument("--t", required=True, help="time or range a..b")
    p.add_argument("--n", help="state range a..b (default: until tail mass)")

    p = _add_command(sub, "cdf", _cmd_cdf, "CDF table of Z(t)")
    p.add_argument("--t", required=True)
    p.add_argument("--n", help="state range for unit jumps")
    p.add_argument("--z", default="0..10", help="z range for continuous jumps")

    p = _add_command(sub, "density", _cmd_density,
                     "density table of Z(t), continuous jumps")
    p.add_argument("--t", required=True)
    p.add_argument("--z", default="0..10")

    p = _add_command(sub, "moments", _cmd_moments, "mean/variance of Z(t)")
    p.add_argument("--t", required=True)

    p = _add_command(sub, "crossing", _cmd_crossing, "first-crossing quantities")
    p.add_argument("--boundary", default="constant", choices=(
        "constant", "linear-decreasing", "linear-increasing"))
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", default="0..5")
    p.add_argument("--quantity", choices=("survival", "density", "mean"),
                   default="survival")

    p = _add_command(sub, "hitting", _cmd_hitting, "first-hitting quantities")
    p.add_argument("--k", default="1", help="state or range a..b")
    p.add_argument("--t", default="0..5")
    p.add_argument("--prob", action="store_true",
                   help="tabulate the hitting probability over a mu grid")
    p.add_argument("--mu-grid", dest="mu_grid",
                   help="mu range a..b for --prob (default: the single --mu)")

    p = _add_command(sub, "avoiding", _cmd_avoiding,
                     "avoiding-probability table, boundary k+t")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--horizon", type=int, default=5)

    p = _add_command(sub, "simulate", _cmd_simulate, "Monte Carlo draws of Z(horizon)",
                     seed=True)
    p.add_argument("--horizon", type=float, default=1.0)
    p.add_argument("--replicates", type=int, default=1000)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=VERIFY_SUITES)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--replicates", type=int, default=100_000)
    return parser


# one parser per process: building one takes about as long as a small query
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)

    if args.command == "verify":
        from . import verify  # loads scipy.stats, which no other command needs
        results = verify.run_suite(args.suite, seed=args.seed,
                                   replicates=args.replicates)
        for r in results:
            print(r.line())
        return 0 if all(r.passed for r in results) else 2

    try:
        table = args.fn(args)
        if next(iter(table.values())).size == 0:
            raise ValueError("empty result grid; check the range arguments")
        _write_table(table, _meta(args, jumps=args.jumps), args)
    except (ValueError, KeyError) as exc:
        print(f"poissonsub: validation error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"poissonsub: i/o error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
