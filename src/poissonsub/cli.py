"""Command-line surface: evaluate the process laws on grids, run the Monte
Carlo simulator, and run verification suites.  Emits CSV or JSON tables;
every number comes from a library call, the CLI only builds grids.

Exit codes: 0 success, 1 validation error, 2 verification failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
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


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the documented validation code is 1
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def parse_range(spec: str, step: float) -> np.ndarray:
    """Parse 'a..b' (inclusive, given step), 'a..b:step', or a single value."""
    if ":" in spec:
        spec, s = spec.split(":", 1)
        step = float(s)
    if ".." in spec:
        a, b = (float(x) for x in spec.split("..", 1))
        if step <= 0:
            raise ValueError(f"step must be positive, got {step}")
        n = int(round((b - a) / step))
        grid = a + step * np.arange(n + 1)
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


def _model(args) -> ModelParams:
    return ModelParams(args.lam, args.mu)


def _ctl(args) -> SeriesControl:
    return SeriesControl(tolerance=args.tolerance)


def _cells(col: np.ndarray, fmt: str) -> list[str]:
    """The cells of one column as text.  Float cells are "%.12g"; in JSON
    they are the shortest repr of that 12-digit float, with NaN, Infinity
    and -Infinity for non-finite values.  Int cells are written as they are,
    and the cells of an object column (mixed ints and words) as ``str`` in
    CSV and ``json.dumps`` in JSON."""
    if col.dtype.kind != "f":
        plain = fmt == "csv" or col.dtype.kind in "iu"
        return list(map(str if plain else json.dumps, col.tolist()))
    # each run of equal values is formatted once (a grid's t column is one
    # run per t); equal means equal bits, so 0.0 and -0.0 stay apart
    bits = np.ascontiguousarray(col, dtype=np.float64).view(np.int64)
    first = np.ones(col.size, dtype=bool)
    first[1:] = bits[1:] != bits[:-1]
    cells = list(map(_FMT.__mod__, col[first].tolist()))
    if fmt == "json":
        # A decimal of at most 15 digits is the shortest repr of the normal
        # float it rounds to, so there the 12 "%.12g" digits are repr's
        # digits and only the layout can differ: repr writes integral values
        # with ".0" and values in [1e12, 1e16) without an exponent.
        # Subnormal, non-finite and large values go through json.dumps.
        r = np.fromiter(map(float, cells), float, len(cells))
        a = np.abs(r)
        plain = (a < 1e12) & ((a >= _TINY) | (r == 0.0))
        for i in np.flatnonzero(plain & (r == np.trunc(r))).tolist():
            cells[i] += ".0"
        for i in np.flatnonzero(~plain).tolist():
            cells[i] = json.dumps(r[i].item())
    if len(cells) == col.size:
        return cells
    return np.array(cells, dtype=object)[np.cumsum(first) - 1].tolist()


def _write_table(table: dict[str, np.ndarray], meta: dict, args) -> None:
    """Write a table, an ordered mapping from column name to column, as CSV
    or as JSON laid out as ``json.dumps(..., indent=2)`` lays it out.  Each
    column is formatted once; the rows are filled into one line template."""
    names = list(table)
    cols = [_cells(table[k], args.format) for k in names]
    if args.format == "csv":
        text = "\n".join([",".join(names), *map(",".join, zip(*cols))]) + "\n"
    else:
        head = json.dumps({"metadata": meta, "rows": []}, indent=2)
        line = "    {\n" + ",\n".join(
            f"      {json.dumps(k).replace('%', '%%')}: %s" for k in names) + "\n    }"
        # one % over the whole body is faster than one per row
        body = ",\n".join([line] * len(cols[0])) % tuple(chain.from_iterable(zip(*cols)))
        text = head[:-len("[]\n}")] + "[\n" + body + "\n  ]\n}\n"
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
    law = IteratedLaw(_model(args), _ctl(args))
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
    params, ctl = _model(args), _ctl(args)
    jumps = _jump_spec(args)
    ts = parse_range(args.t, args.t_step)
    if jumps.kind == "degenerate_unit":
        law = IteratedLaw(params, ctl)
        ns = parse_range(args.n or "0..10", 1.0).astype(int)
        vals = [law.cdf(ns, t) for t in ts.tolist()]
        return {"t": np.repeat(ts, ns.size), "n": np.tile(ns, ts.size), "cdf": _cat(vals)}
    zs = parse_range(args.z, args.step)
    vals = [cpp.cpp_cdf_Z_grid(zs, float(t), params, jumps, ctl) for t in ts]
    return {"t": np.repeat(ts, zs.size), "z": np.tile(zs, ts.size), "cdf": _cat(vals)}


def _cmd_density(args) -> dict[str, np.ndarray]:
    params, ctl = _model(args), _ctl(args)
    jumps = _jump_spec(args)
    ts = parse_range(args.t, args.t_step)
    zs = parse_range(args.z, args.step)
    zs = zs[zs != 0.0]
    vals = [cpp.cpp_density_Z_grid(zs, float(t), params, jumps, ctl) for t in ts]
    return {"t": np.repeat(ts, zs.size), "z": np.tile(zs, ts.size),
            "density": _cat(vals)}


def _cmd_moments(args) -> dict[str, np.ndarray]:
    params = _model(args)
    jumps = _jump_spec(args)
    ts = parse_range(args.t, args.t_step)
    ms = [cpp.moments_Z(float(t), params, jumps) for t in ts]
    return {"t": ts,
            "mean": np.array([m.mean for m in ms], dtype=float),
            "variance": np.array([m.variance for m in ms], dtype=float),
            "dispersion_index": np.array([m.dispersion_index for m in ms],
                                         dtype=float)}


def _cmd_crossing(args) -> dict[str, np.ndarray]:
    law = IteratedLaw(_model(args), _ctl(args))
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
        vals = [crossing.survival_nonincreasing(b, t, law) for t in ts.tolist()]
    return {"t": ts, "k": np.full(ts.size, k), args.quantity: np.array(vals, dtype=float)}


def _cmd_hitting(args) -> dict[str, np.ndarray]:
    ks = parse_range(args.k, 1.0).astype(int)
    if args.prob:
        mus = parse_range(args.mu_grid or _FMT % args.mu, args.step)
        vals = [crossing.hitting_probability(k, mu)
                for k in ks.tolist() for mu in mus.tolist()]
        return {"k": np.repeat(ks, mus.size), "mu": np.tile(mus, ks.size),
                "prob": np.array(vals, dtype=float)}
    law = IteratedLaw(_model(args), _ctl(args))
    ts = parse_range(args.t, args.t_step)
    pos = ts > 0  # the density cell at t = 0 is written as 0
    cdf, density = np.zeros((2, ks.size, ts.size))
    for i, k in enumerate(ks.tolist()):
        cdf[i] = crossing.hitting_cdf(k, ts, law)
        density[i, pos] = crossing.hitting_density(k, ts[pos], law)
    return {"k": np.repeat(ks, ts.size), "t": np.tile(ts, ks.size), "cdf": cdf.ravel(),
            "density": density.ravel()}


def _cmd_avoiding(args) -> dict[str, np.ndarray]:
    law = IteratedLaw(_model(args), _ctl(args))
    table = crossing.avoiding_table(args.k, args.horizon, law)
    n, j, g = [], [], []
    for i, row in enumerate(table.rows):
        n += [i] * (row.size + 1)
        j += [*range(row.size), "survival"]
        g += [row, [table.survival_at_integer(i)]]
    return {"n": np.array(n), "j": np.array(j, dtype=object), "g": np.concatenate(g)}


def _cmd_simulate(args) -> dict[str, np.ndarray]:
    params = _model(args)
    jumps = _jump_spec(args)
    rng = mc.make_rng(args.seed)
    zs = mc.sample_Z(params, jumps, args.horizon, args.replicates, rng)
    return {"replicate": np.arange(zs.size), "z": np.asarray(zs, dtype=float)}


def _add_common(p: argparse.ArgumentParser, seed: bool = False) -> None:
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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="poissonsub")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pmf", help="iterated-process pmf table")
    _add_common(p)
    p.add_argument("--t", required=True, help="time or range a..b")
    p.add_argument("--n", help="state range a..b (default: until tail mass)")
    p.set_defaults(fn=_cmd_pmf)

    p = sub.add_parser("cdf", help="CDF table of Z(t)")
    _add_common(p)
    p.add_argument("--t", required=True)
    p.add_argument("--n", help="state range for unit jumps")
    p.add_argument("--z", default="0..10", help="z range for continuous jumps")
    p.set_defaults(fn=_cmd_cdf)

    p = sub.add_parser("density", help="density table of Z(t), continuous jumps")
    _add_common(p)
    p.add_argument("--t", required=True)
    p.add_argument("--z", default="0..10")
    p.set_defaults(fn=_cmd_density)

    p = sub.add_parser("moments", help="mean/variance of Z(t)")
    _add_common(p)
    p.add_argument("--t", required=True)
    p.set_defaults(fn=_cmd_moments)

    p = sub.add_parser("crossing", help="first-crossing quantities")
    _add_common(p)
    p.add_argument("--boundary", choices=("constant", "linear-decreasing",
                                          "linear-increasing"),
                   default="constant")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", default="0..5")
    p.add_argument("--quantity", choices=("survival", "density", "mean"),
                   default="survival")
    p.set_defaults(fn=_cmd_crossing)

    p = sub.add_parser("hitting", help="first-hitting quantities")
    _add_common(p)
    p.add_argument("--k", default="1", help="state or range a..b")
    p.add_argument("--t", default="0..5")
    p.add_argument("--prob", action="store_true",
                   help="tabulate the hitting probability over a mu grid")
    p.add_argument("--mu-grid", dest="mu_grid",
                   help="mu range a..b for --prob (default: the single --mu)")
    p.set_defaults(fn=_cmd_hitting)

    p = sub.add_parser("avoiding", help="avoiding-probability table, boundary k+t")
    _add_common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--horizon", type=int, default=5)
    p.set_defaults(fn=_cmd_avoiding)

    p = sub.add_parser("simulate", help="Monte Carlo draws of Z(horizon)")
    _add_common(p, seed=True)
    p.add_argument("--horizon", type=float, default=1.0)
    p.add_argument("--replicates", type=int, default=1000)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=VERIFY_SUITES)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--replicates", type=int, default=100_000)
    p.set_defaults(fn=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

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
