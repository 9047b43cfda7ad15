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
from collections.abc import Iterator

import numpy as np

from . import VERIFY_SUITES, __version__, cpp, crossing, mc
from .iterated import IteratedLaw
from .params import JumpSpec, ModelParams
from .special import SeriesControl

_FMT = "%.12g"
_MAX_POINTS = 10**7  # per range: the grid and each column of its table hold 80 MB there
_STEP = 0.01  # the default step of a --z or --mu-grid range
_T_STEP = 1.0  # the default step of a --t range
_T_RANGE = "0..5"  # the default --t of crossing and hitting


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the documented validation code is 1
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def parse_range(spec: str, step: float, flag: str = "") -> np.ndarray:
    """Parse 'a..b' (inclusive, given step), 'a..b:step', or a single value.
    The ends, the step and the number of steps of a range must be finite,
    and a range holds at most _MAX_POINTS points.  Given the flag it is read
    for, a range of states or levels: its ends and step must be integers
    within int64, checked before the cast to int."""
    text = spec
    if ":" in spec:
        spec, s = spec.split(":", 1)
        step = float(s)
    ends = [float(x) for x in spec.split("..", 1)]
    if flag and not all(x.is_integer() and -2**63 <= x < 2**63 for x in ends + [step]):
        raise ValueError(f"{flag} takes integers within int64, got {text!r}")
    grid = np.array(ends)
    if len(ends) == 2:
        a, b = ends
        if step <= 0:
            raise ValueError(f"step must be positive, got {step}")
        n = (b - a) / step
        if not all(map(math.isfinite, (a, b, step, n))):
            raise ValueError(f"range {text!r}: ends, step and count must be finite")
        if round(n) >= _MAX_POINTS:
            raise ValueError(f"range {text!r} has {round(n) + 1} points; "
                             f"at most {_MAX_POINTS} are allowed")
        grid = a + step * np.arange(round(n) + 1)
        grid = grid[grid <= b + 1e-12 * max(1.0, abs(b))]
    return grid.astype(int) if flag else grid


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
    tol = vars(args).get("tolerance", SeriesControl.tolerance)  # absent unless given
    return IteratedLaw(ModelParams(args.lam, args.mu), SeriesControl(tol))


def _step(args) -> float:
    return vars(args).get("step", _STEP)


def _t_step(args) -> float:
    return vars(args).get("t_step", _T_STEP)


def _refuse(args, flags: tuple[str, ...], mode: str) -> None:
    """A validation error if any of ``flags``, by their names in args (where
    they are only when given), was given to a mode of a command that does
    not read it."""
    given = ["--" + f.replace("_", "-") for f in flags if f in vars(args)]
    if given:
        raise ValueError(f"{mode} does not read {' or '.join(given)}")


_BLOCK = 4096  # rows formatted and joined at a time: the work stays in cache
_FLUSH = 1 << 24  # bytes of text held before they are written
_P10 = -300  # the tables cover the exponents _P10 to -_P10


@functools.cache
def _tables() -> tuple[np.ndarray, ...]:
    """The float cell tables, built on first use.  A float cell is five
    8-byte words: sign and "0.000" lead; twelve digits, four to a word at
    the even bytes, the odd ones NUL or the point; "e+XX" or ".0" tail.
    ``digits[g + 10**4 * later]`` is the word of the four-digit group g, its
    trailing zeros NUL unless a later group is nonzero; ``cells[json, X -
    _P10, frac, neg]`` is the cell of exponent X, with digits after the
    point or not and of that sign, with no digits but an integer's zeros."""
    g = np.arange(10_000)
    text = g[:, None] // 10 ** np.arange(3, -1, -1) % 10 + ord("0")
    kept = np.arange(4) < 4 - np.sum([g % 10**k == 0 for k in range(1, 5)], axis=0)[:, None]
    digits = np.zeros((2, 10_000, 8), np.uint8)
    digits[:, :, ::2] = text * kept, text
    put = np.zeros((13, 13, 24), np.uint8)  # [digits before the point, point after digit]
    for k in range(13):
        put[k, :, :2 * k:2] = ord("0")
        put[:, k, 2 * k + 1:2 * k + 2] = ord(".")  # none after digit 12
    words = lambda texts: np.array([t.encode() for t in texts], "S8").view(np.uint64)
    lead = words([s + "0." + "0" * (k - 1) if k else s for s in ("", "-") for k in range(5)])
    tail = words([f"e{k:+03d}" for k in range(_P10, -_P10 + 1)] + [".0", ""])
    x, frac = np.arange(_P10, -_P10 + 1)[:, None, None], np.arange(2)[:, None]
    fixed, small = (x >= -4) & (x < 12), (x >= -4) & (x < 0)
    whole = np.where(fixed & ~small, x + 1, 0)
    cells = np.empty((2, x.size, 2, 2, 5), np.uint64)
    cells[..., 0] = lead[5 * np.arange(2) + np.where(small, -x, 0)]
    at = whole * 13 + np.where(frac & ~small, np.maximum(whole - 1, 0), 12)
    cells[..., 1:4] = put.reshape(169, 3, 8).view(np.uint64)[at, :, 0]
    ints = np.arange(2)[:, None, None, None] & ~frac & (whole > 0)  # JSON writes "3.0"
    cells[..., 4] = tail[np.where(fixed, np.where(ints, -2, -1), x - _P10)]
    p10 = np.array([float(f"1e{k}") for k in range(_P10, -_P10 + 1)])
    return digits.view(np.uint64).ravel(), cells.reshape(2, -1, 5), p10


def _cells(col: np.ndarray, fmt: str) -> np.ndarray:
    """The cells of a column as a bytes array of one width, with NUL bytes
    among or after each text.  An int is written as it is, an object column
    (ints and words) as ``str`` in CSV and ``json.dumps`` in JSON, a column
    of runs of equal floats (t, one run per t) once per run.

    A float is "%.12g" % v, in JSON the shortest repr of that 12-digit float
    (NaN, Infinity).  Its exponent X is floor(log10|v|), one more where the
    scaled value rounds up to 10**12; its digits are rint(|v| * 10**(11 -
    X)), a product under 2**40 rounded twice, so within 2.5e-4 of exact.
    The cell is the template of X, sign and whether digits follow the point,
    ORed with the digit words.  Zero, NaN, inf, |v| outside [1e-280, 1e280]
    (subnormals too), a product within 2e-3 of a rounding half, and in JSON
    a 12-digit value in [1e12, 1e16), which JSON writes without exponent,
    are handed to Python's "%" instead, once per distinct value."""
    if col.dtype.kind in "iu":
        return col.astype("S")
    if col.dtype.kind != "f":
        cells = map(str if fmt == "csv" else json.dumps, col.tolist())
        return np.array([c.encode() for c in cells], dtype="S")
    x = np.ascontiguousarray(col, dtype=np.float64)
    first = np.ones(x.size, dtype=bool)
    first[1:] = x.view(np.int64)[1:] != x.view(np.int64)[:-1]
    if 2 * np.count_nonzero(first) < x.size:
        heads = [c.translate(None, b"\0") for c in _cells(x[first], fmt).tolist()]
        return np.array(heads)[np.cumsum(first) - 1]
    digits, cells, p10 = _tables()
    a = np.abs(x)
    ok = (a >= 1e-280) & (a <= 1e280)  # False for NaN
    a[~ok] = 1.0
    ex = np.floor(np.log10(a)).astype(np.intp)
    s = a * p10[11 - ex - _P10]
    py = ~ok | (np.abs(s - np.floor(s) - 0.5) < 2e-3)
    up = s >= 1e12 - 0.5  # rounds up to 10**(X + 1), or log10 was one low
    ex += up
    if fmt == "json":
        py |= (ex >= 12) & (ex < 16)
    n = np.rint(np.where(up, s / 10, s))  # an integer under 2**40: the ops below are exact
    g0 = np.floor(n / 1e8)
    rest = n - g0 * 1e8
    g1 = np.floor(rest / 1e4)
    g2 = rest - g1 * 1e4
    after = p10[11 - ex * ((ex >= 0) & (ex < 12)) - _P10]  # 10**(digits after the point)
    frac = np.floor(n / after) != n / after
    cells = cells[int(fmt == "json")].take(((ex - _P10) * 2 + frac) * 2 + (x < 0), axis=0)
    cells[:, 1] |= digits[(g0 + 1e4 * (rest != 0)).astype(np.intp)]
    cells[:, 2] |= digits[(g1 + 1e4 * (g2 != 0)).astype(np.intp)]
    cells[:, 3] |= digits[g2.astype(np.intp)]
    cells = cells.view("S40")[:, 0]
    if py.any():
        bits, inv = np.unique(x[py].view(np.int64), return_inverse=True)
        texts = [_FMT % v for v in bits.view(np.float64).tolist()]
        if fmt == "json":
            texts = [repr(r) if math.isfinite(r) else json.dumps(r) for r in map(float, texts)]
        cells[py] = np.array(texts, dtype="S40")[inv]
    return cells


def _table_text(table: dict[str, np.ndarray], meta: dict, fmt: str) -> Iterator[list[bytes]]:
    """The text of a table, an ordered mapping from column name to column,
    as CSV or as JSON laid out as ``json.dumps(..., indent=2)`` lays it out,
    in batches of blocks: one whenever ``_FLUSH`` bytes are pending, and the
    rest.  Rows are built ``_BLOCK`` at a time as one byte array: the
    separators, as constant bytes, between the fixed-width cells of each
    column that ``_cells`` gives; one ``translate`` per block then drops the
    NUL bytes."""
    names, csv = list(table), fmt == "csv"
    keys = [",\n      " + json.dumps(k) + ": " for k in names]
    seps = ([""] + [","] * (len(names) - 1) + ["\n"] if csv else
            ["    {\n" + keys[0][2:]] + keys[1:] + ["\n    },\n"])
    seps = [np.frombuffer(s.encode(), np.uint8) for s in seps]
    head = ",".join(names) + "\n" if csv else json.dumps(
        {"metadata": meta, "rows": []}, indent=2)[:-len("[]\n}")] + "[\n"
    rows, pending, size = len(table[names[0]]), [head.encode()], 0
    for lo in range(0, rows, _BLOCK):
        cells = [_cells(table[k][lo:lo + _BLOCK], fmt) for k in names]
        m = cells[0].size
        parts = [np.broadcast_to(seps[0], (m, seps[0].size))]
        for c, sep in zip(cells, seps[1:]):
            parts += [c.view(np.uint8).reshape(m, -1), np.broadcast_to(sep, (m, sep.size))]
        block = np.concatenate(parts, axis=1).tobytes().translate(None, b"\0")
        if not csv and lo + _BLOCK >= rows:
            block = block[:-2] + b"\n  ]\n}\n"  # no comma after the last row
        pending.append(block)
        size += len(block)
        if size >= _FLUSH:
            yield pending
            pending, size = [], 0
    if pending:
        yield pending


def _write_table(table: dict[str, np.ndarray], meta: dict, args) -> None:
    """Write a table's text as it is made: a file gets the bytes, standard
    output a ``str``."""
    batches = _table_text(table, meta, args.format)
    if args.output is None:
        for batch in batches:
            sys.stdout.write(b"".join(batch).decode())  # str: any text stream takes it
        return
    path = args.output
    outdir = os.environ.get("POISSONSUB_OUTDIR")
    if outdir and not os.path.isabs(path):
        path = os.path.join(outdir, path)
    # the first batch, all of a table under _FLUSH, is made before the file
    # is opened: opened first, a 20k-row JSON table took 3% longer to write
    # (2-CPU Xeon, numpy 2.4)
    first = next(batches)
    with open(path, "wb") as fh:
        fh.writelines(first)
        for batch in batches:
            fh.writelines(batch)


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
    ts = parse_range(args.t, _t_step(args))
    if args.n is None:
        ps = [law.pmf_vector(float(t)) for t in ts]
        ns = [np.arange(p.size) for p in ps]
    else:
        _refuse(args, ("tolerance",), "pmf --n")
        n = parse_range(args.n, 1.0, "--n")
        ns = [n] * ts.size
        ps = [law.pmf(n, t) for t in ts.tolist()]
    return {"t": np.repeat(ts, [p.size for p in ps]), "n": _cat(ns), "pmf": _cat(ps)}


def _cmd_cdf(args) -> dict[str, np.ndarray]:
    law, jumps = _law(args), _jump_spec(args)
    ts = parse_range(args.t, _t_step(args))
    if jumps.kind == "degenerate_unit":
        if args.z is not None:
            raise ValueError("--z is read by exp and normal jumps; unit jumps take --n")
        _refuse(args, ("tolerance", "step"), "cdf with unit jumps")
        ns = parse_range(args.n or "0..10", 1.0, "--n")
        vals = [law.cdf(ns, t) for t in ts.tolist()]
        return {"t": np.repeat(ts, ns.size), "n": np.tile(ns, ts.size), "cdf": _cat(vals)}
    if args.n is not None:
        raise ValueError("--n is read by unit jumps; exp and normal jumps take --z")
    zs = parse_range(args.z or "0..10", _step(args))
    vals = [cpp.cpp_cdf_Z_grid(zs, float(t), law.params, jumps, law.ctl) for t in ts]
    return {"t": np.repeat(ts, zs.size), "z": np.tile(zs, ts.size), "cdf": _cat(vals)}


def _cmd_density(args) -> dict[str, np.ndarray]:
    law, jumps = _law(args), _jump_spec(args)
    ts = parse_range(args.t, _t_step(args))
    zs = parse_range(args.z, _step(args))
    zs = zs[zs != 0.0]
    vals = [cpp.cpp_density_Z_grid(zs, float(t), law.params, jumps, law.ctl) for t in ts]
    return {"t": np.repeat(ts, zs.size), "z": np.tile(zs, ts.size),
            "density": _cat(vals)}


def _cmd_moments(args) -> dict[str, np.ndarray]:
    params, jumps = ModelParams(args.lam, args.mu), _jump_spec(args)
    ts = parse_range(args.t, _t_step(args))
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
    ts = parse_range(args.t, _t_step(args))
    if args.quantity == "density":
        if args.boundary != "constant":
            raise ValueError("crossing density is available for the constant "
                             "boundary only")
        vals = crossing.crossing_density_constant(k, ts, law)
    elif args.boundary == "linear-increasing":
        vals = crossing.survival_linear_increasing(k, ts, law)
    else:
        b = (crossing.Boundary.constant(k) if args.boundary == "constant"
             else crossing.Boundary.linear_decreasing(k))
        vals = crossing.survival_nonincreasing(b, ts, law)
    return {"t": ts, "k": np.full(ts.size, k), args.quantity: vals}


def _cmd_hitting(args) -> dict[str, np.ndarray]:
    ks = parse_range(args.k, 1.0, "--k")
    given = vars(args)
    if args.prob:
        _refuse(args, ("t", "t_step"), "hitting --prob")
        if "mu_grid" in given:
            mus = parse_range(given["mu_grid"], _step(args))
        else:
            _refuse(args, ("step",), "hitting --prob without --mu-grid")
            mus = np.array([args.mu])
        vals = [crossing.hitting_probability(ks, mu) for mu in mus.tolist()]
        return {"k": np.repeat(ks, mus.size), "mu": np.tile(mus, ks.size),
                "prob": np.array(vals, dtype=float).T.ravel()}
    _refuse(args, ("step", "mu_grid"), "hitting without --prob")
    law = _law(args)
    ts = parse_range(given.get("t", _T_RANGE), _t_step(args))
    cdf, density = np.zeros((2, ks.size, ts.size))
    for i, k in enumerate(ks.tolist()):
        cdf[i] = crossing.hitting_cdf(k, ts, law)
        density[i] = crossing.hitting_density(k, ts, law)
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


# the flags only some commands read, added where they are read; they (and
# hitting's --t and --mu-grid) stay out of args unless given, so that a mode
# of a command that does not read them can refuse them
_OWN_FLAGS = {
    "--tolerance": dict(type=float, default=argparse.SUPPRESS),
    "--t-step": dict(type=float, default=argparse.SUPPRESS,
                     help=f"step for t ranges (default {_T_STEP:g})"),
    "--step": dict(type=float, default=argparse.SUPPRESS,
                   help=f"step for z/mu ranges (default {_STEP})"),
}


def _add_command(sub, name: str, fn, about: str, *own: str, seed: bool = False,
                 jumps: bool = False):
    """Add a table command: its subparser, with the common flags and those of
    ``own``, runs fn.  Without the jump flags it serves unit jumps only."""
    p = sub.add_parser(name, help=about)
    p.set_defaults(fn=fn)
    p.add_argument("--lambda", dest="lam", type=float, default=1.0,
                   help="intensity of the subordinator N(t)")
    p.add_argument("--mu", type=float, default=1.0,
                   help="intensity of the inner process M(t)")
    if jumps:
        p.add_argument("--jumps", choices=("unit", "exp", "normal"), default="unit")
        p.add_argument("--zeta", type=float, help="rate of exponential jumps")
        p.add_argument("--eta", type=float, help="mean of normal jumps")
        p.add_argument("--sigma", type=float, help="std of normal jumps")
    else:
        p.set_defaults(jumps="unit")  # for the JSON metadata
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", help="output file (default stdout; relative "
                   "paths resolve under $POISSONSUB_OUTDIR)")
    for flag in own:
        p.add_argument(flag, **_OWN_FLAGS[flag])
    if seed:
        p.add_argument("--seed", type=int, default=0)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="poissonsub")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _add_command(sub, "pmf", _cmd_pmf, "iterated-process pmf table", "--tolerance", "--t-step")
    p.add_argument("--t", required=True, help="time or range a..b")
    p.add_argument("--n", help="state range a..b (default: until tail mass)")

    p = _add_command(sub, "cdf", _cmd_cdf, "CDF table of Z(t)",
                     "--tolerance", "--t-step", "--step", jumps=True)
    p.add_argument("--t", required=True)
    p.add_argument("--n", help="state range for unit jumps (default 0..10)")
    p.add_argument("--z", help="z range for exp and normal jumps (default 0..10)")

    p = _add_command(sub, "density", _cmd_density, "density table of Z(t), continuous jumps",
                     "--tolerance", "--t-step", "--step", jumps=True)
    p.add_argument("--t", required=True)
    p.add_argument("--z", default="0..10")

    p = _add_command(sub, "moments", _cmd_moments, "mean/variance of Z(t)", "--t-step", jumps=True)
    p.add_argument("--t", required=True)

    p = _add_command(sub, "crossing", _cmd_crossing, "first-crossing quantities", "--t-step")
    p.add_argument("--boundary", default="constant", choices=(
        "constant", "linear-decreasing", "linear-increasing"))
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", default=_T_RANGE)
    p.add_argument("--quantity", choices=("survival", "density", "mean"),
                   default="survival")

    p = _add_command(sub, "hitting", _cmd_hitting, "first-hitting quantities",
                     "--t-step", "--step")
    p.add_argument("--k", default="1", help="state or range a..b")
    p.add_argument("--t", default=argparse.SUPPRESS, help="time or range a..b "
                   f"(default {_T_RANGE}); not with --prob")
    p.add_argument("--prob", action="store_true",
                   help="tabulate the hitting probability over a mu grid")
    p.add_argument("--mu-grid", dest="mu_grid", default=argparse.SUPPRESS,
                   help="mu range a..b for --prob (default: the single --mu)")

    p = _add_command(sub, "avoiding", _cmd_avoiding,
                     "avoiding-probability table, boundary k+t")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--horizon", type=int, default=5)

    p = _add_command(sub, "simulate", _cmd_simulate, "Monte Carlo draws of Z(horizon)",
                     seed=True, jumps=True)
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
