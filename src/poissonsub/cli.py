"""Command-line surface: evaluate the process laws on grids, run the Monte
Carlo simulator, and run verification suites.  Emits CSV or JSON tables;
every number comes from a library call, the CLI only builds grids.

Exit codes: 0 success, 1 validation error, 2 verification failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

import numpy as np

from . import __version__, cpp, crossing, mc, verify
from .iterated import IteratedLaw
from .params import JumpSpec, ModelParams
from .special import SeriesControl

_FMT = "%.12g"


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the documented validation code is 1
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt(v) -> str:
    if isinstance(v, float):
        return _FMT % v
    return str(v)


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


def _write_table(rows: list[dict], meta: dict, args) -> None:
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()),
                                lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _fmt(v) for k, v in row.items()})
        text = buf.getvalue()
    else:
        payload = {
            "metadata": meta,
            "rows": [{k: (float(_FMT % v) if isinstance(v, float) else v)
                      for k, v in row.items()} for row in rows],
        }
        text = json.dumps(payload, indent=2) + "\n"
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


def _cmd_pmf(args) -> list[dict]:
    law = IteratedLaw(_model(args), _ctl(args))
    rows = []
    for t in parse_range(args.t, args.t_step):
        if args.n is None:
            pv = law.pmf_vector(float(t))
            ns = range(len(pv))
            vals = pv
        else:
            ns = [int(n) for n in parse_range(args.n, 1.0)]
            vals = [law.pmf(n, float(t)) for n in ns]
        rows.extend({"t": float(t), "n": int(n), "pmf": float(p)}
                    for n, p in zip(ns, vals))
    return rows


def _cmd_cdf(args) -> list[dict]:
    params, ctl = _model(args), _ctl(args)
    jumps = _jump_spec(args)
    rows = []
    if jumps.kind == "degenerate_unit":
        law = IteratedLaw(params, ctl)
        ns = [int(n) for n in parse_range(args.n or "0..10", 1.0)]
        for t in parse_range(args.t, args.t_step):
            rows.extend({"t": float(t), "n": n, "cdf": law.cdf(n, float(t))}
                        for n in ns)
    else:
        for t in parse_range(args.t, args.t_step):
            zs = parse_range(args.z, args.step)
            vals = cpp.cpp_cdf_Z_grid(zs, float(t), params, jumps, ctl)
            rows.extend({"t": float(t), "z": float(z), "cdf": float(v)}
                        for z, v in zip(zs, vals))
    return rows


def _cmd_density(args) -> list[dict]:
    params, ctl = _model(args), _ctl(args)
    jumps = _jump_spec(args)
    rows = []
    for t in parse_range(args.t, args.t_step):
        zs = np.array([z for z in parse_range(args.z, args.step) if z != 0.0])
        vals = cpp.cpp_density_Z_grid(zs, float(t), params, jumps, ctl)
        rows.extend({"t": float(t), "z": float(z), "density": float(v)}
                    for z, v in zip(zs, vals))
    return rows


def _cmd_moments(args) -> list[dict]:
    params = _model(args)
    jumps = _jump_spec(args)
    rows = []
    for t in parse_range(args.t, args.t_step):
        m = cpp.moments_Z(float(t), params, jumps)
        rows.append({"t": float(t), "mean": m.mean, "variance": m.variance,
                     "dispersion_index": m.dispersion_index})
    return rows


def _cmd_crossing(args) -> list[dict]:
    law = IteratedLaw(_model(args), _ctl(args))
    k = args.k
    rows = []
    if args.quantity == "mean":
        if args.boundary != "constant":
            raise ValueError("mean crossing time is available for the constant "
                             "boundary only")
        return [{"k": k, "mean": crossing.mean_crossing_time_constant(k, law)}]
    for t in parse_range(args.t, args.t_step):
        t = float(t)
        if args.quantity == "density":
            if args.boundary != "constant":
                raise ValueError("crossing density is available for the constant "
                                 "boundary only")
            if t <= 0:
                continue
            rows.append({"t": t, "k": k,
                         "density": crossing.crossing_density_constant(k, t, law)})
        else:
            if args.boundary == "linear-increasing":
                v = crossing.survival_linear_increasing(k, t, law)
            else:
                b = (crossing.Boundary.constant(k) if args.boundary == "constant"
                     else crossing.Boundary.linear_decreasing(k))
                v = crossing.survival_nonincreasing(b, t, law)
            rows.append({"t": t, "k": k, "survival": v})
    return rows


def _cmd_hitting(args) -> list[dict]:
    rows = []
    ks = [int(k) for k in parse_range(args.k, 1.0)]
    if args.prob:
        for k in ks:
            for mu in parse_range(args.mu_grid or _FMT % args.mu, args.step):
                rows.append({"k": k, "mu": float(mu),
                             "prob": crossing.hitting_probability(k, float(mu))})
        return rows
    law = IteratedLaw(_model(args), _ctl(args))
    for k in ks:
        for t in parse_range(args.t, args.t_step):
            t = float(t)
            row = {"k": k, "t": t, "cdf": crossing.hitting_cdf(k, t, law)}
            if t > 0:
                row["density"] = crossing.hitting_density(k, t, law)
            else:
                row["density"] = 0.0
            rows.append(row)
    return rows


def _cmd_avoiding(args) -> list[dict]:
    law = IteratedLaw(_model(args), _ctl(args))
    table = crossing.avoiding_table(args.k, args.horizon, law)
    rows = []
    for n, row in enumerate(table.rows):
        for j, g in enumerate(row):
            rows.append({"n": n, "j": j, "g": float(g)})
        rows.append({"n": n, "j": "survival", "g": table.survival_at_integer(n)})
    return rows


def _cmd_simulate(args) -> list[dict]:
    params = _model(args)
    jumps = _jump_spec(args)
    rng = mc.make_rng(args.seed)
    zs = mc.sample_Z(params, jumps, args.horizon, args.replicates, rng)
    return [{"replicate": i, "z": float(z)} for i, z in enumerate(zs)]


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
    p.add_argument("suite", choices=verify.SUITES)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--replicates", type=int, default=100_000)
    p.set_defaults(fn=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "verify":
        results = verify.run_suite(args.suite, seed=args.seed,
                                   replicates=args.replicates)
        for r in results:
            print(r.line())
        return 0 if all(r.passed for r in results) else 2

    try:
        rows = args.fn(args)
        if not rows:
            raise ValueError("empty result grid; check the range arguments")
        _write_table(rows, _meta(args, jumps=args.jumps), args)
    except (ValueError, KeyError) as exc:
        print(f"poissonsub: validation error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"poissonsub: i/o error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
