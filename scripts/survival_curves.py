#!/usr/bin/env python3
"""Survival curves P{T > t} of the first-crossing time for the three boundary
shapes (constant k, decreasing k - t, increasing k + t), with an optional
Monte Carlo overlay column from one batch of paths per level."""

import argparse
import csv
import sys

import numpy as np

from poissonsub import (
    Boundary,
    IteratedLaw,
    ModelParams,
    mc,
    survival_linear_increasing,
    survival_nonincreasing,
)


def analytic(boundary: str, k: int, ts: np.ndarray, law: IteratedLaw) -> np.ndarray:
    if boundary == "increasing":
        return survival_linear_increasing(k, ts, law)
    b = Boundary.constant(k) if boundary == "constant" else Boundary.linear_decreasing(k)
    return survival_nonincreasing(b, ts, law)


def mc_boundary(boundary: str, k: int) -> Boundary:
    return {"constant": Boundary.constant,
            "decreasing": Boundary.linear_decreasing,
            "increasing": Boundary.linear_increasing}[boundary](k)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lambda", dest="lam", type=float, default=2.0)
    ap.add_argument("--mu", type=float, default=1.0)
    ap.add_argument("--k", type=int, nargs="+", default=[1, 2, 3, 4])
    ap.add_argument("--t-max", type=float, default=5.0)
    ap.add_argument("--t-step", type=float, default=0.25)
    ap.add_argument("--boundary", choices=("constant", "decreasing", "increasing"),
                    default="increasing")
    ap.add_argument("--replicates", type=int, default=0,
                    help="Monte Carlo paths per level k (0 disables the overlay)")
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()

    params = ModelParams(args.lam, args.mu)
    law = IteratedLaw(params)
    ts = np.arange(0.0, args.t_max + 1e-9, args.t_step)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    header = ["k", "t", "survival"]
    if args.replicates:
        header.append("survival_mc")
    writer.writerow(header)
    rng = mc.make_rng(args.seed)
    for k in args.k:
        if args.replicates:
            # one set of paths per level, run to --t-max: P{T > t} is the share
            # not crossed by t (a NaN, not crossed by --t-max, counts too)
            times = mc.batch_first_crossing(mc_boundary(args.boundary, k), params,
                                            args.t_max, args.replicates, rng)
        for t, s in zip(ts, analytic(args.boundary, k, ts, law)):
            row = [k, "%.6g" % t, "%.10g" % s]
            if args.replicates:
                row.append("%.6g" % float(np.mean(~(times <= t))))
            writer.writerow(row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
