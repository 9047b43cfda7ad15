#!/usr/bin/env python3
"""Profile of the defective first-hitting time of a state k: the total hitting
probability pi_k over a mu grid, and the time profile F_H(t)/pi_k for chosen
states, with a Monte Carlo hit-frequency check."""

import argparse
import csv
import sys

import numpy as np

from poissonsub import (
    IteratedLaw,
    ModelParams,
    hitting_cdf,
    hitting_probability,
    mc,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lambda", dest="lam", type=float, default=1.0)
    ap.add_argument("--k", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--mu-min", type=float, default=0.25)
    ap.add_argument("--mu-max", type=float, default=3.0)
    ap.add_argument("--mu-points", type=int, default=12)
    ap.add_argument("--replicates", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()

    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["k", "mu", "pi_k", "hit_freq_mc", "half_life_t"])
    mus = np.linspace(args.mu_min, args.mu_max, args.mu_points)
    # pis[j, i] = pi_k for k = args.k[i] at mus[j]: one call per mu
    pis = np.array([hitting_probability(args.k, float(mu)) for mu in mus])
    streams = mc.substreams(args.seed, len(args.k) * len(mus))
    si = 0
    for i, k in enumerate(args.k):
        for j, mu in enumerate(mus):
            params = ModelParams(args.lam, float(mu))
            law = IteratedLaw(params)
            pi = float(pis[j, i])
            times = mc.batch_hitting(k, params, mc.default_horizon(params),
                                     args.replicates, streams[si])
            si += 1
            freq = float(np.mean(~np.isnan(times)))
            # time at which half of the eventual hits have happened
            lo, hi = 0.0, mc.default_horizon(params)
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if hitting_cdf(k, mid, law) < 0.5 * pi:
                    lo = mid
                else:
                    hi = mid
            writer.writerow([k, "%.4g" % mu, "%.8g" % pi, "%.5g" % freq,
                             "%.6g" % (0.5 * (lo + hi))])
    return 0


if __name__ == "__main__":
    sys.exit(main())
