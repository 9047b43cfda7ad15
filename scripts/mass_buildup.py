#!/usr/bin/env python3
"""Tabulate how the continuous part of Z(t) absorbs probability mass over
time for exponential jumps: the closed-form mass 1 - e^{-lam t (1 - e^{-mu})}
against quadrature of the density and a Monte Carlo frequency."""

import argparse
import csv
import math
import sys

from poissonsub import JumpSpec, ModelParams, atom_mass_Z, cpp_density_Z_grid, mc
from poissonsub.verify import gauss_panel_mass


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lambdas", type=float, nargs="+", default=[1.0, 2.0])
    ap.add_argument("--mu", type=float, default=1.0)
    ap.add_argument("--zeta", type=float, default=1.0)
    ap.add_argument("--t-max", type=int, default=5)
    ap.add_argument("--replicates", type=int, default=200_000)
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()

    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["lam", "t", "mass_closed_form", "mass_quadrature",
                     "mass_monte_carlo"])
    jumps = JumpSpec.exponential(args.zeta)
    for lam, rng in zip(args.lambdas, mc.substreams(args.seed, len(args.lambdas))):
        params = ModelParams(lam, args.mu)
        for t in range(1, args.t_max + 1):
            closed = 1.0 - atom_mass_Z(float(t), params)
            hi = lam * t + 12 * math.sqrt(2 * lam * t) + 20
            quad = gauss_panel_mass(
                lambda z: cpp_density_Z_grid(z, float(t), params, jumps),
                hi)
            zs = mc.sample_Z(params, jumps, float(t), args.replicates, rng)
            freq = float((zs > 0).mean())
            writer.writerow([lam, t, "%.6f" % closed, "%.6f" % quad,
                             "%.6f" % freq])
    return 0


if __name__ == "__main__":
    sys.exit(main())
