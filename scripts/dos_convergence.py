#!/usr/bin/env python3
"""Watch the normalized eigenvalue counting functions converge.

For a structure config, computes Neumann spectra over a range of levels,
prints the sup-distance between consecutive normalized counting functions
(the finite-level approach to the density of states), and optionally dumps
the per-level histograms plus the log-determinant proxy to CSV.

Usage:
    python scripts/dos_convergence.py [--config sierpinski] [--max-level 5]
                                      [--bins 64] [--csv out.csv]
"""

import argparse

import numpy as np

from fractal_spectra.config import load_config
from fractal_spectra.selfsim import assemble_measure, assemble_network
from fractal_spectra.spectra import dos_histogram, green_proxy, level_spectrum


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", default="sierpinski")
    ap.add_argument("--max-level", type=int, default=5)
    ap.add_argument("--bins", type=int, default=64)
    ap.add_argument("--csv", default=None)
    ap.add_argument("--green-points", type=int, default=0,
                    help="also print the Green proxy on this many grid points")
    args = ap.parse_args()

    cfg = load_config(args.config)
    n_copies = cfg.structure.num_copies
    reports = []
    for n in range(1, args.max_level + 1):
        rep = level_spectrum(cfg.structure, cfg.network, cfg.measure, n, "neumann")
        reports.append(rep)
        print(f"level {n}: {rep.count} eigenvalues in "
              f"[{rep.values[0]:.4f}, {rep.values[-1]:.4f}]")

    lo = min(r.values[0] for r in reports) - 0.1
    hi = max(r.values[-1] for r in reports) + 0.1
    xs = np.linspace(lo, hi, 2000)
    print("\nsup-distance of consecutive normalized counting functions:")
    for a, b in zip(reports, reports[1:]):
        ca = a.cdf(xs) / n_copies**a.level
        cb = b.cdf(xs) / n_copies**b.level
        print(f"  level {a.level} vs {b.level}: {np.max(np.abs(ca - cb)):.4f}")

    if args.csv:
        edges, masses = dos_histogram(reports, n_copies, args.bins, lo, hi)
        header = "bin_left,bin_right," + ",".join(f"level_{r.level}" for r in reports)
        rows = [header]
        for i in range(args.bins):
            cells = [f"{edges[i]:.17g}", f"{edges[i + 1]:.17g}"]
            cells += [f"{masses[j][i]:.17g}" for j in range(len(reports))]
            rows.append(",".join(cells))
        with open(args.csv, "w") as fh:
            fh.write("\n".join(rows) + "\n")
        print(f"\nwrote {args.csv}")

    if args.green_points:
        n = args.max_level
        q_n = assemble_network(cfg.structure, cfg.network, n).real
        b_n = assemble_measure(cfg.structure, cfg.measure, n)
        grid = np.linspace(lo, hi, args.green_points)
        vals = green_proxy(q_n, b_n, grid, n_copies, n)
        print(f"\nGreen proxy at level {n}:")
        for x, v in zip(grid, vals):
            print(f"  {x:+.4f}  {v:+.6f}")


if __name__ == "__main__":
    main()
