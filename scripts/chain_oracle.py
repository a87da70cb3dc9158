#!/usr/bin/env python3
"""Hold the Schur chain to the dense eigensolve on random structures.

Draws random structures that satisfy hypothesis H, computes every level
spectrum both ways (chain_spectrum and a dense solve of the assembled
level) under the Neumann, Dirichlet and Neumann-Dirichlet conditions, and
prints one JSON summary: per condition the lists compared and identical
(same multiplicities), the worst value difference of an identical list
over the spectral width, whatever raised, and how many structures the
chain counted on the pencil line or with cell matrices.  For every N-D
cluster whose multiplicity differs, it also lists the singular values of
the stacked matrix [Q + lam I_b ; boundary rows] over the largest one, so
the near-zero directions the two paths count differently are visible.
The exit status is 1 if anything raised, a list differs under any of the
three conditions, or a value differs by more than 1e-10 of the width (the
bound the tests hold the builtins to).  Both paths rank N-D directions by
one rule (spectra._boundary_ranks), so their N-D lists are held to each
other like the Neumann and Dirichlet ones.

The draw: structures take, in turn, the gluings of sierpinski,
gamma_bar(1, 2) (with its weak network) and interval.  One
default_rng(seed) draws, per structure and in this order, the copy weights
w from U(0.5, 3), gamma from U(0.5, 3), one conductance per pair of cell
vertices from U(0.5, 2) and the cell measure from U(0.5, 2); the measure
weights are w / gamma.

Uneven conductances (and gamma_bar's weak network) keep every drawn
structure off the pencil line, so all 60 structures of the CI set take the
matrix chain and the summary reads "engines": {"line": 0, "matrix": 60}.
The line is held to dense by the tests: test_chain_matches_dense on the
sierpinski and interval builtins, test_examples_chain_matches_dense on the
SG3 and Vicsek configs (tests/data),
test_weighted_examples_on_the_line_match_dense on random copy weights,
forms and measures of those two configs, test_line_nd_matches_dense, and
test_line_spectra_match_matrix_chain against the matrix chain.

Usage:
    python scripts/chain_oracle.py [--seed 7] [--structures 60] [--levels 1-5]
"""

import argparse
import itertools
import json
import sys

import numpy as np

from fractal_spectra import spectra
from fractal_spectra.network import ElectricalNetwork, q_matrix
from fractal_spectra.selfsim import (
    SelfSimilarStructure,
    assemble_measure,
    assemble_q,
    build_lattice,
    gamma_bar,
    interval,
    sierpinski,
)

CONDITIONS = ("neumann", "dirichlet", "nd")


def draw(rng, count):
    """(structure, cell form, cell measure) for each random structure."""
    bases = (sierpinski(), gamma_bar(1.0, 2.0), interval())
    out = []
    for i in range(count):
        base = bases[i % len(bases)]
        k, copies = base.cell_size, base.num_copies
        w = rng.uniform(0.5, 3.0, copies)
        gamma = rng.uniform(0.5, 3.0)
        pairs = list(itertools.combinations(range(k), 2))
        g = rng.uniform(0.5, 2.0, len(pairs))
        b = rng.uniform(0.5, 2.0, k)
        st = SelfSimilarStructure(k, copies, base.glue_classes, base.boundary_map,
                                  weights_w=tuple(w), weights_b=tuple(w / gamma), weak=base.weak)
        q = q_matrix(ElectricalNetwork(k, dict(zip(pairs, g)))).real
        out.append((st, q, b))
    return out


def dense_reports(st, q, b, n):
    q_n = assemble_q(st, q, n).real
    b_n = assemble_measure(st, b, n)
    boundary = build_lattice(st, n).boundary
    return q_n, b_n, boundary, {
        "neumann": spectra.neumann_spectrum(q_n, b_n, n),
        "dirichlet": spectra.dirichlet_spectrum(q_n, b_n, boundary, n),
        "nd": spectra.nd_spectrum(q_n, b_n, boundary, n),
    }


def stacked_ratios(q_n, b_n, boundary, lam, keep):
    """The `keep` smallest singular values of [Q + lam I_b ; boundary rows]
    over the largest."""
    rows = np.zeros((len(boundary), q_n.shape[0]))
    rows[np.arange(len(boundary)), boundary] = 1.0
    s = np.linalg.svd(np.vstack([q_n + lam * np.diag(b_n), rows]), compute_uv=False)
    return [float(f"{v:.3g}") for v in s[::-1][:keep] / s[0]]


def nd_differences(chain, dense, neumann, q_n, b_n, boundary):
    """Per Neumann cluster whose N-D multiplicity differs: the value, both
    multiplicities and the stacked-matrix singular-value ratios."""
    out = []
    for value, mult in neumann.clusters:
        got, want = chain.multiplicity_at(value), dense.multiplicity_at(value)
        if got != want:
            out.append({"value": float(f"{value:.12g}"), "chain": got, "dense": want,
                        "sv_ratios": stacked_ratios(q_n, b_n, boundary, value, mult + 2)})
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--structures", type=int, default=60)
    ap.add_argument("--levels", default="1-5", help="first-last level, inclusive")
    args = ap.parse_args()
    first, last = (int(v) for v in args.levels.split("-"))

    summary = {c: {"compared": 0, "identical": 0, "worst_value_diff": 0.0} for c in CONDITIONS}
    engines = {"line": 0, "matrix": 0}
    raised, nd_diffs = [], []
    for i, (st, q, b) in enumerate(draw(np.random.default_rng(args.seed), args.structures)):
        line = spectra._pencil_line(spectra._chain_plan(st), q, b)
        engines["line" if line is not None else "matrix"] += 1
        for n in range(first, last + 1):
            q_n, b_n, boundary, dense = dense_reports(st, q, b, n)
            width = float(np.ptp(dense["neumann"].values)) or 1.0
            for cond in CONDITIONS:
                try:
                    chain = spectra.chain_spectrum(st, q, b, n, cond)
                except Exception as exc:  # report, keep going
                    raised.append({"structure": i, "level": n, "condition": cond,
                                   "error": f"{type(exc).__name__}: {exc}"})
                    continue
                row = summary[cond]
                row["compared"] += 1
                if np.array_equal(chain.mult, dense[cond].mult):
                    row["identical"] += 1
                    if chain.mult.size:
                        diff = np.abs(chain.values - dense[cond].values).max()
                        row["worst_value_diff"] = max(row["worst_value_diff"], float(diff) / width)
                elif cond == "nd":
                    nd_diffs.append({"structure": i, "level": n, "clusters": nd_differences(
                        chain, dense["nd"], dense["neumann"], q_n, b_n, boundary)})
    exact = all(summary[c]["identical"] == summary[c]["compared"]
                and summary[c]["worst_value_diff"] <= 1e-10 for c in CONDITIONS)
    for row in summary.values():
        row["worst_value_diff"] = float(f"{row['worst_value_diff']:.3g}")
    print(json.dumps({"seed": args.seed, "structures": args.structures, "levels": args.levels,
                      "conditions": summary, "engines": engines, "raised": raised,
                      "nd_differences": nd_diffs}, indent=1))
    return 0 if exact and not raised else 1


if __name__ == "__main__":
    sys.exit(main())
