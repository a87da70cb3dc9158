"""Regenerate the reference spectra that the benchmark oracles compare against.

    PYTHONPATH=src python3 perfbench/make_reference.py

Writes perfbench/reference.json: the clustered Sierpinski spectra (unit
conductances and measure) at the levels the `spectrum` and `green`
workloads use, plus the level-5 sum of log measure weights that the
eigenvalue form of the Green proxy needs.  Rerun it only when a change is
meant to alter these spectra, and say so in the change.
"""

from __future__ import annotations

import json
import os

import numpy as np

import fractal_spectra as fs

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    cfg = fs.load_config("sierpinski")
    s = cfg.structure
    ref = {"structure": "sierpinski", "spectra": {}}
    for level, conditions in ((6, ("neumann", "dirichlet", "nd")), (5, ("neumann",))):
        for cond in conditions:
            rep = fs.level_spectrum(s, cfg.network, cfg.measure, level, cond)
            ref["spectra"][f"{cond}_{level}"] = [[float(v), int(m)] for v, m in rep.clusters]
    b5 = fs.assemble_measure(s, cfg.measure, 5)
    ref["sum_log_b_5"] = float(np.sum(np.log(b5)))
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(ref, fh, indent=0)
        fh.write("\n")


if __name__ == "__main__":
    main()
