"""The workloads: seeded op inputs, the op bodies, and per-op oracles.

Each workload replays a fixed op sequence generated from its seed.  An op
calls only the library's public API; its oracle runs afterwards, outside
the op's timing, and returns a Verdict.  An op whose outputs fail the
oracle, or that raises a typed FractalSpectraError, counts as failed.  An
output that is finite and wrong also makes the run incorrect; a non-finite
output (the Green-proxy overflow) only fails its op.

Ops come in rounds of `round_size`; a run stops only at a round boundary,
so the mix of boundary conditions or windows, and with it `ok_ratio`, is
the same in every run of a seed.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

import fractal_spectra as fs
from fractal_spectra import renorm

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# Oracle tolerances, relative to the scale named at each use.
EIG_RTOL = 1e-9     # eigenvalues, relative to the spectral width
GREEN_ATOL = 1e-8   # Green proxy values (per-site log-determinants, O(1))
RENORM_RTOL = 1e-9  # renormalized matrices, relative to max(1, |T|)


@dataclass
class Verdict:
    ok: bool
    wrong: bool = False          # a finite output disagrees with the oracle
    note: str = ""
    counts: dict = field(default_factory=dict)


def _load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


def _scaled_network(net, alpha):
    return fs.ElectricalNetwork(
        net.size,
        {k: alpha * v for k, v in net.conductances.items()},
        tuple(alpha * v for v in net.dissipative),
    )


def _check_clusters(rep, ref_clusters, scale):
    """Compare a SpectrumReport with reference clusters scaled by `scale`."""
    mults = [m for _, m in ref_clusters]
    if [m for _, m in rep.clusters] != mults:
        return Verdict(False, True, "cluster multiplicities differ from the reference")
    expected = scale * np.array([v for v, _ in ref_clusters])
    tol = EIG_RTOL * float(np.ptp(expected))
    got = np.array([v for v, _ in rep.clusters])
    if np.max(np.abs(got - expected), initial=0.0) > tol:
        return Verdict(False, True, "cluster values differ from the reference")
    full = np.repeat(expected, mults)
    if rep.eigenvalues.shape != full.shape or np.max(
            np.abs(rep.eigenvalues - full), initial=0.0) > tol:
        return Verdict(False, True, "eigenvalues differ from the reference")
    return Verdict(True, counts={"spectra.clusters": len(rep.clusters)})


class Spectrum:
    """One `level_spectrum` call on Sierpinski level 6 (1095 vertices) per op,
    cycling Neumann, Dirichlet and N-D, with conductances scaled by alpha and
    the measure by beta.  Scaling keeps the symmetry, so exact multiplicities
    survive, and the spectrum scales by alpha / beta."""

    level = 6
    conditions = ("neumann", "dirichlet", "nd")
    round_size = 3

    def __init__(self, seed):
        self.rng = np.random.default_rng([seed, 1])
        self.reference = _load_reference()["spectra"]
        self.cfg = fs.load_config("sierpinski")

    def next_input(self, i):
        alpha, beta = np.exp(self.rng.uniform(np.log(0.5), np.log(2.0), size=2))
        cond = self.conditions[i % len(self.conditions)]
        return cond, float(alpha), float(beta)

    def run(self, inp):
        cond, alpha, beta = inp
        cfg = self.cfg
        net = _scaled_network(cfg.network, alpha)
        return fs.level_spectrum(cfg.structure, net, beta * cfg.measure, self.level, cond)

    def check(self, inp, rep):
        cond, alpha, beta = inp
        return _check_clusters(rep, self.reference[f"{cond}_{self.level}"], alpha / beta)


class Green:
    """The body of `dos --green` on Sierpinski level 5 (366 vertices) per op:
    Neumann spectrum, 64-bin DOS histogram, and the Green proxy on a 64-point
    window inside [-6.5, 0.5].  Every grid point below about -5.62 overflows
    `char_det` to inf, so each round of eight windows has two whose lower
    end lies in [-6.5, -5.8] and six whose lower end lies in [-5.5, -0.5];
    the upper end is drawn above lo + 0.5 up to 0.5."""

    name = "green"
    level = 5
    bins = 64
    points = 64
    round_size = 8
    deep_per_round = 2

    def __init__(self, seed):
        rng = np.random.default_rng([seed, 2])
        ref = _load_reference()
        self.reference = ref["spectra"][f"neumann_{self.level}"]
        self.sum_log_b = ref["sum_log_b_5"]
        self.cfg = fs.load_config("sierpinski")
        deep = np.arange(self.round_size) < self.deep_per_round
        rng.shuffle(deep)
        self.windows = []
        for is_deep in deep:
            lo = rng.uniform(-6.5, -5.8) if is_deep else rng.uniform(-5.5, -0.5)
            hi = rng.uniform(lo + 0.5, 0.5)
            self.windows.append((float(lo), float(hi)))
        lam = np.repeat([v for v, _ in self.reference], [m for _, m in self.reference])
        self.ref_eigenvalues = lam

    def next_input(self, i):
        return self.windows[i % self.round_size]

    def run(self, inp):
        lo, hi = inp
        cfg, n = self.cfg, self.level
        rep = fs.level_spectrum(cfg.structure, cfg.network, cfg.measure, n, "neumann")
        edges, masses = fs.dos_histogram([rep], cfg.structure.num_copies, self.bins)
        q_n = fs.assemble_network(cfg.structure, cfg.network, n).real
        b_n = fs.assemble_measure(cfg.structure, cfg.measure, n)
        grid = np.linspace(lo, hi, self.points)
        values = fs.green_proxy(q_n, b_n, grid, cfg.structure.num_copies, n)
        return rep, masses, grid, values

    def check(self, inp, out):
        rep, masses, grid, values = out
        verdict = _check_clusters(rep, self.reference, 1.0)
        if not verdict.ok:
            return verdict
        sites = self.cfg.structure.num_copies ** self.level
        if abs(float(masses.sum()) - rep.count / sites) > 1e-12:
            return Verdict(False, True, "DOS masses do not sum to |V_n| / N^n")
        z = grid + 1j * 1e-6
        expected = (np.sum(np.log(np.abs(z[:, None] - self.ref_eigenvalues[None, :])), axis=1)
                    + self.sum_log_b) / sites
        finite = np.isfinite(values)
        nonfinite = int(np.sum(~finite))
        counts = {"spectra.clusters": len(rep.clusters), "spectra.nonfinite": nonfinite}
        if np.max(np.abs(values[finite] - expected[finite]), initial=0.0) > GREEN_ATOL:
            return Verdict(False, True, "green proxy differs from the eigenvalue form", counts)
        if nonfinite:
            return Verdict(False, False, f"{nonfinite} non-finite green values", counts)
        return Verdict(True, counts=counts)


class Renorm:
    """One renormalization step of chart.matrix(u) on sierpinski, gamma_bar and
    gamma_bar_semi, computed three ways: t_map on matrices, g_map on
    Lagrangian frames and renorm_lift on Grassmann tables, for
    `points_per_op` chart points u.  The coordinates have positive imaginary
    parts, so every interior block is invertible and no op meets a pole."""

    points_per_op = 2
    structures = ("sierpinski", "gamma_bar", "gamma_bar_semi")

    def __init__(self, seed):
        self.rng = np.random.default_rng([seed, 3])
        self.cfgs = [fs.load_config(name) for name in self.structures]
        self.closed_forms = {cfg.name: self._closed_form(cfg) for cfg in self.cfgs}

    @staticmethod
    def _closed_form(cfg):
        p = cfg.params
        if cfg.family == "sierpinski":
            return renorm.gasket_closed_form
        if cfg.family == "gamma_bar":
            return lambda u: renorm.gamma_bar_closed_form(u, p["r"], p["v"])
        return lambda u: renorm.gamma_bar_semi_closed_form(
            u, p["r"], p["r_prime"], p["v"], p["v_prime"])

    def next_input(self, i):
        shape = (self.points_per_op, 2)
        return self.rng.uniform(-2.0, 2.0, size=shape) + 1j * self.rng.uniform(0.5, 2.0, size=shape)

    def run(self, points):
        out = []
        for u in points:
            for cfg in self.cfgs:
                s = cfg.structure
                q = cfg.chart.matrix(u)
                t = fs.t_map(q, s)
                frame, defect = fs.g_map(fs.from_sym(q), s)
                lift = fs.renorm_lift(fs.exp_eta(q), s)
                out.append((u, cfg, t, frame, defect, lift))
        return out

    def check(self, points, out):
        for u, cfg, t, frame, defect, lift in out:
            name = cfg.name
            scale = max(1.0, float(np.max(np.abs(t))))
            if defect != 0:
                return Verdict(False, True, f"{name}: frame defect {defect} off the pole set")
            if np.max(np.abs(fs.to_sym(frame) - t)) > RENORM_RTOL * scale:
                return Verdict(False, True, f"{name}: frame path differs from t_map")
            k = t.shape[0]
            deg1 = np.array([[lift.get(1 << a, 1 << b) for b in range(k)] for a in range(k)])
            if np.max(np.abs(deg1 / lift.get(0, 0) - t)) > RENORM_RTOL * scale:
                return Verdict(False, True, f"{name}: Grassmann lift differs from t_map")
            want = self.closed_forms[name](u)
            got = cfg.chart.coords(t)
            if np.max(np.abs(got - want)) > RENORM_RTOL * max(1.0, float(np.max(np.abs(want)))):
                return Verdict(False, True, f"{name}: coordinates differ from the closed form")
        return Verdict(True)


class SpectrumRenorm:
    """A `Spectrum` op followed by a `Renorm` op on their own seeded inputs.

    The renormalization step is pure Python, and on a shared host its speed
    follows the host's slow and fast phases (tens of seconds long) by a
    factor of about 1.6, against about 1.35 for the dense eigensolve.  Alone
    it gives run medians that jump between the two phases; next to a dense
    spectrum it is a third of the op, and the op stays steady."""

    name = "spectrum_renorm"
    round_size = Spectrum.round_size

    def __init__(self, seed):
        self.spectrum = Spectrum(seed)
        self.renorm = Renorm(seed)

    def next_input(self, i):
        return self.spectrum.next_input(i), self.renorm.next_input(i)

    def run(self, inp):
        return self.spectrum.run(inp[0]), self.renorm.run(inp[1])

    def check(self, inp, out):
        verdict = self.spectrum.check(inp[0], out[0])
        if not verdict.ok:
            return verdict
        renorm = self.renorm.check(inp[1], out[1])
        renorm.counts.update(verdict.counts)
        return renorm


WORKLOADS = {w.name: w for w in (SpectrumRenorm, Green)}
