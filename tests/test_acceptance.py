"""Acceptance suite: one test per criterion, each printing a PASS line
with its worst residual (run with -s to see them inline).

The identity criteria run the `verify` check of their group on every
builtin config, drawing from one seeded stream per criterion, so this
suite and `fractal-spectra verify` share one implementation.  The
timing-bounded ones assert wall-clock limits, with comfortable margins,
around each check call.
"""

import time

import numpy as np
import pytest

from fractal_spectra import cli, verify
from fractal_spectra.config import BUILTIN_NAMES, load_config
from fractal_spectra.spectra import level_spectrum
from fractal_spectra.symplectic import LagrangianFrame, from_sym, reduction_defect, w_renorm

BUILTINS = [load_config(name) for name in BUILTIN_NAMES]
CHECKS = {group: check for suite in verify.SUITES.values() for group, check in suite.items()}


def _report(num, name, residual=None, extra=""):
    tail = f" max_resid={residual:.3e}" if residual is not None else ""
    print(f"[acceptance] C{num:02d} {name}: PASS{tail} {extra}".rstrip())


def _run_check(group, seed):
    """The verify check of one group on every builtin; returns the worst
    residual and the slowest call in seconds."""
    rng = np.random.default_rng(seed)
    worst = slowest = 0.0
    for cfg in BUILTINS:
        start = time.perf_counter()
        res = CHECKS[group](cfg, rng)
        slowest = max(slowest, time.perf_counter() - start)
        assert res.passed, f"{cfg.name}: {res.line()}"
        worst = max(worst, res.residual)
    return worst, slowest


def test_c01_trace_variational_oracle():
    worst, slowest = _run_check("trace-variational", 101)
    assert slowest < 2.0
    _report(1, "trace-map variational oracle", worst, f"({slowest:.2f}s)")


def test_c02_boundary_reduction_identity():
    worst, _ = _run_check("grassmann-boundary", 102)
    _report(2, "boundary reduction determinant identity", worst)


def test_c03_gluing_identity_and_frame_equalities():
    worst, _ = _run_check("grassmann-gluing", 103)
    _report(3, "gluing identity and frame equalities", worst)


def test_c04_composition_law():
    worst, _ = _run_check("reduction-composition", 104)
    _report(4, "reduction composition law", worst)


def test_c05_iterates_match_level_traces():
    worst, slowest = _run_check("iterate-consistency", 105)
    assert slowest < 1.0
    _report(5, "iterates equal level traces", worst, f"(levels 1-3 {slowest:.3f}s)")


def test_c06_closed_forms():
    worst, _ = _run_check("closed-form", 106)
    _report(6, "closed coordinate forms", worst)


def test_c07_degree_matrices():
    worst, _ = _run_check("degree-matrix", 107)
    _report(7, "degree matrices", worst)


def test_c08_divisor_orders_and_balance():
    worst, _ = _run_check("divisor-balance", 108)
    _report(8, "divisor orders and balance", worst)


def test_c09_siegel_invariance():
    worst, _ = _run_check("siegel-invariance", 109)
    _report(9, "Siegel invariance", worst)


def _block_frame(q, copies):
    l = from_sym(q)
    k = l.half_dim
    m = copies * k
    cols = np.zeros((2 * m, m), dtype=complex)
    for i in range(copies):
        block = slice(i * k, (i + 1) * k)
        cols[block, block] = l.columns[:k, :]
        cols[m + i * k : m + (i + 1) * k, block] = l.columns[k:, :]
    return LagrangianFrame(cols)


def test_c10_nd_machinery_coherence(gasket, triangle, triangle_q):
    # defect of the block frame against W_n^o equals the N-D count, n <= 2
    b = np.ones(3)
    for n in (1, 2):
        w = w_renorm(gasket, n)
        nd = level_spectrum(gasket, triangle, b, n, "nd")
        test_values = [v for v, _ in nd.clusters] + [-1.0, -2.0]
        for lam in test_values:
            frame = _block_frame(triangle_q + lam * np.eye(3), 3**n)
            assert reduction_defect(frame, w) == nd.multiplicity_at(lam)
    _report(10, "N-D machinery coherence", 0.0)


def test_c11_determinant_bridge():
    worst, _ = _run_check("nd-bridge", 111)
    _report(11, "determinant bridge", worst)


@pytest.mark.parametrize("name, vacuous", [
    ("sierpinski", False),
    ("gamma_bar", False),
    ("gamma_bar_semi", True),
    ("interval", True),
])
def test_nd_bridge_says_when_replication_is_vacuous(name, vacuous):
    # with N-D counts [0, 0, 0, 0] the replication bounds compare nothing
    res = CHECKS["nd-bridge"](load_config(name), np.random.default_rng(111))
    assert res.passed
    assert ("vacuous" in res.detail) == vacuous, res.line()


def test_c12_spectrum_cardinalities_and_interlacing(gasket, triangle):
    b = np.ones(3)
    elapsed5 = None
    for n in range(1, 6):
        start = time.perf_counter()
        neu = level_spectrum(gasket, triangle, b, n, "neumann")
        if n == 5:
            elapsed5 = time.perf_counter() - start
        dir_ = level_spectrum(gasket, triangle, b, n, "dirichlet")
        size = (3 ** (n + 1) + 3) // 2
        assert neu.count == size
        assert dir_.count == size - 3
        xs = np.linspace(neu.eigenvalues[0] - 0.5, neu.eigenvalues[-1] + 0.5, 600)
        assert np.max(np.abs(neu.cdf(xs) - dir_.cdf(xs))) <= 3
    assert elapsed5 < 5.0
    _report(12, "spectrum cardinalities and interlacing", 0.0, f"(level-5 {elapsed5:.2f}s)")


def test_c13_end_to_end_verify_suite(capsys):
    start = time.perf_counter()
    for name in ("sierpinski", "gamma_bar", "gamma_bar_semi", "interval"):
        assert cli.main(["verify", "--config", name, "--suite", "all"]) == 0
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    # every builtin has closed-form, degree and divisor expectations
    assert "no expectations" not in out and "no loci" not in out
    assert elapsed < 60.0
    _report(13, "end-to-end verify suite", 0.0, f"(all builtins {elapsed:.1f}s)")


def test_c14_renorm_three_paths():
    # t_map, g_map (defect 0) and the Grassmann lift give one T(Q) at
    # random Siegel points of every builtin
    worst, slowest = _run_check("renorm-three-paths", 114)
    assert slowest < 2.0
    _report(14, "renormalization on matrices, frames and coefficients", worst, f"({slowest:.3f}s)")


@pytest.mark.parametrize("group, target", [
    ("trace-variational", "trace_map"),
    ("grassmann-boundary", "interior_reduce"),
    ("grassmann-gluing", "glue"),
    ("iterate-consistency", "t_iterate"),
    ("closed-form", "coords_eval"),
    ("nd-bridge", "renorm_lift"),
    ("renorm-three-paths", "t_map"),
])
def test_check_fails_on_perturbed_output(group, target, monkeypatch):
    # a relative error of 1e-6 in one function the check relies on must fail it
    original = getattr(verify, target)

    def perturbed(*args):
        out = original(*args)
        return out.scaled(1 + 1e-6) if hasattr(out, "scaled") else out * (1 + 1e-6)

    monkeypatch.setattr(verify, target, perturbed)
    res = CHECKS[group](load_config("sierpinski"), np.random.default_rng(0))
    assert res.passed is False
