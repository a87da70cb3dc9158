"""Spectra by slicing along the Schur chain, held to the dense path."""

import importlib.util
import time
from pathlib import Path

import numpy as np
import pytest

from fractal_spectra import cli, spectra
from fractal_spectra.config import BUILTIN_NAMES, load_config
from fractal_spectra.errors import InvalidStructure, ResidueUnresolved
from fractal_spectra.linalg import generalized_sym_eig, generalized_sym_eigvals
from fractal_spectra.network import ElectricalNetwork, q_matrix
from fractal_spectra.selfsim import (
    LevelStep,
    SelfSimilarStructure,
    assemble_measure,
    assemble_network,
    build_lattice,
    gamma_bar,
    num_vertices,
)
from fractal_spectra.spectra import (
    CHAIN_MIN_VERTICES,
    LINE_MIN_VERTICES,
    SpectrumReport,
    chain_spectrum,
    cluster_eigenvalues,
    dirichlet_spectrum,
    dos_histogram,
    level_spectrum,
    nd_spectrum,
    neumann_spectrum,
)

CONDITIONS = ("neumann", "dirichlet", "nd")
BUILTIN_LEVELS = [
    (name, n)
    for name, top in (("sierpinski", 6), ("gamma_bar", 6), ("gamma_bar_semi", 6), ("interval", 8))
    for n in range(top + 1)
]


def neumann_width(dense):
    return max(float(np.ptp(dense["neumann"].eigenvalues)), 1.0)


def dense_reports(structure, rho, b, n):
    q = assemble_network(structure, rho, n).real
    b_n = assemble_measure(structure, np.asarray(b, dtype=float), n)
    boundary = build_lattice(structure, n).boundary
    return {
        "neumann": neumann_spectrum(q, b_n, n),
        "dirichlet": dirichlet_spectrum(q, b_n, boundary, n),
        "nd": nd_spectrum(q, b_n, boundary, n),
    }


@pytest.fixture(scope="module")
def builtin_dense():
    """Dense references of a builtin config at level n, computed once per
    (name, n) in this module, the Neumann and N-D ones from one eigensolve."""
    cache = {}

    def get(name, n):
        if (name, n) not in cache:
            cfg = load_config(name)
            q = assemble_network(cfg.structure, cfg.network, n).real
            b_n = assemble_measure(cfg.structure, cfg.measure, n)
            boundary = build_lattice(cfg.structure, n).boundary
            lam, vecs = generalized_sym_eig(q, b_n)
            cache[name, n] = {
                "neumann": SpectrumReport(n, "neumann", *cluster_eigenvalues(lam)),
                "dirichlet": dirichlet_spectrum(q, b_n, boundary, n),
                "nd": spectra._nd_report(lam, vecs, boundary, n),
            }
        return cache[name, n]

    return get


@pytest.fixture(params=("line", "matrix"))
def engine(request, monkeypatch):
    """The chain's count engine: on the pencil line where the structure
    allows it, or the matrix chain, forced by reporting every structure
    off the plane."""
    if request.param == "matrix":
        monkeypatch.setattr(spectra, "_pencil_line", lambda plan, q, b: None)
    return request.param


def assert_same_spectrum(chain, dense, width, rtol=1e-10):
    """Same multiplicity lists, values within rtol of the spectral width
    (that of the Neumann spectrum, which holds the other two)."""
    assert [m for _, m in chain.clusters] == [m for _, m in dense.clusters]
    if dense.count:
        got = np.array([v for v, _ in chain.clusters])
        want = np.array([v for v, _ in dense.clusters])
        assert np.max(np.abs(got - want)) <= rtol * width


@pytest.mark.parametrize("name,n", BUILTIN_LEVELS)
def test_chain_matches_dense(name, n, builtin_dense):
    cfg = load_config(name)
    dense = builtin_dense(name, n)
    for cond in CONDITIONS:
        chain = chain_spectrum(cfg.structure, cfg.network, cfg.measure, n, cond)
        assert_same_spectrum(chain, dense[cond], neumann_width(dense))


@pytest.mark.parametrize("name", ["sierpinski", "gamma_bar", "gamma_bar_semi", "interval"])
def test_chain_nd_matches_stacked_kernel(name, nd_kernel_dimension):
    cfg = load_config(name)
    st = cfg.structure
    for n in (1, 2):
        q = assemble_network(st, cfg.network, n).real
        b_n = assemble_measure(st, cfg.measure, n)
        boundary = build_lattice(st, n).boundary
        nd = chain_spectrum(st, cfg.network, cfg.measure, n, "nd")
        for value, _ in chain_spectrum(st, cfg.network, cfg.measure, n, "neumann").clusters:
            assert nd.multiplicity_at(value) == nd_kernel_dimension(q, b_n, boundary, value)


@pytest.mark.parametrize("weights_w,weights_b,b", [
    ((1.0, 2.0, 3.0), (0.5, 1.0, 1.5), (1.0, 1.0, 1.0)),
    ((1.0, 2.0, 3.0), (0.5, 1.0, 1.5), (1.0, 0.5, 2.0)),
    ((3.0, 3.0, 3.0), (1.0, 1.0, 1.0), (1.0, 0.5, 2.0)),
])
def test_chain_weighted_under_hypothesis_h(triangle, weights_w, weights_b, b):
    # No symmetry is left once the cell measure is uneven: eigenvalues come
    # within 1e-7 of poles of the trace map without sitting on them.
    base = load_config("sierpinski").structure
    st = SelfSimilarStructure(
        3, 3, base.glue_classes, base.boundary_map, weights_w=weights_w, weights_b=weights_b,
    )
    assert st.hypothesis_h()[0]
    b = np.array(b)
    for n in (1, 2, 3, 4):
        dense = dense_reports(st, triangle, b, n)
        for cond in CONDITIONS:
            assert_same_spectrum(
                chain_spectrum(st, triangle, b, n, cond), dense[cond], neumann_width(dense))


def test_chain_uneven_conductances(rng):
    base = load_config("sierpinski").structure
    st = SelfSimilarStructure(
        3, 3, base.glue_classes, base.boundary_map,
        weights_w=(1.0, 2.0, 3.0), weights_b=(0.5, 1.0, 1.5),
    )
    g = rng.uniform(0.5, 2.0, 3)
    q = q_matrix(ElectricalNetwork(3, {(0, 1): g[0], (0, 2): g[1], (1, 2): g[2]})).real
    b = rng.uniform(0.5, 2.0, 3)
    for n in (3, 4):
        dense = dense_reports(st, q, b, n)
        for cond in CONDITIONS:
            assert_same_spectrum(chain_spectrum(st, q, b, n, cond), dense[cond], neumann_width(dense))


def test_weights_without_h_take_dense_path(triangle, monkeypatch):
    base = load_config("sierpinski").structure
    st = SelfSimilarStructure(
        3, 3, base.glue_classes, base.boundary_map, weights_w=(1.0, 2.0, 3.0),
    )
    assert not st.hypothesis_h()[0]
    with pytest.raises(InvalidStructure):
        chain_spectrum(st, triangle, np.ones(3), 2)

    def refuse(*args, **kwargs):
        raise AssertionError("the chain needs hypothesis H")

    monkeypatch.setattr(spectra, "_chain_spectrum", refuse)
    assert num_vertices(st, 6) >= CHAIN_MIN_VERTICES
    rep = level_spectrum(st, triangle, np.ones(3), 6)
    assert rep.count == build_lattice(st, 6).num_vertices


def test_level_spectrum_routes_by_size(gasket, triangle, monkeypatch):
    # One crossover per engine: the gasket keeps the pencil plane and takes
    # the chain from LINE_MIN_VERTICES, gamma_bar (a weak network) takes the
    # matrix chain from CHAIN_MIN_VERTICES.
    calls = []
    real = spectra._chain_spectrum

    def spy(structure, step, q, b, line, n, condition):
        calls.append((structure, n))
        return real(structure, step, q, b, line, n, condition)

    monkeypatch.setattr(spectra, "_chain_spectrum", spy)
    gbar = load_config("gamma_bar")
    assert num_vertices(gasket, 4) < LINE_MIN_VERTICES <= num_vertices(gasket, 5)
    assert num_vertices(gbar.structure, 5) < CHAIN_MIN_VERTICES <= num_vertices(gbar.structure, 6)
    for n in (4, 5):
        level_spectrum(gasket, triangle, np.ones(3), n)
    for n in (5, 6):
        level_spectrum(gbar.structure, gbar.network, gbar.measure, n)
    assert calls == [(gasket, 5), (gbar.structure, 6)]


def test_counts_on_interior_pole(gasket, triangle, engine):
    # The level-1 interior block of the gasket, (4 - 2x) I - A_triangle with
    # unit measure, is singular at x = -1 and x = -2.5; both are floats, so
    # the first step meets an exactly singular block there.
    n = 3
    q = assemble_network(gasket, triangle, n).real
    b_n = assemble_measure(gasket, np.ones(3), n)
    interior = build_lattice(gasket, n).interior()
    neumann = generalized_sym_eigvals(q, b_n)
    dirichlet = generalized_sym_eigvals(q[np.ix_(interior, interior)], b_n[interior])
    poles = np.array([-2.5, -1.0])
    plan = spectra._chain_plan(gasket)
    cell = q_matrix(triangle).real
    line = spectra._pencil_line(plan, cell, np.ones(3))
    assert (line is not None) == (engine == "line")
    counts = spectra._chain(plan, cell, np.ones(3), n, poles, line=line)[0]
    assert counts.dtype.kind == "i"
    for x, (n_dir, n_neu, _) in zip(poles, counts):
        assert n_dir == np.count_nonzero(dirichlet > x + 1e-9)
        assert n_neu == np.count_nonzero(neumann > x + 1e-9)


def test_chain_reads_poles_from_above(monkeypatch, engine, builtin_dense):
    # Bisection points land on poles of the trace map: an interior pivot
    # within PIVOT_TOL of zero is read at x + 0, as positive, and kept as an
    # extra coordinate; the point is never moved and the spectra stay exact.
    # On the line, candidates put no point on a pole; without them the line
    # bisects, as it does for any eigenvalue no candidate catches.
    cfg = load_config("interval")
    if engine == "line":
        monkeypatch.setattr(spectra, "_line_candidates", lambda line, n, neumann: np.zeros(0))
    real = spectra._eliminate
    on_pole = []

    def spy(a, da, k):
        big = np.abs(a[:, k:, :]).max(axis=(1, 2))[:, None]
        d = np.linalg.eigvalsh(a[:, k:, k:])
        on_pole.append(int(np.count_nonzero(np.abs(d) <= spectra.PIVOT_TOL * big)))
        return real(a, da, k)

    monkeypatch.setattr(spectra, "_eliminate", spy)
    for n in range(3, 9):
        dense = builtin_dense("interval", n)
        chain = chain_spectrum(cfg.structure, cfg.network, cfg.measure, n, "dirichlet")
        assert_same_spectrum(chain, dense["dirichlet"], neumann_width(dense))
    assert sum(on_pole) > 0


def pole_structure():
    """Copies joined only by the weak network, with uneven weights: at
    level 5 an eigenvalue sits on a pole of the trace map."""
    base = gamma_bar(1.0, 2.0)
    w = (1.42, 0.51, 2.58)
    st = SelfSimilarStructure(3, 3, base.glue_classes, base.boundary_map,
                              weights_w=w, weights_b=w, weak=base.weak)
    q = q_matrix(ElectricalNetwork(3, {(0, 1): 0.9, (0, 2): 1.82, (1, 2): 1.26})).real
    return st, q, np.array([1.77, 1.46, 1.61])


def test_eigenvalue_on_a_pole():
    # Newton targets land on the eigenvalue that sits on a pole; its
    # interval has to be cut down to BISECT_TOL, and the Neumann-Dirichlet
    # read-out has to read the last cell matrix there.
    st, q, b = pole_structure()
    dense = dense_reports(st, q, b, 5)
    for cond in ("dirichlet", "nd"):
        assert_same_spectrum(chain_spectrum(st, q, b, 5, cond), dense[cond], neumann_width(dense))


def test_chain_sums_couplings_of_a_self_glued_copy(self_glued):
    # Vertices 1 and 2 of copy 0 share a level-1 vertex, so that copy's
    # couplings between its boundary and its interior add up there.
    rho = ElectricalNetwork(3, {(0, 1): 1.0, (0, 2): 1.3, (1, 2): 0.7})
    b = np.array([1.0, 1.2, 0.8])
    for n in (3, 4):
        dense = dense_reports(self_glued, rho, b, n)
        for cond in ("neumann", "dirichlet"):
            assert_same_spectrum(chain_spectrum(self_glued, rho, b, n, cond), dense[cond],
                                 neumann_width(dense))


def test_points_on_a_pole_cost_one_pass(monkeypatch):
    # A point on a pole is read where it is, in one pass of the chain, so
    # the bisection of the pole structure needs few passes.
    st, q, b = pole_structure()
    real = spectra._chain
    calls = []

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(spectra, "_chain", spy)
    for cond in ("dirichlet", "nd"):
        calls.clear()
        chain_spectrum(st, q, b, 5, cond)
        assert len(calls) <= 64


def test_nd_read_out_keeps_degenerate_runs_whole():
    # Uneven weights on the gamma_bar gluing: at level 5 the read-out meets
    # kept directions of one sign that are not one degenerate run; grouping
    # them by sign only (as the counts do) reports an N-D eigenfunction at
    # a simple eigenvalue near -118.97 that dense does not have.
    base = gamma_bar(1.0, 2.0)
    w = np.array([1.67, 1.52, 2.3])
    st = SelfSimilarStructure(3, 3, base.glue_classes, base.boundary_map,
                              weights_w=tuple(w), weights_b=tuple(w / 1.81), weak=base.weak)
    q = q_matrix(ElectricalNetwork(3, {(0, 1): 1.6, (0, 2): 0.63, (1, 2): 1.34})).real
    b = np.array([1.34, 1.9, 0.56])
    for n in (4, 5):
        dense = dense_reports(st, q, b, n)
        assert_same_spectrum(chain_spectrum(st, q, b, n, "nd"), dense["nd"], neumann_width(dense))


def test_nd_read_out_keeps_few_directions(monkeypatch, engine):
    # On the matrix chain the read-out pass keeps the count passes'
    # near-singular directions only, so its cell stacks stay about as small
    # as theirs.  It is the last pass of an N-D spectrum, so each pass
    # starts the record afresh.  On the line the read-out takes the line's
    # pairs, so once the _PencilLine is built no cell matrix is glued.
    cfg, plan, q, b, line = line_of("sierpinski")
    chain, glue = spectra._chain, LevelStep.glue
    extra = []

    def chain_spy(*args, **kwargs):
        if engine == "matrix":
            extra.clear()
        return chain(*args, **kwargs)

    def glue_spy(step, e, weak=True):
        extra.append(e.shape[1] - step.cell_size)
        return glue(step, e, weak)

    monkeypatch.setattr(spectra, "_chain", chain_spy)
    monkeypatch.setattr(LevelStep, "glue", glue_spy)
    if engine == "matrix":
        chain_spectrum(cfg.structure, cfg.network, cfg.measure, 8, "nd")
        assert extra and max(extra) <= 12
    else:
        rep = spectra._chain_spectrum(cfg.structure, plan, q, b, line, 8, "nd")
        assert rep.count == 9202 and extra == []


def test_complex_rho_raises_on_both_paths():
    cfg = load_config("sierpinski")
    q = q_matrix(cfg.network)
    for n in (2, 7):  # the dense path, then the chain
        with pytest.raises(ValueError, match="imaginary"):
            level_spectrum(cfg.structure, q + 1j * np.eye(3), cfg.measure, n)
    for n in (2, 6):
        real = level_spectrum(cfg.structure, q.real, cfg.measure, n)
        same = level_spectrum(cfg.structure, q.astype(complex), cfg.measure, n)
        assert same.clusters == real.clusters


def test_complex_weights_raise_on_both_paths():
    cfg = load_config("sierpinski")
    q = q_matrix(cfg.network).real
    with pytest.raises(ValueError, match="imaginary"):
        neumann_spectrum(q, np.ones(3) + 1j)
    for n in (2, 7):  # the dense path, then the chain
        with pytest.raises(ValueError, match="imaginary"):
            level_spectrum(cfg.structure, q, cfg.measure + 1j, n)
    with pytest.raises(ValueError, match="imaginary"):
        spectra._cell_data(cfg.structure, q, cfg.measure + 1j)
    for n in (2, 6):
        real = level_spectrum(cfg.structure, q, cfg.measure, n)
        same = level_spectrum(cfg.structure, q, cfg.measure.astype(complex), n)
        assert same.clusters == real.clusters


def test_nonfinite_input_raises_on_both_paths():
    cfg = load_config("sierpinski")
    q = q_matrix(cfg.network).real
    nan_q = q.copy()
    nan_q[0, 1] = nan_q[1, 0] = np.nan
    inf_b = np.array([1.0, np.inf, 1.0])
    for n in (2, 7):  # the dense path, then the chain
        with pytest.raises(ValueError, match="finite"):
            level_spectrum(cfg.structure, nan_q, cfg.measure, n)
        with pytest.raises(ValueError, match="finite"):
            level_spectrum(cfg.structure, q, inf_b, n)
    with pytest.raises(ValueError, match="finite"):
        spectra.green_proxy(nan_q, np.ones(3), [0.0], 3, 0)


def test_chain_deep_level_counts_every_vertex(gasket, triangle):
    # 88575 vertices: a dense solve would need a 63 GB matrix.
    rep = chain_spectrum(gasket, triangle, np.ones(3), 10)
    assert sum(m for _, m in rep.clusters) == rep.count == num_vertices(gasket, 10) == 88575


@pytest.mark.parametrize("solve", [generalized_sym_eig, generalized_sym_eigvals])
def test_cdf_counts_whole_cluster(gasket, triangle, solve):
    q4 = assemble_network(gasket, triangle, 4).real
    b4 = assemble_measure(gasket, np.ones(3), 4)
    lam = solve(q4, b4)
    lam = lam[0] if isinstance(lam, tuple) else lam
    rep = SpectrumReport(4, "neumann", *cluster_eigenvalues(lam))
    assert rep.multiplicity_at(-3.0) == 42
    below = np.count_nonzero(lam < -3.0 - 1e-9)
    assert rep.cdf([-3.0])[0] == below + 42



def assert_readers_match_expansion(rep, num_copies, rng):
    """cdf, multiplicity_at and dos_histogram, which read only values and
    mult, against the per-vertex rules they replace, applied to the
    expansion rep.eigenvalues: at random points, at every value and at
    every value +- the width tolerance."""
    lam = np.sort(rep.eigenvalues)
    tol = 10 * spectra.CLUSTER_TOL * (float(lam[-1] - lam[0]) or 1.0) if lam.size else spectra.CLUSTER_TOL
    lo, hi = (float(lam[0]), float(lam[-1])) if lam.size else (0.0, 1.0)
    xs = np.concatenate([rng.uniform(lo - 0.1 * (hi - lo) - 1, hi + 0.1 * (hi - lo) + 1, 300),
                         rep.values, rep.values - tol, rep.values + tol])
    np.testing.assert_array_equal(rep.cdf(xs), np.searchsorted(lam, xs + tol, side="right"))
    for x in xs:
        assert rep.multiplicity_at(x) == sum(m for v, m in rep.clusters if abs(v - x) <= tol)
    if hi <= lo:
        hi = lo + 1.0
    edges, masses = dos_histogram([rep], num_copies, 64)
    np.testing.assert_array_equal(edges, np.linspace(lo, hi, 65))
    edge = edges[np.clip(np.rint((lam - lo) / (hi - lo) * 64), 0, 64).astype(int)]
    counts, _ = np.histogram(np.where(np.abs(lam - edge) <= tol, edge, lam), edges)
    np.testing.assert_array_equal(masses[0], counts / float(num_copies**rep.level))


# Chain reports to level 7, and the cached dense ones of BUILTIN_LEVELS up
# to it.  gamma_bar_semi stops at 5: its matrix chain takes about a second
# per condition at level 6 and five at level 7, and the readers see only
# values and mult, whichever engine made them.
READER_LEVELS = {"sierpinski": 7, "gamma_bar": 7, "gamma_bar_semi": 5, "interval": 7}


@pytest.mark.parametrize("name", sorted(READER_LEVELS))
def test_readers_match_the_expansion(name, builtin_dense, rng):
    cfg = load_config(name)
    for n in range(READER_LEVELS[name] + 1):
        dense = builtin_dense(name, n) if (name, n) in BUILTIN_LEVELS else {}
        for cond in CONDITIONS:
            reports = [chain_spectrum(cfg.structure, cfg.network, cfg.measure, n, cond)]
            reports += [dense[cond]] if dense else []
            for rep in reports:
                assert_readers_match_expansion(rep, cfg.structure.num_copies, rng)


def test_readers_never_expand():
    # 1000 values of multiplicity 2^31 each, 2^40.97 eigenvalues in all:
    # expanded, 17 TB of floats.
    rep = SpectrumReport(30, "neumann", np.linspace(-3.0, 0.0, 1000), np.full(1000, 2**31))
    start = time.perf_counter()
    assert rep.count == 1000 * 2**31 > 2**40
    assert rep.cdf([-4.0, -3.0, -1.5, 0.0]).tolist() == [0, 2**31, 500 * 2**31, 1000 * 2**31]
    assert rep.multiplicity_at(0.0) == 2**31
    _, masses = dos_histogram([rep], 3, 64)
    assert abs(masses.sum() - rep.count / 3.0**30) <= 1e-12 * rep.count / 3.0**30
    assert time.perf_counter() - start < 0.5

def line_of(name):
    cfg = load_config(name)
    plan = spectra._chain_plan(cfg.structure)
    q, b = spectra._cell_data(cfg.structure, cfg.network, cfg.measure)
    return cfg, plan, q, b, spectra._pencil_line(plan, q, b)


@pytest.mark.parametrize("name,n", [("sierpinski", 6), ("sierpinski", 8), ("interval", 10), ("interval", 12)])
def test_line_counts_match_matrix_chain(name, n, rng):
    # Random points over the spectrum, then each distinct eigenvalue just
    # below and above, where a point near a pole of the trace map needs its
    # signs tracked through later steps (or the matrix chain).  The line
    # eliminates every interior direction before the last cell, so its
    # third column is the Dirichlet count; the matrix chain's is that less
    # the negatives it keeps as extra coordinates near a pole.
    cfg, plan, q, b, line = line_of(name)
    assert line is not None
    rep = chain_spectrum(cfg.structure, cfg.network, cfg.measure, n)
    lo, hi = rep.eigenvalues[0], rep.eigenvalues[-1]
    xs = rng.uniform(lo - 0.05 * (hi - lo), hi + 0.05 * (hi - lo), 3000)
    want = spectra._chain(plan, q, b, n, xs)
    got = spectra._chain(plan, q, b, n, xs, line=line)
    kept = want[0][:, 0] != want[0][:, 2]
    assert np.count_nonzero(kept) < 10
    np.testing.assert_array_equal(got[0][~kept], want[0][~kept])
    np.testing.assert_array_equal(got[0][kept, :2], want[0][kept, :2])
    np.testing.assert_array_equal(got[0][:, 2], got[0][:, 0])
    values = np.array([v for v, _ in rep.clusters])
    xs = np.concatenate([values - 1e-10 * (hi - lo), values + 1e-10 * (hi - lo)])
    want = spectra._chain(plan, q, b, n, xs)
    got = spectra._chain(plan, q, b, n, xs, line=line)
    np.testing.assert_array_equal(got[0][:, :2], want[0][:, :2])


def test_line_counts_at_exact_poles(gasket, triangle):
    # The gasket's interior block is exactly singular at x = -1 and -2.5
    # (see test_counts_on_interior_pole); both engines read the points
    # where they are and agree.
    plan = spectra._chain_plan(gasket)
    cell = q_matrix(triangle).real
    line = spectra._pencil_line(plan, cell, np.ones(3))
    poles = np.array([-2.5, -1.0])
    for n in (1, 3, 6):
        want = spectra._chain(plan, cell, np.ones(3), n, poles)[0]
        got = spectra._chain(plan, cell, np.ones(3), n, poles, line=line)[0]
        np.testing.assert_array_equal(got[:, :2], want[:, :2])


def matrix_chain_spectrum(monkeypatch, *args):
    with monkeypatch.context() as m:
        m.setattr(spectra, "_pencil_line", lambda plan, q, b: None)
        return chain_spectrum(*args)


def assert_same_lists(got, want, width):
    # Each value is the midpoint of a bracket narrower than BISECT_TOL of the
    # bracket of the whole spectrum, a few spectral widths.
    assert_same_spectrum(got, want, width, rtol=4 * spectra.BISECT_TOL)


@pytest.mark.parametrize("name,n", [("sierpinski", 7), ("sierpinski", 8),
                                    ("interval", 10), ("interval", 11), ("interval", 12)])
def test_line_spectra_match_matrix_chain(name, n, monkeypatch):
    cfg, *_ = line_of(name)
    args = (cfg.structure, cfg.network, cfg.measure, n)
    width = float(np.ptp(chain_spectrum(*args).eigenvalues))
    for cond in CONDITIONS:
        assert_same_lists(chain_spectrum(*args, cond), matrix_chain_spectrum(monkeypatch, *args, cond),
                          width)


def test_line_spectra_of_scaled_cell(gasket, triangle, monkeypatch):
    # Scaling the conductances by a and the measure by c moves the plane's
    # coordinates, not the line, and scales the spectrum by a / c.
    a, c = 1.7, 0.6
    q, b = a * q_matrix(triangle).real, np.full(3, c)
    assert spectra._pencil_line(spectra._chain_plan(gasket), q, b) is not None
    base = chain_spectrum(gasket, triangle, np.ones(3), 7, "neumann")
    width = a / c * float(np.ptp(base.eigenvalues))
    for cond in CONDITIONS:
        got = chain_spectrum(gasket, q, b, 7, cond)
        assert_same_lists(got, matrix_chain_spectrum(monkeypatch, gasket, q, b, 7, cond), width)
    assert [m for _, m in got.clusters] == [
        m for _, m in chain_spectrum(gasket, triangle, np.ones(3), 7, "nd").clusters]


def test_weak_networks_and_uneven_conductances_take_matrix_chain(rng, monkeypatch):
    base = load_config("sierpinski").structure
    uneven = SelfSimilarStructure(
        3, 3, base.glue_classes, base.boundary_map,
        weights_w=(1.0, 2.0, 3.0), weights_b=(0.5, 1.0, 1.5),
    )
    g = rng.uniform(0.5, 2.0, 3)
    q = q_matrix(ElectricalNetwork(3, {(0, 1): g[0], (0, 2): g[1], (1, 2): g[2]})).real
    b = rng.uniform(0.5, 2.0, 3)
    cases = [(uneven, q, b)]
    for name in ("gamma_bar", "gamma_bar_semi"):
        cfg = load_config(name)
        cases.append((cfg.structure, q_matrix(cfg.network).real, cfg.measure))

    def refuse(*args):
        raise AssertionError("off the plane the chain counts with cell matrices")

    monkeypatch.setattr(spectra, "_line_chain", refuse)
    for st, cell, measure in cases:
        assert spectra._pencil_line(spectra._chain_plan(st), cell, measure) is None
        chain_spectrum(st, cell, measure, 3, "neumann")
    for name in ("sierpinski", "interval"):
        assert line_of(name)[-1] is not None


def count_passes(monkeypatch):
    """A list that gains one entry, its number of points, per count pass
    of _chain (read-outs not included).  On the line builtins every
    top-level pass has a line: the N-D read-out there ranks the pairs the
    count passes took and runs no pass, and the matrix-chain passes of the
    points the line leaves unsure run inside a count pass.  A matrix-chain
    N-D read-out, which the line builtins take only for groups the line
    leaves unsure, is a top-level pass without a line."""
    real, passes, depth = spectra._chain, [], [0]

    def spy(plan, q, b, n, xs, line=None, **kwargs):
        passes.extend([xs.size] if depth[0] or line is not None else [])
        depth[0] += 1
        try:
            return real(plan, q, b, n, xs, line, **kwargs)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(spectra, "_chain", spy)
    return passes


@pytest.mark.parametrize("n", [6, 10, 12])
def test_candidates_certify_in_one_pass(n, monkeypatch):
    # Backward iteration of the step map (y -> y (2y + 5) on the Sierpinski
    # gasket) gives every eigenvalue: one pass counts the bracket's ends and
    # each candidate +- tol / 4, which finishes every bracket, and no point
    # goes to the matrix chain.  The same holds on SG3 and the Vicsek set,
    # whose steps have degree 3 to 6: a leading coefficient of rounding
    # size (Vicsek's is 1.1e-15 of its row) must not add a spurious root.
    passes = count_passes(monkeypatch)
    examples = [example_path("sg3"), example_path("vicsek")]
    for name in {6: ["sierpinski", *examples], 10: ["sierpinski", "interval"], 12: ["interval"]}[n]:
        cfg, *_ = line_of(name)
        for cond in CONDITIONS:
            passes.clear()
            chain_spectrum(cfg.structure, cfg.network, cfg.measure, n, cond)
            assert len(passes) == 1


def _companion_real_roots(c, scale):
    """_real_roots with every degree on the companion-matrix path: the
    reference for its closed form."""
    c = c[np.abs(c).max(axis=1, initial=0.0) > 0]
    c = c / np.abs(c).max(axis=1, keepdims=True)
    lead = np.argmax(np.abs(c) > np.finfo(float).eps, axis=1)
    roots = [np.zeros(0)]
    for start in np.flatnonzero(np.bincount(lead)):
        rows = c[lead == start, start:]
        deg = rows.shape[1] - 1
        if deg:
            companion = np.zeros((rows.shape[0], deg, deg))
            companion[:, 0] = -rows[:, 1:] / rows[:, :1]
            companion[:, np.arange(1, deg), np.arange(deg - 1)] = 1.0
            r = np.linalg.eigvals(companion)
            gap = np.abs(r[:, :, None] - r[:, None, :]) + np.diag(np.full(deg, np.inf))
            near = np.argmin(gap, axis=2)
            pair = np.min(gap, axis=2) <= spectra.ROOT_REAL_TOL * (scale + np.abs(r))
            roots.append(np.where(pair, 0.5 * (r + np.take_along_axis(r, near, 1)), r).ravel())
    r = np.concatenate(roots)
    return np.sort(r.real[r.imag == 0])


def test_closed_form_roots_match_the_companion_path(rng):
    # Rows of degree 1 and 2: real pairs, complex pairs, double roots split
    # by rounding within ROOT_REAL_TOL (both ways) and split farther, a zero
    # constant term, a root at 0 twice, roots of very different sizes, and
    # leading terms of rounding size
    # like those of the Sierpinski step's A (2.2e-18 and 1.2e-17 against
    # 1.5), which drop the degree.  Roots 6e-5 apart move by up to about
    # eps / 6e-5 between the two paths; all others agree to 1e-12.
    scale = 3.0
    cases = [(rng.standard_normal(3), 1e-12) for _ in range(200)]
    cases += [(np.concatenate([[0.0], rng.standard_normal(2)]), 1e-12) for _ in range(50)]
    for r in rng.uniform(-3.0, 3.0, 20):
        cases += [(np.array([1.0, -2 * r, r * r + d]), 1e-12) for d in (0.0, 1e-14, -1e-14, 1e-9)]
        cases.append((np.array([1.0, -2 * r, r * r - 1e-9]), 1e-9))
    cases += [(np.array(row), 1e-12) for row in ([2.0, 5.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 4.0],
                                                  [1.0, 0.0, -4.0], [0.0, 3.0, 0.0])]
    # roots 1e-6 and 1e6 together, where the textbook formula loses the small one
    cases += [(np.array([1e-6, sign, 1e-6]), 1e-12) for sign in (1.0, -1.0)]
    cases += [(np.array([2.2e-18, 1.2e-17, 0.5, 1.5 - 3 * t]), 1e-12) for t in rng.uniform(-3.0, 0.0, 20)]
    cases += [(np.array([4.3e-17, 1.0, 2.0 + t]), 1e-12) for t in rng.uniform(-3.0, 0.0, 20)]
    for row, tol in cases:
        row = np.atleast_2d(row)
        got, want = spectra._real_roots(row, scale), _companion_real_roots(row, scale)
        assert got.shape == want.shape, row
        assert np.all(np.abs(got - want) <= tol * (scale + np.abs(want))), row
    # all rows at once, as _line_candidates passes them
    stack = np.array([np.pad(row, (4 - row.size, 0)) for row, _ in cases])
    got, want = spectra._real_roots(stack, scale), _companion_real_roots(stack, scale)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want) / (scale + np.abs(want))) <= 1e-9


def test_companion_roots_find_planted_roots(rng):
    # Rows of degree 3-6, one stack padded with leading zeros as
    # _line_candidates passes them: planted simple real roots, double roots
    # (split by rounding, read back twice at their mean) and complex pairs
    # (no real root) come back as the sorted real roots, double ones twice.
    # Real roots at least 0.4 apart, from a jittered grid on [-3, 3], at
    # most one double root a row and complex pairs at least 0.5 off the
    # axis: clusters of close roots would test the companion eigensolve's
    # conditioning instead.  Over 24000 such rows the worst error was 1.4e-11.
    scale = 3.0
    grid = np.linspace(-3.0, 3.0, 13)
    rows, want = [], []
    for deg in range(3, 7):
        for _ in range(20):
            pairs = int(rng.integers(0, deg // 2 + 1))
            doubles = int(rng.integers(0, min(1, (deg - 2 * pairs) // 2) + 1))
            real = rng.choice(grid, deg - 2 * pairs - doubles, replace=False)
            real = real + rng.uniform(-0.05, 0.05, real.size)
            simple, double = real[doubles:], real[:doubles]
            centre = rng.uniform(-3.0, 3.0, pairs) + 1j * rng.uniform(0.5, 2.0, pairs)
            roots = np.concatenate([simple, double, double, centre, centre.conj()])
            rows.append(rng.uniform(0.5, 2.0) * np.poly(roots).real)
            want.append(np.concatenate([simple, double, double]))
    for row, real in zip(rows, want):
        got = spectra._real_roots(row[None], scale)
        assert got.shape == real.shape, row
        assert np.all(np.abs(got - np.sort(real)) <= 1e-9 * scale), row
    stack = np.array([np.pad(row, (7 - row.size, 0)) for row in rows])
    got, real = spectra._real_roots(stack, scale), np.sort(np.concatenate(want))
    assert got.shape == real.shape
    assert np.max(np.abs(got - real)) <= 1e-9 * scale


def _companion_candidates(line, n, neumann):
    """_line_candidates with no common factor divided out and every row on
    the companion path."""
    a, b = line.numerators
    scale = max(np.abs(line.nu).max(initial=0.0), np.abs(line.mu).max())
    zeros = _companion_real_roots(a[None], scale)
    common = np.abs(np.polyval(b, zeros)) <= spectra.VANISH_TOL * np.polyval(np.abs(b), np.abs(zeros))
    targets = np.concatenate([-line.nu, zeros[common]])
    ys = np.sort(-line.mu) if neumann else np.zeros(0)
    for _ in range(n):
        ys = np.concatenate([_companion_real_roots(b - ys[:, None] * a, scale), targets])
        ys = spectra._merge_runs(np.sort(ys), spectra.MERGE_TOL * scale)
    return ys


@pytest.mark.parametrize("name,top", [("sierpinski", 12), ("interval", 14)])
def test_candidates_match_the_companion_pass(name, top):
    # On the gasket the common zero y = -3 of A and B is divided out, so
    # each row B - tA is a quadratic in closed form, not a cubic with the
    # root -3: the candidates are the same points, to rounding.
    *_, line = line_of(name)
    scale = max(np.abs(line.nu).max(initial=0.0), np.abs(line.mu).max())
    for n in range(1, top + 1):
        for neumann in (True, False):
            got = spectra._line_candidates(line, n, neumann)
            want = _companion_candidates(line, n, neumann)
            assert got.shape == want.shape, (n, neumann)
            assert np.max(np.abs(got - want)) <= 1e-13 * scale, (n, neumann)


def test_deflation_is_polydiv_bitwise(rng):
    # _line_candidates divides each common zero out of A and B by synthetic
    # division; the quotient is np.polydiv's to the bit, on every builtin
    # line at every real root of A, divided out in turn as there, and on
    # random polynomials.
    pairs = []
    for name in BUILTIN_NAMES:
        *_, line = line_of(name)
        if line is None:
            continue
        a, b = line.numerators
        scale = max(np.abs(line.nu).max(initial=0.0), np.abs(line.mu).max())
        for z in spectra._real_roots(a[None], scale):
            pairs += [(a, z), (b, z)]
            a, b = np.polydiv(a, [1.0, -z])[0], np.polydiv(b, [1.0, -z])[0]
    assert len(pairs) >= 2  # the gasket's common zero y = -3 (the interval's A has no real root)
    pairs += [(rng.standard_normal(d), rng.standard_normal()) for d in range(2, 9) for _ in range(20)]
    for p, z in pairs:
        got, want = spectra._deflate(p, z), np.polydiv(p, [1.0, -z])[0]
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (p, z)


@pytest.mark.parametrize("name,n", [("sierpinski", 7), ("interval", 10)])
def test_missed_candidates_fall_back_to_bisection(name, n, monkeypatch):
    # Every other candidate dropped: the intervals left with a count jump
    # are bisected as before, and the lists stay the same.
    cfg, *_ = line_of(name)
    args = (cfg.structure, cfg.network, cfg.measure, n)
    want = {cond: chain_spectrum(*args, cond) for cond in CONDITIONS}
    real = spectra._line_candidates
    monkeypatch.setattr(spectra, "_line_candidates", lambda *a: real(*a)[::2])
    passes = count_passes(monkeypatch)
    width = float(np.ptp(want["neumann"].eigenvalues))
    for cond in CONDITIONS:
        assert_same_lists(chain_spectrum(*args, cond), want[cond], width)
    assert len(passes) > 3 * 2


def test_rateless_intervals_on_the_matrix_chain(monkeypatch):
    # Counts with zero rates, as the line gives them: no Newton step is
    # taken, every interval is cut into equal parts, and the lists stay the
    # same.
    cfg = load_config("gamma_bar")
    args = (cfg.structure, cfg.network, cfg.measure, 3)
    want = {cond: chain_spectrum(*args, cond) for cond in CONDITIONS}
    real = spectra._chain

    def rateless(*a, **kwargs):
        counts, rates, pairs = real(*a, **kwargs)
        return counts, np.zeros_like(rates), pairs

    monkeypatch.setattr(spectra, "_chain", rateless)
    width = float(np.ptp(want["neumann"].eigenvalues))
    for cond in CONDITIONS:
        assert_same_lists(chain_spectrum(*args, cond), want[cond], width)


def test_interval_counts_stay_on_the_line(monkeypatch):
    # The interval's pole y = -1 is a critical point of its step, so a point
    # near an eigenvalue on it moves the later pivots by the square of its
    # distance; held in two parts, the line still decides their signs.  A
    # Dirichlet pass reads no last-cell pivot and sends the matrix chain only
    # the points unsure at an interior pivot.  A Neumann pass sends none
    # either: its bracket reaches out to the cuts around the lowest
    # eigenvalue -2, so no end sits on an eigenvalue.
    cfg, *_ = line_of("interval")
    line_chain, chain = spectra._line_chain, spectra._chain
    unsure, sent = [], []

    def line_spy(*args):
        out = line_chain(*args)
        unsure.append((int(np.count_nonzero(out[1])), int(np.count_nonzero(out[1] | out[2]))))
        return out

    def chain_spy(plan, q, b, n, xs, line=None, **kwargs):
        if line is None:
            sent.append(xs.size)
        return chain(plan, q, b, n, xs, line, **kwargs)

    monkeypatch.setattr(spectra, "_line_chain", line_spy)
    monkeypatch.setattr(spectra, "_chain", chain_spy)
    for n in range(8, 13):
        for cond, read in (("dirichlet", 0), ("neumann", 1)):
            unsure.clear()
            sent.clear()
            chain_spectrum(cfg.structure, cfg.network, cfg.measure, n, cond)
            assert sum(sent) == sum(u[read] for u in unsure)
            assert sum(sent) == 0


def test_interval_closed_form():
    # The interval's level-12 Neumann spectrum is -(1 - cos(j pi / 2^12)),
    # j = 0..2^12 (Chebyshev doubling), all simple.
    cfg = load_config("interval")
    n = 12
    rep = chain_spectrum(cfg.structure, cfg.network, cfg.measure, n)
    want = -(1.0 - np.cos(np.arange(2**n + 1)[::-1] * np.pi / 2**n))
    assert [m for _, m in rep.clusters] == [1] * want.size
    got = np.array([v for v, _ in rep.clusters])
    assert np.max(np.abs(got - want)) <= 1e-10 * np.ptp(want)


def test_sierpinski_count_laws():
    # Measured laws, checked at these levels only: the Sierpinski gasket
    # has 3 * 2^(n-1) distinct Neumann eigenvalues at levels 1-10, and
    # |V_n| less its Neumann-Dirichlet eigenfunctions is 5 * 2^(n-1) + 1 at
    # levels 1-9 (dense below the crossover, the chain above it).
    cfg = load_config("sierpinski")
    args = (cfg.structure, cfg.network, cfg.measure)
    for n in range(1, 11):
        assert len(level_spectrum(*args, n).clusters) == 3 * 2 ** (n - 1)
    for n in range(1, 10):
        nd = level_spectrum(*args, n, "nd").count
        assert num_vertices(cfg.structure, n) - nd == 5 * 2 ** (n - 1) + 1


@pytest.mark.parametrize("n,rows,total", [(12, 3068, 786922), (13, 5802, 2371005)])
def test_sierpinski_nd_law_at_depth(n, rows, total):
    # The law |V_n| - nd_n = 5 * 2^(n-1) + 1 at levels 12 and 13, from the
    # trace's residue on the line, read per bracket: at level 12 some
    # CLUSTER_TOL groups hold distinct eigenvalues.
    cfg = load_config("sierpinski")
    rep = level_spectrum(cfg.structure, cfg.network, cfg.measure, n, "nd")
    assert (len(rep.clusters), rep.count) == (rows, total)
    assert num_vertices(cfg.structure, n) - total == 5 * 2 ** (n - 1) + 1


def test_interval_has_no_nd_eigenvalue_at_level_14():
    # Every eigenvalue of the interval is simple and none is N-D.  At level
    # 14 CLUSTER_TOL groups six simple eigenvalues at each end, whose
    # boundary values pooled have rank 2; the residue is read per bracket,
    # so each group holds no N-D eigenvalue.
    cfg = load_config("interval")
    assert level_spectrum(cfg.structure, cfg.network, cfg.measure, 14, "nd").clusters == []


@pytest.mark.parametrize("name,n", [("sierpinski", 40), ("interval", 63)])
def test_levels_beyond_int64_counts_raise(name, n, capsys):
    # The chain counts in int64: from 2^63 vertices on, every entry point
    # raises ValueError (the CLI's input error) instead of wrapping to a
    # negative count.  One level lower the count is still exact.
    cfg = load_config(name)
    args = (cfg.structure, cfg.network, cfg.measure)
    assert num_vertices(cfg.structure, n - 1) < 2**63 <= num_vertices(cfg.structure, n)
    for spectrum in (level_spectrum, chain_spectrum):
        for cond in CONDITIONS:
            with pytest.raises(ValueError, match="2\\^63"):
                spectrum(*args, n, cond)
    assert cli.main(["spectrum", "--config", name, "--level", str(n), "--bc", "nd"]) == 2
    assert "input error:" in capsys.readouterr().err
    _, plan, q, b, line = line_of(name)
    below = -1.01 * float(np.max(np.abs(q).sum(axis=1) / b)) * plan.gamma ** (n - 1)
    counts = spectra._chain(plan, q, b, n - 1, np.array([below]), line=line)[0]
    assert counts[0, 1] == num_vertices(cfg.structure, n - 1)


def line_nd_reads(monkeypatch):
    """A list that gains (lo, hi, rank, unsure) per N-D read on the line."""
    real, reads = spectra._line_residue_ranks, []

    def spy(line, lo, hi, *pairs):
        out = real(line, lo, hi, *pairs)
        reads.append((lo, hi) + out)
        return out

    monkeypatch.setattr(spectra, "_line_residue_ranks", spy)
    return reads


@pytest.mark.parametrize("name,n", [(name, n) for name in ("sierpinski", "interval", "scaled")
                                    for n in range(1, 7)])
def test_line_nd_matches_dense(name, n, monkeypatch):
    # The line's N-D read, nd = mult_D less the rank of the trace's residue,
    # against dense nd_spectrum.  No structure of the random oracle keeps
    # the pencil plane, so nothing else holds this read to dense.  "scaled"
    # is the gasket cell with conductances times 1.7 and measure times 0.6.
    if name == "scaled":
        st = load_config("sierpinski").structure
        rho = ElectricalNetwork(3, {(0, 1): 1.7, (0, 2): 1.7, (1, 2): 1.7})
        b = np.full(3, 0.6)
    else:
        cfg = load_config(name)
        st, rho, b = cfg.structure, cfg.network, cfg.measure
    reads = line_nd_reads(monkeypatch)
    dense = dense_reports(st, rho, b, n)
    assert_same_spectrum(chain_spectrum(st, rho, b, n, "nd"), dense["nd"], neumann_width(dense))
    assert len(reads) == 1 and not reads[0][3].any()


@pytest.mark.parametrize("name,n", [("sierpinski", 7), ("interval", 10)])
def test_unsure_line_nd_falls_back_to_matrix_read(name, n, monkeypatch):
    # Every end point of the line's N-D read marked unsure: each group is
    # read from the last cell matrices of a matrix-chain pass, as off the
    # line, and the lists stay the same.
    cfg, *_ = line_of(name)
    args = (cfg.structure, cfg.network, cfg.measure, n)
    want = chain_spectrum(*args, "nd")
    width = float(np.ptp(chain_spectrum(*args).eigenvalues))
    ranks, chain = spectra._line_residue_ranks, spectra._chain
    sent = []

    def unsure(line, lo, hi, *pairs):
        return ranks(line, lo, hi, *pairs)[0], np.ones(lo.size, dtype=bool)

    def chain_spy(plan, q, b, n, xs, line=None, **kwargs):
        if line is None:
            sent.append(xs.size)
        return chain(plan, q, b, n, xs, line, **kwargs)

    monkeypatch.setattr(spectra, "_line_residue_ranks", unsure)
    monkeypatch.setattr(spectra, "_chain", chain_spy)
    assert_same_lists(chain_spectrum(*args, "nd"), want, width)
    assert len(sent) == 1 and sent[0] > 0


def test_chain_hands_on_the_line_pairs():
    # A count pass on the line hands on each point's unit pair for the N-D
    # read, nan where the line leaves the point unsure at any pivot (the
    # read then takes the matrix chain): on the candidates, which are the
    # eigenvalues themselves, most points are unsure.
    _, plan, q, b, line = line_of("sierpinski")
    n = 3
    y = spectra._line_candidates(line, n, True) * plan.gamma**n
    xs = np.concatenate([y, y + 1e-3])
    _, inner, last, pair = spectra._line_chain(plan, line, n, xs)
    got = spectra._chain(plan, q, b, n, xs, line=line)[2]
    unsure = inner | last
    assert unsure.any() and not unsure.all()
    assert np.array_equal(np.isnan(got).any(axis=1), unsure)
    assert np.array_equal(got[~unsure], pair.T[~unsure])


@pytest.mark.parametrize("name", ["sierpinski", "interval"])
def test_line_nd_takes_one_line_pass(name, monkeypatch):
    # The N-D read on the line ranks the pairs the count pass took at each
    # bracket's ends: a spectrum whose candidates certify it in one pass
    # runs _line_chain once.
    cfg, *_ = line_of(name)
    real, calls = spectra._line_chain, []

    def spy(*args):
        calls.append(args[-1].size)
        return real(*args)

    monkeypatch.setattr(spectra, "_line_chain", spy)
    for n in range(6, 13):
        calls.clear()
        chain_spectrum(cfg.structure, cfg.network, cfg.measure, n, "nd")
        assert len(calls) == 1, (n, calls)


def test_residue_pivot_near_the_cut_raises(monkeypatch, capsys):
    # At sierpinski L12 the largest vanishing residue pivot is 5.8e-8 of its
    # bracket's largest.  With the cut moved next to it, within
    # RESIDUE_MARGIN, the rank would follow rounding: the read raises
    # ResidueUnresolved, which the CLI reports as a numeric failure.
    cfg = load_config("sierpinski")
    monkeypatch.setattr(spectra, "RESIDUE_TOL", 1e-7)
    with pytest.raises(ResidueUnresolved, match="residue ranks unresolved"):
        level_spectrum(cfg.structure, cfg.network, cfg.measure, 12, "nd")
    assert cli.main(["spectrum", "--config", "sierpinski", "--level", "12", "--bc", "nd"]) == 3
    assert "numeric failure: ResidueUnresolved" in capsys.readouterr().err


def test_line_nd_tells_a_pole_from_a_zero(monkeypatch):
    # Sierpinski L2 has two Dirichlet eigenvalues, -3 and -2.5, each of
    # multiplicity 3.  Across both the line's pair turns to the opposite
    # direction.  At -2.5 the trace has a pole whose residue has rank 2,
    # which leaves nd 1.  At -3 (y = -3, the common zero of the step's A
    # and B) it passes through a zero, its lower pair negative definite:
    # no pole, rank 0, and all 3 are N-D.
    cfg, plan, q, b, line = line_of("sierpinski")
    reads = line_nd_reads(monkeypatch)
    rep = spectra._chain_spectrum(cfg.structure, plan, q, b, line, 2, "nd")
    assert [m for _, m in rep.clusters] == [3, 1]
    np.testing.assert_allclose([v for v, _ in rep.clusters], [-3.0, -2.5], atol=1e-10)
    ((lo, hi, rank, unsure),) = reads
    assert not unsure.any()
    for value, r, lower in ((-3.0, 0, -1), (-2.5, 2, 1)):
        i = np.argmin(np.abs(lo + hi - 2 * value))
        assert rank[i] == r
        alpha, beta = spectra._line_chain(plan, line, 2, np.array([lo[i], hi[i]]))[3]
        assert alpha[0] * alpha[1] + beta[0] * beta[1] < 0
        assert np.sign(np.max(alpha[0] * line.mu + beta[0])) == lower


def oracle_draw():
    """`draw` of scripts/chain_oracle.py, the random H structures."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "chain_oracle.py"
    spec = importlib.util.spec_from_file_location("chain_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.draw


@pytest.mark.parametrize("index", [0, 1, 2, 10, 22])
def test_random_structures_match_dense(index):
    # Structures of the oracle's set: the first three (one per gluing:
    # sierpinski, gamma_bar with its weak network, interval), and two
    # gamma_bar ones whose N-D lists differed between the paths at L4 (near
    # -864.70 and -251.21) while each ranked by a cut of its own.
    st, q, b = oracle_draw()(np.random.default_rng(7), 23)[index]
    for n in range(1, 5):
        dense = dense_reports(st, q, b, n)
        for cond in CONDITIONS:
            assert_same_spectrum(chain_spectrum(st, q, b, n, cond), dense[cond], neumann_width(dense))


# The level-3 Sierpinski gasket (SG3) and the Vicsek set, shipped as test
# data.  Both take the pencil line, where their steps have degree 3 and up.
DATA = Path(__file__).resolve().parent / "data"
R3 = np.sqrt(3.0)
EXAMPLES = {
    # cell corners, and the offsets of the copies x / 3 + offset
    "sg3": ([(0.0, 0.0), (1.0, 0.0), (0.5, R3 / 2)],
            [(a / 3 + b / 6, b * R3 / 6) for a, b in ((0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (0, 2))]),
    "vicsek": ([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)],
               [(0.0, 0.0), (2 / 3, 0.0), (2 / 3, 2 / 3), (0.0, 2 / 3), (1 / 3, 1 / 3)]),
}


def example_path(name):
    return str(DATA / f"{name}.json")


@pytest.mark.parametrize("name,level1", [("sg3", 10), ("vicsek", 16)])
def test_examples_glue_the_points_whose_images_coincide(name, level1):
    # Each glue class is a set of copy points with one image, and the
    # boundary takes the outer corners in cell order.
    corners, offsets = EXAMPLES[name]
    points = np.array([np.array(c) / 3 + o for o in offsets for c in corners])
    dist = np.linalg.norm(points[:, None] - points[None], axis=2)
    want = {frozenset(np.flatnonzero(row <= 1e-12).tolist()) for row in dist}
    cfg = load_config(example_path(name))
    st = cfg.structure
    assert {frozenset(c) for c in st.glue_classes} == want
    assert np.allclose(points[list(st.boundary_map)], corners, atol=1e-12)
    assert num_vertices(st, 1) == level1
    assert cfg.chart.ranks == (1, len(corners) - 1)


@pytest.mark.parametrize("name,n", [(name, n) for name in ("sg3", "vicsek") for n in (1, 2, 3)])
def test_examples_chain_matches_dense(name, n):
    cfg, *_, line = line_of(example_path(name))
    assert line is not None
    dense = dense_reports(cfg.structure, cfg.network, cfg.measure, n)
    for cond in CONDITIONS:
        got = chain_spectrum(cfg.structure, cfg.network, cfg.measure, n, cond)
        assert_same_spectrum(got, dense[cond], neumann_width(dense))


@pytest.mark.parametrize("seed", [0, 1])
def test_weighted_examples_on_the_line_match_dense(seed):
    # SG3 with copy weight a on its corner copies (1, 3 and 6, counted from
    # 1) and c on the others, and the Vicsek set with a on its four corners
    # and c on its centre: a, c and gamma from U(0.5, 3), the measure
    # weights w / gamma, and the config's form and measure each scaled by a
    # factor from U(0.5, 2).  Every draw keeps the pencil plane, so the line
    # engine runs on uneven copy weights, which no structure of the random
    # chain oracle (scripts/chain_oracle.py) reaches; the chain equals dense
    # at L1-3 under all three conditions.
    rng = np.random.default_rng([seed, 29])
    corners = {"sg3": (0, 2, 5), "vicsek": (0, 1, 2, 3)}
    for draw in range(8):
        name = ("sg3", "vicsek")[draw % 2]
        cfg = load_config(example_path(name))
        base = cfg.structure
        a, c, gamma = rng.uniform(0.5, 3.0, 3)
        w = [a if i in corners[name] else c for i in range(base.num_copies)]
        st = SelfSimilarStructure(base.cell_size, base.num_copies, base.glue_classes,
                                  base.boundary_map, weights_w=w, weights_b=[x / gamma for x in w])
        form, mass = rng.uniform(0.5, 2.0, 2)
        net = cfg.network
        rho = ElectricalNetwork(net.size, {e: form * v for e, v in net.conductances.items()},
                                tuple(form * v for v in net.dissipative))
        b = mass * np.asarray(cfg.measure, dtype=float)
        assert spectra._pencil_line(spectra._chain_plan(st), *spectra._cell_data(st, rho, b)) is not None
        for n in (1, 2, 3):
            dense = dense_reports(st, rho, b, n)
            for cond in CONDITIONS:
                got = chain_spectrum(st, rho, b, n, cond)
                assert_same_spectrum(got, dense[cond], neumann_width(dense))


def test_sg3_count_laws():
    # |V_n| - nd_n = (22 4^(n-1) + 5) / 3 at L1-6, and (14 4^(n-1) + 1) / 3
    # distinct Neumann values at L1-5; L6 merges Neumann clusters (ROADMAP
    # item 1).  The N-D read refuses from L7.
    cfg = load_config(example_path("sg3"))
    for n in range(1, 7):
        nd = chain_spectrum(cfg.structure, cfg.network, cfg.measure, n, "nd")
        assert num_vertices(cfg.structure, n) - int(np.sum(nd.mult)) == (22 * 4 ** (n - 1) + 5) // 3
        if n < 6:
            neumann = chain_spectrum(cfg.structure, cfg.network, cfg.measure, n, "neumann")
            assert len(neumann.values) == (14 * 4 ** (n - 1) + 1) // 3


def test_vicsek_count_laws():
    # |V_n| - nd_n = (13 3^(n-1) + 5) / 2, 3^n + 1 distinct Neumann values
    # and 4 3^(n-1) distinct Dirichlet values at L1-6; L7 merges clusters
    # (ROADMAP item 1).
    cfg = load_config(example_path("vicsek"))
    for n in range(1, 7):
        reps = {c: chain_spectrum(cfg.structure, cfg.network, cfg.measure, n, c) for c in CONDITIONS}
        assert num_vertices(cfg.structure, n) - int(np.sum(reps["nd"].mult)) == (13 * 3 ** (n - 1) + 5) // 2
        assert len(reps["neumann"].values) == 3 ** n + 1
        assert len(reps["dirichlet"].values) == 4 * 3 ** (n - 1)
