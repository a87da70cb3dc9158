"""Spectra by slicing along the Schur chain, held to the dense path."""

import numpy as np
import pytest

from fractal_spectra import spectra
from fractal_spectra.config import load_config
from fractal_spectra.errors import InvalidStructure
from fractal_spectra.linalg import generalized_sym_eig, generalized_sym_eigvals
from fractal_spectra.network import ElectricalNetwork, q_matrix
from fractal_spectra.selfsim import (
    SelfSimilarStructure,
    assemble_measure,
    assemble_network,
    build_lattice,
    num_vertices,
    sierpinski,
)
from fractal_spectra.spectra import (
    CHAIN_MIN_VERTICES,
    SpectrumReport,
    chain_spectrum,
    cluster_eigenvalues,
    dirichlet_spectrum,
    level_spectrum,
    nd_kernel_dimension,
    nd_spectrum,
    neumann_spectrum,
)

CONDITIONS = ("neumann", "dirichlet", "nd")
BUILTIN_LEVELS = [
    (name, n)
    for name, top in (("sierpinski", 6), ("gamma_bar", 6), ("gamma_bar_semi", 6), ("interval", 8))
    for n in range(1, top + 1)
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


def assert_same_spectrum(chain, dense, width, rtol=1e-10):
    """Same multiplicity lists, values within rtol of the spectral width
    (that of the Neumann spectrum, which holds the other two)."""
    assert [m for _, m in chain.clusters] == [m for _, m in dense.clusters]
    if dense.count:
        got = np.array([v for v, _ in chain.clusters])
        want = np.array([v for v, _ in dense.clusters])
        assert np.max(np.abs(got - want)) <= rtol * width


@pytest.mark.parametrize("name,n", BUILTIN_LEVELS)
def test_chain_matches_dense(name, n):
    cfg = load_config(name)
    dense = dense_reports(cfg.structure, cfg.network, cfg.measure, n)
    for cond in CONDITIONS:
        chain = chain_spectrum(cfg.structure, cfg.network, cfg.measure, n, cond)
        assert_same_spectrum(chain, dense[cond], neumann_width(dense))


@pytest.mark.parametrize("name", ["sierpinski", "gamma_bar", "gamma_bar_semi", "interval"])
def test_chain_nd_matches_stacked_kernel(name):
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
    base = sierpinski()
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
    base = sierpinski()
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
    base = sierpinski()
    st = SelfSimilarStructure(
        3, 3, base.glue_classes, base.boundary_map, weights_w=(1.0, 2.0, 3.0),
    )
    assert not st.hypothesis_h()[0]
    with pytest.raises(InvalidStructure):
        chain_spectrum(st, triangle, np.ones(3), 2)

    def refuse(*args, **kwargs):
        raise AssertionError("the chain needs hypothesis H")

    monkeypatch.setattr(spectra, "chain_spectrum", refuse)
    assert num_vertices(st, 6) >= CHAIN_MIN_VERTICES
    rep = level_spectrum(st, triangle, np.ones(3), 6)
    assert rep.count == build_lattice(st, 6).num_vertices


def test_level_spectrum_routes_by_size(gasket, triangle, monkeypatch):
    calls = []
    real = spectra.chain_spectrum

    def spy(*args, **kwargs):
        calls.append(args[3])
        return real(*args, **kwargs)

    monkeypatch.setattr(spectra, "chain_spectrum", spy)
    assert num_vertices(gasket, 5) < CHAIN_MIN_VERTICES <= num_vertices(gasket, 6)
    level_spectrum(gasket, triangle, np.ones(3), 5)
    level_spectrum(gasket, triangle, np.ones(3), 6)
    assert calls == [6]


def test_counts_on_interior_pole(gasket, triangle):
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
    room = np.full(2, 1e-12)
    counts = spectra._chain_counts_at(plan, q_matrix(triangle).real, np.ones(3), n, poles, room)[1]
    assert counts.dtype.kind == "i"
    for x, (n_dir, n_neu, _) in zip(poles, counts):
        assert n_dir == np.count_nonzero(dirichlet > x + 1e-9)
        assert n_neu == np.count_nonzero(neumann > x + 1e-9)


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
    rep = SpectrumReport(4, "neumann", lam, cluster_eigenvalues(lam))
    assert rep.multiplicity_at(-3.0) == 42
    below = np.count_nonzero(lam < -3.0 - 1e-9)
    assert rep.cdf([-3.0])[0] == below + 42
