import numpy as np
import pytest

from fractal_spectra import spectra
from fractal_spectra.linalg import generalized_sym_eig, generalized_sym_eigvals
from fractal_spectra.network import q_matrix
from fractal_spectra.selfsim import assemble_measure, assemble_network, build_lattice
from fractal_spectra.spectra import (
    SpectrumReport,
    char_det,
    cluster_eigenvalues,
    dirichlet_spectrum,
    dos_histogram,
    green_proxy,
    level_spectrum,
    nd_kernel_dimension,
    nd_spectrum,
    neumann_spectrum,
)


def test_neumann_level0(triangle_q):
    rep = neumann_spectrum(triangle_q, np.ones(3))
    assert np.allclose(rep.eigenvalues, [-3.0, -3.0, 0.0], atol=1e-12)
    assert rep.clusters == [(pytest.approx(-3.0), 2), (pytest.approx(0.0, abs=1e-12), 1)]


def test_neumann_zero_matrix():
    rep = neumann_spectrum(np.zeros((4, 4)), np.ones(4))
    assert np.allclose(rep.eigenvalues, 0.0)


def test_neumann_level1_counts(gasket, triangle):
    q1 = assemble_network(gasket, triangle, 1).real
    flat = neumann_spectrum(q1, np.ones(6))
    weighted = neumann_spectrum(q1, assemble_measure(gasket, np.ones(3), 1))
    assert flat.count == weighted.count == 6


def test_dirichlet_cases(gasket, triangle):
    q0 = q_matrix(triangle)
    rep0 = dirichlet_spectrum(q0, np.ones(3), [0, 1, 2])
    assert rep0.count == 0
    rep1 = level_spectrum(gasket, triangle, np.ones(3), 1, "dirichlet")
    assert rep1.count == 3


def test_interlacing_cdf_gap(gasket, triangle):
    b = np.ones(3)
    for n in (1, 2, 3):
        neu = level_spectrum(gasket, triangle, b, n, "neumann")
        dir_ = level_spectrum(gasket, triangle, b, n, "dirichlet")
        xs = np.linspace(neu.eigenvalues[0] - 1, neu.eigenvalues[-1] + 1, 400)
        gap = np.max(np.abs(neu.cdf(xs) - dir_.cdf(xs)))
        assert gap <= 3


def test_nd_level0_empty(triangle_q):
    rep = nd_spectrum(triangle_q, np.ones(3), [0, 1, 2])
    assert rep.count == 0


def test_nd_level1_matches_stacked_kernel(gasket, gbar, triangle):
    b = np.ones(3)
    for st in (gasket, gbar):
        q1 = assemble_network(st, triangle, 1).real
        b1 = assemble_measure(st, b, 1)
        bnd = build_lattice(st, 1).boundary
        rep = nd_spectrum(q1, b1, bnd, 1)
        neu = neumann_spectrum(q1, b1)
        for value, _ in neu.clusters:
            assert rep.multiplicity_at(value) == nd_kernel_dimension(q1, b1, bnd, value)


def test_nd_without_boundary_is_neumann(gasket, triangle):
    # With no boundary every Neumann eigenfunction vanishes on it, as the
    # stacked-kernel oracle says; the level-2 gasket has degenerate clusters.
    q2 = assemble_network(gasket, triangle, 2).real
    b2 = assemble_measure(gasket, np.ones(3), 2)
    rep = nd_spectrum(q2, b2, [], 2)
    neu = neumann_spectrum(q2, b2, 2)
    assert [m for _, m in rep.clusters] == [m for _, m in neu.clusters]
    assert np.allclose([v for v, _ in rep.clusters], [v for v, _ in neu.clusters], atol=1e-12)
    for value, mult in neu.clusters:
        assert rep.multiplicity_at(value) == nd_kernel_dimension(q2, b2, [], value) == mult


def test_unknown_condition_raises_before_assembly(gasket, triangle, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("assembled level n for an unknown condition")

    monkeypatch.setattr(spectra, "assemble_q", refuse)
    for n in (2, 7):  # dense and chain levels
        with pytest.raises(ValueError, match="unknown condition"):
            level_spectrum(gasket, triangle, np.ones(3), n, "robin")


def test_nd_replication_inequality(gasket, triangle):
    b = np.ones(3)
    counts = [level_spectrum(gasket, triangle, b, n, "nd").count for n in range(1, 6)]
    for small, big in zip(counts, counts[1:]):
        assert big >= 3 * small
    # per-eigenvalue replication
    for n in (2, 3, 4):
        rep_n = level_spectrum(gasket, triangle, b, n, "nd")
        rep_n1 = level_spectrum(gasket, triangle, b, n + 1, "nd")
        for value, mult in rep_n.clusters:
            assert rep_n1.multiplicity_at(value) >= 3 * mult


def test_cluster_tolerance_soundness(gasket, triangle, monkeypatch):
    b = np.ones(3)
    q2 = assemble_network(gasket, triangle, 2).real
    b2 = assemble_measure(gasket, b, 2)
    bnd = build_lattice(gasket, 2).boundary
    monkeypatch.setattr(spectra, "CLUSTER_TOL", 1e-7)
    base = nd_spectrum(q2, b2, bnd, 2)
    for tol in (1e-8, 1e-6):
        monkeypatch.setattr(spectra, "CLUSTER_TOL", tol)
        other = nd_spectrum(q2, b2, bnd, 2)
        assert [(round(v, 6), m) for v, m in other.clusters] == [
            (round(v, 6), m) for v, m in base.clusters
        ]


def test_char_det_cases(rng):
    assert char_det(np.array([[2.0]]), np.array([1.0]), 0.5) == pytest.approx(2.5)
    q = np.diag([1.0, 4.0])
    b = np.array([1.0, 2.0])
    rep = neumann_spectrum(q, b)
    for lam in rep.eigenvalues:
        assert abs(char_det(q, b, lam)) <= 1e-7
    assert char_det(q, b, 0.0, "dirichlet", [0, 1]) == 1.0


def test_char_det_zeros_are_neumann_eigenvalues(gasket, triangle):
    q1 = assemble_network(gasket, triangle, 1).real
    b1 = assemble_measure(gasket, np.ones(3), 1)
    rep = neumann_spectrum(q1, b1)
    for lam in rep.eigenvalues:
        # normalized characteristic polynomial vanishes at the spectrum
        vals = [abs(char_det(q1, b1, lam + d)) for d in (0.0, 0.3)]
        assert vals[0] <= 1e-7 * max(vals[1], 1e-12)


def test_dos_single_eigenvalue():
    rep = neumann_spectrum(np.zeros((1, 1)), np.ones(1))
    rep.level = 2
    edges, masses = dos_histogram([rep], 3, 1, lo=-0.5, hi=0.5)
    assert masses[0][0] == pytest.approx(1.0 / 9.0)


def test_dos_of_empty_reports():
    # The level-0 Dirichlet report has no eigenvalue: zero masses on [0, 1].
    for reports in ([SpectrumReport(0, "dirichlet", np.zeros(0), np.zeros(0))], []):
        edges, masses = dos_histogram(reports, 3, 4)
        assert edges.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert masses.shape == (len(reports), 4) and not masses.any()


def test_dos_total_mass(gasket, triangle):
    rep = level_spectrum(gasket, triangle, np.ones(3), 3, "neumann")
    edges, masses = dos_histogram([rep], 3, 16)
    assert masses[0].sum() == pytest.approx(rep.count / 27.0)


def test_dos_level_convergence(gasket, triangle):
    b = np.ones(3)
    r4 = level_spectrum(gasket, triangle, b, 4, "neumann")
    r5 = level_spectrum(gasket, triangle, b, 5, "neumann")
    xs = np.linspace(-3.2, 0.2, 800)
    c4 = r4.cdf(xs) / 3.0**4
    c5 = r5.cdf(xs) / 3.0**5
    assert np.max(np.abs(c4 - c5)) <= 0.05
    _, masses = dos_histogram([r4, r5], 3, 64)
    assert np.max(np.abs(masses[0] - masses[1])) <= 0.05


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_dos_cluster_on_an_edge_keeps_one_bin(gasket, triangle, n):
    # 64 bins over the spectrum [-3, 0]: the edge between bins 31 and 32 is
    # -1.5, a degenerate eigenvalue (42-fold at level 5, 1095-fold at level
    # 8) whose copies round to within 5e-15 either side of it.
    rep = level_spectrum(gasket, triangle, np.ones(3), n, "neumann")
    edges, masses = dos_histogram([rep], 3, 64)
    assert abs(masses.sum() - rep.count / 3.0**n) <= 1e-12
    on_edge = np.abs(rep.eigenvalues + 1.5) <= 1e-9
    rest = SpectrumReport(n, "neumann", *cluster_eigenvalues(rep.eigenvalues[~on_edge]))
    _, others = dos_histogram([rest], 3, 64, lo=edges[0], hi=edges[-1])
    cluster = np.round((masses[0] - others[0]) * 3.0**n)
    assert cluster.tolist() == [0.0] * 32 + [rep.multiplicity_at(-1.5)] + [0.0] * 31
    width = rep.eigenvalues[-1] - rep.eigenvalues[0]
    for shift in (-1e-13, 1e-13):
        moved = SpectrumReport(n, "neumann", rep.values + shift * width, rep.mult)
        assert np.array_equal(dos_histogram([moved], 3, 64, lo=edges[0], hi=edges[-1])[1], masses)


def test_complex_q_raises_at_every_pencil_entry_point(gasket, triangle):
    q = assemble_network(gasket, triangle, 2).real
    b = assemble_measure(gasket, np.ones(3), 2)
    boundary = build_lattice(gasket, 2).boundary
    calls = (
        lambda m: neumann_spectrum(m, b),
        lambda m: dirichlet_spectrum(m, b, boundary),
        lambda m: nd_spectrum(m, b, boundary),
        lambda m: green_proxy(m, b, [-1.0], 3, 2),
        lambda m: generalized_sym_eig(m, b),
        lambda m: generalized_sym_eigvals(m, b),
    )
    for call in calls:
        with pytest.raises(ValueError, match="imaginary"):
            call(q + 1j * np.eye(q.shape[0]))
    for call in calls[:3]:
        assert call(q.astype(complex)).clusters == call(q).clusters


def test_complex_weights_raise_at_every_pencil_entry_point(gasket, triangle):
    q = assemble_network(gasket, triangle, 2).real
    b = assemble_measure(gasket, np.ones(3), 2)
    boundary = build_lattice(gasket, 2).boundary
    calls = (
        lambda w: neumann_spectrum(q, w),
        lambda w: dirichlet_spectrum(q, w, boundary),
        lambda w: nd_spectrum(q, w, boundary),
        lambda w: green_proxy(q, w, [-1.0], 3, 2),
        lambda w: generalized_sym_eig(q, w),
        lambda w: generalized_sym_eigvals(q, w),
    )
    for call in calls:
        with pytest.raises(ValueError, match="imaginary"):
            call(b + 1j)
    for call in calls[:3]:
        assert call(b.astype(complex)).clusters == call(b).clusters


def test_green_proxy_finite_and_divergent(gasket, triangle):
    q1 = assemble_network(gasket, triangle, 1).real
    b1 = assemble_measure(gasket, np.ones(3), 1)
    rep = neumann_spectrum(q1, b1)
    off = rep.eigenvalues[:2].mean()  # between eigenvalues
    vals = green_proxy(q1, b1, [off], 3, 1)
    assert np.isfinite(vals).all()
    near = green_proxy(q1, b1, [rep.eigenvalues[0]], 3, 1, eps=1e-6)
    far = green_proxy(q1, b1, [rep.eigenvalues[0] + 1.0], 3, 1, eps=1e-6)
    assert near[0] < far[0]  # logarithmic dip at the eigenvalue


def test_green_proxy_needs_positive_eps(triangle_q):
    for eps in (0.0, -1e-6, np.inf, np.nan):
        with pytest.raises(ValueError, match="eps"):
            green_proxy(triangle_q.real, np.ones(3), [-3.0, 0.0], 3, 0, eps=eps)


def test_green_proxy_needs_finite_grid(triangle_q):
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            green_proxy(triangle_q.real, np.ones(3), [-3.0, bad], 3, 0)


def test_green_proxy_finite_past_det_overflow(gasket, triangle):
    # Below about -5.6 the level-5 determinant overflows a float; the grid
    # has three points there.
    q5 = assemble_network(gasket, triangle, 5).real
    b5 = assemble_measure(gasket, np.ones(3), 5)
    grid = np.linspace(-6.5, 0.5, 25)
    vals = green_proxy(q5, b5, grid, 3, 5)
    assert np.isfinite(vals).all()
    for lam, val in zip(grid, vals):
        oracle = np.linalg.slogdet(q5 + (lam + 1e-6j) * np.diag(b5))[1] / 3**5
        assert abs(val - oracle) <= 1e-10


def test_cluster_eigenvalues_grouping():
    vals = np.array([0.0, 1e-12, 1.0, 1.0 + 1e-12, 2.0])
    clusters = list(zip(*cluster_eigenvalues(vals)))
    assert [m for _, m in clusters] == [2, 2, 1]
