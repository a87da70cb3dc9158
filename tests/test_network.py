import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractal_spectra.errors import NotADirichletForm, SingularInterior
from fractal_spectra.network import (
    ElectricalNetwork,
    VertexPartition,
    current,
    energy,
    glue,
    glue_network,
    harmonic_extension,
    is_dirichlet_form,
    network_from_q,
    q_matrix,
    trace_map,
)
from fractal_spectra.renorm import symmetric_chart
from fractal_spectra.selfsim import assemble_q, build_lattice, gamma_bar_semi
from fractal_spectra.verify import (
    brute_force_trace_energy,
    random_conservative_network,
    random_sym,
)

PATH_Q = np.array([[1.0, 0.0, -1.0], [0.0, 1.0, -1.0], [-1.0, -1.0, 2.0]])


def test_q_matrix_triangle(triangle):
    q = q_matrix(triangle)
    assert np.allclose(np.diag(q), 2.0)
    assert np.allclose(q - np.diag(np.diag(q)), -1 + np.eye(3))


def test_q_matrix_degenerate_cases():
    assert np.allclose(q_matrix(ElectricalNetwork(1, {}, (5.0,))), [[5.0]])
    assert np.allclose(q_matrix(ElectricalNetwork(2, {})), np.zeros((2, 2)))


def test_energy_polarization(rng, triangle):
    q = q_matrix(triangle)
    for _ in range(5):
        f = rng.standard_normal(3)
        direct = sum(
            rho * (f[i] - f[j]) ** 2 for (i, j), rho in triangle.conductances.items()
        )
        assert abs(energy(q, f) - direct) <= 1e-12


def test_network_from_q_roundtrip(triangle):
    q = q_matrix(triangle)
    net = network_from_q(q)
    assert np.allclose(q_matrix(net), q)
    assert net.is_conservative()
    assert np.allclose(q_matrix(network_from_q(np.array([[1.0]]))), [[1.0]])


def test_network_from_q_rejects_positive_offdiag():
    with pytest.raises(NotADirichletForm):
        network_from_q(np.array([[1.0, 0.5], [0.5, 1.0]]))


def test_trace_map_series_law():
    out = trace_map(PATH_Q, [0, 1])
    assert np.allclose(out, [[0.5, -0.5], [-0.5, 0.5]])


def test_trace_map_full_boundary_is_identity():
    assert np.allclose(trace_map(PATH_Q, [0, 1, 2]), PATH_Q)


def test_trace_map_diagonal():
    assert np.allclose(trace_map(np.diag([3.0, 7.0]), [0]), [[3.0]])


def test_trace_map_singular_interior():
    q = np.array([[1.0, 1.0], [1.0, 0.0]])
    with pytest.raises(SingularInterior):
        trace_map(q, [0])


def test_harmonic_extension_path():
    h = harmonic_extension(PATH_Q, [0, 1], np.array([1.0, 0.0]))
    assert np.allclose(h, [1.0, 0.0, 0.5])
    assert abs(energy(PATH_Q, h) - energy(trace_map(PATH_Q, [0, 1]), h[:2])) <= 1e-12


def test_harmonic_extension_constants(rng):
    net = random_conservative_network(rng, 5)
    q = q_matrix(net)
    h = harmonic_extension(q, [0, 3], np.array([1.0, 1.0]))
    assert np.allclose(h, 1.0)


def test_harmonic_extension_semi_symmetric_cell():
    # constant boundary data on the semi-symmetric triangle-group cell:
    # the two connection orbits carry a = b(u1 + z0')/..., b = ...(u1 + z0)
    r, rp, v, vp = 2.0, 4.0, 1.0, 2.0
    st = gamma_bar_semi(r, rp, v, vp)
    chart = symmetric_chart(3)
    u0, u1 = 0.7 + 0.3j, -1.2 + 0.8j
    q1 = assemble_q(st, chart.matrix([u0, u1]), 1)
    lat = build_lattice(st, 1)
    h = harmonic_extension(q1, lat.boundary, np.ones(3, dtype=complex))
    z0, z0p = v, vp
    s0, p0 = z0 + z0p, z0 * z0p
    d = 2 * u0 * u1 + u1**2 + s0 * (u0 + 2 * u1) + 3 * p0
    a = (u1 - u0) * (u1 + z0p) / d
    b = (u1 - u0) * (u1 + z0) / d
    # vertex (copy i, i+1) carries a; (copy i, i-1) carries b
    cm = [lat.copy_maps[i] for i in range(3)]
    for i in range(3):
        assert abs(h[cm[i][(i + 1) % 3]] - a) <= 1e-12 * max(1, abs(a))
        assert abs(h[cm[i][(i + 2) % 3]] - b) <= 1e-12 * max(1, abs(b))


def test_glue_small_cases():
    q = np.array([[1.0, 2.0], [2.0, 5.0]])
    part = VertexPartition.from_classes(2, [[0, 1]])
    assert np.allclose(glue(q, part), [[1 + 4 + 5]])
    ident = VertexPartition.identity(2)
    assert np.allclose(glue(q, ident), q)


def test_glue_triangle_parallel_edges(triangle):
    q = q_matrix(triangle)
    part = VertexPartition.from_classes(3, [[1, 2]])
    glued = glue(q, part)
    # two unit conductances in parallel between the fused vertex and vertex 0
    assert np.allclose(glued, [[2.0, -2.0], [-2.0, 2.0]])
    net2 = glue_network(triangle, part)
    assert np.allclose(q_matrix(net2), glued)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(3, 6))
def test_glue_matches_network_sum_rule(seed, k):
    rng = np.random.default_rng(seed)
    net = random_conservative_network(rng, k)
    labels = rng.integers(0, 2, size=k)
    if len(set(labels.tolist())) == 1:
        labels[0] = 1 - labels[0]
    part = VertexPartition(k, tuple(int(v) for v in (labels == labels.min()).astype(int)))
    assert np.allclose(q_matrix(glue_network(net, part)), glue(q_matrix(net), part))


def test_current_of_harmonic_extension_supported_on_boundary(rng):
    net = random_conservative_network(rng, 6)
    q = q_matrix(net)
    bnd = [0, 2, 5]
    h = harmonic_extension(q, bnd, rng.standard_normal(3))
    i_h = current(q, h)
    interior = [i for i in range(6) if i not in bnd]
    assert np.max(np.abs(i_h[interior])) <= 1e-10
    assert abs(energy(q, h)) >= 0  # bilinear form evaluates


def test_energy_examples(triangle):
    q = q_matrix(triangle)
    assert abs(energy(q, np.array([1.0, 0.0, 0.0])) - 2.0) <= 1e-12
    assert energy(q, np.zeros(3)) == 0
    assert abs(energy(q, np.ones(3))) <= 1e-12


def test_variational_identity(rng):
    for _ in range(50):
        k = int(rng.integers(3, 7))
        net = random_conservative_network(rng, k)
        assert net.is_irreducible()
        q = q_matrix(net)
        p = int(rng.integers(1, k))
        bnd = sorted(rng.permutation(k)[:p].tolist())
        f = rng.standard_normal(p)
        traced = float(np.real(f @ trace_map(q, bnd) @ f))
        h = harmonic_extension(q, bnd, f)
        assert abs(float(np.real(energy(q, h))) - traced) <= 1e-9 * max(1, abs(traced))
        for _ in range(100):
            g = h.real.copy()
            interior = [i for i in range(k) if i not in set(bnd)]
            g[interior] += rng.standard_normal(len(interior))
            assert float(np.real(energy(q, g))) >= traced - 1e-9
        assert abs(traced - brute_force_trace_energy(q, bnd, f)) <= 1e-9


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_cone_preservation_and_conservativity(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(3, 7))
    net = random_conservative_network(rng, k)
    q = q_matrix(net)
    bnd = sorted(rng.permutation(k)[: int(rng.integers(1, k))].tolist())
    traced = trace_map(q, bnd).real
    assert is_dirichlet_form(traced)
    assert np.max(np.abs(traced.sum(axis=1))) <= 1e-9  # conservative stays conservative
    a, b = rng.permutation(k)[:2]
    part = VertexPartition.from_classes(k, [[int(a), int(b)]])
    glued = glue(q, part).real
    assert is_dirichlet_form(glued)
    assert np.max(np.abs(glued.sum(axis=1))) <= 1e-9


def test_tower_property(rng):
    for _ in range(10):
        q = random_sym(rng, 6)
        try:
            once = trace_map(q, [0, 1, 2, 3])
            direct = trace_map(q, [0, 2])
            twice = trace_map(once, [0, 2])
        except SingularInterior:
            continue
        assert np.max(np.abs(twice - direct)) <= 1e-9 * max(1, np.max(np.abs(direct)))


def test_irreducibility_query():
    net = ElectricalNetwork(4, {(0, 1): 1.0, (2, 3): 1.0})
    assert not net.is_irreducible()
    net2 = ElectricalNetwork(4, {(0, 1): 1.0, (1, 2): 1.0, (2, 3): 1.0})
    assert net2.is_irreducible()
