from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest

from fractal_spectra.errors import InvalidStructure, NonPositiveWeight
from fractal_spectra.network import q_matrix
from fractal_spectra.renorm import t_map
from fractal_spectra.selfsim import (
    SelfSimilarStructure,
    assemble_measure,
    assemble_network,
    assemble_q,
    build_lattice,
    builtin_structures,
    gamma_bar,
    point_index,
    sierpinski,
    validate,
)
from fractal_spectra.network import trace_map
from fractal_spectra.verify import random_sym


def test_validate_good_structure(gasket):
    assert validate(gasket) == []


def test_validate_reports_noninjective_boundary(gasket):
    bad = SimpleNamespace(
        cell_size=3,
        num_copies=3,
        glue_classes=gasket.glue_classes,
        boundary_map=(0, 0, 8),
        weights_w=None,
        weights_b=None,
        weak=None,
    )
    problems = validate(bad)
    assert any("injective" in p for p in problems)


def test_validate_reports_empty_class(gasket):
    bad = SimpleNamespace(
        cell_size=3,
        num_copies=3,
        glue_classes=gasket.glue_classes + ((),),
        boundary_map=gasket.boundary_map,
        weights_w=None,
        weights_b=None,
        weak=None,
    )
    problems = validate(bad)
    assert any("empty" in p for p in problems)


def test_constructor_rejects_invalid():
    with pytest.raises(InvalidStructure):
        SelfSimilarStructure(3, 3, tuple((p,) for p in range(9)), (0, 0, 8))


def test_gasket_lattice_tower(gasket):
    for n in range(7):
        lat = build_lattice(gasket, n)
        assert lat.num_vertices == (3 ** (n + 1) + 3) // 2
        assert len(lat.boundary) == 3
    assert build_lattice(gasket, 0).boundary == (0, 1, 2)


def test_level_zero_is_cell(gbar):
    lat = build_lattice(gbar, 0)
    assert lat.num_vertices == 3
    assert lat.boundary == (0, 1, 2)


def test_level1_gasket_assembly(gasket, triangle):
    q1 = assemble_network(gasket, triangle, 1).real
    assert q1.shape == (6, 6)
    assert np.allclose(sorted(np.diag(q1)), [2, 2, 2, 4, 4, 4])
    # the level-1 gasket graph Laplacian: boundary-first indexing puts the
    # corners (degree 2) before the midpoints (degree 4)
    assert np.allclose(np.diag(q1), [2, 2, 2, 4, 4, 4])
    assert np.allclose(q1.sum(axis=1), 0.0)


def test_assemble_measure_cases(gasket):
    b1 = assemble_measure(gasket, np.ones(3), 1)
    assert np.allclose(sorted(b1), [1, 1, 1, 2, 2, 2])
    assert np.allclose(assemble_measure(gasket, np.array([2.0, 3.0, 4.0]), 0), [2, 3, 4])
    with pytest.raises(NonPositiveWeight):
        assemble_measure(gasket, np.array([1.0, 0.0, 1.0]), 1)


def test_assemble_measure_with_copy_weights(triangle):
    base = sierpinski()
    st = SelfSimilarStructure(
        3, 3, base.glue_classes, base.boundary_map,
        weights_w=(0.5, 0.25, 0.25), weights_b=(0.5, 0.25, 0.25),
    )
    b1 = assemble_measure(st, np.ones(3), 1)
    corner_of_copy_1 = build_lattice(st, 1).copy_maps[0][0]
    assert b1[corner_of_copy_1] == pytest.approx(0.5)
    ok, gamma = st.hypothesis_h()
    assert ok and gamma == pytest.approx(1.0)


def test_hypothesis_h_fails_when_unbalanced():
    base = sierpinski()
    st = SelfSimilarStructure(
        3, 3, base.glue_classes, base.boundary_map,
        weights_w=(0.5, 0.25, 0.25), weights_b=(1.0, 1.0, 1.0),
    )
    ok, gamma = st.hypothesis_h()
    assert not ok and gamma is None


def _flat_rep(structure, k, x):
    """One flat representative (address, vertex) of boundary vertex x of
    the level-k lattice, straight from the recursive definition."""
    if k == 0:
        return ((), x)
    cls = structure.glue_classes[structure.class_of_point()[structure.boundary_map[x]]]
    i, z = divmod(cls[0], structure.cell_size)
    addr, y = _flat_rep(structure, k - 1, z)
    return ((i,) + addr, y)


def _flat_partition(structure, n):
    """Independent union-find over {1..N}^n x F implementing the paper's
    recursion directly; returns a dict point -> root."""
    k = structure.cell_size
    points = [(addr, x) for addr in product(range(structure.num_copies), repeat=n)
              for x in range(k)]
    parent = {p: p for p in points}

    def find(p):
        while parent[p] != p:
            parent[p] = parent[parent[p]]
            p = parent[p]
        return p

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for level in range(1, n + 1):
        for prefix in product(range(structure.num_copies), repeat=n - level):
            for cls in structure.glue_classes:
                i0, x0 = divmod(cls[0], k)
                a0, y0 = _flat_rep(structure, level - 1, x0)
                anchor = (prefix + (i0,) + a0, y0)
                for p in cls[1:]:
                    i, x = divmod(p, k)
                    a1, y1 = _flat_rep(structure, level - 1, x)
                    union(anchor, (prefix + (i,) + a1, y1))
    return points, find


# a three-point glue class, a pair, and a boundary map that is neither the
# identity nor in copy order
THREE_POINT_CLASS = SelfSimilarStructure(
    3, 3, ((1, 3, 7), (2, 6), (0,), (4,), (5,), (8,)), (4, 0, 8))


@pytest.mark.parametrize("weights", [None, (0.5, 1.5, 2.0)])
def test_two_stage_equality_against_flat_construction(gasket, gbar, segment, self_glued, weights,
                                                     rng):
    for base in (gasket, gbar, segment, THREE_POINT_CLASS, self_glued):
        structure = base
        k, ncopies = base.cell_size, base.num_copies
        if weights is not None:
            structure = SelfSimilarStructure(
                k, ncopies, base.glue_classes,
                base.boundary_map, weights_w=weights[:ncopies], weights_b=None,
                weak=base.weak,
            )
        q = random_sym(rng, k)
        for n in (1, 2, 3):
            points, find = _flat_partition(structure, n)
            lat = build_lattice(structure, n)
            label = {}
            for addr, x in points:
                v = int(lat.cell_map(addr)[x])
                root = find((addr, x))
                assert label.setdefault(root, v) == v
            assert len(set(label.values())) == lat.num_vertices

            # flat big block matrix, glued by the independent partition
            index = {p: i for i, p in enumerate(points)}
            m = len(points)
            big = np.zeros((m, m), dtype=complex)
            w = structure.copy_weights()
            for addr in product(range(ncopies), repeat=n):
                scale = np.prod([w[i] for i in addr]) if weights else 1.0
                ix = [index[(addr, x)] for x in range(k)]
                big[np.ix_(ix, ix)] += scale * q
            if structure.weak is not None:
                qw = q_matrix(structure.weak)
                for level in range(1, n + 1):
                    for prefix in product(range(ncopies), repeat=n - level):
                        scale = np.prod([w[i] for i in prefix]) if weights else 1.0
                        ix = []
                        for p in range(structure.num_points):
                            i, x = divmod(p, k)
                            addr, y = _flat_rep(structure, level - 1, x)
                            ix.append(index[(prefix + (i,) + addr, y)])
                        ix = np.array(ix)
                        big[ix[:, None], ix[None, :]] += scale * qw
            s = np.zeros((m, lat.num_vertices))
            for addr, x in points:
                s[index[(addr, x)], lat.cell_map(addr)[x]] = 1.0
            flat_q = s.T @ big @ s
            lib_q = assemble_q(structure, q, n)
            assert np.max(np.abs(flat_q - lib_q)) <= 1e-10 * max(1, np.max(np.abs(lib_q)))


def test_assembly_is_psd_for_dirichlet_input(gasket, gbar, triangle):
    for st in (gasket, gbar):
        q3 = assemble_network(st, triangle, 3).real
        assert np.linalg.eigvalsh(q3).min() >= -1e-10


def test_assembly_keeps_real_forms_real(gasket, gbar, triangle):
    # A real Q assembles in real arithmetic, at half the memory of complex,
    # with the real part of the complex assembly; complex input stays complex.
    q = q_matrix(triangle)
    for st in (gasket, gbar):
        real, cplx = assemble_q(st, q, 3), assemble_q(st, q.astype(complex), 3)
        assert real.dtype == np.float64 and cplx.dtype == np.complex128
        np.testing.assert_array_equal(real, cplx.real)


def test_boundary_consistency_with_renorm(gasket, gbar, gsemi, rng):
    for st in (gasket, gbar, gsemi):
        q = random_sym(rng, 3)
        q1 = assemble_q(st, q, 1)
        traced = trace_map(q1, build_lattice(st, 1).boundary)
        assert np.max(np.abs(traced - t_map(q, st))) <= 1e-12


def test_builtin_structures_shapes():
    b = builtin_structures()
    assert set(b) == {"sierpinski", "gamma_bar", "gamma_bar_semi", "interval"}
    gk = b["sierpinski"]
    assert gk.cell_size == 3 and gk.num_copies == 3
    assert sum(1 for c in gk.glue_classes if len(c) == 2) == 3
    assert gk.weak is None
    gb = b["gamma_bar"]
    assert len(gb.weak.conductances) == 6
    assert sum(1 for v in gb.weak.dissipative if v != 0) == 6
    assert all(len(c) == 1 for c in gb.glue_classes)


def test_gamma_bar_group_case_specialization(rng):
    # conductance -t with dissipative 2t: z0 = 2t, z1 = -t
    from fractal_spectra.renorm import coords_eval, symmetric_chart

    t = 0.8
    st = gamma_bar(-t, 2 * t)
    chart = symmetric_chart(3)
    u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    z0, z1 = 2 * t, -t
    want0 = (3 * u[0] * u[1] + z0 * u[0] + 2 * z0 * u[1]) / (2 * u[0] + u[1] + 3 * z0)
    want1 = (3 * u[0] * u[1] + z1 * u[0] + 2 * z1 * u[1]) / (2 * u[0] + u[1] + 3 * z1)
    got = coords_eval(u, chart, st)
    assert np.allclose(got, [want0, want1], rtol=1e-10)


def test_cell_map_addresses(gasket):
    lat2 = build_lattice(gasket, 2)
    seen = set()
    for addr in product(range(3), repeat=2):
        seen.update(int(v) for v in lat2.cell_map(addr))
    assert seen == set(range(lat2.num_vertices))
    copies = lat2.parent_copy_map()
    assert all(len(c) >= 1 for c in copies)


def test_point_index_layout():
    assert point_index(2, 1, 3) == 7
