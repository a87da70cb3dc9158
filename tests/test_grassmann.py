from itertools import combinations
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractal_spectra import grassmann, verify
from fractal_spectra.config import load_config
from fractal_spectra.errors import OrderUnstable, ZeroScale
from fractal_spectra.grassmann import (
    GrassmannElement,
    _balanced_keys,
    _LiftPlan,
    _mask,
    _merge_signs,
    _pairs,
    _reindex_key,
    exp_eta,
    glue_morphism,
    interior_reduce,
    mul,
    pair,
    phi_curve,
    reduced_product,
    reindex,
    renorm_lift,
    tau_scale,
    tau_translate,
    vanishing_order,
)
from fractal_spectra.network import VertexPartition, glue, q_matrix
from fractal_spectra.renorm import HomogeneousPoint, s_hat, symmetric_chart, t_map
from fractal_spectra.selfsim import (
    SelfSimilarStructure,
    assemble_measure,
    assemble_q,
    build_lattice,
    builtin_structures,
    level_step,
)
from fractal_spectra.spectra import char_det, level_spectrum
from fractal_spectra.verify import random_sym


def test_exp_eta_small():
    x = exp_eta(np.array([[2.0 + 1.0j]]))
    assert x.get(0, 0) == 1.0
    assert x.get(1, 1) == 2.0 + 1.0j
    q = np.array([[1.0, 2.0], [2.0, -1.0]])
    x = exp_eta(q)
    assert x.get(0b11, 0b11) == pytest.approx(np.linalg.det(q))
    unit = exp_eta(np.zeros((3, 3)))
    assert unit.coeffs == {(0, 0): 1.0}


def _exp_eta_per_size(q):
    """exp_eta with its index tables built afresh on every call: the
    reference for the cached tables."""
    q = np.asarray(q, dtype=complex)
    k = q.shape[0]
    support = [i for i in range(k) if np.any(q[i, :] != 0) or np.any(q[:, i] != 0)]
    coeffs = {(0, 0): 1.0 + 0j}
    for size in range(1, len(support) + 1):
        subsets = np.array(list(combinations(support, size)))
        masks = [grassmann._mask(c) for c in subsets]
        dets = np.linalg.det(q[subsets[:, None, :, None], subsets[None, :, None, :]])
        for i_mask, row in zip(masks, dets):
            for j_mask, d in zip(masks, row):
                if d != 0:
                    coeffs[(i_mask, j_mask)] = complex(d)
    return coeffs


@pytest.mark.parametrize("k", range(1, 7))
def test_exp_eta_matches_per_size_reference(k, rng):
    # Bitwise, key order included, with and without zero rows (a zero row
    # and column leave the support, and the tables are kept per support).
    for zero_rows in ((), (0,), (k - 1,), tuple(range(0, k, 2))):
        for _ in range(3):
            q = random_sym(rng, k)
            q[list(zero_rows), :] = 0
            q[:, list(zero_rows)] = 0
            got = exp_eta(q).coeffs
            want = _exp_eta_per_size(q)
            assert list(got) == list(want)
            assert all(got[key] == want[key] for key in want)


def test_key_count_bookkeeping(rng):
    q = random_sym(rng, 3)
    x = exp_eta(q)
    assert len(x.coeffs) == comb(6, 3)  # 20 keys for K = 3
    assert sum(comb(3, k) ** 2 for k in range(4)) == comb(6, 3)


def test_mul_unit_and_nilpotence(rng):
    x = exp_eta(random_sym(rng, 3))
    unit = GrassmannElement.unit(3)
    assert (mul(unit, x) - x).norm() <= 1e-15 * x.norm()
    gen = GrassmannElement(2, {(0b01, 0b01): 1.0})
    assert mul(gen, gen).coeffs == {}


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(2, 3))
def test_exp_eta_multiplicativity(seed, k):
    rng = np.random.default_rng(seed)
    q0, q1 = random_sym(rng, k), random_sym(rng, k)
    lhs = mul(exp_eta(q0), exp_eta(q1))
    rhs = exp_eta(q0 + q1)
    assert (lhs - rhs).norm() <= 1e-10 * rhs.norm()


def test_interior_reduce_hand_example():
    a, b, d = 1.3, -0.7, 2.1
    q = np.array([[a, b], [b, d]])
    out = interior_reduce(exp_eta(q), [1])
    assert out.ground_size == 1
    assert out.get(0, 0) == pytest.approx(d)
    assert out.get(1, 1) == pytest.approx(a * d - b * b)


def test_interior_reduce_degenerate_cases(rng):
    q = random_sym(rng, 3)
    x = exp_eta(q)
    assert (interior_reduce(x, []) - x).norm() <= 1e-15 * x.norm()
    full = interior_reduce(x, [0, 1, 2])
    assert full.ground_size == 0
    assert full.get(0, 0) == pytest.approx(np.linalg.det(q))


def test_glue_morphism_cases(rng):
    q = random_sym(rng, 2)
    part = VertexPartition.from_classes(2, [[0, 1]])
    out = glue_morphism(exp_eta(q), part)
    assert out.get(1, 1) == pytest.approx(q[0, 0] + q[1, 1] + 2 * q[0, 1])
    ident = VertexPartition.identity(3)
    x = exp_eta(random_sym(rng, 3))
    assert (glue_morphism(x, ident) - x).norm() <= 1e-15 * x.norm()
    q4 = random_sym(rng, 4)
    part4 = VertexPartition.from_classes(4, [[0, 2], [1, 3]])
    lhs = glue_morphism(exp_eta(q4), part4)
    rhs = exp_eta(glue(q4, part4))
    assert (lhs - rhs).norm() <= 1e-10 * rhs.norm()


def test_tau_lifts(rng):
    q = random_sym(rng, 3)
    alpha = 0.8 - 0.5j
    assert (tau_scale(exp_eta(q), alpha) - exp_eta(alpha * q)).norm() <= 1e-10
    assert (tau_scale(exp_eta(q), 1.0) - exp_eta(q)).norm() == 0
    q0 = random_sym(rng, 3)
    assert (tau_translate(GrassmannElement.unit(3), q0) - exp_eta(q0)).norm() <= 1e-12
    assert (tau_translate(exp_eta(q), q0) - exp_eta(q + q0)).norm() <= 1e-9
    with pytest.raises(ZeroScale):
        tau_scale(exp_eta(q), 0.0)


def test_linearity(rng):
    k = 3
    x, y = exp_eta(random_sym(rng, k)), exp_eta(random_sym(rng, k))
    z = exp_eta(random_sym(rng, k))
    part = VertexPartition.from_classes(3, [[0, 2]])
    c = 1.7 - 0.4j
    combo = x.scaled(c) + y
    for op in (
        lambda e: interior_reduce(e, [1]),
        lambda e: glue_morphism(e, part),
        lambda e: tau_scale(e, 2.0),
        lambda e: mul(z, e),
    ):
        lhs = op(combo)
        rhs = op(x).scaled(c) + op(y)
        assert (lhs - rhs).norm() <= 1e-10 * max(rhs.norm(), 1.0)


def test_reduced_product_matches_composition(rng):
    k = 4
    x = exp_eta(random_sym(rng, k))
    y = exp_eta(random_sym(rng, k))
    interior = [1, 2]
    lhs = reduced_product(x, y, interior)
    rhs = interior_reduce(mul(x, y), interior)
    assert (lhs - rhs).norm() <= 1e-10 * max(rhs.norm(), 1.0)


def test_reindex_is_algebra_morphism(rng):
    x = exp_eta(random_sym(rng, 3))
    y = exp_eta(random_sym(rng, 3))
    mapping = [2, 0, 1]
    lhs = reindex(mul(x, y), mapping, 3)
    rhs = mul(reindex(x, mapping, 3), reindex(y, mapping, 3))
    assert (lhs - rhs).norm() <= 1e-10 * max(rhs.norm(), 1.0)


def test_pair_identities(rng):
    q = random_sym(rng, 3)
    assert pair(exp_eta(q), "+") == pytest.approx(np.linalg.det(q))
    assert pair(exp_eta(q), "-") == 1.0


def test_renorm_lift_gasket_proportionality(gasket, rng):
    for _ in range(5):
        q = random_sym(rng, 3)
        lift = renorm_lift(exp_eta(q), gasket)
        q1 = assemble_q(gasket, q, 1)
        interior = build_lattice(gasket, 1).interior()
        det_int = np.linalg.det(q1[np.ix_(interior, interior)])
        rhs = exp_eta(t_map(q, gasket)).scaled(det_int)
        assert (lift - rhs).norm() <= 1e-8 * rhs.norm()


def test_renorm_lift_homogeneity(gasket, rng):
    x = exp_eta(random_sym(rng, 3))
    c = 0.9 + 0.4j
    lhs = renorm_lift(x.scaled(c), gasket)
    rhs = renorm_lift(x, gasket).scaled(c**3)
    assert (lhs - rhs).norm() <= 1e-10 * rhs.norm()


def test_renorm_lift_weak_structure_matches_matrix_path(gbar, gsemi, rng):
    for st_ in (gbar, gsemi):
        q = random_sym(rng, 3)
        lift = renorm_lift(exp_eta(q), st_)
        scale = pair(lift, "-")  # det of the level-1 interior block
        rhs = exp_eta(t_map(q, st_)).scaled(scale)
        assert (lift - rhs).norm() <= 1e-8 * rhs.norm()


def _dict_kernel_lift(x, structure):
    """renorm_lift composed from the reference kernel: glue the weighted
    copies with mul/reindex/tau_scale, multiply in the weak exponential and
    reduce the interior, then relabel the boundary to the cell."""
    lat = build_lattice(structure, 1)
    k = structure.cell_size
    interior = lat.interior()
    rest = sorted(set(range(lat.num_vertices)) - set(interior))
    vert_to_cell = {b: v for v, b in enumerate(lat.boundary)}
    out_map = [vert_to_cell[b] for b in rest]
    w = structure.copy_weights()
    z = GrassmannElement.unit(lat.num_vertices)
    for i, cmap in enumerate(lat.copy_maps):
        xi = x if w[i] == 1.0 else tau_scale(x, w[i])
        z = mul(z, reindex(xi, cmap, lat.num_vertices))
    weak_exp = None
    if structure.weak is not None:
        glued = np.zeros((lat.num_vertices, lat.num_vertices), dtype=complex)
        idx = np.concatenate(lat.copy_maps)
        np.add.at(glued, (idx[:, None], idx[None, :]), q_matrix(structure.weak))
        weak_exp = exp_eta(glued)
    reduced = (reduced_product(z, weak_exp, interior) if weak_exp is not None
               else interior_reduce(z, interior))
    return reindex(reduced, out_map, k)


def test_compiled_lift_matches_dict_kernel(rng):
    structures = builtin_structures()
    base = structures["gamma_bar"]
    structures["gamma_bar_weighted"] = SelfSimilarStructure(
        base.cell_size, base.num_copies, base.glue_classes, base.boundary_map,
        weights_w=(0.5, 1.5, 2.0), weak=base.weak,
    )
    for name, st_ in structures.items():
        k = st_.cell_size
        inputs = [exp_eta(random_sym(rng, k)) for _ in range(3)]
        if k == 3:
            chart = symmetric_chart(3)
            inputs.append(s_hat(HomogeneousPoint(((0.7 - 0.2j, 1.0), (0.0, 1.3))), chart))
        for x in inputs:
            want = _dict_kernel_lift(x, st_)
            got = renorm_lift(x, st_)
            assert (got - want).norm() <= 1e-12 * want.norm(), name


def _compile_lift(structure):
    """The unpruned tables of _lift_plan: each copy forms every key
    reachable after it.  A key (I, J) of the level-1 algebra is packed as
    the integer I << V | J, V its vertex count."""
    lat = build_lattice(structure, 1)
    k, nv = structure.cell_size, lat.num_vertices
    cell_keys = _balanced_keys(k)
    cell_index = {key: pos for pos, key in enumerate(cell_keys)}
    w = structure.copy_weights()
    keys = np.zeros(1, dtype=np.int64)  # the unit
    copies = []
    for i, cmap in enumerate(lat.copy_maps):
        images = []  # (cell key position, image I, image J, sign * w_i^deg)
        for pos, (ci, cj) in enumerate(cell_keys):
            image = _reindex_key(ci, cj, cmap)
            if image is not None:
                (ii, ij), sign = image
                images.append((pos, ii, ij, sign * w[i] ** ci.bit_count()))
        x_pos, ii, ij, scale = (np.array(col) for col in zip(*images))
        zi, zj = keys >> nv, keys & ((1 << nv) - 1)
        z_idx, m = np.nonzero(((zi[:, None] & ii) | (zj[:, None] & ij)) == 0)
        keys, dst = np.unique((zi[z_idx] | ii[m]) << nv | zj[z_idx] | ij[m],
                              return_inverse=True)
        sign = scale[m] * _merge_signs(zi[z_idx], zj[z_idx], ii[m], ij[m], nv)
        copies.append((z_idx, x_pos[m], _pairs(dst), sign, len(keys)))

    # the boundary is vertices 0..K-1 in F order, so cell key (I, J) is
    # reduced from the level-1 key (I | interior, J | interior)
    imask = _mask(lat.interior())
    ki, kj = (np.array(col) for col in zip(*cell_keys))
    ti, tj = imask | ki, imask | kj
    t_sign = _merge_signs(imask, imask, ki, kj, nv)
    weak_exp = exp_eta(level_step(structure).weak)
    wi, wj = (np.array(col) for col in zip(*weak_exp.coeffs))
    wc = np.array(list(weak_exp.coeffs.values()), dtype=complex)
    # target (I, J) = (z key) * (weak key): z key = target ^ weak key
    t, g = np.nonzero(((wi & ~ti[:, None]) | (wj & ~tj[:, None])) == 0)
    fi, fj = ti[t] ^ wi[g], tj[t] ^ wj[g]
    col = np.minimum(np.searchsorted(keys, fi << nv | fj), len(keys) - 1)
    hit = keys[col] == fi << nv | fj
    vals = t_sign[t] * _merge_signs(fi, fj, wi[g], wj[g], nv) * wc[g]
    return _LiftPlan(cell_keys, cell_index, tuple(copies), _pairs(t[hit]), col[hit], vals[hit])


@pytest.mark.parametrize("name,full,pruned", [
    ("sierpinski", [20, 236, 1404], [20, 100, 100]),
    ("gamma_bar", [20, 400, 8000], [20, 328, 1184]),
    ("gamma_bar_semi", [20, 400, 8000], [20, 328, 1184]),
])
def test_pruned_lift_plan_forms_only_read_keys(name, full, pruned, rng):
    # Each copy of the compiled lift forms only the products whose key a
    # later stage reads, and the coefficients stay bitwise those of the
    # full tables: every kept sum has the same terms in the same order.
    st_ = builtin_structures()[name]
    whole = _compile_lift(st_)
    plan = grassmann._lift_plan(st_)
    assert [z_idx.size for z_idx, *_ in whole.copies] == full
    assert [z_idx.size for z_idx, *_ in plan.copies] == pruned
    chart = symmetric_chart(3)
    for _ in range(4):
        u = rng.uniform(-2.0, 2.0, 2) + 1j * rng.uniform(0.5, 2.0, 2)
        for x in (exp_eta(random_sym(rng, 3)), exp_eta(chart.matrix(u))):
            assert renorm_lift(x, st_).coeffs == grassmann._run_lift(whole, x).coeffs


def test_determinant_bridge(gasket, gbar, triangle_q):
    b = np.ones(3)
    phi = phi_curve(triangle_q, b)
    for st_ in (gasket, gbar):
        b1 = assemble_measure(st_, b, 1)
        q1 = assemble_q(st_, triangle_q, 1)
        lat = build_lattice(st_, 1)
        for lam in (0.3 + 0.2j, -1.5, 2.0 - 1.0j):
            lifted = renorm_lift(phi(lam), st_)
            want_p = char_det(q1, b1, lam, "neumann")
            assert abs(pair(lifted, "+") - want_p) <= 1e-8 * abs(want_p)
            want_m = char_det(q1, b1, lam, "dirichlet", lat.boundary)
            assert abs(pair(lifted, "-") - want_m) <= 1e-8 * abs(want_m)


@pytest.mark.parametrize("name,products", [
    ("sg3", [20, 104, 332, 686, 332, 104]),
    ("vicsek", [6, 36, 190, 454, 454]),
])
def test_lift_on_the_new_examples(name, products, rng):
    # The lift of the level-3 gasket (K = 3, N = 6) and of the Vicsek set
    # (K = 4, N = 5): one step three ways agrees, and the top and unit
    # pairings of the lifted spectral curve are the level-1 Neumann and
    # Dirichlet determinants.  Each copy forms only the products a later
    # stage reads; the Vicsek set reaches 24,010,000 keys after four copies.
    cfg = load_config(str(Path(__file__).resolve().parent / "data" / f"{name}.json"))
    st_ = cfg.structure
    assert [z_idx.size for z_idx, *_ in grassmann._lift_plan(st_).copies] == products
    assert verify.check_renorm_paths(cfg, rng).passed
    q, b = q_matrix(cfg.network), np.asarray(cfg.measure, dtype=float)
    phi = phi_curve(q, b)
    q1, b1 = assemble_q(st_, q, 1), assemble_measure(st_, b, 1)
    boundary = build_lattice(st_, 1).boundary
    for lam in (0.3 + 0.2j, -1.2, 2.0 - 1.0j):  # -1.5 is a Dirichlet eigenvalue of both
        lifted = renorm_lift(phi(lam), st_)
        want_p = char_det(q1, b1, lam, "neumann")
        assert abs(pair(lifted, "+") - want_p) <= 1e-8 * abs(want_p)
        want_m = char_det(q1, b1, lam, "dirichlet", boundary)
        assert abs(pair(lifted, "-") - want_m) <= 1e-8 * abs(want_m)


def test_vanishing_order_basics():
    base = GrassmannElement(2, {(0b01, 0b01): 2.0, (0b10, 0b10): -1.0})
    assert vanishing_order(lambda lam: base.scaled(lam), 0.0) == 1
    assert vanishing_order(lambda lam: base.scaled(1.0 + lam), 0.0) == 0
    assert vanishing_order(lambda lam: base.scaled(lam * lam), 0.0) == 2
    with pytest.raises(OrderUnstable):
        vanishing_order(lambda lam: base.scaled(0.0), 0.0)


def test_lift_orders_match_nd_multiplicities(gasket, gbar, triangle, triangle_q):
    b = np.ones(3)
    phi = phi_curve(triangle_q, b)
    for st_ in (gasket, gbar):
        nd = level_spectrum(st_, triangle, b, 1, "nd")
        neumann = level_spectrum(st_, triangle, b, 1, "neumann")
        curve = lambda lam: renorm_lift(phi(lam), st_)
        for value, _ in neumann.clusters:
            assert vanishing_order(curve, value) == nd.multiplicity_at(value)
    # gamma_bar has nontrivial level-1 N-D spectrum; the check is not vacuous
    assert level_spectrum(gbar, triangle, b, 1, "nd").count == 3


def _bits(x):
    """The keys of x in order and the bit patterns of its values."""
    values = list(x.coeffs.values())
    assert all(type(c) is complex for c in values)
    return list(x.coeffs), np.array(values, dtype=complex).view(np.uint64).tolist()


def test_library_elements_equal_their_public_rebuilds(rng):
    # exp_eta and renorm_lift skip the public constructor's pass; rebuilding
    # their elements through it keeps every key, in order, and every value
    # to the bit: nothing was left for the pass to drop or convert.
    for st in builtin_structures().values():
        k = st.cell_size
        sparse = np.zeros((k, k), dtype=complex)
        sparse[0, 0] = 2.0 - 1.0j  # a support short of the cell, zero minors
        for q in (random_sym(rng, k), random_sym(rng, k, complex_=False), sparse, np.zeros((k, k))):
            for x in (exp_eta(q), renorm_lift(exp_eta(q), st)):
                assert _bits(x) == _bits(GrassmannElement(x.ground_size, dict(x.coeffs)))
                assert 0j not in x.coeffs.values()


def test_public_constructor_still_checks_keys():
    with pytest.raises(ValueError, match="unbalanced"):
        GrassmannElement(2, {(0b01, 0b11): 1.0})
    with pytest.raises(ValueError, match="outside ground set"):
        GrassmannElement(2, {(0b100, 0b100): 1.0})
    assert GrassmannElement(2, {(0b01, 0b01): 0.0, (0, 0): 1}).coeffs == {(0, 0): 1 + 0j}
