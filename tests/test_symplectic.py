import numpy as np
import pytest

from fractal_spectra.errors import AtInfinity, NotSymmetric
from fractal_spectra.grassmann import exp_eta, interior_reduce, vanishing_order
from fractal_spectra.linalg import kernel_basis, numerical_rank, orthonormalize
from fractal_spectra.network import VertexPartition, glue, trace_map
from fractal_spectra.renorm import HomogeneousPoint, block_copy_frame, frame_from_pairs, symmetric_chart
from fractal_spectra.symplectic import (
    CoisotropicSubspace,
    LagrangianFrame,
    compose,
    from_sym,
    in_siegel,
    omega_matrix,
    orthogonal_lagrangian,
    random_lagrangian,
    reduce_frame,
    reduction_defect,
    subspace_distance,
    tau_scale_frame,
    tau_translate_frame,
    to_sym,
    w_glue,
    w_renorm,
    w_trace,
)
from fractal_spectra.verify import random_sym


def test_from_sym_cases():
    f = from_sym(np.zeros((2, 2)))
    assert subspace_distance(f, LagrangianFrame(np.vstack([np.eye(2), np.zeros((2, 2))]))) <= 1e-12
    f1 = from_sym(np.array([[2.0 + 1.0j]]))
    want = np.array([[1.0], [2.0 + 1.0j]])
    assert subspace_distance(f1, LagrangianFrame(want)) <= 1e-12


def test_from_sym_rejects_nonsymmetric():
    with pytest.raises(NotSymmetric):
        from_sym(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_to_sym_roundtrip_and_infinity(rng):
    q = random_sym(rng, 4)
    assert np.max(np.abs(to_sym(from_sym(q)) - q)) <= 1e-10
    dual = LagrangianFrame(np.vstack([np.zeros((2, 2)), np.eye(2)]))
    with pytest.raises(AtInfinity):
        to_sym(dual)


def test_w_trace_shape():
    w = w_trace(2, [1])
    assert w.reduced_half_dim == 1
    assert w.wo_frame.shape == (4, 1)
    # W^o is the interior E-part
    want = np.zeros((4, 1))
    want[0, 0] = 1.0
    assert np.max(np.abs(np.abs(w.wo_frame) - want)) <= 1e-12


def test_w_glue_identity_partition():
    w = w_glue(VertexPartition.identity(3))
    assert w.reduced_half_dim == 3
    assert w.wo_frame.shape[1] == 0
    l = from_sym(random_sym(np.random.default_rng(0), 3))
    assert subspace_distance(reduce_frame(l, w), l) <= 1e-10


def test_w_renorm_gasket_dimensions(gasket):
    w = w_renorm(gasket)
    assert w.half_dim == 9
    assert w.wo_frame.shape[1] == 6
    assert w.reduced_half_dim == 3


def test_reduce_matches_trace_and_glue(rng):
    q = random_sym(rng, 4)
    got = reduce_frame(from_sym(q), w_trace(4, [0, 2]))
    assert subspace_distance(got, from_sym(trace_map(q, [0, 2]))) <= 1e-9
    part = VertexPartition.from_classes(4, [[1, 3]])
    got = reduce_frame(from_sym(q), w_glue(part))
    assert subspace_distance(got, from_sym(glue(q, part))) <= 1e-9


def test_reduce_path_example():
    path_q = np.array([[1.0, 0.0, -1.0], [0.0, 1.0, -1.0], [-1.0, -1.0, 2.0]])
    got = reduce_frame(from_sym(path_q), w_trace(3, [0, 1]))
    assert subspace_distance(got, from_sym(np.array([[0.5, -0.5], [-0.5, 0.5]]))) <= 1e-10


def test_composition_law(rng):
    for t in range(30):
        l = random_lagrangian(4, rng, at_infinity=(t % 2 == 0))
        w1 = w_trace(4, [0, 1, 3])
        w2 = w_glue(VertexPartition.from_classes(3, [[0, 1]]))
        lhs = reduce_frame(reduce_frame(l, w1), w2)
        rhs = reduce_frame(l, compose(w1, w2))
        assert subspace_distance(lhs, rhs) <= 1e-8


def test_reduction_defect_examples(rng):
    q = random_sym(rng, 3)
    assert reduction_defect(from_sym(q), w_trace(3, [0])) == 0
    cols = np.zeros((4, 2))
    cols[1, 0] = 1.0  # e_2 in the E block
    cols[2, 1] = 1.0  # e_1* in the dual block
    l = LagrangianFrame(cols)
    # boundary {1} (1-based), so the interior direction e_2 spans W^o
    assert reduction_defect(l, w_trace(2, [0])) == 1


def _with_forced_interior_kernel(rng, k, boundary, dim):
    """Random symmetric Q with a prescribed-dimension kernel supported on
    the interior (so ker^ND has dimension >= dim)."""
    interior = [i for i in range(k) if i not in set(boundary)]
    q = random_sym(rng, k, complex_=False)
    vecs = []
    for t in range(dim):
        f = np.zeros(k)
        f[interior] = rng.standard_normal(len(interior))
        vecs.append(f)
    basis = orthonormalize(np.stack(vecs, axis=1)).real
    p = np.eye(k) - basis @ basis.T
    return p @ q @ p


def test_defect_counts_nd_kernel(rng):
    for _ in range(20):
        k = int(rng.integers(4, 7))
        p = int(rng.integers(1, k - 2))
        boundary = sorted(rng.permutation(k)[:p].tolist())
        dim = int(rng.integers(1, min(3, k - p) + 1))
        q = _with_forced_interior_kernel(rng, k, boundary, dim)
        # independent count: kernel of [Q ; boundary rows]
        rows = np.zeros((p, k))
        for r, b in enumerate(boundary):
            rows[r, b] = 1.0
        nd = kernel_basis(np.vstack([q, rows]), tol=1e-9).dim
        assert nd >= dim
        assert reduction_defect(from_sym(q), w_trace(k, boundary)) == nd


def _defect_oracle(l, w):
    """dim(L cap W^o) by its definition: the kernel of [L, -W^o]."""
    if w.wo_frame.shape[1] == 0:
        return 0
    return kernel_basis(np.hstack([l.columns, -w.wo_frame])).dim


def test_defect_matches_its_definition(rng, gasket, gbar):
    cases = []
    for dim in (1, 2, 3):  # forced interior kernels
        q = _with_forced_interior_kernel(rng, 6, [0, 1], dim)
        cases.append((from_sym(q), w_trace(6, [0, 1]), dim))
    # block copies at the divisor points of the gasket and gamma_bar
    chart = symmetric_chart(3)
    for st, pairs, want in (
        (gasket, ((0.0, 1.0), (0.0, 1.0)), 3),
        (gasket, ((0.4 + 0.2j, 1.0), (1.0, 0.0)), 1),
        (gbar, ((0.37 + 0.21j, 1.0), (-2.0, 1.0)), 1),
        (gbar, ((0.37 + 0.21j, 1.0), (-5.0, 1.0)), 2),
    ):
        l = frame_from_pairs(HomogeneousPoint(pairs), chart)
        cases.append((block_copy_frame(l, st), w_renorm(st), want))
    # random frames pushed to infinity (W^o is empty for the full boundary)
    for w in (w_trace(4, [0]), w_trace(5, [0, 3]), w_trace(3, [0, 1, 2]), w_renorm(gasket)):
        for _ in range(3):
            cases.append((random_lagrangian(w.half_dim, rng, at_infinity=True), w, 0))
    for l, w, want in cases:
        assert reduction_defect(l, w) == _defect_oracle(l, w) == want


def test_defect_semicontinuity(rng):
    k = 5
    boundary = [0, 1]
    q = _with_forced_interior_kernel(rng, k, boundary, 1)
    w = w_trace(k, boundary)
    assert reduction_defect(from_sym(q), w) >= 1
    bump = random_sym(rng, k, complex_=False)
    assert reduction_defect(from_sym(q + 1e-3 * bump), w) == 0


def test_reduce_total_even_at_defect(rng):
    k = 5
    boundary = [0, 1]
    q = _with_forced_interior_kernel(rng, k, boundary, 2)
    w = w_trace(k, boundary)
    assert reduction_defect(from_sym(q), w) >= 2
    out = reduce_frame(from_sym(q), w)  # still a Lagrangian frame
    assert out.half_dim == 2
    iso = out.columns.T @ omega_matrix(2) @ out.columns
    assert np.max(np.abs(iso)) <= 1e-9


def test_curve_order_equals_defect(rng):
    """Vanishing order of the coefficient lift along lam -> Q + lam I
    equals the reduction defect, for defects 1 and 2."""
    k = 5
    boundary = [0, 1]
    interior = [2, 3, 4]
    for dim in (1, 2):
        q = _with_forced_interior_kernel(rng, k, boundary, dim)
        defect = reduction_defect(from_sym(q), w_trace(k, boundary))
        assert defect == dim
        order = vanishing_order(
            lambda lam: interior_reduce(exp_eta(q + lam * np.eye(k)), interior), 0.0
        )
        assert order == defect


def test_in_siegel():
    assert in_siegel(from_sym(1j * np.eye(3)))
    assert not in_siegel(from_sym(-1j * np.eye(3)))
    # the boundary of the domain: Im Q = 0 and Im Q semidefinite
    assert not in_siegel(from_sym(np.eye(3)))
    assert not in_siegel(from_sym(np.eye(3) + 1j * np.diag([1.0, 0.0, 1.0])))


def test_reduce_preserves_siegel(rng):
    for _ in range(50):
        k = 4
        g = rng.standard_normal((k, k))
        q = random_sym(rng, k, complex_=False) + 1j * (g @ g.T + 0.05 * np.eye(k))
        l = from_sym(q)
        assert in_siegel(l)
        out = reduce_frame(l, w_trace(k, [0, 2]))
        assert in_siegel(out)


def test_orthogonality_identities(rng):
    """L^o = conj(J L^perp) and, for Lagrangian L, L^perp = conj(J L)."""
    k = 4
    l = random_lagrangian(k, rng, at_infinity=True)
    om = omega_matrix(k)
    j = np.zeros((2 * k, 2 * k))
    j[:k, k:] = -np.eye(k)
    j[k:, :k] = np.eye(k)
    lperp = orthogonal_lagrangian(l)
    # conj(J L) spans the Hermitian orthogonal complement
    assert np.max(np.abs(lperp.columns.conj().T @ l.columns)) <= 1e-10
    # omega-orthogonal of L is L itself (Lagrangian), realized as conj(J L^perp)
    lo = orthonormalize(np.conj(j @ lperp.columns))
    assert numerical_rank(np.hstack([lo, l.columns])) == k


def test_tau_lifts(rng):
    q = random_sym(rng, 3)
    q0 = random_sym(rng, 3).real
    assert subspace_distance(tau_scale_frame(from_sym(q), 2.5), from_sym(2.5 * q)) <= 1e-10
    assert subspace_distance(tau_translate_frame(from_sym(q), q0), from_sym(q + q0)) <= 1e-10


def test_coisotropic_validation_rejects_bad_chart():
    w = w_trace(3, [0, 1])
    bad = w.proj.copy()
    bad[0] *= 2.0
    with pytest.raises(ValueError):
        CoisotropicSubspace(w.frame, w.wo_frame, bad)


def test_public_frame_constructor_still_checks():
    with pytest.raises(ValueError, match="not isotropic"):
        LagrangianFrame(np.vstack([np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]])]))
    with pytest.raises(ValueError, match="full rank"):
        LagrangianFrame(np.vstack([np.array([[1.0, 1.0], [0.0, 0.0]]), np.zeros((2, 2))]))
    with pytest.raises(ValueError, match="full rank"):
        LagrangianFrame(np.zeros((4, 2)))
    with pytest.raises(ValueError, match="2K x K"):
        LagrangianFrame(np.eye(3))
    # the checked columns stay what was checked
    frame = from_sym(np.eye(2))
    with pytest.raises(ValueError):
        frame.columns[0, 0] = 2.0
    with pytest.raises(AttributeError):
        frame.columns = np.zeros((4, 2))
