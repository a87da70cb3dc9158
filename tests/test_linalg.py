import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractal_spectra.errors import NonPositiveWeight, NotHermitian, NotSymmetric
from fractal_spectra.linalg import (
    _pencil,
    generalized_sym_eig,
    generalized_sym_eigvals,
    is_positive_definite,
    kernel_basis,
    sym_eig,
)
from fractal_spectra.verify import random_sym


def test_sym_eig_identity():
    w, v = sym_eig(np.eye(3))
    assert np.allclose(w, [1, 1, 1])
    assert np.allclose(v @ v.T, np.eye(3))


def test_sym_eig_offdiag():
    w, _ = sym_eig(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    assert np.allclose(w, [-1.0, 1.0])


def test_sym_eig_path_laplacian():
    a = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
    w, _ = sym_eig(a)
    assert np.allclose(w, [0.0, 1.0, 3.0], atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 12), st.integers(0, 2**31 - 1))
def test_sym_eig_reconstruction(dim, seed):
    rng = np.random.default_rng(seed)
    a = random_sym(rng, dim, complex_=False)
    w, v = sym_eig(a)
    assert np.all(np.diff(w) >= -1e-12)
    assert np.linalg.norm(v @ np.diag(w) @ v.T - a) <= 1e-9 * max(1, np.linalg.norm(a))


def test_generalized_diag():
    lam, _ = generalized_sym_eig(np.diag([2.0, 3.0]), np.array([1.0, 1.0]))
    assert np.allclose(lam, [-3.0, -2.0])
    lam, _ = generalized_sym_eig(np.array([[2.0]]), np.array([2.0]))
    assert np.allclose(lam, [-1.0])


def test_generalized_residual_and_orthonormality(rng):
    q = random_sym(rng, 5, complex_=False)
    b = rng.uniform(0.5, 2.0, size=5)
    lam, v = generalized_sym_eig(q, b)
    assert len(lam) == 5
    for k in range(5):
        res = (q + lam[k] * np.diag(b)) @ v[:, k]
        assert np.linalg.norm(res) <= 1e-9 * max(1, np.linalg.norm(q))
    gram = v.T @ np.diag(b) @ v
    assert np.max(np.abs(gram - np.eye(5))) <= 1e-9


def test_generalized_rejects_bad_weights():
    with pytest.raises(NonPositiveWeight):
        generalized_sym_eig(np.eye(2), np.array([1.0, 0.0]))


def test_generalized_eigvals_match_full_solve(rng):
    for dim in (1, 5, 12):
        q = random_sym(rng, dim, complex_=False)
        b = rng.uniform(0.5, 2.0, size=dim)
        lam, _ = generalized_sym_eig(q, b)
        vals = generalized_sym_eigvals(q, b)
        width = max(float(lam[-1] - lam[0]), 1.0)
        assert vals.shape == lam.shape
        assert np.max(np.abs(vals - lam)) <= 1e-12 * width


def test_generalized_eigvals_rejects_same_inputs():
    bad_q = np.array([[1.0, 2.0], [0.0, 1.0]])
    for solve in (generalized_sym_eig, generalized_sym_eigvals):
        with pytest.raises(NotSymmetric):
            solve(bad_q, np.ones(2))
        with pytest.raises(NonPositiveWeight):
            solve(np.eye(2), np.array([1.0, 0.0]))


def test_kernel_basis_cases():
    assert kernel_basis(np.zeros((2, 3))).dim == 3
    assert kernel_basis(np.eye(4)).dim == 0
    sub = kernel_basis(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert sub.dim == 1
    want = np.array([1.0, -1.0]) / np.sqrt(2)
    overlap = abs(np.vdot(sub.basis[:, 0], want))
    assert abs(overlap - 1.0) <= 1e-12


def test_kernel_projection_idempotence(rng):
    a = rng.standard_normal((6, 6))
    a[:, 3] = a[:, 1] + a[:, 2]  # force rank deficiency
    sub = kernel_basis(a)
    assert sub.dim >= 1
    assert np.linalg.norm(a @ sub.basis) <= 1e-9 * np.linalg.norm(a)


def test_is_positive_definite():
    assert is_positive_definite(np.eye(3))
    assert not is_positive_definite(np.diag([1.0, -1.0]))
    assert is_positive_definite(np.diag([0.5, 2.0]))  # Im(Q_rho + i I_b) case
    assert not is_positive_definite(np.zeros((3, 3)))
    assert not is_positive_definite(np.diag([1.0, 0.0, 1.0]))
    with pytest.raises(NotHermitian):
        is_positive_definite(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("bad", [
    np.array([[np.nan]]),
    np.diag([np.inf, 1.0]),
    np.diag([-np.inf, 1.0]),
    np.array([[1.0, complex(np.nan, np.nan)], [complex(np.nan, -np.nan), 1.0]]),
    np.diag([complex(1.0, np.nan), 1.0]),
])
def test_is_positive_definite_rejects_non_finite_input(bad):
    # NaN and infinite entries are an input error, not a "not definite"
    with pytest.raises(ValueError, match="finite"):
        is_positive_definite(bad)


def test_pencil_reads_real_input_of_any_dtype():
    # float64 input is used as it is; complex input with a zero imaginary
    # part, integers and lists give the same transform, and the input is
    # left unchanged.
    q, b = np.array([[-2.0, 1.0], [1.0, -3.0]]), np.array([1.0, 2.0])
    keep = q.copy()
    want_m, want_d = _pencil(q, b)
    assert np.array_equal(q, keep)
    for qq, bb in ((q.astype(int), b.astype(int)), (q.astype(complex), b.astype(complex)),
                   (q.tolist(), b.tolist())):
        m, d = _pencil(qq, bb)
        assert m.dtype == d.dtype == np.float64
        assert np.array_equal(m, want_m) and np.array_equal(d, want_d)
    with pytest.raises(ValueError, match="imaginary"):
        _pencil(q + 1e-300j, b)
    with pytest.raises(ValueError, match="imaginary"):
        _pencil(q, b + 1e-300j)
    with pytest.raises(ValueError, match="finite"):
        _pencil(np.array([[np.nan, 1.0], [1.0, -3.0]]), b)
    with pytest.raises(ValueError, match="finite"):
        _pencil(q, np.array([1.0, np.inf]))
    with pytest.raises(NotSymmetric):
        _pencil(np.array([[-2.0, 1.0], [0.0, -3.0]]), b)
    with pytest.raises(NonPositiveWeight):
        _pencil(q, np.array([1.0, 0.0]))
