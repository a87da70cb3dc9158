"""Dense linear-algebra primitives used by every other module.

Everything here is double precision and pure: solves, numerical ranks,
kernels, symmetric eigenproblems, definiteness tests.  Complex symmetric
(non-Hermitian) matrices are only ever solved or inverted, never
eigen-decomposed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveWeight, NotHermitian, NotSymmetric

# Relative singular-value threshold for rank / kernel decisions: singular
# values <= RANK_TOL * sigma_max count as zero.
RANK_TOL = 1e-9
# Entrywise symmetry (or Hermitian) threshold, relative to max(1, max|a|).
SYMMETRY_TOL = 1e-12
# Absolute eigenvalue threshold: a Hermitian matrix is positive definite
# when its smallest eigenvalue exceeds DEFINITE_TOL, so zero and
# semidefinite matrices (the Siegel domain's boundary) are not.
DEFINITE_TOL = 1e-10
# Subspace: Gram matrix of the basis against the identity, entrywise, absolute.
ORTHONORMAL_TOL = 1e-12


def check_symmetric(a):
    """Return ``a`` as a complex array, raising NotSymmetric if a != a^T
    and ValueError if an entry is NaN or infinite."""
    return _require_symmetric(np.asarray(a, dtype=complex))


def _require_symmetric(a):
    """Raise NotSymmetric unless ``a`` is square with |a - a^T| <=
    SYMMETRY_TOL * max(1, max|a|) entrywise, and ValueError if an entry is
    NaN or infinite (max|a| is then not finite, so the scale's pass finds
    it); returns ``a`` in its own dtype, so real input is checked in real
    arithmetic."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSymmetric(f"expected a square matrix, got shape {a.shape}")
    if a.size:
        top = float(np.abs(a).max())
        if not math.isfinite(top):
            raise ValueError("matrix must be finite; it has a NaN or infinite entry")
        if np.abs(a - a.T).max() > SYMMETRY_TOL * max(1.0, top):
            raise NotSymmetric("matrix is not symmetric within tolerance")
    return a


@dataclass
class Subspace:
    """An orthonormal frame spanning a subspace of C^ambient_dim.

    ``basis`` has shape (ambient_dim, dim) with orthonormal columns; the
    zero subspace is a (ambient_dim, 0) array.
    """

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self):
        self.basis = np.asarray(self.basis, dtype=complex)
        if self.basis.shape[0] != self.ambient_dim:
            raise ValueError("basis rows must match ambient_dim")
        if self.dim:
            gram = self.basis.conj().T @ self.basis
            if np.max(np.abs(gram - np.eye(self.dim))) > ORTHONORMAL_TOL:
                raise ValueError("basis is not orthonormal")

    @property
    def dim(self):
        return self.basis.shape[1]


def sym_eig(a):
    """Eigen-decompose a real symmetric matrix.

    Returns (eigenvalues ascending, orthonormal eigenvector columns).
    """
    a = _require_symmetric(np.asarray(a, dtype=float))
    w, v = np.linalg.eigh(a)
    return w, v


def _pencil(q, b):
    """Validate the pencil (Q + lam I_b) and return its symmetric transform
    D^{-1/2} Q D^{-1/2} together with d = diag(D^{-1/2}), D = I_b.  The
    pencil is real: a Q or weights with a nonzero imaginary part raise
    ValueError, and so does a NaN or infinite entry of Q or b."""
    q, b = np.asarray(q), np.asarray(b)
    # Only complex input has an imaginary part to check and drop; a float64
    # array passes on uncopied.
    if np.iscomplexobj(q):
        if np.any(q.imag):
            raise ValueError("spectra need a real Q; this one has a nonzero imaginary part")
        q = q.real
    if np.iscomplexobj(b):
        if np.any(b.imag):
            raise ValueError("spectra need real weights; these have a nonzero imaginary part")
        b = b.real
    q, b = q.astype(float, copy=False), b.astype(float, copy=False)
    if not np.isfinite(b).all():
        raise ValueError("the pencil needs finite weights")
    q = _require_symmetric(q)  # a NaN or infinite entry raises ValueError
    if b.ndim != 1 or b.shape[0] != q.shape[0]:
        raise ValueError("weight vector must match matrix dimension")
    if np.any(b <= 0):
        raise NonPositiveWeight("all weights must be strictly positive")
    d = 1.0 / np.sqrt(b)
    return (q * d).T * d, d


def generalized_sym_eig(q, b):
    """Solve the pencil (Q + lam I_b) v = 0 for real symmetric Q, b > 0.

    Returns the spectrum of H = -I_b^{-1} Q, i.e. the eigenvalues lam such
    that Q v = -lam I_b v, ascending, together with b-orthonormal
    eigenvectors (v^T I_b v = Id).  Computed through the symmetric
    transform I_b^{-1/2} Q I_b^{-1/2}.
    """
    m, d = _pencil(q, b)
    mu, u = np.linalg.eigh(m)
    # Q v = mu I_b v  with v = D^{-1/2} u, so H-eigenvalues are -mu.
    lam = -mu[::-1]
    v = (u * d[:, None])[:, ::-1]
    return lam, v


def generalized_sym_eigvals(q, b):
    """The eigenvalues of generalized_sym_eig alone, ascending, without
    forming eigenvectors."""
    m, _ = _pencil(q, b)
    return -np.linalg.eigvalsh(m)[::-1]


def kernel_basis(a, tol=RANK_TOL) -> Subspace:
    """Orthonormal basis of the numerical kernel of ``a``.

    Keeps right-singular directions with singular value <= tol * sigma_max;
    sigma_max = 0 yields the full space.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    a = np.asarray(a, dtype=complex)
    n = a.shape[1]
    if a.shape[0] == 0 or n == 0:
        return Subspace(n, np.eye(n, dtype=complex))
    _, s, vh = np.linalg.svd(a)
    smax = s[0] if s.size else 0.0
    if smax == 0.0:
        return Subspace(n, np.eye(n, dtype=complex))
    ns = np.sum(s > tol * smax)
    return Subspace(n, vh[ns:].conj().T)


def numerical_rank(a):
    """Rank of ``a`` by the RANK_TOL relative singular-value threshold."""
    a = np.asarray(a, dtype=complex)
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.sum(s > RANK_TOL * s[0]))


def is_positive_definite(a):
    """True iff the Hermitian matrix ``a`` has smallest eigenvalue >
    DEFINITE_TOL; ValueError if an entry is NaN or infinite (the scale's
    pass finds it, as in _require_symmetric)."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotHermitian(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        return True
    top = float(np.abs(a).max())
    if not math.isfinite(top):
        raise ValueError("matrix must be finite; it has a NaN or infinite entry")
    if np.abs(a - a.conj().T).max() > SYMMETRY_TOL * max(1.0, top):
        raise NotHermitian("matrix is not Hermitian within tolerance")
    w = np.linalg.eigvalsh(a)
    return bool(w[0] > DEFINITE_TOL)


def orthonormalize(cols):
    """Orthonormal basis of the column span (rank-trimmed SVD)."""
    cols = np.asarray(cols, dtype=complex)
    if cols.ndim != 2:
        raise ValueError("expected a matrix of column vectors")
    if cols.shape[1] == 0:
        return cols.copy()
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((cols.shape[0], 0), dtype=complex)
    r = int(np.sum(s > RANK_TOL * s[0]))
    return u[:, :r]

