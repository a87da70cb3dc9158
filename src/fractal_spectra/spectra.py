"""Spectra of the lattice operators under the three boundary conditions.

The operator at level n is H = -I_b^{-1} Q for the assembled form Q and
measure b: eigenvalues solve (Q + lam I_b) f = 0.  Dirichlet restricts to
functions vanishing on the boundary (interior principal submatrices);
Neumann-Dirichlet eigenfunctions satisfy both conditions at once and are
counted per eigenvalue by the dimension of the boundary-vanishing part of
the Neumann eigenspace.

Sign convention: Q in the network cone gives nonpositive spectra
(report with flipped sign for Laplacian-style output via the CLI flag).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import generalized_sym_eig, generalized_sym_eigvals, kernel_basis
from .selfsim import assemble_measure, assemble_network, build_lattice

# Relative clustering width: eigenvalues this close (times spectral width)
# count as one cluster, so multiplicities survive floating-point splits.
CLUSTER_TOL = 1e-7


@dataclass
class SpectrumReport:
    """Eigenvalues (ascending, with multiplicity) plus their clusters."""

    level: int
    condition: str
    eigenvalues: np.ndarray
    clusters: list = field(default_factory=list)  # (value, multiplicity)

    @property
    def count(self):
        return len(self.eigenvalues)

    def cdf(self, xs):
        """Counting function x -> #{lam <= x} (unnormalized)."""
        return np.searchsorted(np.sort(self.eigenvalues), xs, side="right")

    def multiplicity_at(self, lam, tol=None):
        tol = self._width_tol(tol)
        return sum(m for v, m in self.clusters if abs(v - lam) <= tol)

    def _width_tol(self, tol):
        if tol is not None:
            return tol
        if len(self.eigenvalues) == 0:
            return CLUSTER_TOL
        width = float(self.eigenvalues[-1] - self.eigenvalues[0]) or 1.0
        return 10 * CLUSTER_TOL * width


def cluster_eigenvalues(values, tol=CLUSTER_TOL):
    """Group an ascending eigenvalue list into (mean, multiplicity) runs."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return []
    width = float(values[-1] - values[0]) or 1.0
    gap = tol * width
    clusters = []
    start = 0
    for i in range(1, values.size + 1):
        if i == values.size or values[i] - values[i - 1] > gap:
            chunk = values[start:i]
            clusters.append((float(chunk.mean()), len(chunk)))
            start = i
    return clusters


def neumann_spectrum(q_n, b_n, level=0, cluster_tol=CLUSTER_TOL) -> SpectrumReport:
    """All eigenvalues lam with (Q + lam I_b) f = 0.

    Takes the values of the full solve that nd_spectrum uses.  Exact,
    highly degenerate eigenvalues (Sierpinski's -3 has multiplicity 42 at
    level 4) spread over a few ulps, and the eigenvalues-only driver rounds
    them differently, which moves `cdf` at a point lying on one."""
    lam, _ = generalized_sym_eig(q_n, b_n)
    return SpectrumReport(level, "neumann", lam, cluster_eigenvalues(lam, cluster_tol))


def dirichlet_spectrum(q_n, b_n, boundary, level=0, cluster_tol=CLUSTER_TOL) -> SpectrumReport:
    """Spectrum of the pencil restricted to {f : f = 0 on the boundary}."""
    q_n = np.asarray(q_n, dtype=float)
    b_n = np.asarray(b_n, dtype=float)
    interior = [i for i in range(q_n.shape[0]) if i not in set(boundary)]
    if not interior:
        lam = np.zeros(0)
    else:
        lam = generalized_sym_eigvals(q_n[np.ix_(interior, interior)], b_n[interior])
    return SpectrumReport(level, "dirichlet", lam, cluster_eigenvalues(lam, cluster_tol))


def nd_spectrum(q_n, b_n, boundary, level=0, cluster_tol=CLUSTER_TOL, nd_tol=1e-8) -> SpectrumReport:
    """Neumann-Dirichlet spectrum: per Neumann cluster, the dimension of
    the boundary-vanishing subspace of the eigenspace.

    Computed from eigenspace bases (well conditioned); the stacked-kernel
    formulation is kept in the tests as an independent oracle.  The
    boundary-evaluation block of a pure N-D cluster is entirely at noise
    level, so its singular values are thresholded against the eigenvector
    scale, not only against each other."""
    q_n = np.asarray(q_n, dtype=float)
    lam, vecs = generalized_sym_eig(q_n, b_n)
    clusters = cluster_eigenvalues(lam, cluster_tol)
    boundary = list(boundary)
    out_values = []
    out_clusters = []
    pos = 0
    for value, mult in clusters:
        block = vecs[:, pos : pos + mult]
        pos += mult
        if not boundary:
            dim = 0
        else:
            s = np.linalg.svd(block[boundary, :], compute_uv=False)
            cut = nd_tol * max(1.0, float(np.max(np.abs(block))), s[0] if s.size else 0.0)
            dim = int(np.sum(s <= cut)) + max(0, mult - len(s))
        if dim > 0:
            out_clusters.append((value, dim))
            out_values.extend([value] * dim)
    return SpectrumReport(level, "nd", np.array(out_values), out_clusters)


def nd_kernel_dimension(q_n, b_n, boundary, lam):
    """Oracle: dim ker of the stacked matrix [Q + lam I_b ; boundary rows]."""
    q_n = np.asarray(q_n, dtype=complex)
    n = q_n.shape[0]
    rows = np.zeros((len(boundary), n))
    for r, b in enumerate(boundary):
        rows[r, b] = 1.0
    stacked = np.vstack([q_n + lam * np.diag(np.asarray(b_n, dtype=float)), rows])
    return kernel_basis(stacked, tol=1e-7).dim


def char_det(q_n, b_n, lam, condition="neumann", boundary=()):
    """det(Q + lam I_b), or its interior principal minor for 'dirichlet'.

    The dense reference for small matrices: the tests and the determinant
    bridge compare against it.  The product is formed in floating point and
    overflows once |V| is about 400 or more; green_proxy takes log|det|
    from the spectrum instead."""
    q_n = np.asarray(q_n, dtype=complex)
    b_n = np.asarray(b_n, dtype=float)
    m = q_n + lam * np.diag(b_n)
    if condition == "dirichlet":
        interior = [i for i in range(q_n.shape[0]) if i not in set(boundary)]
        if not interior:
            return 1.0 + 0j
        m = m[np.ix_(interior, interior)]
    elif condition != "neumann":
        raise ValueError("condition must be 'neumann' or 'dirichlet'")
    return complex(np.linalg.det(m))


def level_spectrum(structure, rho, b, n, condition="neumann") -> SpectrumReport:
    """Assemble level n of (rho, b) and take the requested spectrum."""
    q_n = assemble_network(structure, rho, n).real
    b_n = assemble_measure(structure, np.asarray(b, dtype=float), n)
    boundary = build_lattice(structure, n).boundary
    if condition == "neumann":
        return neumann_spectrum(q_n, b_n, n)
    if condition == "dirichlet":
        return dirichlet_spectrum(q_n, b_n, boundary, n)
    if condition == "nd":
        return nd_spectrum(q_n, b_n, boundary, n)
    raise ValueError(f"unknown condition {condition!r}")


def dos_histogram(reports, num_copies, bins, lo=None, hi=None):
    """Per-level histograms with mass 1/N^n per eigenvalue.

    Returns (edges, masses) where masses has one row per report."""
    if bins < 1:
        raise ValueError("need at least one bin")
    reports = list(reports)
    allvals = np.concatenate([r.eigenvalues for r in reports if r.count]) if reports else np.zeros(0)
    if lo is None:
        lo = float(allvals.min()) if allvals.size else 0.0
    if hi is None:
        hi = float(allvals.max()) if allvals.size else 1.0
    if hi <= lo:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, bins + 1)
    masses = np.zeros((len(reports), bins))
    for r_i, rep in enumerate(reports):
        if rep.count:
            counts, _ = np.histogram(rep.eigenvalues, bins=edges)
            masses[r_i] = counts / float(num_copies**rep.level)
    return edges, masses


def green_proxy(q_n, b_n, lam_grid, num_copies, level, eps=1e-6):
    """(1/N^n) ln |det(Q + (lam + i eps) I_b)| over a real grid.

    The finite-level stand-in for the Green potential along the spectral
    curve; eps keeps logs finite across eigenvalues.  One pencil eigensolve
    gives every grid value through

        det(Q + z I_b) = prod_i b_i * prod_k (z - lam_k),   z = lam + i eps,

    summed as logs, so the value stays finite where the determinant itself
    overflows."""
    lam = generalized_sym_eigvals(q_n, b_n)
    dist = np.hypot(np.asarray(lam_grid, dtype=float)[:, None] - lam[None, :], eps)
    log_det = np.log(dist).sum(axis=1) + np.log(np.asarray(b_n, dtype=float)).sum()
    return log_det / num_copies**level
