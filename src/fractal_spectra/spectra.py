"""Spectra of the lattice operators under the three boundary conditions.

The operator at level n is H = -I_b^{-1} Q for the assembled form Q and
measure b: eigenvalues solve (Q + lam I_b) f = 0.  Dirichlet restricts to
functions vanishing on the boundary (interior principal submatrices);
Neumann-Dirichlet eigenfunctions satisfy both conditions at once and are
counted per eigenvalue by the dimension of the boundary-vanishing part of
the Neumann eigenspace.

Above the crossover `CHAIN_MIN_VERTICES`, and when the structure satisfies
hypothesis H, level spectra come from the Schur chain instead of a dense
eigensolve: one renormalization step per level, each inverting only the
interior block of a level-1 assembly, counts eigenvalues exactly through
Haynsworth inertia additivity, and bisection on those counts isolates every
distinct eigenvalue with its multiplicity (spectral decimation, carried
through Sabot's map).

Sign convention: Q in the network cone gives nonpositive spectra
(report with flipped sign for Laplacian-style output via the CLI flag).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidStructure, SingularInterior
from .linalg import _pencil, generalized_sym_eig, generalized_sym_eigvals, kernel_basis
from .network import ElectricalNetwork, q_matrix
from .selfsim import (
    _weak_indices,
    assemble_measure,
    assemble_network,
    build_lattice,
    num_vertices,
)

# Relative clustering width: eigenvalues this close (times spectral width)
# count as one cluster, so multiplicities survive floating-point splits.
CLUSTER_TOL = 1e-7
# Neumann-Dirichlet threshold: a boundary singular value of an eigenspace
# basis at most this fraction of the basis vectors' scale counts as zero.
ND_TOL = 1e-8

# Schur-chain spectra.  Each constant states its scale.
#
# Final bisection width, relative to the width of the bracket that holds
# the whole spectrum (a small multiple of the spectral width): each distinct
# eigenvalue is located to about this fraction of it.
BISECT_TOL = 1e-12
# An interior block with an eigenvalue of at most this fraction of the
# largest entry of its rows in the level-1 assembly is treated as singular
# (x sits on a pole of the trace map), and the point is moved inside its
# bracket.  A few ulps: above it every sign is resolved.
PIVOT_TOL = 8 * np.finfo(float).eps
# Interior directions with an eigenvalue d of at most this fraction of the
# same scale are not eliminated but carried to the next step as extra
# coordinates.  Eliminating a direction adds g g^T / d, rounded to
# eps |g|^2 / |d|, so each step rounds every other one to about
# eps / NEAR_TOL (2e-12) of the scale, and counts near a pole of the trace
# map stay exact.
NEAR_TOL = 1e-4
# Where Neumann-Dirichlet multiplicities are read, kept eigenvalues of one
# sign closer than this fraction of the same scale (and than a quarter of
# their size) count as one degenerate cluster, whose directions uncoupled
# from the boundary are eliminated: a few thousand ulps, the rounding of
# eigenvalues that symmetry makes equal.
DEGENERATE_TOL = 1e-12
# NEAR_TOL where Neumann-Dirichlet multiplicities are read from the last
# cell matrix: an eigenfunction whose eigenvalue crosses zero in a kept
# direction shows its boundary values, so keeping more makes sure that
# every crossing within the bracket of an eigenvalue is kept.  Eliminating
# a direction above it scales slopes of later steps by at most 1 / ND_NEAR_TOL.
ND_NEAR_TOL = 1e-2
# Crossover: the chain takes over from the dense eigensolve at this many
# level-n vertices.  Measured on a 2-core host, one thread, seconds for
# Neumann / Dirichlet / Neumann-Dirichlet (table in CHANGES.md): below it
# the chain loses (gamma_bar level 5, 729 vertices: 0.16-0.22 against
# 0.06-0.11 dense), at 1025 (interval level 10) the two are about even
# (0.18-0.24 against 0.20-0.42), above it the chain wins (Sierpinski
# level 6, 1095: 0.14-0.15 against 0.22-0.39; gamma_bar level 6, 2187:
# 0.39-0.48 against 1.50-2.61).
CHAIN_MIN_VERTICES = 1050


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
        """Counting function x -> #{lam <= x} (unnormalized).

        An eigenvalue within the width tolerance of x counts as <= x, so a
        point on a degenerate eigenvalue counts its whole cluster, however
        its copies are rounded."""
        tol = self._width_tol(None)
        return np.searchsorted(np.sort(self.eigenvalues), np.asarray(xs) + tol, side="right")

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
    """All eigenvalues lam with (Q + lam I_b) f = 0."""
    lam = generalized_sym_eigvals(q_n, b_n)
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


def nd_spectrum(q_n, b_n, boundary, level=0, cluster_tol=CLUSTER_TOL, nd_tol=ND_TOL) -> SpectrumReport:
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

# ---------------------------------------------------------------------------
# Spectrum slicing along the Schur chain
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _ChainPlan:
    """Level-1 assembly of a structure as index data: ``scatter`` maps the
    flattened cell matrix to the flattened level-1 matrix, copy weights
    included; ``weak`` is the weak network on the level-1 vertices, which
    are numbered boundary first; ``copies`` holds (w_i, copy map) per copy."""

    cell_size: int
    num_copies: int
    num_vertices: int
    gamma: float
    scatter: np.ndarray
    weak: np.ndarray
    copies: tuple


def _chain_plan(structure):
    ok, gamma = structure.hypothesis_h()
    if not ok:
        raise InvalidStructure("the Schur chain needs hypothesis H (w_i / b_i constant)")
    if "chain_plan" not in structure._cache:
        lat = build_lattice(structure, 1)
        k, v = structure.cell_size, lat.num_vertices
        scatter = np.zeros((k * k, v * v))
        copies = tuple(zip(structure.copy_weights(), lat.copy_maps))
        for w, cm in copies:
            scatter[np.arange(k * k), (cm[:, None] * v + cm[None, :]).ravel()] += w
        weak = np.zeros((v, v))
        if structure.weak is not None:
            idx = _weak_indices(structure, lat)
            np.add.at(weak, (idx[:, None], idx[None, :]), structure.weak_q())
        structure._cache["chain_plan"] = _ChainPlan(
            k, structure.num_copies, v, gamma, scatter, weak, copies)
    return structure._cache["chain_plan"]


def _assemble_step(plan, e, weak=True):
    """Level-1 assembly of the stack of cell matrices `e` (with the weak
    network if `weak`).  Indices past the cell size in `e` are extra
    interior coordinates private to the cell; each copy brings its own,
    placed after the level-1 vertices."""
    k, v = plan.cell_size, plan.num_vertices
    p, r = e.shape[0], e.shape[1] - k
    a = np.zeros((p, v + plan.num_copies * r, v + plan.num_copies * r))
    a[:, :v, :v] = (e[:, :k, :k].reshape(p, k * k) @ plan.scatter).reshape(p, v, v)
    if weak:
        a[:, :v, :v] += plan.weak
    for i, (w, cm) in enumerate(plan.copies if r else ()):
        s = slice(v + i * r, v + (i + 1) * r)
        a[:, cm, s] = w * e[:, :k, k:]
        a[:, s, cm] = w * e[:, k:, :k]
        a[:, s, s] = w * e[:, k:, k:]
    return a


def _sym(m):
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def _clusters(d, spread):
    """Cuts that split kept eigenvalues d (negative first, then positive,
    each in order of |d|) into runs of one sign whose neighbours lie within
    `spread` (and a quarter of their size); spread None takes whole signs."""
    joined = (d[1:] > 0) == (d[:-1] > 0)
    if spread is not None:
        joined &= np.abs(np.diff(d)) <= np.minimum(spread, 0.25 * np.abs(d[:-1]))
    return np.flatnonzero(~joined) + 1


def _keep_near(t, dt, k, cuts):
    """Reduce the stack of cell matrices t = [[S, G], [G^T, diag(d)]],
    whose extra coordinates are nearly singular interior directions split
    into clusters of one sign at `cuts` (the same for the whole stack), and
    their derivatives dt.

    In a cluster with more than k directions, a rotation by the right
    singular vectors of its boundary coupling leaves all but k of them
    uncoupled from the boundary up to rounding; those are eliminated, which
    is exact for the counts and loses nothing, as the cluster's block is
    definite.  Within a degenerate cluster they are eigenvectors, so each
    eigenfunction stays whole.  Returns the reduced matrices, their
    derivatives, the numbers of negatives eliminated and kept, and the
    derivative of log|det| of the eliminated block."""
    p, size = t.shape[:2]
    rot = np.tile(np.eye(size), (p, 1, 1))
    drop, eliminated, kept = [], np.zeros(p, dtype=np.int64), np.zeros(p, dtype=np.int64)
    for sel in np.split(np.arange(k, size), cuts):
        negative = t[:, sel[0], sel[0]] < 0
        if sel.size > k:
            rot[:, sel[:, None], sel] = np.swapaxes(np.linalg.svd(t[:, :k, sel])[2], 1, 2)
            drop.extend(sel[k:])
            eliminated += negative * (sel.size - k)
        kept += negative * min(sel.size, k)
    if not drop:
        return t, dt, eliminated, kept, np.zeros(p)
    keep = np.flatnonzero(~np.isin(np.arange(size), drop))
    t = np.swapaxes(rot, 1, 2) @ t @ rot
    dt = np.swapaxes(rot, 1, 2) @ dt @ rot
    z, dz = t[:, drop][:, :, drop], dt[:, drop][:, :, drop]
    h = np.linalg.solve(z, t[:, drop][:, :, keep])
    out = _sym(t[:, keep][:, :, keep] - t[:, keep][:, :, drop] @ h)
    dout = _sym(dt[:, keep][:, :, keep] - 2 * dt[:, keep][:, :, drop] @ h
                + np.swapaxes(h, 1, 2) @ dz @ h)
    rate = np.trace(np.linalg.solve(z, dz), axis1=1, axis2=2)
    return out, dout, eliminated, kept, rate


def _eliminate(a, da, k, near_tol, exact_kernels=False):
    """Eliminate the interior (indices k and up) of each symmetric matrix in
    the stack `a`, whose derivative in x is `da`, through an
    eigendecomposition of the interior block.

    Interior directions whose eigenvalue is within near_tol of singular (on
    the scale of the largest entry of the interior rows) are kept as extra
    coordinates of the new cell matrix, so that a point near a pole of the
    trace map loses no precision; a point with more than k of them goes
    through _keep_near, by sign or, with `exact_kernels`, by degenerate
    clusters.  Returns (cells, eliminated, kept, rate, singular):
    the new cell matrices as (indices, stack, derivative stack) triples, the
    numbers of negative eigenvalues eliminated and kept, the derivative of
    log|det| of the eliminated part, and whether the interior block was
    singular (void results)."""
    p, m = a.shape[0], a.shape[1] - k
    big = np.abs(a[:, k:, :]).max(axis=(1, 2))[:, None]
    d, u = np.linalg.eigh(a[:, k:, k:])
    singular = (np.abs(d) <= PIVOT_TOL * big).any(axis=1)
    near = (np.abs(d) <= near_tol * big) & ~singular[:, None]
    d = np.where(singular[:, None], 1.0, d)
    far = np.where(near, 0.0, 1.0 / np.where(near, 1.0, d))
    # In the eigenbasis of the interior block, the boundary coupling is g
    # with derivative dg, and the interior block diag(d) has derivative dd;
    # eliminating the far directions F leaves A_bb - g_F D_F^-1 g_F^T.
    g = a[:, :k, k:] @ u
    dg = da[:, :k, k:] @ u
    dd = np.swapaxes(u, 1, 2) @ da[:, k:, k:] @ u
    gf = g * far[:, None, :]
    schur = _sym(a[:, :k, :k] - gf @ np.swapaxes(g, 1, 2))
    dschur = _sym(da[:, :k, :k] - 2 * dg @ np.swapaxes(gf, 1, 2) + gf @ dd @ np.swapaxes(gf, 1, 2))
    rate = np.sum(far * np.diagonal(dd, axis1=1, axis2=2), axis=1)
    eliminated = np.count_nonzero((d < 0) & ~near, axis=1)
    kept = np.zeros(p, dtype=np.int64)
    r = np.count_nonzero(near, axis=1)
    plain = np.flatnonzero(r == 0)
    cells = [(plain, schur[plain], dschur[plain])]
    wide = np.flatnonzero(r > 0)
    if not wide.size:
        return cells, eliminated, kept, rate, singular
    # The other points keep their near directions N as extra coordinates:
    # [[S, g_N], [g_N^T, diag(d_N)]], with derivative
    # [[dS, dg_N - g_F D_F^-1 dd_FN], [., dd_NN]].
    g, dg, dd, d, gf = g[wide], dg[wide], dd[wide], d[wide], gf[wide]
    full = np.zeros((wide.size, k + m, k + m))
    full[:, :k, :k] = schur[wide]
    full[:, :k, k:] = g
    full[:, k:, :k] = np.swapaxes(g, 1, 2)
    full[:, range(k, k + m), range(k, k + m)] = d
    dfull = np.zeros_like(full)
    dfull[:, :k, :k] = dschur[wide]
    dfull[:, :k, k:] = dg - gf @ dd
    dfull[:, k:, :k] = np.swapaxes(dfull[:, :k, k:], 1, 2)
    dfull[:, k:, k:] = dd
    # New cell matrices of the other points: the boundary, then the near
    # directions, negative first, each in order of |d|.
    order = np.lexsort((np.abs(d), d > 0, ~near[wide]), axis=-1)
    cols = np.concatenate([np.broadcast_to(np.arange(k), (wide.size, k)), k + order], axis=1)
    full = np.take_along_axis(np.take_along_axis(full, cols[:, :, None], 1), cols[:, None, :], 2)
    dfull = np.take_along_axis(np.take_along_axis(dfull, cols[:, :, None], 1), cols[:, None, :], 2)
    few = r[wide] <= k
    if few.any():
        # Keep every near direction, padded with uncoupled positive entries
        # (constant, so their derivative is 0), which change no count.
        width = k + int(r[wide[few]].max())
        used = np.arange(width) < k + r[wide[few], None]
        pair = used[:, :, None] & used[:, None, :]
        e = np.where(pair, full[few, :width, :width],
                     np.where(np.eye(width, dtype=bool), big[wide[few], :, None], 0.0))
        kept[wide[few]] = np.count_nonzero(np.diagonal(e, axis1=1, axis2=2)[:, k:] < 0, axis=1)
        cells.append((wide[few], e, dfull[few, :width, :width] * pair))
    # The rest by their clusters, one stack per pattern: for the counts each
    # sign is a cluster; for exact kernels, each degenerate run.
    patterns = {}
    for j in np.flatnonzero(~few):
        i = wide[j]
        cuts = _clusters(np.diagonal(full[j])[k:k + r[i]],
                         DEGENERATE_TOL * big[i, 0] if exact_kernels else None)
        patterns.setdefault((r[i], tuple(cuts)), []).append(j)
    for (size, cuts), js in patterns.items():
        js = np.array(js)
        cell, dcell, neg, kept[wide[js]], extra = _keep_near(
            full[js, :k + size, :k + size], dfull[js, :k + size, :k + size], k, list(cuts))
        eliminated[wide[js]] += neg
        rate[wide[js]] += extra
        cells.append((wide[js], cell, dcell))
    return cells, eliminated, kept, rate, singular


def _merge(cells, k):
    """Fewer stacks: cell matrices without extra coordinates, then the rest
    by size class (r extra coordinates with the same bit length), each
    padded to one size with uncoupled positive extra coordinates."""
    classes = {}
    for i, e, de in cells:
        if i.size:
            classes.setdefault((e.shape[1] - k).bit_length(), []).append((i, e, de))
    out = []
    for group in classes.values():
        size = max(e.shape[1] for _, e, _ in group)
        stack = np.zeros((sum(i.size for i, _, _ in group), size, size))
        dstack = np.zeros_like(stack)
        pos = 0
        for i, e, de in group:
            m = e.shape[1]
            stack[pos:pos + i.size, :m, :m] = e
            stack[pos:pos + i.size, range(m, size), range(m, size)] = np.abs(e).max(axis=(1, 2))[:, None]
            dstack[pos:pos + i.size, :m, :m] = de
            pos += i.size
        out.append((np.concatenate([i for i, _, _ in group]), stack, dstack))
    return out


def _log_det_rate(e, de):
    """d/dx log|det e| = sum_i (v_i^T de v_i) / w_i over the eigenpairs of
    each matrix of the stack, and the eigenvalues; inf where e is singular."""
    w, v = np.linalg.eigh(e)
    dw = np.sum(v * (de @ v), axis=1)
    rate = np.sum(np.divide(dw, w, out=np.zeros_like(w), where=w != 0), axis=1)
    return np.where((w == 0).any(axis=1), np.inf, rate), w


def _chain(plan, q, b, n, xs, tops=False):
    """One pass of the Schur chain at every x.

    Returns (counts, rates, singular, cells): counts[:, 0] is the Dirichlet
    count #{lam > x}, counts[:, 1] the Neumann count and counts[:, 2] the
    part of both taken before the last cell matrix; rates[:, 0] and
    rates[:, 1] are d/dx log|det| of the level-n Dirichlet and Neumann
    matrices, sum_k 1 / (x - lam_k); singular marks points whose results are
    void because an interior block was singular; if `tops` is set, cells
    holds per point the last cell matrix (boundary first, then kept
    interior directions) and its derivative in x, and ND_NEAR_TOL, not
    NEAR_TOL, sets which directions are kept."""
    k, ncopies = plan.cell_size, plan.num_copies
    p = xs.size
    counts = np.zeros((p, 3), dtype=np.int64)
    rates = np.zeros((p, 2))
    kept = np.zeros(p, dtype=np.int64)
    singular = np.zeros(p, dtype=bool)
    slope = np.broadcast_to(np.diag(b) / plan.gamma**n, (p, k, k))
    cells = [(np.arange(p), q + xs[:, None, None] * slope, slope)]
    for m in range(n):
        nxt = []
        for idx, e, de in cells:
            sub, eliminated, kept[idx], rate, sing = _eliminate(
                _assemble_step(plan, e), _assemble_step(plan, de, weak=False), k,
                ND_NEAR_TOL if tops else NEAR_TOL, tops)
            singular[idx] |= sing
            counts[idx, 2] += ncopies ** (n - 1 - m) * eliminated
            rates[idx, 0] += ncopies ** (n - 1 - m) * rate
            nxt.extend((idx[j], c, dc) for j, c, dc in sub)
        cells = _merge(nxt, k)
    counts[:, 0] = counts[:, 2] + kept
    rates[:, 1] = rates[:, 0]
    top = [None] * p if tops else None
    for idx, e, de in cells:
        rate, w = _log_det_rate(e, de)
        counts[idx, 1] = counts[idx, 2] + np.count_nonzero(w < 0, axis=1)
        rates[idx, 1] += rate
        if e.shape[1] > k:
            rates[idx, 0] += _log_det_rate(e[:, k:, k:], de[:, k:, k:])[0]
        for j, i in enumerate(idx if tops else ()):
            top[i] = (e[j], de[j])
    return counts, rates, singular, top



# Offsets, as fractions of the room above a point, tried in turn when the
# chain meets a singular interior block there.
_NUDGES = (0.25, 0.5, 0.375, 0.625, 0.125, 0.75, 0.0625, 0.875)


def _chain_counts_at(plan, q, b, n, xs, room, tops=False, strict=True):
    """_chain at every x, each moved up into (x, x + room) until no interior
    block is singular.  Returns (points used, counts, rates, last cell
    matrices, ok); a point still singular after every move raises
    SingularInterior, or with `strict` unset is marked not ok."""
    xs = np.array(xs, dtype=float)
    counts, rates, singular, top = _chain(plan, q, b, n, xs, tops)
    start = xs.copy()
    for frac in _NUDGES:
        if not singular.any():
            break
        idx = np.flatnonzero(singular)
        xs[idx] = start[idx] + frac * room[idx]
        counts[idx], rates[idx], singular[idx], sub = _chain(plan, q, b, n, xs[idx], tops)
        for j, i in enumerate(idx if tops else ()):
            top[i] = sub[j]
    if strict and singular.any():
        raise SingularInterior(f"interior block singular near x = {xs[singular][0]!r}")
    return xs, counts, rates, top, ~singular


def _cell_data(structure, rho, b):
    q = np.real(q_matrix(rho) if isinstance(rho, ElectricalNetwork) else np.asarray(rho))
    k = structure.cell_size
    if q.shape != (k, k):
        raise ValueError("Q must be a cell-sized square matrix")
    _pencil(q, b)  # symmetric, weights positive
    return q.astype(float), np.asarray(b, dtype=float)


def chain_spectrum(structure, rho, b, n, condition="neumann") -> SpectrumReport:
    """Level-n spectrum of (rho, b) by bisection on Schur-chain counts.

    Never assembles the level-n lattice.  Each distinct eigenvalue is
    isolated to BISECT_TOL of the bracket width and its multiplicity is the
    jump of the count across it.  Neumann-Dirichlet multiplicities come from
    the last cell matrix E at each eigenvalue: the level-n matrix is
    congruent to E plus eliminated directions that are nonsingular there,
    with the boundary values unchanged, so each Neumann cluster is the
    eliminated directions that cross zero (which vanish on the boundary)
    plus the kernel of E, and the Neumann-Dirichlet part is the cluster
    size less the rank of the kernel's boundary values (ND_TOL, as in
    nd_spectrum)."""
    if condition not in ("neumann", "dirichlet", "nd"):
        raise ValueError(f"unknown condition {condition!r}")
    plan = _chain_plan(structure)
    q, b = _cell_data(structure, rho, b)
    col = 0 if condition == "dirichlet" else 1
    total = num_vertices(structure, n) - (plan.cell_size if col == 0 else 0)
    if total == 0:
        return SpectrumReport(n, condition, np.zeros(0), [])

    def count(xs, room, tops=False, strict=True):
        xs = np.asarray(xs, dtype=float)
        return _chain_counts_at(plan, q, b, n, xs, np.broadcast_to(room, xs.shape), tops, strict)

    # Bracket the spectrum, starting from the cell's Gershgorin scale.
    span = float(np.max(np.abs(q).sum(axis=1) / b)) * plan.gamma**n or 1.0
    lo, hi = -span, span
    for _ in range(64):
        tol = BISECT_TOL * (hi - lo)
        _, ends, rates, _, _ = count([lo, hi], tol)
        if ends[0, col] == total and ends[1, col] == 0:
            break
        lo, hi = (lo if ends[0, col] == total else 2 * lo), (hi if ends[1, col] == 0 else 2 * hi)
    else:
        raise SingularInterior("could not bracket the spectrum")
    # Each round cuts every open interval (a, b], with count jump m across
    # it.  Where the Newton steps x - m / rate(x) from both ends agree to a
    # quarter of the interval (rate = d/dx log|det|, about m / (x - lam)
    # near a cluster of m eigenvalues at lam), or m is 1, it is cut tol / 4
    # either side of the shorter step's target.  Where they agree it is also
    # halved, unless it already halved in the last round; elsewhere it is
    # cut into min(m + 1, 16) equal parts.  The parts that hold eigenvalues
    # stay open until narrower than tol.
    a, bb, ca, cb = np.array([lo]), np.array([hi]), ends[:1], ends[1:]
    ra, rb = rates[:1, col], rates[1:, col]
    last = np.array([np.inf])  # each interval's width a round earlier
    done = []
    while a.size:
        fin = bb - a <= tol
        done.append((a[fin], bb[fin], ca[fin], cb[fin], ra[fin], rb[fin]))
        a, bb, ca, cb, ra, rb, last = (v[~fin] for v in (a, bb, ca, cb, ra, rb, last))
        if not a.size:
            break
        m = ca[:, col] - cb[:, col]
        r = np.column_stack([ra, rb])
        step = np.divide(m[:, None], r, out=np.full_like(r, np.inf), where=r != 0)
        target = np.column_stack([a, bb]) - step
        newton = np.where(np.abs(step[:, 0]) < np.abs(step[:, 1]), target[:, 0], target[:, 1])
        newton = newton[:, None] + 0.25 * tol * np.array([-1.0, 1.0])
        newton[(newton <= a[:, None]) | (newton >= bb[:, None])] = np.nan
        agree = np.abs(target[:, 0] - target[:, 1]) <= 0.25 * (bb - a)
        halving = (bb - a <= 0.5 * last) & np.isfinite(newton).any(axis=1)
        parts = np.where(agree, np.where(halving, 1, 2), np.clip(m + 1, 2, 16))
        cuts = np.arange(1, 16) / parts[:, None]
        x = np.column_stack([a[:, None] + (bb - a)[:, None] * np.where(cuts < 1, cuts, np.nan),
                             np.where((agree | (m == 1))[:, None], newton, np.nan)])
        x = np.column_stack([a, np.sort(x, axis=1), bb])  # unused points (nan) sort last
        x[np.isnan(x)] = np.broadcast_to(bb[:, None], x.shape)[np.isnan(x)]
        inner = x[:, 1:-1] < bb[:, None]
        xs, cs, rs, _, ok = count(x[:, 1:-1][inner], np.diff(x, axis=1)[:, 1:][inner], strict=False)
        cx = np.broadcast_to(cb[:, None], (a.size, x.shape[1], 3)).copy()
        rx = np.broadcast_to(rb[:, None], x.shape).copy()
        cx[:, 0], rx[:, 0] = ca, ra
        x[:, 1:-1][inner], cx[:, 1:-1][inner], rx[:, 1:-1][inner] = xs, cs, rs[:, col]
        # A point left on a pole takes the place and values of the next one;
        # an interval whose every point is, cannot be resolved further (its
        # width is then that of the pole's rounding zone) and is done.
        bad = np.zeros(x.shape, dtype=bool)
        bad[:, 1:-1][inner] = ~ok
        stuck = bad[:, 1:-1].sum(axis=1) == inner.sum(axis=1)
        done.append((a[stuck], bb[stuck], ca[stuck], cb[stuck], ra[stuck], rb[stuck]))
        for j in range(x.shape[1] - 2, 0, -1):
            x[bad[:, j], j], cx[bad[:, j], j], rx[bad[:, j], j] = (
                x[bad[:, j], j + 1], cx[bad[:, j], j + 1], rx[bad[:, j], j + 1])
        i, j = np.nonzero((cx[:, :-1, col] > cx[:, 1:, col]) & ~stuck[:, None])
        last = (bb - a)[i]
        a, bb, ca, cb, ra, rb = x[i, j], x[i, j + 1], cx[i, j], cx[i, j + 1], rx[i, j], rx[i, j + 1]
    a, bb, ca, cb, ra, rb = (np.concatenate(parts) for parts in zip(*done))
    order = np.argsort(a)
    a, bb, ca, cb, ra, rb = a[order], bb[order], ca[order], cb[order], ra[order], rb[order]
    # A point that lands on an eigenvalue splits it between two finished
    # intervals that share that endpoint: join them.
    first = np.flatnonzero(np.concatenate([[True], a[1:] != bb[:-1]]))
    last = np.concatenate([first[1:], [a.size]]) - 1
    a, bb, ca, cb, ra, rb = a[first], bb[last], ca[first], cb[last], ra[first], rb[last]
    values = 0.5 * (a + bb)
    mult = ca[:, col] - cb[:, col]
    # Group distinct eigenvalues by the rule of cluster_eigenvalues (gaps of
    # at most CLUSTER_TOL of the spectral width), so both paths list the
    # same clusters.
    gap = CLUSTER_TOL * (float(values[-1] - values[0]) or 1.0)
    group = np.concatenate([[0], np.cumsum(np.diff(values) > gap)])
    size = np.bincount(group, mult)
    values = np.bincount(group, values * mult) / size
    if condition == "nd":
        # Boundary values of the kernel of the last cell matrix E at each
        # distinct eigenvalue, ranked over each whole group, as nd_spectrum
        # takes the boundary-vanishing part of each whole cluster.  E is
        # read at the Newton target inside the eigenvalue's bracket (a, b],
        # where a kernel branch is an eigenvalue w of E with slope
        # s = y^T E' y > 0 that reaches 0 in the bracket (widened by its
        # width on each side, as the counts and E can disagree by
        # rounding); the eigenfunction its eigenvector y extends to has
        # |f|_b^2 = s, which scales y to unit b-norm.
        # A Neumann-Dirichlet eigenfunction is also a Dirichlet one, so only
        # groups whose span holds a Dirichlet eigenvalue are read; the
        # others have none.
        k = plan.cell_size
        first = np.flatnonzero(np.concatenate([[True], np.diff(group) > 0]))
        last = np.concatenate([first[1:], [group.size]]) - 1
        shared = ca[first, 0] > cb[last, 0]
        read = np.flatnonzero(shared[group])
        kernels = {g: [] for g in np.flatnonzero(shared)}
        if read.size:
            a, bb, mult, group = a[read], bb[read], mult[read], group[read]
            r = np.column_stack([ra[read], rb[read]])
            step = np.divide(mult[:, None], r, out=np.full_like(r, np.inf), where=r != 0)
            x = np.where(np.abs(step[:, 0]) < np.abs(step[:, 1]), a - step[:, 0], bb - step[:, 1])
            x = np.where((x > a) & (x < bb), x, 0.5 * (a + bb))
            xs, _, _, tops, ok = count(x, 0.5 * (bb - x), tops=True, strict=False)
            if not ok.all():
                # Read at the midpoint where that point sits on a pole.
                redo = np.flatnonzero(~ok)
                xs[redo], _, _, sub, _ = count(0.5 * (a + bb)[redo], 0.5 * (bb - a)[redo], tops=True)
                for j, top in zip(redo, sub):
                    tops[j] = top
            sizes = np.array([e.shape[0] for e, _ in tops], dtype=int)
            for dim in np.unique(sizes):
                js = np.flatnonzero(sizes == dim)
                w, vec = np.linalg.eigh(np.stack([tops[j][0] for j in js]))
                slope = np.sum(vec * (np.stack([tops[j][1] for j in js]) @ vec), axis=1)
                cross = xs[js, None] - np.divide(w, slope, out=np.full_like(w, np.inf), where=slope > 0)
                branch = np.abs(cross - 0.5 * (a + bb)[js, None]) <= 1.5 * (bb - a)[js, None]
                for i, j in enumerate(js):
                    kernels[group[j]].append(vec[i, :k, branch[i]].T / np.sqrt(slope[i, branch[i]]))
        for g, parts in kernels.items():
            sv = np.linalg.svd(np.hstack(parts), compute_uv=False)
            size[g] -= np.count_nonzero(sv > ND_TOL * max(1.0, sv[0] if sv.size else 0.0))
        size[~shared] = 0
    keep = size > 0
    values, size = values[keep], size[keep].astype(int)
    clusters = [(float(val), int(m)) for val, m in zip(values, size)]
    return SpectrumReport(n, condition, np.repeat(values, size), clusters)


def level_spectrum(structure, rho, b, n, condition="neumann") -> SpectrumReport:
    """Level-n spectrum of (rho, b) under the requested boundary condition.

    From the Schur chain (chain_spectrum) when the structure satisfies
    hypothesis H and the lattice has at least CHAIN_MIN_VERTICES vertices;
    otherwise level n is assembled and solved densely."""
    if structure.hypothesis_h()[0] and num_vertices(structure, n) >= CHAIN_MIN_VERTICES:
        return chain_spectrum(structure, rho, b, n, condition)
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
