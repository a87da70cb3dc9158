"""Spectra of the lattice operators under the three boundary conditions.

The operator at level n is H = -I_b^{-1} Q for the assembled form Q and
measure b: eigenvalues solve (Q + lam I_b) f = 0.  Dirichlet restricts to
functions vanishing on the boundary (interior principal submatrices);
Neumann-Dirichlet eigenfunctions satisfy both conditions at once and are
counted per eigenvalue by the dimension of the boundary-vanishing part of
the Neumann eigenspace: its size less the rank of the boundary values of
its b-unit eigenfunctions, ranked by one rule (_boundary_ranks) on the
dense path and on the matrix chain (the pencil line reads the same
dimension from the trace, below).

Above the crossover of the chain's engine (`LINE_MIN_VERTICES` on the
pencil line, `CHAIN_MIN_VERTICES` otherwise), and when the structure
satisfies hypothesis H, level spectra come from the Schur chain instead of
a dense eigensolve: one renormalization step per level, each inverting only the
interior block of a level-1 assembly, counts eigenvalues exactly through
Haynsworth inertia additivity, and bisection on those counts isolates every
distinct eigenvalue with its multiplicity (spectral decimation, carried
through Sabot's map).

The chain counts with one of two engines, chosen by what the structure is,
never by a setting.  Where a step sends the pencil plane span{q, D}
(D = diag(b)) into itself and there is no weak network, the cell matrix
stays alpha q + beta D and a step is a rational map of the pair
(alpha, beta): the count passes carry two numbers per point (the line
engine, _line_chain).  There the eigenvalues are also known in advance:
each is a preimage, under n steps of y = beta / alpha, of a pole or of a
zero of the step (_line_candidates), so one count pass, at the bracket's
ends and at each candidate +- resolution, certifies them all, and
bisection only finds what no candidate catches.  Near a pole where the
step is critical the line also holds each point in two parts, a pole's
orbit and a small offset, so the signs it needs there survive rounding.
Weak networks (whose step is not homogeneous) and conductances that
leave the plane take the matrix chain, which carries a stack of cell
matrices; off the line it also reads the Neumann-Dirichlet multiplicities,
and it takes the rare points whose signs the line still cannot resolve.
On the line the Neumann-Dirichlet multiplicities come from the trace's
residue: nd(lam) = mult_D(lam) less its rank at lam, read from the line's
pairs at a bracket's two ends (_line_residue_ranks).

Sign convention: Q in the network cone gives nonpositive spectra
(report with flipped sign for Laplacian-style output via the CLI flag).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidStructure, ResidueUnresolved, SingularInterior
from .linalg import _pencil, generalized_sym_eig, generalized_sym_eigvals
from .network import ElectricalNetwork, q_matrix
from .selfsim import (
    assemble_measure,
    assemble_q,
    level_step,
    num_vertices,
)

# Relative clustering width: eigenvalues this close (times spectral width)
# count as one cluster, so multiplicities survive floating-point splits.
# Depth limit: the interval's end eigenvalues, 1 - cos(pi / 2^n) apart on
# a width of 2, join from level 13 on (two doubles).
CLUSTER_TOL = 1e-7
# Neumann-Dirichlet threshold: a singular value of the boundary values of a
# cluster's b-unit eigenfunctions at most this fraction of max(1, the
# largest) counts as zero (_boundary_ranks, on both paths).
ND_TOL = 1e-8
# On the pencil line (_line_residue_ranks), a pivot of the residue of the
# level-n trace at most this fraction of the largest counts as zero.  The
# pivots that vanish in exact arithmetic, largest over a level's brackets:
#   sierpinski  L5 7.3e-13  L10 2.3e-9  L12 5.8e-8  L13 3.2e-7  L14 4.2e-6
#               L15 1.2e-4  L16 2.8e-3
#   interval   L10 4.3e-14  L12 7.1e-12  L14 1.8e-9  L16 4.7e-7  L17 7.5e-6
# about 5x per level on the gasket (faster from L14), 16x on the interval
# from L11; the others round to 1 of the largest.  ND_TOL would cut too low
# from sierpinski L11 on.
RESIDUE_TOL = 1e-4
# A pivot of a pole's residue within this factor of RESIDUE_TOL, either
# side, is ranked by rounding, not by the residue: the read raises
# ResidueUnresolved.  The band (2.5e-5, 4e-4] of the largest holds no pivot
# through sierpinski L14 (the largest vanishing one is 6x below it) and
# interval L17; at sierpinski L15 it holds pivots of 3 brackets (up to
# 1.2e-4, above the cut), and at L16 of 479.  A
# narrower bracket would shrink the vanishing pivots, but at L15 the line
# leaves the midpoint of each of the five brackets with the largest ones
# unsure, and the matrix chain's pass at one such point took over 4 GB.
RESIDUE_MARGIN = 4.0

# Schur-chain spectra.  Each constant states its scale.
#
# Double-precision rounding unit, the base of the ulp-sized tolerances.
EPS = float(np.finfo(float).eps)
# Final bisection width, relative to the width of the bracket that holds
# the whole spectrum (a small multiple of the spectral width): each distinct
# eigenvalue is located to about this fraction of it.  Depth limit: the
# interval's end gap 1 - cos(pi / 2^n) falls below it times its bracket
# [-2, 2] from level 21 on.  It cannot go much lower: next to a pole the
# matrix chain's counts are off within about 2e-12 of the width.
BISECT_TOL = 1e-12
# An interior eigenvalue (pivot) of at most this fraction of the largest
# entry of its rows in the level-1 assembly is zero up to rounding: x sits
# on a pole of the trace map.  Every interior block has a positive definite
# derivative in x, so each pivot rises through zero, and the count just
# above x is exact if such a pivot is read at x + 0: as positive, its
# magnitude kept, carried like the NEAR_TOL directions below.  A few ulps:
# above it every sign is resolved.
PIVOT_TOL = 8 * EPS
# Interior directions with an eigenvalue d of at most this fraction of the
# same scale are not eliminated but carried to the next step as extra
# coordinates.  Eliminating a direction adds g g^T / d, rounded to
# eps |g|^2 / |d|, so each step rounds every other one to about
# eps / NEAR_TOL (2e-12) of the scale, and counts near a pole of the trace
# map stay exact.
NEAR_TOL = 1e-4
# In every matrix-chain pass, kept eigenvalues of one sign closer than
# this fraction of the same scale (and than a quarter of their size) count
# as one degenerate run, whose directions uncoupled from the boundary are
# eliminated: a few thousand ulps, the rounding of eigenvalues that
# symmetry makes equal.  The same rounding decides, once
# per spectrum, whether a chain step keeps the pencil plane (_pencil_line)
# and which of its poles are critical, and on the line, where the image of
# a critical pole lands on a pivot's zero (_line_chain), and which leading
# coefficients of a candidate polynomial are rounding (_real_roots).
DEGENERATE_TOL = 1e-12
# Candidate eigenvalues on the pencil line (_line_candidates).  The counts
# certify every candidate and bisection finds what none catches, so these
# three change how many count passes a spectrum takes, never its result.
# All are fractions of the pencil's scale, the largest |nu| or |mu|.
#
# Two roots of one preimage polynomial closer than this fraction of the
# scale plus |root| are one real double root, at their mean: at a critical
# value a double root splits into a pair about sqrt(eps) apart, real or
# complex, and only exactly real roots are kept.
ROOT_REAL_TOL = 1e-6
# A real zero of the step's alpha numerator where the beta numerator is at
# most this fraction of the size of its terms is a common zero: the step's
# image vanishes there.
VANISH_TOL = 1e-8
# Candidates closer than this fraction of the scale are one, at their mean.
MERGE_TOL = 1e-12
# Crossovers: the chain takes over from the dense eigensolve at this many
# level-n vertices, one rule per engine.  Milliseconds on a 2-core host,
# one thread, chain / dense, for Neumann, Dirichlet and Neumann-Dirichlet
# (same multiplicity lists, values within 1e-12 of the width, everywhere).
#
# With cell matrices (the matrix chain), best-median of five runs
# alternating chain and dense in one session, three runs:
#   gamma_bar L5 (729)    121-129 / 44       110-160 / 45-53      137-142 / 71-82
#   gamma_bar L6 (2187)   229-263 / 1023-1031  229-257 / 1033-1100  288-328 / 1715-1728
CHAIN_MIN_VERTICES = 1050
# On the pencil line (_line_chain), one count pass per spectrum: median of
# five runs alternating chain and dense, range over three sessions:
#   sierpinski L3 (42)    1.6-2.7 / 0.4-0.7  1.4-2.6 / 0.4-0.8    3.8-6.9 / 0.7-1.3
#   sierpinski L4 (123)   1.9-3.2 / 1.0-1.6  1.8-3.0 / 1.0-1.7    5.5-10.4 / 1.7-2.8
#   sierpinski L5 (366)   2.3-4.1 / 8.1-12   2.2-3.7 / 9.0-13     7.8-8.4 / 12
#   sierpinski L6 (1095)  3.3-4.4 / 132-147  3.0-4.8 / 139-189    12-17 / 231-251
#   interval L7 (129)     4.0-6.8 / 1.7-2.7  3.8-6.5 / 1.8-2.8    9.0-16 / 2.5-4.2
#   interval L8 (257)     5.0-8.7 / 4.7-6.5  5.3-8.6 / 5.1-7.1    12-19 / 7.6-11
#   interval L9 (513)     6.8-7.4 / 18-19    6.9-7.3 / 19-20      18-29 / 35-47
#   interval L10 (1025)   13-18 / 121-140    14-17 / 145-164      28-39 / 224-254
# The line still loses at 257 vertices (N-D by about 1.5x; Neumann and
# Dirichlet about even) and wins from 366 on.
LINE_MIN_VERTICES = 300


@dataclass
class SpectrumReport:
    """A level's spectrum as its distinct eigenvalues `values` (ascending,
    float64) with their multiplicities `mult` (int64, each positive): the
    form spectral decimation gives, a few values for |V_n| eigenvalues."""

    level: int
    condition: str
    values: np.ndarray
    mult: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.mult = np.asarray(self.mult, dtype=np.int64)
        if self.values.shape != self.mult.shape or self.values.ndim != 1:
            raise ValueError("values and mult must be 1-D arrays of one length")
        if np.any(self.mult <= 0) or np.any(np.diff(self.values) <= 0):
            raise ValueError("values must ascend strictly, with positive multiplicities")
        if not np.isfinite(self.values).all():
            raise ValueError("values must be finite")

    @property
    def count(self):
        return int(self.mult.sum())

    @property
    def eigenvalues(self):
        """Every eigenvalue, each value repeated by its multiplicity: an
        array of `count` floats, O(|V_n|) memory (8 bytes per vertex; 170 MB
        at sierpinski level 15).  No reader in the library uses it."""
        return np.repeat(self.values, self.mult)

    @property
    def clusters(self):
        """The (value, multiplicity) pairs as a list of Python numbers."""
        return list(zip(self.values.tolist(), self.mult.tolist()))

    def cdf(self, xs):
        """Counting function x -> #{lam <= x} (unnormalized).

        A value within the width tolerance of x counts as <= x, so a point
        on a degenerate eigenvalue counts its whole multiplicity."""
        below = np.searchsorted(self.values, np.asarray(xs) + self._width_tol(), side="right")
        return np.concatenate([[0], np.cumsum(self.mult)])[below]

    def multiplicity_at(self, lam):
        """The multiplicity of the values within the width tolerance of lam."""
        return int(self.mult[np.abs(self.values - lam) <= self._width_tol()].sum())

    def _width_tol(self):
        if self.values.size == 0:
            return CLUSTER_TOL
        width = float(self.values[-1] - self.values[0]) or 1.0
        return 10 * CLUSTER_TOL * width


def _cluster_ids(values, tol):
    """Cluster index of each value of a nonempty ascending list: a cluster
    ends at every gap wider than tol times the width of the list."""
    gap = tol * (float(values[-1] - values[0]) or 1.0)
    return np.concatenate([[0], np.cumsum(np.diff(values) > gap)])


def cluster_eigenvalues(values):
    """Group an ascending eigenvalue list into runs at gaps wider than
    CLUSTER_TOL times its width: (means, multiplicities) as float64 and
    int64 arrays."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return np.zeros(0), np.zeros(0, dtype=np.int64)
    ids = _cluster_ids(values, CLUSTER_TOL)
    chunks = np.split(values, np.flatnonzero(np.diff(ids)) + 1)
    return np.array([chunk.mean() for chunk in chunks]), np.bincount(ids)


def neumann_spectrum(q_n, b_n, level=0) -> SpectrumReport:
    """All eigenvalues lam with (Q + lam I_b) f = 0."""
    lam = generalized_sym_eigvals(q_n, b_n)
    return _report(level, "neumann", *cluster_eigenvalues(lam))


def dirichlet_spectrum(q_n, b_n, boundary, level=0) -> SpectrumReport:
    """Spectrum of the pencil restricted to {f : f = 0 on the boundary}."""
    q_n, b_n = np.asarray(q_n), np.asarray(b_n)
    on_boundary = set(boundary)
    interior = [i for i in range(q_n.shape[0]) if i not in on_boundary]
    if not interior:
        lam = np.zeros(0)
    else:
        lam = generalized_sym_eigvals(q_n[np.ix_(interior, interior)], b_n[interior])
    return _report(level, "dirichlet", *cluster_eigenvalues(lam))


def nd_spectrum(q_n, b_n, boundary, level=0) -> SpectrumReport:
    """Neumann-Dirichlet spectrum: per Neumann cluster, the dimension of
    the boundary-vanishing subspace of the eigenspace, its size less the
    rank of its eigenvectors' boundary values (_boundary_ranks).  With no
    boundary that is every Neumann cluster.

    Computed from eigenspace bases (well conditioned); the stacked-kernel
    formulation is kept in the tests as an independent oracle."""
    lam, vecs = generalized_sym_eig(q_n, b_n)
    return _nd_report(lam, vecs, boundary, level)


def _nd_report(lam, vecs, boundary, level=0) -> SpectrumReport:
    """nd_spectrum from the pencil's eigenpairs (lam ascending, vecs
    b-orthonormal columns), at the Neumann cluster means."""
    values, mult = cluster_eigenvalues(lam)
    ranks = _boundary_ranks(vecs[list(boundary)].T, np.repeat(np.arange(mult.size), mult), mult.size)
    return _report(level, "nd", values, mult - ranks)


def _boundary_ranks(rows, labels, count):
    """The rank of each of `count` clusters' boundary values, the one
    Neumann-Dirichlet rank rule of the dense path and the chain.  Row i of
    `rows` holds the boundary values of a b-unit eigenfunction of cluster
    labels[i]; each cluster's rows, in the order given, are the columns of
    one matrix, ranked in batches of clusters with as many rows.  A singular
    value counts where it exceeds ND_TOL max(1, the largest): a cut that
    needs no interior entry, which the chain never forms."""
    ranks = np.zeros(count, dtype=np.int64)
    order = np.argsort(labels, kind="stable")
    rows, labels = rows[order], labels[order]
    g, begin, width = np.unique(labels, return_index=True, return_counts=True)
    for ncols in np.flatnonzero(np.bincount(width)):
        sel = width == ncols
        sv = np.linalg.svd(np.swapaxes(rows[begin[sel, None] + np.arange(ncols)], 1, 2), compute_uv=False)
        ranks[g[sel]] = np.count_nonzero(sv > ND_TOL * np.maximum(1.0, sv[:, :1]), axis=1)
    return ranks


def _report(level, condition, values, mult) -> SpectrumReport:
    """The SpectrumReport of distinct values with multiplicities, those of
    multiplicity 0 dropped."""
    keep = mult > 0
    return SpectrumReport(level, condition, values[keep], mult[keep])


def char_det(q_n, b_n, lam, condition="neumann", boundary=()):
    """det(Q + lam I_b), or its interior principal minor for 'dirichlet'.

    The dense reference for small matrices: the tests and the determinant
    bridge compare against it.  The product is formed in floating point and
    overflows once |V| is about 400 or more; green_proxy takes log|det|
    from the spectrum instead."""
    q_n = np.asarray(q_n, dtype=complex)
    m = q_n + lam * np.diag(np.asarray(b_n))
    if condition == "dirichlet":
        on_boundary = set(boundary)
        interior = [i for i in range(q_n.shape[0]) if i not in on_boundary]
        if not interior:
            return 1.0 + 0j
        m = m[np.ix_(interior, interior)]
    elif condition != "neumann":
        raise ValueError("condition must be 'neumann' or 'dirichlet'")
    return complex(np.linalg.det(m))

# ---------------------------------------------------------------------------
# Spectrum slicing along the Schur chain
# ---------------------------------------------------------------------------

def _chain_plan(structure):
    """The structure's LevelStep, which the chain runs; it needs hypothesis H."""
    step = level_step(structure)
    if step.gamma is None:
        raise InvalidStructure("the Schur chain needs hypothesis H (w_i / b_i constant)")
    return step


@dataclass(frozen=True)
class _PencilLine:
    """One chain step on the pencil plane span{q, D}, D = diag(b), in
    (q, D) coordinates.  With no weak network the level-1 assembly of
    alpha q + beta D is alpha Q_1 + beta D_1, and eliminating its interior
    leaves alpha' q + beta' D with

        (alpha', beta') = alpha form + beta measure
                          - alpha^2 sum_g residues_g / (alpha nu_g + beta)

    over the distinct interior pencil eigenvalues nu_g (multiplicity mult_g)
    of (Q_1, D_1): the boundary blocks of Q_1 and D_1 and the residues
    W_g W_g^T (W = Q_bi D_ii^-1/2 U) written in (q, D) coordinates.  `mu`
    holds the pencil eigenvalues of (q, D), read at the last cell.  In
    y = beta / alpha the step is y' = B(y) / A(y): `numerators` holds the
    coefficients of A and B, highest degree first, the two components of
    the image above times prod_g (nu_g + y), and `taylor` the matrix that
    takes the powers (1, c, c^2, ...) to their Taylor coefficients at c,
    A^(k)(c) / k! then B^(k)(c) / k!."""

    form: np.ndarray
    measure: np.ndarray
    residues: np.ndarray
    nu: np.ndarray
    mult: np.ndarray
    mu: np.ndarray
    numerators: np.ndarray
    taylor: np.ndarray
    critical: np.ndarray


def _pencil_line(step, q, b):
    """The step of (q, b) as a _PencilLine, or None where the chain needs
    cell matrices: with a weak network (the step is not homogeneous), or
    where a boundary block or a residue leaves span{q, D} by more than
    rounding (DEGENERATE_TOL of the largest matrix of its kind).  Residues
    are summed over each degenerate eigenspace: a single rank-one term
    inside one can leave the plane where their sum does not."""
    if np.any(step.weak):
        return None
    k = step.cell_size
    form = step.glue(q[None], weak=False)[0]
    measure = np.diagonal(step.glue(np.diag(b)[None], weak=False)[0])
    scale = 1.0 / np.sqrt(measure[k:])
    nu, u = np.linalg.eigh(form[k:, k:] * scale[:, None] * scale)
    w = form[:k, k:] @ (scale[:, None] * u)
    groups = np.split(np.arange(nu.size), np.flatnonzero(np.diff(_cluster_ids(nu, DEGENERATE_TOL))) + 1)
    mats = np.stack([form[:k, :k], np.diag(measure[:k])] + [w[:, g] @ w[:, g].T for g in groups])
    basis = np.column_stack([q.ravel(), np.diag(b).ravel()])
    coef = np.linalg.lstsq(basis, mats.reshape(len(mats), -1).T, rcond=None)[0].T
    off = np.linalg.norm(mats - (coef @ basis.T).reshape(mats.shape), axis=(1, 2))
    size = np.linalg.norm(mats, axis=(1, 2))
    size[2:] = size[2:].max()
    if np.any(off > DEGENERATE_TOL * size):
        return None
    root = np.sqrt(b)
    nu = np.array([nu[g].mean() for g in groups])
    # prod_g (y + nu_g), and for each g the product over the other poles:
    # the product over nu_0..nu_(g-1) is shared, then nu_(g+1).. follow
    prefix = [np.ones(1)]
    for r in nu:
        prefix.append(np.convolve(prefix[-1], [1.0, r]))
    poles = np.array([_monic(nu[g + 1:], prefix[g]) for g in range(nu.size)])
    numerators = np.array([np.convolve([coef[1, c], coef[0, c]], prefix[-1]) for c in (0, 1)])
    numerators[:, 2:] -= np.array([coef[2:, c] @ poles for c in (0, 1)])
    # Row i, column k: binom(i + k, k) times the coefficient of y^(i + k).
    low = numerators[:, ::-1]
    d = low.shape[1]
    i, j = np.indices((d, d))
    taylor = np.concatenate(np.where(i + j < d, _binomials(d) * low[:, np.minimum(i + j, d - 1)], 0.0), axis=1)
    # A pole is critical where R' = (A B' - B A') / A^2 vanishes on it, to
    # DEGENERATE_TOL of the size of its terms.
    at_pole = np.vander(-nu, d, increasing=True) @ taylor
    terms = np.vander(np.abs(nu), d, increasing=True) @ np.abs(taylor)
    slope = at_pole[:, 0] * at_pole[:, d + 1] - at_pole[:, d] * at_pole[:, 1]
    critical = np.abs(slope) <= DEGENERATE_TOL * (terms[:, 0] * terms[:, d + 1] + terms[:, d] * terms[:, 1])
    return _PencilLine(coef[0], coef[1], coef[2:], nu, np.array([g.size for g in groups]),
                       np.linalg.eigvalsh(q / root[:, None] / root), numerators, taylor,
                       critical)


def _monic(roots, out):
    """Coefficients of out(y) prod_r (y + r), highest degree first."""
    for r in roots:
        out = np.convolve(out, [1.0, r])
    return out


@functools.cache
def _binomials(d):
    """The d x d table binom(i + j, j), read-only."""
    out = np.array([[math.comb(i + j, j) for j in range(d)] for i in range(d)], dtype=float)
    out.flags.writeable = False
    return out


def _merge_runs(v, gap):
    """Ascending v with each run of neighbours less than `gap` apart
    replaced by its mean."""
    if not v.size:
        return v
    ids = np.concatenate([[0], np.cumsum(np.diff(v) >= gap)])
    return np.bincount(ids, v) / np.bincount(ids)


def _real_roots(c, scale):
    """The real roots of the polynomials in the rows of c (highest degree
    first): in closed form up to degree 2, beyond that from one batched
    companion-matrix eigensolve per degree.  Leading coefficients of
    rounding size (DEGENERATE_TOL of the row's largest) are dropped: their
    roots lie beyond 1 / DEGENERATE_TOL of the scale, and a spurious one
    would move the others by its rounding."""
    size = np.abs(c).max(axis=1, initial=0.0)
    c = c[size > 0] / size[size > 0, None]
    lead = np.argmax(np.abs(c) > DEGENERATE_TOL, axis=1)
    roots = [np.zeros(0)]
    for start in np.flatnonzero(np.bincount(lead)):
        rows = c[lead == start, start:]
        deg = rows.shape[1] - 1
        if deg == 1:
            roots.append(-rows[:, 1] / rows[:, 0])
        elif deg == 2:
            roots.append(_quadratic_real_roots(rows, scale))
        elif deg:
            companion = np.zeros((rows.shape[0], deg, deg))
            companion[:, 0] = -rows[:, 1:] / rows[:, :1]
            companion[:, np.arange(1, deg), np.arange(deg - 1)] = 1.0
            r = np.linalg.eigvals(companion)
            # Each root with another within ROOT_REAL_TOL is taken as their
            # mean, exactly real for a complex pair.
            gap = np.abs(r[:, :, None] - r[:, None, :]) + np.diag(np.full(deg, np.inf))
            near = np.argmin(gap, axis=2)
            pair = np.min(gap, axis=2) <= ROOT_REAL_TOL * (scale + np.abs(r))
            r = np.where(pair, 0.5 * (r + np.take_along_axis(r, near, 1)), r).ravel()
            roots.append(r.real[r.imag == 0])
    return np.sort(np.concatenate(roots))


def _quadratic_real_roots(rows, scale):
    """The real roots of a y^2 + b y + c for the rows (a, b, c), a != 0, in
    closed form.  The two roots lie sqrt|b^2 - 4ac| / |a| apart; within
    ROOT_REAL_TOL of the scale plus |-b / 2a| they are one real double root
    at their mean -b / 2a, twice, whether rounding left them real or
    complex (the companion path's rule, with the mean's size for each
    root's).  Farther apart a complex pair has no real root, and a real
    pair comes from the stable formula q = -(b + sign(b) sqrt(b^2 - 4ac))
    / 2, roots q / a and c / q."""
    a, b, c = rows.T
    disc = b * b - 4.0 * a * c
    root = np.sqrt(np.abs(disc))
    mid = -0.5 * b / a
    pair = root <= ROOT_REAL_TOL * np.abs(a) * (scale + np.abs(mid))
    real = (disc > 0) & ~pair
    q = -0.5 * (b[real] + np.copysign(root[real], b[real]))
    return np.concatenate([mid[pair], mid[pair], q / a[real], c[real] / q])


def _line_candidates(line, n, neumann):
    """Where the level-n eigenvalues of the _PencilLine `line` can sit, in
    y = beta / alpha of the first cell (x / gamma^n), ascending.

    Spectral decimation: a count changes only where an orbit of the step
    y -> B(y) / A(y) meets a target within n steps.  The targets are the
    poles -nu_g, where a pivot crosses zero, and the common real zeros of
    A and B, where the step's image vanishes (on the Sierpinski gasket
    y = -3, a removable 0/0 of R(y) = y (2y + 5)); for Neumann spectra also
    -mu_j at the last cell.  Each common zero z is a root of B - tA for
    every t, so it is divided out of A and B once (it stays a target), and
    each step back takes the real roots of B - tA for every target t and
    merges near-duplicates (MERGE_TOL)."""
    a, b = line.numerators
    scale = max(np.abs(line.nu).max(initial=0.0), np.abs(line.mu).max())
    common = []
    for z in _real_roots(a[None], scale):
        # z repeats as often as it is a root of A; B may hold it fewer times
        if abs(np.polyval(b, z)) <= VANISH_TOL * np.polyval(np.abs(b), abs(z)):
            a, b = _deflate(a, z), _deflate(b, z)
            common.append(z)
    targets = np.concatenate([-line.nu, common])
    ys = np.sort(-line.mu) if neumann else np.zeros(0)
    for _ in range(n):
        ys = np.concatenate([_real_roots(b - ys[:, None] * a, scale), targets])
        ys = _merge_runs(np.sort(ys), MERGE_TOL * scale)
    return ys


def _deflate(p, z):
    """The quotient of p (highest degree first) by y - z, by synthetic
    division: q_0 = p_0, q_k = p_k + q_(k-1) z, the operations of
    np.polydiv(p, [1, -z]) and so bitwise its quotient, without its
    remainder's work."""
    z, out = float(z), p[:1].tolist()
    for c in p[1:-1].tolist():
        out.append(c + out[-1] * z)
    return np.array(out)


def _sym(m):
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def _clusters(d, spread):
    """Cuts that split kept eigenvalues d (negative first, then positive,
    each in order of |d|) into degenerate runs: runs of one sign whose
    neighbours lie within `spread` (and a quarter of their size)."""
    joined = ((d[1:] < 0) == (d[:-1] < 0)) & (
        np.abs(np.diff(d)) <= np.minimum(spread, 0.25 * np.abs(d[:-1])))
    return np.flatnonzero(~joined) + 1


def _keep_near(t, dt, k, cuts):
    """Reduce the stack of cell matrices t = [[S, G], [G^T, diag(d)]],
    whose extra coordinates are nearly singular interior directions split
    into degenerate runs at `cuts` (_clusters, the same for the whole
    stack), and their derivatives dt.

    In a run with more than k directions, a rotation by the right singular
    vectors of its boundary coupling leaves all but k of them uncoupled
    from the boundary up to rounding; those are eliminated, which is exact
    for the counts and loses nothing, as the run's block is definite (one
    sign).  Within a degenerate run they are eigenvectors, so each
    eigenfunction stays whole.  A stack with no run of more than k
    directions is returned as it is.  The reduced stack keeps its exact
    size: nothing is padded.  Returns the reduced matrices, their derivatives, the numbers
    of negatives eliminated and kept, and the derivative of log|det| of the
    eliminated block."""
    p, size = t.shape[:2]
    negatives = np.count_nonzero(np.diagonal(t, axis1=1, axis2=2)[:, k:] < 0, axis=1)
    large = [sel for sel in np.split(np.arange(k, size), cuts) if sel.size > k]
    if not large:
        return t, dt, np.zeros(p, dtype=np.int64), negatives, np.zeros(p)
    rot = np.tile(np.eye(size), (p, 1, 1))
    drop, eliminated = [], np.zeros(p, dtype=np.int64)
    for sel in large:
        rot[:, sel[:, None], sel] = np.swapaxes(np.linalg.svd(t[:, :k, sel])[2], 1, 2)
        drop.extend(sel[k:])
        eliminated += (t[:, sel[0], sel[0]] < 0) * (sel.size - k)
    keep = np.flatnonzero(~np.isin(np.arange(size), drop))
    t = np.swapaxes(rot, 1, 2) @ t @ rot
    dt = np.swapaxes(rot, 1, 2) @ dt @ rot
    z, dz = t[:, drop][:, :, drop], dt[:, drop][:, :, drop]
    h = np.linalg.solve(z, t[:, drop][:, :, keep])
    out = _sym(t[:, keep][:, :, keep] - t[:, keep][:, :, drop] @ h)
    dout = _sym(dt[:, keep][:, :, keep] - 2 * dt[:, keep][:, :, drop] @ h
                + np.swapaxes(h, 1, 2) @ dz @ h)
    rate = np.trace(np.linalg.solve(z, dz), axis1=1, axis2=2)
    return out, dout, eliminated, negatives - eliminated, rate


def _eliminate(a, da, k):
    """Eliminate the interior (indices k and up) of each symmetric matrix in
    the stack `a`, whose derivative in x is `da`, through an
    eigendecomposition of the interior block.

    Interior directions whose eigenvalue is within NEAR_TOL of singular (on
    the scale of the largest entry of the interior rows) are kept as extra
    coordinates of the new cell matrix, so that a point near a pole of the
    trace map loses no precision.  An eigenvalue within PIVOT_TOL of zero
    (x on a pole) is read at x + 0, as |d|; here, in _clusters and in
    _keep_near a direction is negative where d < 0.  Every point that keeps
    some goes through _keep_near, grouped by their number r and, where r
    exceeds k, by their degenerate runs (_clusters), so that in every pass
    a reduced direction is a whole eigenfunction.  Each new cell matrix has
    its exact size: nothing is padded.
    Returns (cells, eliminated, kept, rate): the new cell matrices as
    (indices, stack, derivative stack) triples, the numbers of negative
    eigenvalues eliminated and kept, and the derivative of log|det| of the
    eliminated part."""
    p, m = a.shape[0], a.shape[1] - k
    big = np.abs(a[:, k:, :]).max(axis=(1, 2))[:, None]
    d, u = np.linalg.eigh(a[:, k:, k:])
    d = np.where(np.abs(d) <= PIVOT_TOL * big, np.abs(d), d)
    near = np.abs(d) <= NEAR_TOL * big
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
        return cells, eliminated, kept, rate
    # The other points keep their near directions N as extra coordinates:
    # [[S, g_N], [g_N^T, diag(d_N)]], with derivative
    # [[dS, dg_N - g_F D_F^-1 dd_FN], [., dd_NN]].
    g, dg, dd, d, gf, near, r = g[wide], dg[wide], dd[wide], d[wide], gf[wide], near[wide], r[wide]
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
    order = np.lexsort((np.abs(d), d >= 0, ~near), axis=-1)
    cols = np.concatenate([np.broadcast_to(np.arange(k), (wide.size, k)), k + order], axis=1)
    full = np.take_along_axis(np.take_along_axis(full, cols[:, :, None], 1), cols[:, None, :], 2)
    dfull = np.take_along_axis(np.take_along_axis(dfull, cols[:, :, None], 1), cols[:, None, :], 2)
    # One stack per number r of near directions and their cuts into
    # degenerate runs.  At most k near directions leave nothing to reduce,
    # so r alone is the key there.
    groups = {}
    for j, i in enumerate(wide):
        cuts = _clusters(np.diagonal(full[j])[k:k + r[j]], DEGENERATE_TOL * big[i, 0]) if r[j] > k else ()
        groups.setdefault((r[j], tuple(cuts)), []).append(j)
    for (size, cuts), js in groups.items():
        cell, dcell, neg, kept[wide[js]], extra = _keep_near(
            full[js, :k + size, :k + size], dfull[js, :k + size, :k + size], k, cuts)
        eliminated[wide[js]] += neg
        rate[wide[js]] += extra
        cells.append((wide[js], cell, dcell))
    return cells, eliminated, kept, rate


def _merge(cells):
    """Fewer stacks: one per size of cell matrix.  Stacks are only
    concatenated, never padded."""
    sizes = {}
    for i, e, de in cells:
        if i.size:
            sizes.setdefault(e.shape[1], []).append((i, e, de))
    return [tuple(np.concatenate(part) for part in zip(*group)) for group in sizes.values()]


def _log_det_rate(e, de):
    """(rate, w, v, dw): the eigenpairs (w_i, v_i) of each matrix of the
    stack, their slopes dw_i = v_i^T de v_i, and d/dx log|det e| =
    sum_i dw_i / w_i, inf where e is singular."""
    w, v = np.linalg.eigh(e)
    dw = np.sum(v * (de @ v), axis=1)
    rate = np.sum(np.divide(dw, w, out=np.zeros_like(w), where=w != 0), axis=1)
    return np.where((w == 0).any(axis=1), np.inf, rate), w, v, dw


def _advance(line, c, d, e):
    """One step y -> R(y) = B(y) / A(y) of the _PencilLine `line` on points
    held in two parts, y = c + d, with d known to e.  Returns (R(c), its
    rounding, R(c + d) - R(c), what that is known to, ok).  The difference
    is summed over the Taylor coefficients of A and B at c, so a d far below
    the rounding of c survives, and carries the error e through R'(c + d);
    `ok` is false where A is within NEAR_TOL of vanishing at c or c + d (R
    has a pole there)."""
    k = line.taylor.shape[0]
    pc, pd = np.ones((k, c.size)), np.ones((k, c.size))
    for i in range(1, k):
        pc[i], pd[i] = pc[i - 1] * c, pd[i - 1] * d
    coef, size = line.taylor.T @ pc, np.abs(line.taylor).T @ np.abs(pc)
    ta, tb, sa, sb = coef[:k], coef[k:], size[:k], size[k:]
    at, bt = np.sum(ta * pd, axis=0), np.sum(tb * pd, axis=0)  # A(c + d), B(c + d)
    ok = (np.abs(ta[0]) > NEAR_TOL * sa[0]) & (np.abs(at) > NEAR_TOL * sa[0])
    a0, at = np.where(ok, ta[0], 1.0), np.where(ok, at, 1.0)
    j = np.arange(1, k)[:, None]
    slope = np.sum(j * (tb[1:] * at - ta[1:] * bt) * pd[:-1], axis=0) / at**2
    # A few ulps of the size of each term, and the error e through R'.
    ulps = 4 * k * EPS
    terms = (sa[0] * sb[1:] + sb[0] * sa[1:]) * np.abs(pd[1:])
    known = ulps * np.sum(terms, axis=0) / np.abs(a0 * at) + np.abs(slope) * e
    image = tb[0] / a0
    moved = np.sum((a0 * tb[1:] - tb[0] * ta[1:]) * pd[1:], axis=0) / (a0 * at)
    return image, ulps * (sb[0] + np.abs(image) * sa[0]) / np.abs(a0), moved, known, ok


def _line_chain(step, line, n, xs):
    """The count pass of _chain on the pencil plane: each cell matrix is
    alpha q + beta D, and a step maps the pair (alpha, beta) by the
    _PencilLine `line`.  It only counts: Newton rates come from the matrix
    chain.  Returns (counts, inner, last, pair): counts as _chain gives
    them, void where `inner` marks a point whose interior signs the pair
    cannot resolve; `last` marks the points whose last-cell signs it cannot
    resolve, which void only the Neumann count; `pair` is the final unit
    pair (alpha, beta), shape (2, points), the level-n trace up to a
    positive factor, which _chain hands on for the N-D read-out
    (_line_residue_ranks).

    The pair is kept at unit length.  Before it is normalized, each step's
    image is multiplied by |alpha nu + beta| of the interior pole nearest
    the point, which keeps its sign and so the inertia, and turns the
    nearest residue's term into a sign; the other terms are bounded.  What
    rounding costs is tracked as an error `err` of the pair's direction, in
    units of eps: each step adds its own rounding, relative to the image,
    to the error it carries through the step's derivative along the line
    (the image (ta, tb) of the direction's tangent).  A step near a pole
    rounds the image's part off the nearest residue to eps over the pivot,
    and a later pivot that vanishes on that residue inherits it, so a point
    is unsure where a pivot alpha nu + beta (or alpha mu + beta at the last
    cell) is within PIVOT_TOL (1 + err) of zero, on the scale |(nu, 1)|.
    `err` estimates the rounding and does not bound it at the last few
    ulps: on the pair alone (the gasket, which has no critical pole) a
    count it leaves sure can differ from the matrix chain's at points
    1e-14 or 1e-15 of the width from an eigenvalue, below BISECT_TOL, which
    the bisection tolerates.

    Near a critical pole of the step (_PencilLine.critical, where R' = 0)
    the pair loses what a later pivot needs: on the interval the pole
    y = -1 goes to R(-1) = -2 = -mu with R'(-1) = 0, so a point delta from
    the pole lands R''(-1) delta^2 / 2 from a last-cell pivot's zero, below
    the rounding of the pair.  So a point whose nearest pole is critical is
    also held in two parts, y = base + off, from that step on: base is the
    pole, then its images under the steps, each snapped to a pivot's zero
    within DEGENERATE_TOL of it, and off goes through the Taylor
    coefficients of the step at base (_advance), with a bound `known` on
    its error.  A pivot is read from the two parts, alpha (nu + base + off),
    wherever they know it better than the pair, and a point moves its base
    to a critical pole nearer than it.  Arrays are (group, point)."""
    (fq, fd), (mq, md) = line.form, line.measure
    rq, rd = line.residues.T
    nu = line.nu[:, None]
    scale = max(np.abs(line.nu).max(initial=0.0), np.abs(line.mu).max())
    # What is constant along the pass: each pivot's scale |(nu, 1)|, and the
    # sizes of the step's terms that each step's rounding is taken against.
    hyp_nu, hyp_mu = np.hypot(line.nu, 1.0), np.hypot(line.mu, 1.0)
    form_size, residue_size = abs(fq) + abs(fd) + abs(mq) + abs(md), abs(rq) + abs(rd)
    critical = line.critical.any()
    targets = np.concatenate([-line.nu, -line.mu])
    a, b = np.ones(xs.size), xs / step.gamma**n
    norm = np.hypot(a, b)
    a, b = a / norm, b / norm
    err = np.ones(xs.size)
    counts = np.zeros((xs.size, 3), dtype=np.int64)
    inner = np.zeros(xs.size, dtype=bool)
    # The points held in two parts, y = base + off: base is a critical pole
    # or its image under some steps, snapped to a pivot's zero where it
    # lands within DEGENERATE_TOL of one; off is known to `known`.
    held = np.zeros(xs.size, dtype=bool)
    base, off, known = np.full(xs.size, np.nan), np.zeros(xs.size), np.zeros(xs.size)

    def parts(values):
        """y + v from the two parts (nan where a point is not held), and
        what it is known to."""
        gap = base + values
        v = gap + off
        return v, known + PIVOT_TOL * (np.abs(gap) + np.abs(v))

    def pivots(values, hyp):
        """The pivots alpha v + beta, 1 where unsure, and the unsure ones,
        with hyp = |(v, 1)|.  A held point's pivot is alpha (y + v) from
        the two parts where they know it better than the pair."""
        t = values * a + b
        tol = (1.0 + err) * (PIVOT_TOL * hyp[:, None])
        bad = np.abs(t) <= tol
        if held.any():
            v, vk = parts(values)
            two = (np.abs(a) * vk < tol) & (a != 0)
            t[two], bad[two] = (a * v)[two], (np.abs(v) <= vk)[two]
        t[bad] = 1.0
        return t, bad

    for m in range(n):
        t, bad = pivots(nu, hyp_nu)
        unsure = bad.any(axis=0)
        inner |= unsure
        near = np.abs(t).min(axis=0)
        # A point whose nearest pole -nu_g is critical is held from there,
        # with delta = y + nu_g from the two parts or the pair, whichever
        # knows it better, unless its base is nearer.
        if critical:
            g = np.argmin(np.abs(t), axis=0)
            crit = ~unsure & line.critical[g] & (a != 0)
            delta, dk = parts(line.nu[g])
            safe = np.where(crit, a, 1.0)
            pair_known = (1.0 + err) * PIVOT_TOL * hyp_nu[g] / np.abs(safe)
            better = ~(dk <= pair_known)
            delta[better], dk[better] = (t[g, np.arange(xs.size)] / safe)[better], pair_known[better]
            start = crit & (~held | (np.abs(delta) < np.abs(off)))
            base[start], off[start], known[start] = -line.nu[g][start], delta[start], dk[start]
            held |= start
        ah = a * near / t
        aah = a * ah
        na, nb = near * (a * fq + b * mq) - rq @ aah, near * (a * fd + b * md) - rd @ aah
        # The image of the direction's tangent (-b, a), times `near`; along
        # it t moves by a - nu b.
        w = (-2 * b - a * ((a - nu * b) / t)) * ah
        ta, tb = near * (-b * fq + a * mq) - rq @ w, near * (-b * fd + a * md) - rd @ w
        # int64 @ bool runs numpy's generic loop; int64 @ int64 its own
        counts[:, 2] += step.num_copies ** (n - 1 - m) * (line.mult @ (t < 0).astype(np.int64))
        norm = np.hypot(na, nb)
        norm[norm == 0] = 1.0  # a zero image leaves every pivot unsure
        fresh = near * form_size + residue_size @ np.abs(aah)
        err = (err * np.abs(na * tb - nb * ta) / norm + fresh) / norm
        a, b = na / norm, nb / norm
        if held.any():
            i = np.flatnonzero(held)
            c, rounding, off[i], known[i], ok = _advance(line, base[i], off[i], known[i])
            # A base within DEGENERATE_TOL of a pivot's zero is on it;
            # elsewhere its rounding adds to what off is known to.
            gap = np.abs(c[:, None] - targets)
            j = np.argmin(gap, axis=1)
            on = gap[np.arange(i.size), j] <= DEGENERATE_TOL * scale
            known[i] += np.where(on, 0.0, rounding)
            base[i] = np.where(on, targets[j], c)
            held[i] = ok
            base[~held] = np.nan
    t, bad = pivots(line.mu[:, None], hyp_mu)
    counts[:, 0] = counts[:, 2]
    counts[:, 1] = counts[:, 2] + np.count_nonzero(t < 0, axis=0)
    return counts, inner, bad.any(axis=0), np.stack([a, b])


def _line_residue_ranks(line, lo, hi, pair_lo, pair_hi):
    """The rank of the residue of the level-n trace in each bracket
    (lo, hi], from the line's unit pairs (alpha, beta) at its two ends,
    shape (brackets, 2) each, and whether the line leaves either end unsure
    (a nan pair).  The pairs are those the count passes took at the ends
    (_chain): the read runs no pass of its own.

    Near a Dirichlet eigenvalue lam the trace is R / (lam - x) plus a regular
    part, with R >= 0 in span{q, D}, so across a pole the pair turns to the
    opposite direction and at the lower end its largest last-cell pivot
    alpha mu_j + beta is positive.  A bracket without both has no pole: a
    flip whose lower pair is negative definite is a zero of the trace (on
    the Sierpinski gasket y = -3), and the rank is 0.  Across a pole the
    difference of the two pairs is R, up to scale, with the regular part
    cancelled to second order; its pivots Delta alpha mu_j + Delta beta
    above RESIDUE_TOL of the largest give the rank.  A pivot within
    RESIDUE_MARGIN of that cut raises ResidueUnresolved, naming its
    bracket."""
    (a0, b0), (a1, b1) = pair_lo.T, pair_hi.T
    pole = (a0 * a1 + b0 * b1 < 0) & (np.max(a0[:, None] * line.mu + b0[:, None], axis=1) > 0)
    residue = np.abs((a1 - a0)[:, None] * line.mu + (b1 - b0)[:, None])
    big = residue.max(axis=1, keepdims=True)
    near = (residue > RESIDUE_TOL / RESIDUE_MARGIN * big) & (residue <= RESIDUE_TOL * RESIDUE_MARGIN * big)
    bad = np.flatnonzero(pole & near.any(axis=1))
    if bad.size:
        i = bad[0]
        raise ResidueUnresolved(
            f"{bad.size} residue ranks unresolved, the first in ({float(lo[i])!r}, {float(hi[i])!r}]: a pivot "
            f"{float(np.min(residue[i][near[i]] / big[i, 0])):.3g} of the largest lies within "
            f"{RESIDUE_MARGIN:g}x of the cut {RESIDUE_TOL:g}")
    rank = np.where(pole, np.count_nonzero(residue > RESIDUE_TOL * big, axis=1), 0)
    return rank, np.isnan(pair_lo).any(axis=1) | np.isnan(pair_hi).any(axis=1)


def _chain(step, q, b, n, xs, line=None, neumann=True):
    """One pass of the Schur chain at every x.

    Two engines give the same Dirichlet and Neumann counts.  Given the
    _PencilLine `line` of (q, b), a pass maps two numbers per point through
    _line_chain, whose last cell keeps no interior direction, and takes the
    points it leaves unsure from the matrix chain; otherwise each step
    assembles and eliminates a stack of cell matrices.  The line only
    counts: its points get zero rates, which take no Newton step, and the
    points it sends the matrix chain keep that chain's rates.  Without
    `neumann` the caller reads no Neumann count or rate, so a point the
    line leaves unsure only at the last cell keeps its line counts, and its
    Neumann column is void: the interval's Dirichlet bracket ends at -2, a
    Neumann eigenvalue, and stays on the line.

    Returns (counts, rates, pairs): counts[:, 0] is the Dirichlet count
    #{lam > x}, counts[:, 1] the Neumann count and counts[:, 2] the part of
    both taken before the last cell matrix, every one read at x + 0 where x
    sits on a pole (PIVOT_TOL); rates[:, 0] and rates[:, 1] are d/dx
    log|det| of the level-n Dirichlet and Neumann matrices,
    sum_k 1 / (x - lam_k), or 0 from the line.  From the matrix chain,
    pairs lists per stack of last cell matrices E (boundary first, then kept
    interior directions) the eigenpairs that give the Neumann count and
    rate, as (indices, w, v, dw) with slopes dw = v^T E' v, which the
    matrix chain's N-D read-out ranks.  From the line engine pairs holds
    each point's final unit pair (alpha, beta), shape (points, 2), nan
    where the line leaves the point unsure at any pivot: the line's N-D
    read-out ranks the pairs of the points the count passes took
    (_line_residue_ranks).  Every matrix-chain pass, the N-D read-out's
    too, groups kept directions by degenerate runs."""
    if line is not None:
        counts, inner, last, pair = _line_chain(step, line, n, xs)
        rates = np.zeros((xs.size, 2))
        unsure = inner | last if neumann else inner
        if unsure.any():
            counts[unsure], rates[unsure], _ = _chain(step, q, b, n, xs[unsure])
        pair[:, inner | last] = np.nan
        return counts, rates, pair.T
    k, ncopies = step.cell_size, step.num_copies
    p = xs.size
    counts = np.zeros((p, 3), dtype=np.int64)
    rates = np.zeros((p, 2))
    kept = np.zeros(p, dtype=np.int64)
    slope = np.broadcast_to(np.diag(b) / step.gamma**n, (p, k, k))
    cells = [(np.arange(p), q + xs[:, None, None] * slope, slope)]
    for m in range(n):
        nxt = []
        for idx, e, de in cells:
            sub, eliminated, kept[idx], rate = _eliminate(
                step.glue(e), step.glue(de, weak=False), k)
            counts[idx, 2] += ncopies ** (n - 1 - m) * eliminated
            rates[idx, 0] += ncopies ** (n - 1 - m) * rate
            nxt.extend((idx[j], c, dc) for j, c, dc in sub)
        cells = _merge(nxt)
    counts[:, 0] = counts[:, 2] + kept
    rates[:, 1] = rates[:, 0]
    pairs = []
    for idx, e, de in cells:
        rate, w, v, dw = _log_det_rate(e, de)
        counts[idx, 1] = counts[idx, 2] + np.count_nonzero(w < 0, axis=1)
        rates[idx, 1] += rate
        if e.shape[1] > k:
            rates[idx, 0] += _log_det_rate(e[:, k:, k:], de[:, k:, k:])[0]
        pairs.append((idx, w, v, dw))
    return counts, rates, pairs


def _cell_data(structure, rho, b):
    """The cell form and measure as real arrays, checked: the one input check
    of both spectrum paths."""
    q = np.asarray(q_matrix(rho) if isinstance(rho, ElectricalNetwork) else rho)
    k = structure.cell_size
    if q.shape != (k, k):
        raise ValueError("Q must be a cell-sized square matrix")
    _pencil(q, b)  # real, symmetric, weights positive
    return np.real(q).astype(float), np.real(b).astype(float)


def _level_size(structure, n):
    """|V_n|, checked: n must be >= 0, and the chain's counts are int64,
    so a level with 2^63 vertices or more (sierpinski L40, interval L63)
    raises ValueError instead of counts that wrap."""
    if n < 0:
        raise ValueError("level must be >= 0")
    size = num_vertices(structure, n)
    if size >= 2**63:
        raise ValueError(f"level {n} has {size} vertices; spectra need fewer than 2^63")
    return size


def chain_spectrum(structure, rho, b, n, condition="neumann") -> SpectrumReport:
    """Level-n spectrum of (rho, b) by bisection on Schur-chain counts.

    Never assembles the level-n lattice.  Each distinct eigenvalue is
    isolated to BISECT_TOL of the bracket width and its multiplicity is the
    jump of the count across it.  The counts come from the line engine
    when _pencil_line finds the step of (rho, b) on the pencil plane with
    no weak network, and from the matrix chain otherwise; both give the
    same counts.  On the line, the pass that counts the bracket's ends also
    counts at the candidates of _line_candidates: that one pass decides
    which hold eigenvalues, and the rest is bisected.  A point on a pole of
    the trace map is read where it is, as the limit from above (PIVOT_TOL),
    so every point gives a count and every bracket shrinks.  A negative
    level, or one with 2^63 vertices or more, raises ValueError
    (_level_size).

    Neumann-Dirichlet multiplicities are nd(lam) = mult_D(lam) less the
    rank of the residue of the level-n trace at lam.  On the line that
    trace stays in span{q, D}, and the rank is read from the line's unit
    pairs at the two ends of each bracket whose Dirichlet count drops
    (_line_residue_ranks), the pairs the count passes took there: no pass
    of its own and no cell matrix.  A residue pivot too near the read's cut
    raises ResidueUnresolved (sierpinski from L15).  Off the line, and for
    a group with an end the line leaves unsure, it comes
    from the last cell matrix E of a matrix-chain pass at each eigenvalue:
    the level-n matrix is congruent to E plus eliminated directions that
    are nonsingular there, with the boundary values unchanged, so each
    Neumann cluster is the eliminated directions that cross zero (which
    vanish on the boundary) plus the kernel of E, and the
    Neumann-Dirichlet part is the cluster size less the rank of the
    kernel's boundary values (_boundary_ranks, the rule of nd_spectrum),
    read from the eigenpairs of E."""
    if condition not in ("neumann", "dirichlet", "nd"):
        raise ValueError(f"unknown condition {condition!r}")
    _level_size(structure, n)
    step = _chain_plan(structure)
    q, b = _cell_data(structure, rho, b)
    return _chain_spectrum(structure, step, q, b, _pencil_line(step, q, b), n, condition)


def _chain_spectrum(structure, step, q, b, line, n, condition):
    """chain_spectrum from the structure's LevelStep, the checked cell form
    and measure, and their _PencilLine (None off the plane), for a known
    condition."""
    col = 0 if condition == "dirichlet" else 1
    total = num_vertices(structure, n) - (step.cell_size if col == 0 else 0)
    if total == 0:
        return _report(n, condition, np.zeros(0), np.zeros(0))

    def count(xs):
        """Counts, rates and, on the line, the unit pairs at xs (nan off it)."""
        xs = np.asarray(xs, dtype=float)
        counts, rates, pairs = _chain(step, q, b, n, xs, line=line, neumann=col == 1)
        return counts, rates, pairs if line is not None else np.full((xs.size, 2), np.nan)

    # One pass counts the bracket's ends and, on the pencil line, tol / 4
    # either side of each candidate (_line_candidates), merged where closer
    # than tol / 2: the parts with no jump drop, and those around a
    # candidate finish.  The bracket starts from the cell's Gershgorin
    # scale, which also sets tol, and reaches out to every cut; an end
    # whose count fails is doubled and the pass repeated.
    span = float(np.max(np.abs(q).sum(axis=1) / b)) * step.gamma**n or 1.0
    y = _line_candidates(line, n, col == 1) * step.gamma**n if line is not None else np.zeros(0)
    lo, hi = -span, span
    for _ in range(64):
        tol = BISECT_TOL * (hi - lo)
        cuts = _merge_runs(y, 0.5 * tol)[:, None] + 0.25 * tol * np.array([-1.0, 1.0])
        x = np.concatenate([[lo], cuts.ravel(), [hi]])
        x[[0, -1]] = x.min(), x.max()
        cx, rx, px = count(x)
        if cx[0, col] == total and cx[-1, col] == 0:
            break
        lo, hi = (lo if cx[0, col] == total else 2 * lo), (hi if cx[-1, col] == 0 else 2 * hi)
    else:
        raise SingularInterior("could not bracket the spectrum")
    # Every later round cuts every open interval (a, b], with count jump m
    # across it.  Where the Newton steps x - m / rate(x) from both ends
    # agree to a quarter of the interval (rate = d/dx log|det|, about
    # m / (x - lam) near a cluster of m eigenvalues at lam), or m is 1, it
    # is cut tol / 4 either side of the shorter step's target.  Where they
    # agree it is also halved, unless it already halved in the last round;
    # elsewhere it is cut into min(m + 1, 16) equal parts.  A zero rate
    # takes no step: the line gives none, so there an interval that no
    # candidate caught is cut into equal parts, halved where m is 1.  The
    # parts that hold eigenvalues stay open until narrower than tol.  Each
    # point keeps its counts, its rate and its pair (the N-D read's input).
    x, cx, rx, px = x[None], cx[None], rx[None, :, col], px[None]
    a, bb = np.array([-np.inf]), np.array([np.inf])  # the round before the first: the whole line
    done = []
    while True:
        i, j = np.nonzero(cx[:, :-1, col] > cx[:, 1:, col])
        last = (bb - a)[i]  # each interval's width a round earlier
        a, bb, ca, cb, ra, rb = x[i, j], x[i, j + 1], cx[i, j], cx[i, j + 1], rx[i, j], rx[i, j + 1]
        pa, pb = px[i, j], px[i, j + 1]
        fin = bb - a <= tol
        done.append((a[fin], bb[fin], ca[fin], cb[fin], pa[fin], pb[fin]))
        a, bb, ca, cb, ra, rb, pa, pb, last = (v[~fin] for v in (a, bb, ca, cb, ra, rb, pa, pb, last))
        if not a.size:
            break
        m = ca[:, col] - cb[:, col]
        r = np.column_stack([ra, rb])
        shift = np.divide(m[:, None], r, out=np.full_like(r, np.inf), where=r != 0)
        target = np.column_stack([a, bb]) - shift
        newton = np.where(np.abs(shift[:, 0]) < np.abs(shift[:, 1]), target[:, 0], target[:, 1])
        newton = newton[:, None] + 0.25 * tol * np.array([-1.0, 1.0])
        newton[(newton <= a[:, None]) | (newton >= bb[:, None])] = np.nan
        gap = np.subtract(target[:, 0], target[:, 1], out=np.full(a.size, np.inf),
                          where=np.isfinite(target).all(axis=1))
        agree = np.abs(gap) <= 0.25 * (bb - a)
        halving = (bb - a <= 0.5 * last) & np.isfinite(newton).any(axis=1)
        parts = np.where(agree, np.where(halving, 1, 2), np.clip(m + 1, 2, 16))
        cuts = np.arange(1, 16) / parts[:, None]
        x = np.column_stack([a[:, None] + (bb - a)[:, None] * np.where(cuts < 1, cuts, np.nan),
                             np.where((agree | (m == 1))[:, None], newton, np.nan)])
        x = np.column_stack([a, np.sort(x, axis=1), bb])  # unused points (nan) sort last
        x[np.isnan(x)] = np.broadcast_to(bb[:, None], x.shape)[np.isnan(x)]
        inner = x[:, 1:-1] < bb[:, None]
        cs, rs, ps = count(x[:, 1:-1][inner])
        cx = np.broadcast_to(cb[:, None], (a.size, x.shape[1], 3)).copy()
        rx = np.broadcast_to(rb[:, None], x.shape).copy()
        px = np.broadcast_to(pb[:, None], (a.size, x.shape[1], 2)).copy()
        cx[:, 0], rx[:, 0], px[:, 0] = ca, ra, pa
        cx[:, 1:-1][inner], rx[:, 1:-1][inner], px[:, 1:-1][inner] = cs, rs[:, col], ps
    a, bb, ca, cb, pa, pb = (np.concatenate(parts) for parts in zip(*done))
    order = np.argsort(a)
    a, bb, ca, cb, pa, pb = a[order], bb[order], ca[order], cb[order], pa[order], pb[order]
    # A point that lands on an eigenvalue splits it between two finished
    # intervals that share that endpoint: join them.
    first = np.flatnonzero(np.concatenate([[True], a[1:] != bb[:-1]]))
    last = np.concatenate([first[1:], [a.size]]) - 1
    a, bb, ca, cb, pa, pb = a[first], bb[last], ca[first], cb[last], pa[first], pb[last]
    values = 0.5 * (a + bb)
    mult = ca[:, col] - cb[:, col]
    # Group distinct eigenvalues by the rule of cluster_eigenvalues, so both
    # paths list the same clusters.
    group = _cluster_ids(values, CLUSTER_TOL)
    size = np.bincount(group, mult)
    values = np.bincount(group, values * mult) / size
    if condition == "nd":
        # nd(lam) = mult_D(lam) - the rank of the residue of the level-n trace
        # at lam.  A Neumann-Dirichlet eigenfunction is also a Dirichlet one,
        # so only groups whose span holds a Dirichlet eigenvalue are read;
        # the others have none.  On the line the rank comes from the pairs at
        # each bracket's ends (_line_residue_ranks); a group with an end the
        # line leaves unsure, and every group off the line, is read from the
        # matrix chain below.
        first = np.flatnonzero(np.concatenate([[True], np.diff(group) > 0]))
        last = np.concatenate([first[1:], [group.size]]) - 1
        matrix = ca[first, 0] > cb[last, 0]
        nd = np.zeros(size.size)
        if line is not None:
            drop = ca[:, 0] - cb[:, 0]
            read = np.flatnonzero(drop > 0)
            rank, unsure = _line_residue_ranks(line, a[read], bb[read], pa[read], pb[read])
            sure = np.bincount(group[read], unsure, size.size) == 0
            nd[sure] = np.bincount(group[read], drop[read] - rank, size.size)[sure]
            matrix &= ~sure
        # Boundary values of the kernel of the last cell matrix E at each
        # distinct eigenvalue, ranked over each whole group by
        # _boundary_ranks, the rule nd_spectrum applies to each whole dense
        # cluster.  E is read at the upper end b of the eigenvalue's bracket
        # (a, b], where the counts were taken (on a pole, at b + 0 as they
        # were).  A kernel branch is an eigenvalue w of E with slope
        # s = y^T E' y > 0 that reaches 0 in the bracket (widened by its
        # width on each side, as the counts and E can disagree by rounding);
        # the eigenfunction its eigenvector y extends to has |f|_b^2 = s,
        # which scales y to unit b-norm.
        read = np.flatnonzero(matrix[group])
        if read.size:
            k = step.cell_size
            rows, labels = [np.zeros((0, k))], [np.zeros(0, dtype=np.int64)]
            a, bb, group = a[read], bb[read], group[read]
            for js, w, vec, slope in _chain(step, q, b, n, bb)[2]:
                cross = bb[js, None] - np.divide(w, slope, out=np.full_like(w, np.inf), where=slope > 0)
                branch = np.abs(cross - 0.5 * (a + bb)[js, None]) <= 1.5 * (bb - a)[js, None]
                i, j = np.nonzero(branch)
                rows.append(vec[i, :k, j] / np.sqrt(slope[i, j])[:, None])
                labels.append(group[js[i]])
            ranks = _boundary_ranks(np.concatenate(rows), np.concatenate(labels), size.size)
            nd[matrix] = (size - ranks)[matrix]
        size = nd
    return _report(n, condition, values, size)


def level_spectrum(structure, rho, b, n, condition="neumann") -> SpectrumReport:
    """Level-n spectrum of (rho, b) under the requested boundary condition.

    From the Schur chain (as chain_spectrum) when the structure satisfies
    hypothesis H and the lattice has at least the crossover of the chain's
    engine: LINE_MIN_VERTICES vertices where the step of (rho, b) keeps the
    pencil plane (_pencil_line), CHAIN_MIN_VERTICES otherwise.  Below it
    level n is assembled and solved densely.  An unknown condition, and a
    level that is negative or too large for int64 counts (_level_size),
    raise before either path starts."""
    if condition not in ("neumann", "dirichlet", "nd"):
        raise ValueError(f"unknown condition {condition!r}")
    q, b = _cell_data(structure, rho, b)
    size = _level_size(structure, n)
    if structure.hypothesis_h()[0] and size >= LINE_MIN_VERTICES:
        step = _chain_plan(structure)
        line = _pencil_line(step, q, b)
        if line is not None or size >= CHAIN_MIN_VERTICES:
            return _chain_spectrum(structure, step, q, b, line, n, condition)
    q_n = assemble_q(structure, q, n).real
    b_n = assemble_measure(structure, b, n)
    boundary = range(structure.cell_size)  # every level's, as build_lattice numbers it
    if condition == "neumann":
        return neumann_spectrum(q_n, b_n, n)
    if condition == "dirichlet":
        return dirichlet_spectrum(q_n, b_n, boundary, n)
    return nd_spectrum(q_n, b_n, boundary, n)


def dos_histogram(reports, num_copies, bins, lo=None, hi=None):
    """Per-level histograms with mass 1/N^n per eigenvalue: (edges, masses),
    one row of masses per report.  A value within its report's width
    tolerance (as in cdf) of an edge is on it; bins are [left, right), the
    last one closed.  Each distinct value is binned once, weighted by its
    multiplicity.  Given bounds lo and hi must be finite."""
    if bins < 1:
        raise ValueError("need at least one bin")
    reports = list(reports)
    filled = [r for r in reports if r.count]
    if lo is None:
        lo = min((float(r.values[0]) for r in filled), default=0.0)
    if hi is None:
        hi = max((float(r.values[-1]) for r in filled), default=1.0)
    if not np.isfinite([lo, hi]).all():
        raise ValueError(f"histogram bounds must be finite, got {lo!r} and {hi!r}")
    if hi <= lo:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, bins + 1)
    masses = np.zeros((len(reports), bins))
    for r_i, rep in enumerate(reports):
        if rep.count:
            vals = rep.values
            edge = edges[np.clip(np.rint((vals - lo) / (hi - lo) * bins), 0, bins).astype(int)]
            counts, _ = np.histogram(np.where(np.abs(vals - edge) <= rep._width_tol(), edge, vals), edges,
                                     weights=rep.mult)
            masses[r_i] = counts / float(num_copies**rep.level)
    return edges, masses


def check_green_grid(lam_grid, eps):
    """The Green-proxy grid as floats, checked with its eps: both finite,
    and eps positive (at 0 the log is -inf at every eigenvalue)."""
    grid = np.asarray(lam_grid, dtype=float)
    if not 0 < eps < np.inf:
        raise ValueError(f"eps must be positive and finite, got {eps!r}")
    if not np.isfinite(grid).all():
        raise ValueError("Green-proxy grid points must be finite")
    return grid


def green_proxy(q_n, b_n, lam_grid, num_copies, level, eps=1e-6):
    """(1/N^n) ln |det(Q + (lam + i eps) I_b)| over a real grid.

    The finite-level stand-in for the Green potential along the spectral
    curve; eps keeps logs finite across eigenvalues.  One pencil eigensolve
    gives every grid value through

        det(Q + z I_b) = prod_i b_i * prod_k (z - lam_k),   z = lam + i eps,

    summed as logs, so the value stays finite where the determinant itself
    overflows.  The grid and eps are checked first (check_green_grid)."""
    grid = check_green_grid(lam_grid, eps)
    lam = generalized_sym_eigvals(q_n, b_n)
    dist = np.hypot(grid[:, None] - lam[None, :], eps)
    log_det = np.log(dist).sum(axis=1) + np.log(np.real(b_n)).sum()
    return log_det / num_copies**level
