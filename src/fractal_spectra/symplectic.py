"""Lagrangian frames in E + E*, coisotropic subspaces, and reduction.

The ambient space is V = C^K + (C^K)* with coordinates stacked as
(E-block; E*-block) and the symplectic form

    omega((x, xi), (x', xi')) = xi'(x) - xi(x') = X^T Omega Y,
    Omega = [[0, I], [-I, 0]].

A symmetric matrix Q embeds as the graph frame [I; Q]; frames meeting
0 + E* have no such chart (the compactification divisor).

A coisotropic subspace W carries, besides frames for W and its
omega-orthogonal W^o, an explicit projection realizing W -> W/W^o in
canonical coordinates of the reduced space (boundary coordinates for
boundary traces, class coordinates for gluings).  This pins the
identification W/W^o = V_reduced so that reduction of graph frames
reproduces the matrix-level trace and gluing maps exactly, not merely up
to symplectomorphism.

The reduction t_W(L) = (L cap W)/W^o is computed for every L from one
kernel, L cap W = the null space of omega(W^o, .) on L: its image in the
chart is the reduced frame, and what it holds beyond the reduced dimension
p is the defect dim(L cap W^o), the indeterminacy indicator of the map.
Every reduction has one format and one kernel: a CopyReduction holds W's
rows (W^o)^T Omega and chart, one block per copy of the frame, and
reduce_copies reads the kernel from it.  A CoisotropicSubspace holds its
own one-copy reduction (trace, gluing and their compositions); the
renormalization step reduces N copies of one frame by W_renorm with the
copy map folded into W's rows and chart once (copy_reduction), never
forming the map or the frame of the copies.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import AtInfinity, ZeroScale
from .linalg import RANK_TOL, check_symmetric, is_positive_definite, orthonormalize
from .network import VertexPartition
from .selfsim import build_lattice

# Entrywise, absolute (frames are orthonormal): isotropy of a LagrangianFrame,
# and W^o omega-orthogonal to W and killed by a CoisotropicSubspace's chart.
FRAME_TOL = 1e-10
# CoisotropicSubspace's chart pullback against omega, entrywise, absolute.
CHART_TOL = 1e-9
# to_sym raises AtInfinity at E-block singular values <= this * max(1, largest).
AT_INFINITY_TOL = 1e-10


def omega_matrix(half_dim):
    k = half_dim
    out = np.zeros((2 * k, 2 * k))
    out[:k, k:] = np.eye(k)
    out[k:, :k] = -np.eye(k)
    return out


@dataclass(eq=False, frozen=True)
class LagrangianFrame:
    """2K x K orthonormal frame spanning a Lagrangian subspace.

    Rows 0..K-1 are E-components, rows K..2K-1 are E*-components.  The
    constructor checks the columns once (finite, rank K, isotropic within
    FRAME_TOL) and stores their orthonormal basis read-only in a frozen
    frame, so what it checked holds for the frame's lifetime.
    """

    columns: np.ndarray

    def __post_init__(self):
        cols = np.asarray(self.columns, dtype=complex)
        if cols.ndim != 2 or cols.shape[0] != 2 * cols.shape[1]:
            raise ValueError("frame must be 2K x K")
        if not np.isfinite(cols).all():
            raise ValueError("frame must be finite; it has a NaN or infinite entry")
        k = cols.shape[1]
        if k:
            # orthonormalize's basis: rank K means every singular value is
            # above RANK_TOL of the largest
            cols, s, _ = np.linalg.svd(cols, full_matrices=False)
            if not s[-1] > RANK_TOL * s[0]:
                raise ValueError("frame does not have full rank K")
            # omega on the columns, X^T Omega X = A^T B - B^T A for X = [A; B]
            a, b = cols[:k], cols[k:]
            if np.abs(a.T @ b - b.T @ a).max() > FRAME_TOL:
                raise ValueError("frame is not isotropic")
        else:
            cols = cols.copy()
        cols.flags.writeable = False
        object.__setattr__(self, "columns", cols)

    @property
    def half_dim(self):
        return self.columns.shape[1]

    def projector(self):
        """Hermitian projector onto the span (for subspace comparisons)."""
        return self.columns @ self.columns.conj().T


def subspace_distance(l1: LagrangianFrame, l2: LagrangianFrame):
    """Spectral distance of the spans (sine of the largest principal angle)."""
    return float(np.linalg.norm(l1.projector() - l2.projector(), 2))


def from_sym(q) -> LagrangianFrame:
    """Graph frame [I; Q] of a symmetric matrix."""
    q = check_symmetric(q)
    return LagrangianFrame(np.concatenate([np.eye(q.shape[0]), q]))


def to_sym(frame: LagrangianFrame):
    """The unique Q with span [I; Q]; AtInfinity on the divisor L cap (0+E*)."""
    k = frame.half_dim
    a = frame.columns[:k, :]
    s = np.linalg.svd(a, compute_uv=False) if k else np.array([1.0])
    if s[0] == 0.0 or s[-1] <= AT_INFINITY_TOL * max(s[0], 1.0):
        raise AtInfinity("frame meets 0 + E*; no symmetric chart")
    q = frame.columns[k:, :] @ np.linalg.inv(a)
    return (q + q.T) / 2.0


def tau_scale_frame(frame: LagrangianFrame, alpha) -> LagrangianFrame:
    """Lift of Q -> alpha Q: multiply the E*-block by alpha."""
    if alpha == 0:
        raise ZeroScale("scaling lift needs alpha != 0")
    k = frame.half_dim
    cols = frame.columns.copy()
    cols[k:, :] = alpha * cols[k:, :]
    return LagrangianFrame(cols)


def tau_translate_frame(frame: LagrangianFrame, q0) -> LagrangianFrame:
    """Lift of Q -> Q + Q0: the shear [[I, 0], [Q0, I]]."""
    q0 = check_symmetric(q0)
    k = frame.half_dim
    cols = frame.columns.copy()
    cols[k:, :] = cols[k:, :] + q0 @ cols[:k, :]
    return LagrangianFrame(cols)


def random_symplectic(k, rng):
    """Random real symplectic matrix: three alternating lower/upper shears
    by random symmetric blocks, finished with the rotation J = Omega^T."""
    m = np.eye(2 * k)
    for step in range(3):
        s = rng.standard_normal((k, k))
        s = (s + s.T) / 2.0
        shear = np.eye(2 * k)
        if step % 2 == 0:
            shear[k:, :k] = s
        else:
            shear[:k, k:] = s
        m = shear @ m
    return omega_matrix(k).T @ m


def random_lagrangian(k, rng, at_infinity=False) -> LagrangianFrame:
    """Random frame: a graph frame, optionally pushed through a random real
    symplectic map so it can meet the divisor at infinity."""
    q = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    frame = from_sym((q + q.T) / 2.0)
    if at_infinity:
        frame = LagrangianFrame(random_symplectic(k, rng) @ frame.columns)
    return frame


@dataclass(eq=False)
class CopyReduction:
    """A reduction by W of N copies of one Lagrangian L of C^K + (C^K)*,
    put into the ambient space of W by a copy map that carries copy i's
    omega to w_i omega.  W's constraint rows and chart are pulled back
    through the map once and split into one 2K-column block per copy
    (E-rows, then E*-rows), so a reduction meets the N plain copies of L's
    orthonormal columns and never forms the 2NK x NK frame of the copies.
    A CoisotropicSubspace holds its own reduction: one copy, no map.

    rows:      N x r x 2K, orthonormal rows spanning the pullback of
               (W^o)^T Omega
    chart:     N x 2p x 2K, the pullback of W's quotient chart
    iso_scale: max(1, w_i), the factor the map puts on L's isotropy defect
    """

    rows: np.ndarray
    chart: np.ndarray
    reduced_half_dim: int
    iso_scale: float


@dataclass(eq=False)
class CoisotropicSubspace:
    """W with cached W^o and an explicit quotient chart.

    frame:    2K x (K+p) orthonormal columns spanning W
    wo_frame: 2K x (K-p) orthonormal columns spanning W^o
    proj:     2p x 2K matrix realizing W -> W/W^o = V_p in canonical
              coordinates; ker(proj restricted to W) = W^o and the
              pullback of the canonical form of V_p along proj equals
              omega on W.
    reduction: the one-copy CopyReduction of W, rows (W^o)^T Omega and
               chart proj, formed once; every reduction by W reads it.
    """

    frame: np.ndarray
    wo_frame: np.ndarray
    proj: np.ndarray

    def __post_init__(self):
        self.frame = orthonormalize(np.asarray(self.frame, dtype=complex))
        self.wo_frame = orthonormalize(np.asarray(self.wo_frame, dtype=complex))
        self.proj = np.asarray(self.proj, dtype=complex)
        k = self.half_dim
        p = self.reduced_half_dim
        if self.frame.shape[1] != k + p or self.wo_frame.shape[1] != k - p:
            raise ValueError("dimension bookkeeping failed")
        om = omega_matrix(k)
        if self.wo_frame.shape[1]:
            if np.max(np.abs(self.frame.T @ om @ self.wo_frame)) > FRAME_TOL:
                raise ValueError("W^o is not omega-orthogonal to W")
            if np.max(np.abs(self.proj @ self.wo_frame)) > FRAME_TOL:
                raise ValueError("quotient chart does not kill W^o")
        pw = self.proj @ self.frame
        pulled = pw.T @ omega_matrix(p) @ pw
        native = self.frame.T @ om @ self.frame
        if np.max(np.abs(pulled - native)) > CHART_TOL:
            raise ValueError("quotient chart is not symplectic")
        self.reduction = CopyReduction((self.wo_frame.T @ om)[None], self.proj[None], p, 1.0)

    @property
    def half_dim(self):
        return self.frame.shape[0] // 2

    @property
    def reduced_half_dim(self):
        return self.proj.shape[0] // 2


def w_trace(k, boundary) -> CoisotropicSubspace:
    """W = C^F + (C^{dF})*; reduction by it is the boundary trace."""
    boundary = list(boundary)
    interior = [i for i in range(k) if i not in set(boundary)]
    dual = [k + b for b in boundary]
    eye = np.eye(2 * k)
    return CoisotropicSubspace(
        eye[:, list(range(k)) + dual], eye[:, interior], eye[boundary + dual]
    )


def w_glue(part: VertexPartition) -> CoisotropicSubspace:
    """W = Im(s) + (C^F)*; reduction by it is the gluing pushforward."""
    k, m = part.size, part.num_classes
    s = part.matrix()
    eye, zero = np.eye(k), np.zeros((k, m))
    frame = np.block([[s, np.zeros((k, k))], [zero, eye]])
    # W^o = ker(s*) on the dual block: each class's first vertex minus
    # each of its other members
    first = s.argmax(axis=0)[list(part.class_of)]
    rest = [v for v in range(k) if first[v] != v]
    wo = np.vstack([np.zeros((k, len(rest))), (eye[:, first] - eye)[:, rest]])
    # the class average reads g from s(g); the class sum is s* on the dual block
    proj = np.block([[s.T / s.sum(axis=0)[:, None], zero.T], [zero.T, s.T]])
    return CoisotropicSubspace(frame, wo, proj)


def w_renorm(structure, level=1) -> CoisotropicSubspace:
    """The renormalization subspace inside V of {copies}^n x F.

    W = Im(s) + (s*)^{-1}((C^{dF_n})*) for the level-n identification map
    s, composed from the gluing along s and the boundary trace of the
    level-n lattice; reducing the block-diagonal frame of N^n copies by it
    is the whole n-step renormalization, and the quotient chart lands in
    V_F through the boundary identification."""
    lat = build_lattice(structure, level)
    addresses = product(range(structure.num_copies), repeat=level)
    vertex_of = np.concatenate([lat.cell_map(a) for a in addresses])
    part = VertexPartition(len(vertex_of), tuple(vertex_of))
    return compose(w_glue(part), w_trace(lat.num_vertices, lat.boundary))


def compose(w: CoisotropicSubspace, w_next: CoisotropicSubspace) -> CoisotropicSubspace:
    """The coisotropic W' + W^o realizing t_{W'} after t_W in one step.

    ``w_next`` lives in the reduced space of ``w``; the composed quotient
    chart is the product of the two charts (the composition law of
    reductions)."""
    if w_next.half_dim != w.reduced_half_dim:
        raise ValueError("w_next must live in the reduced space of w")
    pw = w.proj @ w.frame  # coordinates of W in the reduced space
    lift = w.frame @ np.linalg.lstsq(pw, w_next.frame, rcond=None)[0]
    frame = np.hstack([w.wo_frame, lift])
    lift_o = w.frame @ np.linalg.lstsq(pw, w_next.wo_frame, rcond=None)[0]
    wo = np.hstack([w.wo_frame, lift_o])
    return CoisotropicSubspace(frame, wo, w_next.proj @ w.proj)


def _meet(rows, cols):
    """Coefficients on N copies of `cols` of an orthonormal basis of L cap W,
    with L spanned by the copies of `cols` and W = (W^o)^omega cut out by the
    orthonormal rows spanning (W^o)^T Omega, stacked N x r x 2K in `rows`,
    one block per copy (N = 1 for a CoisotropicSubspace): the null space of
    c, the blocks' products with `cols` side by side.  Rows and columns are
    orthonormal, so |c| <= 1 and a singular value above RANK_TOL (absolute:
    relative to |c| it would count rounding as rank) is nonzero."""
    if rows.shape[2] != cols.shape[0]:
        raise ValueError("frame and subspace live in different spaces")
    c = _side_by_side(rows @ cols)
    if c.shape[0] == 0:
        return np.eye(c.shape[1], dtype=complex)
    _, s, vh = np.linalg.svd(c)
    return vh[np.count_nonzero(s > RANK_TOL):].conj().T


def _side_by_side(blocks):
    """The blocks of a stack, shape (N, r, c), side by side: (r, N c)."""
    n, r, c = blocks.shape
    return blocks.transpose(1, 0, 2).reshape(r, n * c)


def reduce_frame(l: LagrangianFrame, w: CoisotropicSubspace) -> LagrangianFrame:
    """Symplectic reduction t_W(L) = (L cap W)/W^o in the chart of W.

    Total: defined at every L, including indeterminacy points of the
    rational extension (there the output is the distinguished value that
    continues the map along generic curves)."""
    return reduce_copies(l, w.reduction)[0]


def reduction_defect(l: LagrangianFrame, w: CoisotropicSubspace):
    """dim(L cap W^o): zero exactly where the rational reduction is regular.
    (L cap W)/(L cap W^o) is the reduced Lagrangian, of dimension p."""
    return _meet(w.reduction.rows, l.columns).shape[1] - w.reduced_half_dim


def copy_reduction(w: CoisotropicSubspace, weights, q0) -> CopyReduction:
    """The reduction by W of N = len(weights) copies of a Lagrangian of
    C^K + (C^K)*, NK = w.half_dim, under the copy map
    S = [[I, 0], [Q0, diag(w_i I)]]: the scaling lift of Q -> w_i Q on copy
    i, then the shear by the weak form `q0` (None without a weak network).
    S is folded into W's rows and chart block by block, as
    [E + E* Q0, E* w], and never formed.

    Implied, so not checked: S carries copy i's omega to w_i omega because
    q0 is symmetric (a q_matrix); S keeps every constraint row because it is
    invertible (validate keeps every w_i > 0); and S fits W because W is
    w_renorm of the structure that gives the weights and q0."""
    n, nk = len(weights), w.half_dim
    k = nk // n
    scale = np.repeat(np.asarray(weights, dtype=float), k)

    def fold(m):
        e, dual = m[:, :nk], m[:, nk:]
        if q0 is not None:
            e = e + dual @ q0
        return np.concatenate([e, dual * scale], axis=1)

    rows = orthonormalize(fold(w.reduction.rows[0]).conj().T).conj().T
    # column indices of copy i: its E-rows, then its E*-rows
    idx = np.arange(nk).reshape(n, k)
    idx = np.concatenate([idx, idx + nk], axis=1)
    return CopyReduction(
        np.ascontiguousarray(rows[:, idx].transpose(1, 0, 2)),
        np.ascontiguousarray(fold(w.proj)[:, idx].transpose(1, 0, 2)),
        w.reduced_half_dim,
        max(1.0, float(np.max(weights))),
    )


def reduce_copies(l: LagrangianFrame, red: CopyReduction):
    """(reduced frame, defect) of the copies of L by `red`, both read from
    one kernel L cap W (_meet).  Where the defect is 0 the chart image of
    the kernel goes to the frame as it is, whose constructor orthonormalizes
    it; a positive defect's image spans p dimensions in more columns,
    trimmed here."""
    k, p = l.half_dim, red.reduced_half_dim
    meet = _meet(red.rows, l.columns)
    # L's constructor bounded its isotropy defect by FRAME_TOL on these
    # read-only columns; the copy map scales it by iso_scale, so only a
    # weight above 1 leaves a bound to check
    if red.iso_scale != 1.0 and k:
        a, b = l.columns[:k], l.columns[k:]
        if red.iso_scale * np.abs(a.T @ b - b.T @ a).max() > FRAME_TOL:
            raise ValueError("copies of the frame are not isotropic")
    reduced = _side_by_side(red.chart @ l.columns) @ meet
    if reduced.shape[1] > p:
        reduced = orthonormalize(reduced)
    if reduced.shape[1] != p:
        raise ValueError(f"reduction produced rank {reduced.shape[1]}, expected {p}")
    return LagrangianFrame(reduced), meet.shape[1] - p


def in_siegel(l: LagrangianFrame):
    """Membership in the Siegel domain: -i omega(conj X, X) > 0 on L.

    For graph frames this is positive definiteness of Im Q."""
    k = l.half_dim
    h = -1j * (l.columns.conj().T @ omega_matrix(k) @ l.columns)
    h = (h + h.conj().T) / 2.0
    return is_positive_definite(h)


def orthogonal_lagrangian(l: LagrangianFrame) -> LagrangianFrame:
    """conj(J L): the Hermitian-orthogonal complement of a Lagrangian."""
    return LagrangianFrame(np.conj(omega_matrix(l.half_dim).T @ l.columns))

