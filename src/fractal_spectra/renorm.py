"""The renormalization map at all three levels, plus degree machinery.

t_map acts on symmetric matrices (copy, glue, boundary-trace), g_map on
Lagrangian frames (block copies and one symplectic reduction, the copy map
folded into the reduction once per structure), and the
Grassmann lift lives in the grassmann module.  For structures with a
transitive symmetry group the invariant matrices form a small coordinate
chart Q = sum u_i P_i over orthogonal projectors; there the map becomes a
rational map of the coordinates, with a bidegree matrix, and vanishing
divisors of the lift measured along candidate loci.  The balance identity
N p_i = sum_j d_ij p_j + h_i certifies that all divisor factors in pair i
have been located.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AtInfinity, DegreeUnresolved, NotEquivariant, SingularInterior
from .grassmann import GrassmannElement, mul, renorm_lift, vanishing_order
from .linalg import check_symmetric
from .network import q_matrix, trace_leading
from .selfsim import assemble_q
from .symplectic import (
    LagrangianFrame,
    copy_reduction,
    from_sym,
    in_siegel,
    reduce_copies,
    to_sym,
    w_renorm,
)

# CoordinateChart projector identities, entrywise, absolute (entries <= 1).
PROJECTOR_TOL = 1e-10
# CoordinateChart.coords: commutators and rebuild, entrywise, times max(1, max|Q|).
EQUIVARIANT_TOL = 1e-8
# _degrees_along: a rational fit holds below this s_min / s_max of its system.
FIT_TOL = 1e-7


def t_map(q, structure):
    """One renormalization step on symmetric matrices:
    boundary trace of the level-1 assembly, in cell coordinates.  Level 1
    numbers the K boundary vertices first, in F order (LevelStep), so the
    trace is the Schur complement onto the leading block."""
    q = check_symmetric(q)
    return trace_leading(assemble_q(structure, q, 1), structure.cell_size)


def t_iterate(q, structure, n):
    for _ in range(n):
        q = t_map(q, structure)
    return q


def block_copy_frame(l: LagrangianFrame, structure) -> LagrangianFrame:
    """The block-diagonal frame of N copies (with per-copy scaling lifts
    and the weak-network shear when the structure carries them).  g_map
    folds this copy map into its reduction instead of forming the frame;
    reducing this frame by w_renorm is the reference it is tested against."""
    n = structure.num_copies
    k = l.half_dim
    w = structure.copy_weights()
    cols = np.zeros((2 * n * k, n * k), dtype=complex)
    for i in range(n):
        # copy i carries the scaling lift of Q -> w_i Q: E*-rows times w_i
        cols[i * k : (i + 1) * k, i * k : (i + 1) * k] = l.columns[:k, :]
        cols[n * k + i * k : n * k + (i + 1) * k, i * k : (i + 1) * k] = (
            w[i] * l.columns[k:, :]
        )
    if structure.weak is not None:
        # the weak-network shear [[I, 0], [Q0, I]] (tau_translate_frame)
        cols[n * k :, :] += q_matrix(structure.weak) @ cols[: n * k, :]
    return LagrangianFrame(cols)


def g_map(l: LagrangianFrame, structure):
    """One renormalization step on Lagrangian frames: the reduction of
    block_copy_frame(l) by W_renorm, with the copy map folded into the
    reduction once per structure (_copy_reduction).

    Total map: returns (reduced frame, defect), the defect being
    dim(copies(L) cap W^o) -- positive exactly at indeterminacy points of
    the rational extension."""
    return reduce_copies(l, _copy_reduction(structure))


def _copy_reduction(structure):
    """W_renorm with the copy map of block_copy_frame folded in, cached: the
    per-copy scaling lifts followed by the weak-network shear."""
    if "copy_reduction" not in structure._cache:
        weak = None if structure.weak is None else q_matrix(structure.weak)
        structure._cache["copy_reduction"] = copy_reduction(
            w_renorm(structure), structure.copy_weights(), weak
        )
    return structure._cache["copy_reduction"]


@dataclass(eq=False)
class CoordinateChart:
    """Orthogonal projector resolution of the cell space.

    projectors P_0..P_r are real symmetric idempotents, mutually
    orthogonal, summing to the identity; invariant matrices are
    Q = sum u_i P_i and the chart reads coordinates back off by traces."""

    projectors: tuple

    def __post_init__(self):
        ps = tuple(np.asarray(p, dtype=float) for p in self.projectors)
        if not ps:
            raise ValueError("need at least one projector")
        k = ps[0].shape[0]
        total = np.zeros((k, k))
        for i, p in enumerate(ps):
            if p.shape != (k, k) or np.max(np.abs(p - p.T)) > PROJECTOR_TOL:
                raise ValueError(f"projector {i} is not symmetric")
            if np.max(np.abs(p @ p - p)) > PROJECTOR_TOL:
                raise ValueError(f"projector {i} is not idempotent")
            for j in range(i):
                if np.max(np.abs(ps[j] @ p)) > PROJECTOR_TOL:
                    raise ValueError(f"projectors {j} and {i} are not orthogonal")
            total += p
        if np.max(np.abs(total - np.eye(k))) > PROJECTOR_TOL:
            raise ValueError("projectors do not sum to the identity")
        self.projectors = ps

    @property
    def dim(self):
        return self.projectors[0].shape[0]

    @property
    def ranks(self):
        return tuple(int(round(np.trace(p))) for p in self.projectors)

    def matrix(self, coords):
        coords = np.asarray(coords, dtype=complex)
        if coords.shape != (len(self.projectors),):
            raise ValueError("one coordinate per projector")
        if not np.isfinite(coords).all():
            raise ValueError("chart coordinates must be finite")
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for u, p in zip(coords, self.projectors):
            out = out + u * p
        return out

    def coords(self, q):
        """Read coordinates off an invariant matrix; NotEquivariant when Q
        does not commute with every projector within EQUIVARIANT_TOL of its
        largest entry."""
        q = np.asarray(q, dtype=complex)
        tol = EQUIVARIANT_TOL * max(1.0, float(np.max(np.abs(q))))
        out = []
        for p in self.projectors:
            if np.max(np.abs(p @ q - q @ p)) > tol:
                raise NotEquivariant("matrix does not commute with the chart")
            out.append(complex(np.trace(p @ q)) / round(np.trace(p)))
        rebuilt = self.matrix(out)
        if np.max(np.abs(rebuilt - q)) > tol:
            raise NotEquivariant("matrix is not a combination of the projectors")
        return np.array(out)

    def block_bases(self):
        """Deterministic real orthonormal bases of the projector ranges."""
        out = []
        for p in self.projectors:
            w, v = np.linalg.eigh(p)
            cols = v[:, w > 0.5]
            out.append(np.ascontiguousarray(cols))
        return out


def symmetric_chart(k) -> CoordinateChart:
    """Constants + their orthogonal complement (the chart of the fully
    symmetric builtin structures)."""
    p0 = np.full((k, k), 1.0 / k)
    return CoordinateChart((p0, np.eye(k) - p0))


def coords_eval(coords, chart: CoordinateChart, structure):
    """The renormalization step in chart coordinates."""
    q = chart.matrix(coords)
    return chart.coords(t_map(q, structure))


@dataclass(eq=False)
class HomogeneousPoint:
    """One (u_i, v_i) pair per projector, each pair nonzero; the matrix
    chart is the slice v = 1."""

    pairs: tuple

    def __post_init__(self):
        pairs = tuple((complex(u), complex(v)) for u, v in self.pairs)
        if any(u == 0 and v == 0 for u, v in pairs):
            raise ValueError("each homogeneous pair must be nonzero")
        self.pairs = pairs


def s_hat(point: HomogeneousPoint, chart: CoordinateChart) -> GrassmannElement:
    """Homogeneous lift of the chart into the Grassmann coefficients:
    the product over blocks of (v_i + u_i conj-vector pair products).

    At v = 1 this is exp_eta of the chart matrix; scaling pair j by c
    scales the output by c^{rank_j}."""
    k = chart.dim
    out = GrassmannElement.unit(k)
    for (u, v), basis in zip(point.pairs, chart.block_bases()):
        for col in basis.T:
            coeffs = {(0, 0): v}
            for a in range(k):
                for b in range(k):
                    val = u * col[a] * col[b]
                    if val != 0:
                        key = (1 << a, 1 << b)
                        coeffs[key] = coeffs.get(key, 0j) + val
            out = mul(out, GrassmannElement(k, coeffs))
    return out


def lift_curve(structure, chart, path):
    """lam -> renorm_lift(s_hat(path(lam))) for a path of homogeneous
    points; the curves whose vanishing orders count divisor multiplicities."""

    def curve(lam):
        return renorm_lift(s_hat(HomogeneousPoint(path(lam)), chart), structure)

    return curve


def frame_from_pairs(point: HomogeneousPoint, chart: CoordinateChart) -> LagrangianFrame:
    """The invariant Lagrangian frame of a product-of-lines point: block
    columns v_i f + u_i f* over each projector basis vector f.  Covers the
    compactification points v_i = 0 that have no matrix chart."""
    k = chart.dim
    cols = []
    for (u, v), basis in zip(point.pairs, chart.block_bases()):
        for col in basis.T:
            vec = np.zeros(2 * k, dtype=complex)
            vec[:k] = v * col
            vec[k:] = u * col
            cols.append(vec)
    return LagrangianFrame(np.stack(cols, axis=1))


def _rational_fit_residual(xs, ys, d):
    """Smallest singular value (normalized) of the linear system for a
    degree-(d, d) rational interpolant through the samples."""
    rows = []
    scale = max(np.max(np.abs(ys)), 1.0)
    for x, y in zip(xs, ys):
        num = [x**p for p in range(d + 1)]
        den = [-(y / scale) * x**p for p in range(d + 1)]
        rows.append(num + den)
    m = np.array(rows)
    s = np.linalg.svd(m, compute_uv=False)
    return s[-1] / s[0]


# Largest rational degree bidegree_estimate fits before DegreeUnresolved.
MAX_DEGREE = 8


def bidegree_estimate(structure, chart: CoordinateChart):
    """Degree matrix d[i][j]: homogeneity in input pair i of the lifted
    numerator/denominator pair of output coordinate j.

    With this orientation the balance identity reads
    N p_i = sum_j d[i][j] p_j + h_i, with h_i the divisor degree in pair i.
    Samples the coordinate map along complex affine lines and fits minimal
    (d, d) rational functions of degree at most MAX_DEGREE; retried with
    fresh base points to dodge degenerations."""
    r = len(chart.projectors)
    rng = np.random.default_rng(7)
    out = np.zeros((r, r), dtype=int)
    for i in range(r):
        for attempt in range(3):
            try:
                degs = _degrees_along(structure, chart, i, rng)
                break
            except (SingularInterior, NotEquivariant, DegreeUnresolved):
                if attempt == 2:
                    raise
        out[i, :] = degs
    return out


def _degrees_along(structure, chart, j, rng):
    r = len(chart.projectors)
    base = rng.standard_normal(r) + 1j * rng.standard_normal(r)
    npts = 2 * MAX_DEGREE + 3
    angles = np.exp(2j * np.pi * np.arange(npts) / npts)
    xs = 1.5 * angles + 0.2 + 0.1j
    ys = np.empty((npts, r), dtype=complex)
    for s_i, x in enumerate(xs):
        coords = base.copy()
        coords[j] = x
        ys[s_i] = coords_eval(coords, chart, structure)
    degs = np.empty(r, dtype=int)
    for i in range(r):
        for d in range(MAX_DEGREE + 1):
            if _rational_fit_residual(xs, ys[:, i], d) < FIT_TOL:
                degs[i] = d
                break
        else:
            raise DegreeUnresolved(
                f"no rational fit of degree <= {MAX_DEGREE} for output {i}"
            )
    return degs


def divisor_orders(structure, chart: CoordinateChart, loci):
    """Vanishing order of the lift along each locus a u_j + b v_j = 0.

    Each locus is (j, a, b).  Orders are measured by the dyadic ladder on
    curves through three generic base points of the locus, minimized over
    base points (the generic multiplicity)."""
    rng = np.random.default_rng(11)
    r = len(chart.projectors)
    orders = []
    for (j, a, b) in loci:
        norm = np.hypot(abs(a), abs(b))
        on_locus = (b / norm, -a / norm)
        transversal = (np.conj(a) / norm, np.conj(b) / norm)
        best = None
        for _ in range(3):
            others = rng.standard_normal((r, 2)) + 1j * rng.standard_normal((r, 2))

            def path(t, others=others):
                pairs = [tuple(p) for p in others]
                pairs[j] = (
                    on_locus[0] + t * transversal[0],
                    on_locus[1] + t * transversal[1],
                )
                return pairs

            curve = lift_curve(structure, chart, path)
            order = vanishing_order(curve, 0.0, (1e-2, 1e-3, 1e-4))
            best = order if best is None else min(best, order)
        orders.append(best)
    return orders


def balance_report(structure, chart: CoordinateChart, loci):
    """Check N p_i = sum_j d[i][j] p_j + h_i with h_i the total located
    order on loci in pair i; a full balance certifies that the located
    loci exhaust the divisor.  Returns (degrees, orders, h, flags)."""
    degrees = bidegree_estimate(structure, chart)
    orders = divisor_orders(structure, chart, loci)
    r = len(chart.projectors)
    ranks = chart.ranks
    h = [0] * r
    for (j, _, _), order in zip(loci, orders):
        h[j] += order
    flags = []
    for i in range(r):
        lhs = structure.num_copies * ranks[i]
        rhs = sum(degrees[i][j] * ranks[j] for j in range(r)) + h[i]
        flags.append(lhs == rhs)
    return degrees, orders, h, flags


@dataclass
class OrbitStep:
    """One step of a frame orbit: chart data when finite, markers when not."""

    frame: LagrangianFrame
    defect: int
    in_siegel_domain: bool
    q: np.ndarray | None  # None at compactification points
    coords: np.ndarray | None


def orbit(start, structure, steps, chart: CoordinateChart | None = None):
    """Iterate g_map, recording matrices (or AtInfinity markers) and the
    per-step defects.  ``start`` is a matrix or a LagrangianFrame; poles
    never abort the trajectory, which continues at frame level."""
    if steps < 1:
        raise ValueError("need at least one step")
    frame = start if isinstance(start, LagrangianFrame) else from_sym(start)
    out = []
    for _ in range(steps):
        frame, defect = g_map(frame, structure)
        try:
            q = to_sym(frame)
        except AtInfinity:
            q = None
        coords = None
        if q is not None and chart is not None:
            try:
                coords = chart.coords(q)
            except NotEquivariant:
                coords = None
        out.append(OrbitStep(frame, defect, in_siegel(frame), q, coords))
    return out


# Closed forms of the builtin coordinate maps, used by tests and verify.

def gasket_closed_form(u):
    u0, u1 = u
    return np.array(
        [3 * u0 * u1 / (2 * u0 + u1), 3 * u1 * (u0 + u1) / (5 * u1 + u0)]
    )


def interval_closed_form(u):
    u0, u1 = u
    return np.array([2 * u0 * u1 / (u0 + u1), (u0 + u1) / 2])


def gamma_bar_closed_form(u, r, v):
    z0, z1 = v, 3 * r + v
    u0, u1 = u
    return np.array(
        [
            (3 * u0 * u1 + z0 * u0 + 2 * z0 * u1) / (2 * u0 + u1 + 3 * z0),
            (3 * u0 * u1 + z1 * u0 + 2 * z1 * u1) / (2 * u0 + u1 + 3 * z1),
        ]
    )


def gamma_bar_semi_closed_form(u, r, r_prime, v, v_prime):
    z0, z0p = v, v_prime
    z1, z1p = r + v, r_prime + v_prime
    s0, p0 = z0 + z0p, z0 * z0p
    s1, p1 = z1 + z1p, z1 * z1p
    u0, u1 = u

    def comp(s, p):
        num = 3 * u0 * u1**2 + s * u1 * (2 * u0 + u1) + p * (u0 + 2 * u1)
        den = 2 * u0 * u1 + u1**2 + s * (u0 + 2 * u1) + 3 * p
        return num / den

    return np.array([comp(s0, p0), comp(s1, p1)])
