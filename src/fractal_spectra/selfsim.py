"""Finite self-similar structures and recursive lattice assembly.

A structure is the data (F, N, R, boundary identification): a cell of K
vertices, N copies, a partition R of {copies} x F describing how copies
are joined, and an injective map F -> ({copies} x F)/R singling out the K
boundary points of the level-1 lattice.  Iterating "take N copies, glue
along the copies' boundaries by R" produces the lattice tower F_<n>.

Copies may carry conductance scalings w_i and measure scalings b_i, and an
optional weak network may join copies by finite conductances instead of
identifications.  The weak network is applied at the coarsest scale of
every recursive step, so that the one-step boundary trace of each level
agrees with the renormalization map of the matrix module.

Points of {copies} x F are flattened as ``copy * K + vertex`` throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidStructure, NonPositiveWeight
from .network import ElectricalNetwork, q_matrix


def point_index(copy, vertex, cell_size):
    return copy * cell_size + vertex


@dataclass(frozen=True, eq=False)
class SelfSimilarStructure:
    """(F, N, R, boundary) plus optional per-copy weights and weak network.

    glue_classes partitions the flattened point set {0..N*K-1}; classes are
    stored as sorted tuples.  boundary_map[x] is any member point of the
    class realizing the boundary vertex identified with x in F.
    """

    cell_size: int
    num_copies: int
    glue_classes: tuple
    boundary_map: tuple
    weights_w: tuple | None = None
    weights_b: tuple | None = None
    weak: ElectricalNetwork | None = None
    name: str = ""
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        object.__setattr__(
            self,
            "glue_classes",
            tuple(tuple(sorted(c)) for c in self.glue_classes),
        )
        object.__setattr__(self, "boundary_map", tuple(self.boundary_map))
        if self.weights_w is not None:
            object.__setattr__(self, "weights_w", tuple(float(w) for w in self.weights_w))
        if self.weights_b is not None:
            object.__setattr__(self, "weights_b", tuple(float(b) for b in self.weights_b))
        problems = validate(self)
        if problems:
            raise InvalidStructure("; ".join(problems))

    @property
    def num_points(self):
        return self.cell_size * self.num_copies

    def class_of_point(self):
        """Flattened point -> glue class id."""
        out = [-1] * self.num_points
        for c, cls in enumerate(self.glue_classes):
            for p in cls:
                out[p] = c
        return out

    def copy_weights(self):
        return self.weights_w or (1.0,) * self.num_copies

    def measure_weights(self):
        return self.weights_b or (1.0,) * self.num_copies

    def hypothesis_h(self, rtol=1e-12):
        """Is gamma_i = w_i / b_i constant across copies?  Returns
        (status, gamma); gamma is the common value when status is True."""
        w = self.copy_weights()
        b = self.measure_weights()
        gammas = [wi / bi for wi, bi in zip(w, b)]
        g0 = gammas[0]
        ok = all(abs(g - g0) <= rtol * max(1.0, abs(g0)) for g in gammas)
        return ok, (g0 if ok else None)

    def weak_q(self):
        """Form of the weak network on the flattened point set, or None."""
        if self.weak is None:
            return None
        if "weak_q" not in self._cache:
            self._cache["weak_q"] = q_matrix(self.weak)
        return self._cache["weak_q"]


def validate(structure) -> list:
    """Check the structure invariants; returns a list of problems (never
    raises).  An empty list means the structure is well-formed."""
    problems = []
    k, n = structure.cell_size, structure.num_copies
    if k < 1:
        problems.append("cell size must be >= 1")
    if n < 2:
        problems.append("need at least 2 copies")
    npts = k * n
    seen = {}
    for c, cls in enumerate(structure.glue_classes):
        if not cls:
            problems.append(f"glue class {c} is empty")
        for p in cls:
            if not (0 <= p < npts):
                problems.append(f"glue class {c} contains bad point {p}")
            elif p in seen:
                problems.append(f"point {p} lies in classes {seen[p]} and {c}")
            else:
                seen[p] = c
    missing = npts - len(seen)
    if missing:
        problems.append(f"{missing} points not covered by any glue class")
    if len(structure.boundary_map) != k:
        problems.append("boundary_map must have one entry per cell vertex")
    else:
        classes = []
        for x, p in enumerate(structure.boundary_map):
            if not (0 <= p < npts) or p not in seen:
                problems.append(f"boundary_map[{x}] = {p} is not a valid point")
            else:
                classes.append(seen[p])
        if len(set(classes)) != len(classes):
            problems.append("boundary not injective")
    for name, w in (("w", structure.weights_w), ("b", structure.weights_b)):
        if w is not None:
            if len(w) != n:
                problems.append(f"weights {name} must have one entry per copy")
            elif any(v <= 0 for v in w):
                problems.append(f"weights {name} must be strictly positive")
    if structure.weak is not None and structure.weak.size != npts:
        problems.append("weak network must live on {copies} x F")
    return problems


@dataclass(eq=False)
class Lattice:
    """Level-n lattice: vertex count, ordered boundary, and per-copy maps.

    copy_maps[i] sends a level-(n-1) vertex of copy i to its level-n
    vertex; boundary lists the K vertices realizing the identification of
    the boundary with F, in F order.  Vertices are indexed boundary-first,
    then interior in discovery order, deterministically.
    """

    structure: SelfSimilarStructure
    level: int
    num_vertices: int
    boundary: tuple
    copy_maps: tuple | None = None
    parent: "Lattice | None" = None

    def cell_map(self, address):
        """Vertex indices of the cell at ``address`` (a tuple in {0..N-1}^n),
        as an array over F.  The first address entry is the coarsest copy."""
        if len(address) != self.level:
            raise ValueError("address length must equal the level")
        if self.level == 0:
            return np.arange(self.num_vertices)
        inner = self.parent.cell_map(address[1:])
        return self.copy_maps[address[0]][inner]

    def parent_copy_map(self):
        """For each vertex, the sorted tuple of copies whose sublattice
        contains it."""
        if self.level == 0:
            return tuple(() for _ in range(self.num_vertices))
        out = [set() for _ in range(self.num_vertices)]
        for i, cm in enumerate(self.copy_maps):
            for v in cm:
                out[v].add(i)
        return tuple(tuple(sorted(s)) for s in out)

    def interior(self):
        bset = set(self.boundary)
        return [v for v in range(self.num_vertices) if v not in bset]


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, a):
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def build_lattice(structure: SelfSimilarStructure, n: int) -> Lattice:
    """The level-n lattice of the structure (level 0 is the cell itself,
    with every vertex on the boundary)."""
    if n < 0:
        raise ValueError("level must be >= 0")
    cache = structure._cache.setdefault("lattices", {})
    if n in cache:
        return cache[n]
    k = structure.cell_size
    if n == 0:
        lat = Lattice(structure, 0, k, tuple(range(k)))
    else:
        parent = build_lattice(structure, n - 1)
        ncopies = structure.num_copies
        kp = parent.num_vertices
        uf = _UnionFind(ncopies * kp)
        bnd = parent.boundary
        for cls in structure.glue_classes:
            i0, x0 = divmod(cls[0], k)
            anchor = i0 * kp + bnd[x0]
            for p in cls[1:]:
                i, x = divmod(p, k)
                uf.union(anchor, i * kp + bnd[x])
        index = {}
        boundary = []
        for x in range(k):
            i, z = divmod(structure.boundary_map[x], k)
            root = uf.find(i * kp + bnd[z])
            index[root] = x
            boundary.append(x)
        nxt = k
        copy_maps = []
        for i in range(ncopies):
            cm = np.empty(kp, dtype=int)
            for v in range(kp):
                root = uf.find(i * kp + v)
                if root not in index:
                    index[root] = nxt
                    nxt += 1
                cm[v] = index[root]
            copy_maps.append(cm)
        expected = num_vertices(structure, n)
        if nxt != expected:
            raise InvalidStructure(
                f"level-{n} vertex count {nxt} breaks the gluing recursion "
                f"(expected {expected})"
            )
        lat = Lattice(structure, n, nxt, tuple(boundary), tuple(copy_maps), parent)
    cache[n] = lat
    return lat


def num_vertices(structure, n):
    """|V_n| from the gluing recursion |V_n| = N |V_{n-1}| - (N K - |V_1|),
    without building a lattice (|V_1| is the number of glue classes)."""
    k, ncopies = structure.cell_size, structure.num_copies
    v = k
    for _ in range(n):
        v = ncopies * v - (ncopies * k - len(structure.glue_classes))
    return v


def assemble_q(structure: SelfSimilarStructure, q, n: int):
    """Level-n form of a symmetric matrix Q on the cell.

    Recursion: Q_<k+1> = glue of the block sum of w_i Q_<k> over copies,
    plus the weak network placed on the level-1 image points.  Works for
    arbitrary complex symmetric Q (not only network forms)."""
    q = np.asarray(q, dtype=complex)
    if q.shape != (structure.cell_size, structure.cell_size):
        raise ValueError("Q must be a cell-sized square matrix")
    if n < 0:
        raise ValueError("level must be >= 0")
    w = structure.copy_weights()
    weak = structure.weak_q()
    cur = q
    for level in range(1, n + 1):
        lat = build_lattice(structure, level)
        out = np.zeros((lat.num_vertices, lat.num_vertices), dtype=complex)
        for i, cm in enumerate(lat.copy_maps):
            np.add.at(out, (cm[:, None], cm[None, :]), w[i] * cur)
        if weak is not None:
            idx = _weak_indices(structure, lat)
            np.add.at(out, (idx[:, None], idx[None, :]), weak)
        cur = out
    return cur


def _weak_indices(structure, lat):
    """Level vertex of each flattened point (copy, x): the weak network is
    attached to the copies' boundary images."""
    k = structure.cell_size
    bnd = lat.parent.boundary
    idx = np.empty(structure.num_points, dtype=int)
    for p in range(structure.num_points):
        i, x = divmod(p, k)
        idx[p] = lat.copy_maps[i][bnd[x]]
    return idx


def assemble_network(structure, rho, n: int):
    """Level-n form of an electrical network (or raw symmetric matrix)."""
    q = q_matrix(rho) if isinstance(rho, ElectricalNetwork) else rho
    return assemble_q(structure, q, n)


def assemble_measure(structure: SelfSimilarStructure, b, n: int):
    """Level-n measure: each cell at address (i_1..i_n) carries
    (b_{i_1}...b_{i_n}) b, and identified points add up."""
    b = np.asarray(b, dtype=float)
    if b.shape != (structure.cell_size,):
        raise ValueError("measure must be a cell-sized vector")
    if np.any(b <= 0):
        raise NonPositiveWeight("measure must be strictly positive")
    wb = structure.measure_weights()
    cur = b
    for level in range(1, n + 1):
        lat = build_lattice(structure, level)
        out = np.zeros(lat.num_vertices)
        for i, cm in enumerate(lat.copy_maps):
            np.add.at(out, cm, wb[i] * cur)
        cur = out
    return cur


# ---------------------------------------------------------------------------
# Builtin structures
# ---------------------------------------------------------------------------

def _classes_from_pairs(k, n, pairs):
    """Partition of {copies} x F generated by the given point pairs
    (0-based (copy, vertex) tuples); everything else stays a singleton."""
    npts = k * n
    uf = _UnionFind(npts)
    for (i, x), (j, y) in pairs:
        uf.union(point_index(i, x, k), point_index(j, y, k))
    groups = {}
    for p in range(npts):
        groups.setdefault(uf.find(p), []).append(p)
    return tuple(tuple(sorted(g)) for _, g in sorted(groups.items()))


def sierpinski() -> SelfSimilarStructure:
    """Three triangles glued pairwise at opposite corners.

    Copy i keeps vertex i as an outer corner; vertex j of copy i is
    identified with vertex i of copy j.  This is the standard pairing
    convention for the figure-defined gasket."""
    pairs = [((0, 1), (1, 0)), ((1, 2), (2, 1)), ((0, 2), (2, 0))]
    return SelfSimilarStructure(
        cell_size=3,
        num_copies=3,
        glue_classes=_classes_from_pairs(3, 3, pairs),
        boundary_map=(point_index(0, 0, 3), point_index(1, 1, 3), point_index(2, 2, 3)),
        name="sierpinski",
    )


def _gamma_bar_weak(k, r_a, r_b, v_a, v_b):
    """Weak network of the triangle-group examples: two triangles on the
    six non-corner points, one through (i, i+1), one through (i, i-1)."""
    tri_a = [point_index(i, (i + 1) % 3, k) for i in range(3)]
    tri_b = [point_index(i, (i + 2) % 3, k) for i in range(3)]
    cond = {}
    for pts, r in ((tri_a, r_a), (tri_b, r_b)):
        for a in range(3):
            for b in range(a + 1, 3):
                cond[(min(pts[a], pts[b]), max(pts[a], pts[b]))] = r
    diss = [0.0] * (3 * k)
    for p in tri_a:
        diss[p] = v_a
    for p in tri_b:
        diss[p] = v_b
    return ElectricalNetwork(3 * k, cond, tuple(diss), signed=True)


def gamma_bar(r, v) -> SelfSimilarStructure:
    """Triangle-group example: three disjoint copies joined only by weak
    connections -- conductance r along two triangles through the six
    non-corner points, dissipative term v at each of them.

    Its coordinate map has z0 = v and z1 = 3r + v."""
    return SelfSimilarStructure(
        cell_size=3,
        num_copies=3,
        glue_classes=tuple((p,) for p in range(9)),
        boundary_map=(point_index(0, 0, 3), point_index(1, 1, 3), point_index(2, 2, 3)),
        weak=_gamma_bar_weak(3, float(r), float(r), float(v), float(v)),
        name="gamma_bar",
    )


def gamma_bar_semi(r, r_prime, v, v_prime) -> SelfSimilarStructure:
    """Semi-symmetric variant: the two weak triangles carry different data,
    conductance r/3 with dissipative v on one, r'/3 with v' on the other.
    Only the rotations survive as symmetries.

    The per-triangle conductance is normalized by 3 so the coordinate map
    has z0 = v, z0' = v', z1 = r + v, z1' = r' + v'; at r = r', v = v' the
    structure coincides with gamma_bar(r/3, v)."""
    return SelfSimilarStructure(
        cell_size=3,
        num_copies=3,
        glue_classes=tuple((p,) for p in range(9)),
        boundary_map=(point_index(0, 0, 3), point_index(1, 1, 3), point_index(2, 2, 3)),
        weak=_gamma_bar_weak(3, float(r) / 3.0, float(r_prime) / 3.0, float(v), float(v_prime)),
        name="gamma_bar_semi",
    )


def interval() -> SelfSimilarStructure:
    """Unit-interval smoke structure: two 2-cells glued end to end."""
    pairs = [((0, 1), (1, 0))]
    return SelfSimilarStructure(
        cell_size=2,
        num_copies=2,
        glue_classes=_classes_from_pairs(2, 2, pairs),
        boundary_map=(point_index(0, 0, 2), point_index(1, 1, 2)),
        name="interval",
    )


def builtin_structures() -> dict:
    """Ready-made structures, keyed by name (default parameters for the
    weak-connection examples match the shipped config files)."""
    return {
        "sierpinski": sierpinski(),
        "gamma_bar": gamma_bar(1.0, 2.0),
        "gamma_bar_semi": gamma_bar_semi(2.0, 4.0, 1.0, 2.0),
        "interval": interval(),
    }
