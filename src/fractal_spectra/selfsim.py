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

Every level's form comes from the one below by one step, LevelStep.glue,
in build_lattice's numbering: the level-1 vertices, then each copy's
interior.  assemble_q is n steps; the Schur chain runs the same step.

Points of {copies} x F are flattened as ``copy * K + vertex`` throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidStructure, NonPositiveWeight
from .network import ElectricalNetwork, q_matrix

# Hypothesis H: the ratios w_i / b_i agree to this fraction of max(1, w_0 / b_0).
H_TOL = 1e-12


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

    def hypothesis_h(self):
        """Is gamma_i = w_i / b_i constant across copies (to H_TOL
        relative)?  Returns (status, gamma); gamma is the common value
        when status is True."""
        w = self.copy_weights()
        b = self.measure_weights()
        gammas = [wi / bi for wi, bi in zip(w, b)]
        g0 = gammas[0]
        ok = all(abs(g - g0) <= H_TOL * max(1.0, abs(g0)) for g in gammas)
        return ok, (g0 if ok else None)


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
    the boundary with F, in F order.  Numbering: the |V_1| level-1
    vertices, that is the boundary 0..K-1 (vertex x realizes x in F) and
    then the other glue classes in order of first sight over the points
    (copy, x); then, copy by copy, the copy's |V_{n-1}| - K interior
    vertices in their own order.
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
        return range(len(self.boundary), self.num_vertices)


def build_lattice(structure: SelfSimilarStructure, n: int) -> Lattice:
    """The level-n lattice of the structure (level 0 is the cell itself,
    with every vertex on the boundary).

    Gluing only identifies the copies' boundary points, and every level's
    boundary is its first K vertices, so level n is the level-1
    identification plus N disjoint copies of the level-(n-1) interior.
    Copy i sends its boundary vertex x to the level-1 vertex of point
    (i, x), by its incidence in the LevelStep, and its interior to the i-th
    block after the |V_1| level-1 vertices."""
    if n < 0:
        raise ValueError("level must be >= 0")
    cache = structure._cache.setdefault("lattices", {})
    if n in cache:
        return cache[n]
    k, ncopies = structure.cell_size, structure.num_copies
    if n == 0:
        lat = Lattice(structure, 0, k, tuple(range(k)))
    else:
        step, parent = level_step(structure), build_lattice(structure, n - 1)
        v, inner = step.num_vertices, parent.num_vertices - k
        copy_maps = tuple(np.concatenate([c.argmax(axis=1), v + i * inner + np.arange(inner)])
                          for i, c in enumerate(step.incidence))
        lat = Lattice(structure, n, v + ncopies * inner, tuple(range(k)), copy_maps, parent)
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


@dataclass(frozen=True, eq=False)
class LevelStep:
    """One level of the tower: N weighted copies of the level below glued
    along the level-1 identification, plus the weak network.  incidence[i]
    (K x |V_1|, 0/1) sends vertex x of copy i to its level-1 vertex;
    scatter = sum_i w_i incidence[i] (x) incidence[i]; weak lives on the
    level-1 vertices; gamma is w_i / b_i under hypothesis H, else None."""

    cell_size: int
    num_copies: int
    num_vertices: int
    weights: tuple
    incidence: np.ndarray
    scatter: np.ndarray
    weak: np.ndarray
    gamma: float | None

    def glue(self, e, weak=True):
        """The next level of each matrix of the stack e (boundary first, then
        interior), in e's dtype: the level-1 vertices, then copy by copy its
        interior.  Couplings are summed through the incidence, as two
        vertices of one copy may share a level-1 vertex."""
        k, v = self.cell_size, self.num_vertices
        p, r = e.shape[0], e.shape[1] - k
        size = v + self.num_copies * r
        a = np.zeros((p, size, size), dtype=np.result_type(e, self.scatter))
        a[:, :v, :v] = (e[:, :k, :k].reshape(p, k * k) @ self.scatter).reshape(p, v, v)
        if weak:
            a[:, :v, :v] += self.weak
        for i, (w, c) in enumerate(zip(self.weights, self.incidence) if r else ()):
            s = slice(v + i * r, v + (i + 1) * r)
            a[:, :v, s] = w * (c.T @ e[:, :k, k:])
            a[:, s, :v] = w * (e[:, k:, :k] @ c)
            a[:, s, s] = w * e[:, k:, k:]
        return a


def level_step(structure: SelfSimilarStructure) -> LevelStep:
    """The structure's LevelStep, built once, numbering level 1 as Lattice says."""
    if "level_step" not in structure._cache:
        cls = structure.class_of_point()
        index = {cls[p]: x for x, p in enumerate(structure.boundary_map)}
        heads = [index.setdefault(c, len(index)) for c in cls]
        v, w, weak = len(index), structure.copy_weights(), structure.weak
        flat = np.eye(v)[heads]  # points (copy, x) by level-1 vertices
        incidence = flat.reshape(structure.num_copies, structure.cell_size, v)
        structure._cache["level_step"] = LevelStep(
            structure.cell_size, structure.num_copies, v, w, incidence,
            sum(wi * np.kron(c, c) for wi, c in zip(w, incidence)),
            np.zeros((v, v)) if weak is None else flat.T @ q_matrix(weak) @ flat,
            structure.hypothesis_h()[1])
    return structure._cache["level_step"]


def assemble_q(structure: SelfSimilarStructure, q, n: int):
    """Level-n form of a symmetric matrix Q on the cell: n level steps.

    Recursion: Q_<k+1> = glue of the block sum of w_i Q_<k> over copies,
    plus the weak network placed on the level-1 vertices.  Works for
    arbitrary complex symmetric Q (not only network forms); a real Q gives a
    real form, at half the memory of a complex one."""
    q = np.asarray(q)
    q = q.astype(np.result_type(q, float), copy=False)
    if q.shape != (structure.cell_size, structure.cell_size):
        raise ValueError("Q must be a cell-sized square matrix")
    if n < 0:
        raise ValueError("level must be >= 0")
    for _ in range(n):
        q = level_step(structure).glue(q[None])[0]
    return q


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
    k, wb, step = structure.cell_size, structure.measure_weights(), level_step(structure)
    for _ in range(n):
        b = np.concatenate([sum(w * b[:k] @ c for w, c in zip(wb, step.incidence))]
                           + [w * b[k:] for w in wb])
    return b


# ---------------------------------------------------------------------------
# Builtin structures
# ---------------------------------------------------------------------------

def _classes_from_pairs(k, n, pairs):
    """Partition of {copies} x F into the given disjoint point pairs
    (0-based (copy, vertex) tuples) and singletons, sorted by least point;
    validate rejects pairs that share a point."""
    glued = [tuple(sorted(point_index(i, x, k) for i, x in pair)) for pair in pairs]
    paired = {p for pair in glued for p in pair}
    return tuple(sorted(glued + [(p,) for p in range(k * n) if p not in paired]))


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
