"""Electrical networks and the two basic operations on their forms.

A dissipative electrical network on F = {0..K-1} is a family of
non-negative conductances rho_{ij} plus non-negative dissipative terms
rho_i.  Its quadratic form is carried by the symmetric matrix Q with

    Q_ij = -rho_ij   (i != j),      Q_ii = rho_i + sum_k rho_ik,

so that <Qf, f> = sum_i rho_i f(i)^2 + 1/2 sum_ij rho_ij (f(i)-f(j))^2.

The boundary trace (Schur complement onto a vertex subset) and the gluing
pushforward along a vertex identification both act on general complex
symmetric matrices; the Dirichlet cone is preserved by both.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NotADirichletForm, SingularInterior
from .linalg import check_symmetric

# Relative threshold below which the interior block counts as singular
# (the pole set of the boundary-trace map).
SINGULAR_TOL = 1e-10
# is_dirichlet_form's cone threshold, relative to max(1, max|q|); looser
# than network_from_q's 1e-12 to absorb rounding in traced and glued forms.
DIRICHLET_TOL = 1e-9


@dataclass(frozen=True)
class ElectricalNetwork:
    """Conductances rho_{ij} >= 0 (keyed on i < j) and dissipative rho_i >= 0.

    ``signed=True`` lifts the nonnegativity requirement; the rational maps
    extend to such data, which the weak-connection group examples use."""

    size: int
    conductances: dict = field(default_factory=dict)
    dissipative: tuple = ()
    signed: bool = False

    def __post_init__(self):
        diss = tuple(float(v) for v in self.dissipative) or (0.0,) * self.size
        object.__setattr__(self, "dissipative", diss)
        cond = {}
        for (i, j), rho in self.conductances.items():
            if i == j or not (0 <= i < self.size and 0 <= j < self.size):
                raise ValueError(f"bad edge ({i}, {j})")
            key = (i, j) if i < j else (j, i)
            cond[key] = cond.get(key, 0.0) + float(rho)
        object.__setattr__(self, "conductances", cond)
        if len(diss) != self.size:
            raise ValueError("dissipative vector length must equal size")
        if not self.signed and (
            any(v < 0 for v in diss) or any(v < 0 for v in cond.values())
        ):
            raise ValueError("conductances and dissipative terms must be >= 0")

    def is_conservative(self):
        return all(v <= 0.0 for v in self.dissipative)

    def is_irreducible(self):
        """Is the graph of strictly positive conductances connected?"""
        if self.size <= 1:
            return True
        adj = [[] for _ in range(self.size)]
        for (i, j), rho in self.conductances.items():
            if rho > 0:
                adj[i].append(j)
                adj[j].append(i)
        seen = {0}
        stack = [0]
        while stack:
            for n in adj[stack.pop()]:
                if n not in seen:
                    seen.add(n)
                    stack.append(n)
        return len(seen) == self.size


@dataclass(frozen=True)
class VertexPartition:
    """Surjection of {0..size-1} onto classes 0..m-1, every class nonempty."""

    size: int
    class_of: tuple

    def __post_init__(self):
        class_of = tuple(int(c) for c in self.class_of)
        object.__setattr__(self, "class_of", class_of)
        if len(class_of) != self.size:
            raise ValueError("class_of length must equal size")
        m = self.num_classes
        if set(class_of) != set(range(m)):
            raise ValueError("class ids must be contiguous 0..m-1, all nonempty")

    @property
    def num_classes(self):
        return max(self.class_of) + 1 if self.class_of else 0

    @classmethod
    def identity(cls, size):
        return cls(size, tuple(range(size)))

    @classmethod
    def from_classes(cls, size, classes):
        """Build from explicit classes; unlisted vertices become singletons."""
        class_of = [-1] * size
        nxt = 0
        for group in classes:
            for v in group:
                if class_of[v] != -1:
                    raise ValueError(f"vertex {v} appears in two classes")
                class_of[v] = nxt
            nxt += 1
        for v in range(size):
            if class_of[v] == -1:
                class_of[v] = nxt
                nxt += 1
        return cls(size, tuple(class_of))

    def matrix(self):
        """The size x num_classes incidence matrix s of the identification."""
        s = np.zeros((self.size, self.num_classes))
        s[np.arange(self.size), self.class_of] = 1.0
        return s


def q_matrix(net: ElectricalNetwork):
    """The symmetric form Q_rho of a network (real PSD)."""
    q = np.zeros((net.size, net.size))
    for i, rho in enumerate(net.dissipative):
        q[i, i] += rho
    for (i, j), rho in net.conductances.items():
        q[i, j] -= rho
        q[j, i] -= rho
        q[i, i] += rho
        q[j, j] += rho
    return q


def network_from_q(q, tol=1e-12) -> ElectricalNetwork:
    """Invert q_matrix.  Raises NotADirichletForm outside the network cone."""
    q = np.asarray(q)
    if np.iscomplexobj(q) and np.max(np.abs(q.imag)) > tol:
        raise NotADirichletForm("network forms are real")
    q = check_symmetric(q).real
    k = q.shape[0]
    scale = max(1.0, float(np.max(np.abs(q))))
    cond = {}
    for i in range(k):
        for j in range(i + 1, k):
            if q[i, j] > tol * scale:
                raise NotADirichletForm(f"positive off-diagonal at ({i},{j})")
            if q[i, j] < 0:
                cond[(i, j)] = -q[i, j]
    rowsums = q.sum(axis=1)
    if np.any(rowsums < -tol * scale):
        raise NotADirichletForm("negative row sum")
    diss = tuple(max(v, 0.0) for v in rowsums)
    return ElectricalNetwork(k, cond, diss)


def is_dirichlet_form(q):
    """Real symmetric, off-diagonals <= 0, row sums >= 0 (to DIRICHLET_TOL)."""
    try:
        network_from_q(q, DIRICHLET_TOL)
    except NotADirichletForm:
        return False
    return True


def _split(q, boundary):
    k = q.shape[0]
    boundary = list(boundary)
    if not boundary:
        raise ValueError("boundary set must be nonempty")
    if len(set(boundary)) != len(boundary) or not all(0 <= b < k for b in boundary):
        raise ValueError("boundary must be a subset of vertex indices")
    interior = [i for i in range(k) if i not in set(boundary)]
    return boundary, interior


def _solve_interior(qii, rhs):
    """qii^{-1} rhs for an interior block qii; raises SingularInterior on
    the pole set."""
    s = np.linalg.svd(qii, compute_uv=False)
    if s[0] == 0.0 or s[-1] <= SINGULAR_TOL * s[0]:
        raise SingularInterior("interior block is numerically singular")
    return np.linalg.solve(qii, rhs)


def trace_map(q, boundary):
    """Schur complement of Q onto the vertex subset ``boundary``.

    Q_dF = Q|dF - B (Q|int)^{-1} B^T, the network seen from its boundary.
    With an empty interior the Schur term is zero and Q comes back in
    boundary order.  Raises SingularInterior on the pole set.
    """
    q = check_symmetric(q)
    bnd, interior = _split(q, boundary)
    order = bnd + interior
    return trace_leading(q[np.ix_(order, order)], len(bnd))


def trace_leading(q, k):
    """trace_map(q, range(k)) by slices, for a q the caller has checked
    symmetric: the Schur complement onto the leading k vertices."""
    if q.shape[0] == k:
        return q[:k, :k]
    b = q[:k, k:]
    out = q[:k, :k] - b @ _solve_interior(q[k:, k:], b.T)
    return (out + out.T) / 2.0


def harmonic_extension(q, boundary, f):
    """Extend boundary values f to all of F with zero interior residual.

    The result h satisfies (Q h)|interior = 0 and h|boundary = f; it is the
    energy minimizer among extensions when Q is real PSD irreducible.
    """
    q = check_symmetric(q)
    bnd, interior = _split(q, boundary)
    f = np.asarray(f, dtype=complex)
    if f.shape != (len(bnd),):
        raise ValueError("boundary data length must match boundary size")
    h = np.zeros(q.shape[0], dtype=complex)
    h[bnd] = f
    if interior:
        h[interior] = -_solve_interior(q[np.ix_(interior, interior)], q[np.ix_(interior, bnd)] @ f)
    return h


def glue(q, part: VertexPartition):
    """Pushforward s^T Q s of Q along a vertex identification."""
    q = check_symmetric(q)
    if part.size != q.shape[0]:
        raise ValueError("partition size must match matrix dimension")
    s = part.matrix()
    return s.T @ q @ s


def glue_network(net: ElectricalNetwork, part: VertexPartition) -> ElectricalNetwork:
    """Network-level gluing: conductances and dissipative terms add up
    over preimages.  Edges inside one class disappear."""
    if part.size != net.size:
        raise ValueError("partition size must match network size")
    m = part.num_classes
    cond = {}
    for (i, j), rho in net.conductances.items():
        ci, cj = part.class_of[i], part.class_of[j]
        if ci == cj:
            continue
        key = (min(ci, cj), max(ci, cj))
        cond[key] = cond.get(key, 0.0) + rho
    diss = [0.0] * m
    for i, rho in enumerate(net.dissipative):
        diss[part.class_of[i]] += rho
    return ElectricalNetwork(m, cond, tuple(diss))


def energy(q, f):
    """The bilinear energy <Qf, f> (no conjugation: complex inputs allowed)."""
    q = np.asarray(q, dtype=complex)
    f = np.asarray(f, dtype=complex)
    return complex(f @ (q @ f))


def current(q, f):
    """The current Qf, viewed as an element of the dual space."""
    q = np.asarray(q, dtype=complex)
    f = np.asarray(f, dtype=complex)
    return q @ f
