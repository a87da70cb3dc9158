"""Grassmann-algebra carrier of the renormalization lift.

Elements live in the balanced subalgebra spanned by monomials with equal
numbers of conjugate and plain generators.  A coefficient table maps index
pairs (I, J), encoded as bitmasks over the ground set, to complex numbers;
the monomial behind key (I, J) is the paired product

    etabar_{i1} eta_{j1} etabar_{i2} eta_{j2} ...   (I, J ascending),

so the table of exp(etabar Q eta) is literally the minor table of Q:
coefficient(I, J) = det Q[I, J].  All operation signs reduce to
cross-inversion parities between bitmasks, which keeps the determinant
identities (boundary reduction, gluing morphism, top pairing) exact with
plus signs throughout.

`mul`, `reindex`, `interior_reduce` and `reduced_product` are the
general-purpose reference kernel: dict convolutions over any element.  The
renormalization lift glues N copies and traces out the interior; for a fixed
structure that is a fixed multilinear map of the cell coefficients, so
`_lift_plan` compiles it once into integer index tables (one gather-multiply-
scatter per copy, then one sparse reduction map), forming of each copy only
the products that a later stage reads, and `renorm_lift` runs the tables on
dense coefficient vectors.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .errors import OrderUnstable, ZeroScale
from .linalg import check_symmetric
from .selfsim import build_lattice, level_step


def _mask(indices):
    m = 0
    for i in indices:
        m |= 1 << int(i)
    return m


def _indices(mask):
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _xinv(a, b):
    """Number of pairs (x in a, y in b) with x > y, mod 2 relevant."""
    count = 0
    m = a
    while m:
        low = m & -m
        count += (b & (low - 1)).bit_count()
        m ^= low
    return count


def _merge_sign(i1, j1, i2, j2):
    """Sign of m(i1,j1) * m(i2,j2) = sign * m(i1|i2, j1|j2), disjoint masks."""
    return -1 if (_xinv(i1, i2) + _xinv(j1, j2)) % 2 else 1


def _perm_inversions(seq):
    n = 0
    for a in range(len(seq)):
        for b in range(a + 1, len(seq)):
            if seq[a] > seq[b]:
                n += 1
    return n


@dataclass(eq=False)
class GrassmannElement:
    """Sparse coefficient table over balanced monomial keys (I, J)."""

    ground_size: int
    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        full = (1 << self.ground_size) - 1
        clean = {}
        for (i, j), c in self.coeffs.items():
            if i & ~full or j & ~full:
                raise ValueError("monomial key outside ground set")
            if i.bit_count() != j.bit_count():
                raise ValueError("unbalanced monomial key")
            c = complex(c)
            if c != 0:
                clean[(i, j)] = c
        self.coeffs = clean

    @classmethod
    def _trusted(cls, ground_size, coeffs):
        """The element of a table the library built from checked data: its
        keys come from compiled key tables (balanced, inside the ground
        set), its values are Python complex and none is zero.  That is what
        __post_init__ would make of it, so its pass is skipped."""
        out = object.__new__(cls)
        out.ground_size = ground_size
        out.coeffs = coeffs
        return out

    @classmethod
    def unit(cls, ground_size):
        return cls(ground_size, {(0, 0): 1.0})

    def get(self, i_mask, j_mask):
        return self.coeffs.get((i_mask, j_mask), 0j)

    def norm(self):
        return float(np.sqrt(sum(abs(c) ** 2 for c in self.coeffs.values())))

    def scaled(self, factor):
        return GrassmannElement(
            self.ground_size, {k: factor * c for k, c in self.coeffs.items()}
        )

    def __add__(self, other):
        if self.ground_size != other.ground_size:
            raise ValueError("ground sets differ")
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0j) + c
        return GrassmannElement(self.ground_size, out)

    def __sub__(self, other):
        return self + other.scaled(-1.0)


def exp_eta(q) -> GrassmannElement:
    """All minors of a symmetric matrix: coefficient(I, J) = det Q[I, J]."""
    q = check_symmetric(q)
    nonzero = q != 0
    support = np.flatnonzero(nonzero.any(axis=0) | nonzero.any(axis=1))
    coeffs = {(0, 0): 1.0 + 0j}
    for index, keys in _minor_tables(tuple(support.tolist())):
        # one batched det per minor size: block[r, c] = q[subsets[r], subsets[c]]
        for key, d in zip(keys, np.linalg.det(q[index]).ravel().tolist()):
            if d != 0:
                coeffs[key] = d
    return GrassmannElement._trusted(q.shape[0], coeffs)


@functools.cache
def _minor_tables(support):
    """Per minor size over the index tuple `support`: the read-only fancy
    index that gathers every block q[I, J] for one batched det, and the keys
    (I, J) of the dets in row-major order."""
    out = []
    for size in range(1, len(support) + 1):
        subsets = np.array(list(combinations(support, size)))
        masks = [_mask(c) for c in subsets]
        index = (subsets[:, None, :, None], subsets[None, :, None, :])
        for a in index:
            a.flags.writeable = False
        out.append((index, [(i, j) for i in masks for j in masks]))
    return tuple(out)


def mul(x: GrassmannElement, y: GrassmannElement) -> GrassmannElement:
    """Algebra product (anticommuting generators, squares vanish).

    Balanced monomials have even total degree, so the subalgebra is
    commutative and iterating over the sparser factor is safe."""
    if x.ground_size != y.ground_size:
        raise ValueError("ground sets differ")
    if len(y.coeffs) > len(x.coeffs):
        x, y = y, x
    out = {}
    for (i2, j2), c2 in y.coeffs.items():
        for (i1, j1), c1 in x.coeffs.items():
            if i1 & i2 or j1 & j2:
                continue
            key = (i1 | i2, j1 | j2)
            val = _merge_sign(i1, j1, i2, j2) * c1 * c2
            out[key] = out.get(key, 0j) + val
    return GrassmannElement(x.ground_size, out)


def reindex(x: GrassmannElement, mapping, new_ground) -> GrassmannElement:
    """Algebra morphism sending generator t to generator mapping[t].

    Collisions inside one monomial kill it (nilpotence); signs come from
    re-sorting the mapped index lists."""
    out = {}
    for (i, j), c in x.coeffs.items():
        image = _reindex_key(i, j, mapping)
        if image is None:
            continue
        key, sign = image
        out[key] = out.get(key, 0j) + sign * c
    return GrassmannElement(new_ground, out)


def _reindex_key(i, j, mapping):
    """(image key, sign) of monomial (i, j) under reindex, or None if the
    image collides."""
    img_i = [int(mapping[t]) for t in _indices(i)]
    img_j = [int(mapping[t]) for t in _indices(j)]
    if len(set(img_i)) != len(img_i) or len(set(img_j)) != len(img_j):
        return None
    sign = -1 if (_perm_inversions(img_i) + _perm_inversions(img_j)) % 2 else 1
    return (_mask(img_i), _mask(img_j)), sign


def glue_morphism(x: GrassmannElement, part) -> GrassmannElement:
    """Pushforward along a vertex identification; lifts the gluing map:
    glue_morphism(exp_eta(Q)) = exp_eta(s^T Q s)."""
    if part.size != x.ground_size:
        raise ValueError("partition size must match the ground set")
    return reindex(x, part.class_of, part.num_classes)


def interior_reduce(x: GrassmannElement, interior) -> GrassmannElement:
    """Interior product by the paired top monomial of the interior set.

    Lifts the boundary trace: on exp_eta(Q) it yields
    det(Q_interior) * exp_eta(Q_boundary).  The result lives on the
    complement, compacted in increasing order."""
    interior = sorted(set(interior))
    if any(t < 0 or t >= x.ground_size for t in interior):
        raise ValueError("interior must be a subset of the ground set")
    imask = _mask(interior)
    rest = [t for t in range(x.ground_size) if t not in set(interior)]
    slot = {t: s for s, t in enumerate(rest)}
    out = {}
    for (i, j), c in x.coeffs.items():
        if i & imask != imask or j & imask != imask:
            continue
        i0, j0 = i & ~imask, j & ~imask
        sign = _merge_sign(imask, imask, i0, j0)
        key = (
            _mask([slot[t] for t in _indices(i0)]),
            _mask([slot[t] for t in _indices(j0)]),
        )
        out[key] = out.get(key, 0j) + sign * c
    return GrassmannElement(len(rest), out)


def reduced_product(x: GrassmannElement, y: GrassmannElement, interior):
    """interior_reduce(mul(x, y), interior), without forming the product.

    Convolves over the monomials of the sparser factor for each target
    key.  Reference kernel: the compiled renormalization lift is tested
    against it."""
    if x.ground_size != y.ground_size:
        raise ValueError("ground sets differ")
    n = x.ground_size
    interior = sorted(set(interior))
    imask = _mask(interior)
    rest = [t for t in range(n) if t not in set(interior)]
    if len(y.coeffs) > len(x.coeffs):
        x, y = y, x
    out = {}
    m = len(rest)
    for size in range(m + 1):
        for rows in combinations(range(m), size):
            for cols in combinations(range(m), size):
                ni = imask | _mask(rest[t] for t in rows)
                nj = imask | _mask(rest[t] for t in cols)
                total = 0j
                for (i2, j2), c2 in y.coeffs.items():
                    if i2 & ~ni or j2 & ~nj:
                        continue
                    c1 = x.coeffs.get((ni ^ i2, nj ^ j2))
                    if c1 is None:
                        continue
                    total += _merge_sign(ni ^ i2, nj ^ j2, i2, j2) * c1 * c2
                if total != 0:
                    i0, j0 = ni ^ imask, nj ^ imask
                    sign = _merge_sign(imask, imask, i0, j0)
                    out[(_mask(rows), _mask(cols))] = sign * total
    return GrassmannElement(m, out)


def tau_scale(x: GrassmannElement, alpha) -> GrassmannElement:
    """Lift of Q -> alpha Q: degree-k coefficients pick up alpha^k."""
    if alpha == 0:
        raise ZeroScale("scaling lift needs alpha != 0")
    out = {}
    for (i, j), c in x.coeffs.items():
        out[(i, j)] = (alpha ** i.bit_count()) * c
    return GrassmannElement(x.ground_size, out)


def tau_translate(x: GrassmannElement, q0) -> GrassmannElement:
    """Lift of Q -> Q + Q0: multiplication by exp_eta(Q0)."""
    return mul(exp_eta(q0), x)


def pair(x: GrassmannElement, sign) -> complex:
    """Pairing against the top paired monomial ('+') or the unit ('-')."""
    if sign == "+":
        full = (1 << x.ground_size) - 1
        return x.get(full, full)
    if sign == "-":
        return x.get(0, 0)
    raise ValueError("sign must be '+' or '-'")


def _balanced_keys(k):
    """All C(2k, k) balanced keys over k generators, by degree."""
    keys = []
    for size in range(k + 1):
        masks = [_mask(c) for c in combinations(range(k), size)]
        keys.extend((i, j) for i in masks for j in masks)
    return keys


class _LiftPlan(NamedTuple):
    cell_keys: list  # dense order of the cell's balanced keys
    cell_index: dict  # key -> position in cell_keys
    copies: tuple  # per copy: (z_idx, x_idx, _pairs(dst_idx), sign, size)
    reduce_rows: np.ndarray  # sparse reduction map, final key -> cell key (_pairs)
    reduce_cols: np.ndarray
    reduce_vals: np.ndarray


def _merge_signs(i1, j1, i2, j2, nbits):
    """_merge_sign over integer mask arrays (broadcasting), as +-1 ints."""
    parity = np.zeros(np.broadcast(i1, i2).shape, dtype=np.int64)
    below_i = np.zeros_like(parity)  # parity of the bits of i2 (j2) below t
    below_j = np.zeros_like(parity)
    for t in range(nbits):
        parity ^= ((i1 >> t) & below_i) ^ ((j1 >> t) & below_j)
        below_i ^= (i2 >> t) & 1
        below_j ^= (j2 >> t) & 1
    return 1 - 2 * (parity & 1)


def _lift_plan(structure):
    """Index tables of the renormalization lift of `structure`, built once.

    Copy i multiplies the running product z (a dense vector over the keys
    that a later stage reads; the unit before the first) by the reindexed,
    weighted cell element:  z'[dst] += sign * z[z_idx] * x[x_idx], where
    sign carries the reindex parity, the merge parity and w_i^deg.  The
    reduction map folds the product with the weak-network exponential (the
    unit without a weak network) and the interior reduction into one sparse
    matrix from the final keys to the cell keys.  A key (I, J) of the
    level-1 algebra is packed as the integer I << V | J, V its vertex count.

    The compile first walks back from the final keys the reduction reads: a
    key the product must hold before copy i is one of those keys less an
    image of copy i, with no vertex outside copies 0..i-1.  Each copy then
    forms only the products onto those keys, on the gasket 20/100/100 per
    copy instead of the 20/236/1404 reachable ones, and on the Vicsek set
    6/36/190/454/454 instead of 24,010,000 keys after four copies.  The
    keys of each stage ascend and each copy's products run in (running
    key, image) order, so every sum has the same terms in the same order
    as over all reachable keys."""
    cache = structure._cache
    if "lift_plan" in cache:
        return cache["lift_plan"]
    lat = build_lattice(structure, 1)
    k, nv = structure.cell_size, lat.num_vertices
    cell_keys = _balanced_keys(k)
    cell_index = {key: pos for pos, key in enumerate(cell_keys)}
    w = structure.copy_weights()
    images = []  # per copy: cell key positions, packed image keys, sign * w_i^deg
    for i, cmap in enumerate(lat.copy_maps):
        rows = []
        for pos, (ci, cj) in enumerate(cell_keys):
            image = _reindex_key(ci, cj, cmap)
            if image is not None:
                (ii, ij), sign = image
                rows.append((pos, ii << nv | ij, sign * w[i] ** ci.bit_count()))
        images.append(tuple(np.array(col) for col in zip(*rows)))

    # the boundary is vertices 0..K-1 in F order, so cell key (I, J) is
    # reduced from the level-1 key (I | interior, J | interior)
    imask = _mask(lat.interior())
    ki, kj = (np.array(col) for col in zip(*cell_keys))
    ti, tj = imask | ki, imask | kj
    t_sign = _merge_signs(imask, imask, ki, kj, nv)
    weak_exp = exp_eta(level_step(structure).weak)
    wi, wj = (np.array(col) for col in zip(*weak_exp.coeffs))
    wc = np.array(list(weak_exp.coeffs.values()), dtype=complex)
    # target (I, J) = (z key) * (weak key): z key = target ^ weak key
    t, g = np.nonzero(((wi & ~ti[:, None]) | (wj & ~tj[:, None])) == 0)
    fi, fj = ti[t] ^ wi[g], tj[t] ^ wj[g]
    final = fi << nv | fj

    need = [np.sort(final)]  # need[i]: the keys read after copy i, sorted
    for i in range(len(images) - 1, 0, -1):
        inside, here = _mask(np.concatenate(lat.copy_maps[:i])), _mask(lat.copy_maps[i])
        inside, here = inside << nv | inside, here << nv | here
        # an image fits a key if it holds the key's vertices outside copies
        # 0..i-1 (new) and its others are the key's (old): a test on the
        # key's part on copy i, made once per distinct part
        part, inv = np.unique(need[0] & here, return_inverse=True)
        new, old, img = (part & ~inside)[:, None], (part & inside)[:, None], images[i][1]
        r, m = np.nonzero((((img ^ new) & ~old) == 0)[inv])
        # each key once; np.unique without return_inverse loads numpy.ma (1 MB)
        z = np.sort(need[0][r] ^ img[m])
        need.insert(0, z[np.diff(z, prepend=-1) != 0])
    low = (1 << nv) - 1  # the J half of a packed key
    keys = np.zeros(1, dtype=np.int64)  # the unit
    copies = []
    for (x_pos, img, scale), read in zip(images, need):
        z_idx, m = np.nonzero((keys[:, None] & img) == 0)
        prod = keys[z_idx] | img[m]
        kept = read[np.minimum(np.searchsorted(read, prod), len(read) - 1)] == prod
        z_idx, m = z_idx[kept], m[kept]
        z, img, keys, dst = keys[z_idx], img[m], *np.unique(prod[kept], return_inverse=True)
        sign = scale[m] * _merge_signs(z >> nv, z & low, img >> nv, img & low, nv)
        copies.append((z_idx, x_pos[m], _pairs(dst), sign, len(keys)))

    col = np.minimum(np.searchsorted(keys, final), len(keys) - 1)
    hit = keys[col] == final
    t, g, fi, fj = t[hit], g[hit], fi[hit], fj[hit]
    vals = t_sign[t] * _merge_signs(fi, fj, wi[g], wj[g], nv) * wc[g]
    cache["lift_plan"] = _LiftPlan(cell_keys, cell_index, tuple(copies), _pairs(t), col[hit], vals)
    return cache["lift_plan"]


def _pairs(idx):
    """The positions of the (real, imaginary) float pairs of the complex
    slots idx, in the float view of a complex vector."""
    return (2 * idx[:, None] + np.arange(2)).ravel()


def _scatter_add(pairs, vals, size):
    """Complex vector of length size with vals summed into the slots whose
    float pairs are `pairs` (_pairs): one bincount over the float view of
    vals, which sums each real and each imaginary part over the same terms
    in the same order as a bincount of each would."""
    return np.bincount(pairs, vals.view(float), 2 * size).view(complex)


def renorm_lift(x: GrassmannElement, structure) -> GrassmannElement:
    """One renormalization step on coefficients.

    Copies of x (scaled per copy when weights are present) are glued into
    the level-1 algebra, the weak-network exponential is multiplied in, and
    the interior is reduced away, leaving the boundary, which is the cell
    in F order.  Runs the compiled tables of `_lift_plan` on the dense
    coefficient vector of x; equal to the same composition of the
    reference kernel.  Homogeneous of degree N in the
    coefficients of x for strong connections."""
    if x.ground_size != structure.cell_size:
        raise ValueError("element must live on the cell")
    return _run_lift(_lift_plan(structure), x)


def _run_lift(plan, x):
    """The element the tables of `plan` make of x (renorm_lift's body)."""
    v = np.zeros(len(plan.cell_keys), dtype=complex)
    for key, c in x.coeffs.items():
        v[plan.cell_index[key]] = c
    z = np.ones(1, dtype=complex)
    for z_idx, x_idx, pairs, sign, size in plan.copies:
        z = _scatter_add(pairs, z[z_idx] * v[x_idx] * sign, size)
    out = _scatter_add(plan.reduce_rows, z[plan.reduce_cols] * plan.reduce_vals,
                       len(plan.cell_keys))
    return GrassmannElement._trusted(
        x.ground_size, {key: c for key, c in zip(plan.cell_keys, out.tolist()) if c != 0})


def phi_curve(q_rho, b):
    """The spectral curve lam -> exp_eta(Q_rho + lam I_b)."""
    q_rho = np.asarray(q_rho, dtype=complex)
    b = np.asarray(b, dtype=float)

    def curve(lam):
        return exp_eta(q_rho + lam * np.diag(b))

    return curve


DEFAULT_SCALES = (1e-2, 1e-3, 1e-4, 1e-5)
# vanishing_order: norms below this * the largest * max / min scale are noise.
NOISE_FLOOR = 1e-13


def vanishing_order(curve, lam0, scales=DEFAULT_SCALES):
    """Numeric order of vanishing of a holomorphic curve of elements.

    Compares norms at lam0 + t and lam0 + 2t over a decreasing scale
    ladder; the last two dyadic log-ratios must agree on one integer
    within 0.2 or OrderUnstable is raised."""
    if not scales:
        raise ValueError("need at least one scale")
    scales = sorted(scales, reverse=True)
    estimates = []
    norms = []
    for t in scales:
        n1 = curve(lam0 + t).norm()
        n2 = curve(lam0 + 2 * t).norm()
        if n1 == 0.0 or n2 == 0.0:
            raise OrderUnstable("curve vanishes identically at working precision")
        norms.extend([n1, n2])
        estimates.append(np.log(n2 / n1) / np.log(2.0))
    if min(norms) < NOISE_FLOOR * max(norms) * max(scales) / min(scales):
        raise OrderUnstable("norms fell to the noise floor before settling")
    order = int(round(float(estimates[-1])))
    settled = estimates[-2:] if len(estimates) > 1 else estimates
    if any(abs(e - order) > 0.2 for e in settled):
        raise OrderUnstable(f"ladder estimates {estimates} do not settle")
    return order
