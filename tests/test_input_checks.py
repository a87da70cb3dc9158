"""Every input check that no other test reaches: one case each, with the
error type it raises and a fragment of its message."""

import numpy as np
import pytest

from fractal_spectra import symplectic
from fractal_spectra.config import load_config
from fractal_spectra.errors import (
    InvalidStructure,
    NotADirichletForm,
    NotEquivariant,
    NotHermitian,
    NotSymmetric,
    ZeroScale,
)
from fractal_spectra.grassmann import exp_eta, glue_morphism, mul, pair, reduced_product, renorm_lift
from fractal_spectra.linalg import (
    Subspace,
    check_symmetric,
    generalized_sym_eigvals,
    is_positive_definite,
    kernel_basis,
    orthonormalize,
)
from fractal_spectra.network import (
    ElectricalNetwork,
    VertexPartition,
    glue,
    glue_network,
    harmonic_extension,
    network_from_q,
    trace_map,
)
from fractal_spectra.renorm import CoordinateChart, HomogeneousPoint, g_map, orbit, symmetric_chart
from fractal_spectra.selfsim import SelfSimilarStructure, assemble_measure, assemble_q, build_lattice
from fractal_spectra.spectra import level_spectrum
from fractal_spectra.symplectic import (
    CoisotropicSubspace,
    LagrangianFrame,
    compose,
    from_sym,
    tau_scale_frame,
    w_trace,
)


def gasket():
    return load_config("sierpinski").structure


def path3():
    return np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])


def nearly_isotropic_frame():
    """A Lagrangian frame whose isotropy defect, at most 5e-11, passes its
    constructor's FRAME_TOL but not after a copy weight of 100 scales it."""
    j = np.zeros((3, 3))
    j[0, 1] = 5e-11
    return LagrangianFrame(np.vstack([np.eye(3), j]))


def weighted_gasket():
    st = gasket()
    return SelfSimilarStructure(3, 3, st.glue_classes, st.boundary_map, weights_w=(100.0, 1.0, 1.0))


def structure(k=3, n=3, classes=None, boundary=(0, 4, 8), **extra):
    classes = tuple((p,) for p in range(k * n)) if classes is None else classes
    return SelfSimilarStructure(k, n, classes, boundary, **extra)


def bad_trace_chart():
    # W of the boundary trace on two vertices, its chart not killing W^o
    w = w_trace(2, [0])
    return CoisotropicSubspace(w.frame, w.wo_frame, w.proj + np.outer([1.0, 0.0], w.wo_frame[:, 0].conj()))


e0, e1 = np.eye(2)[:, :1], np.eye(2)[:, 1:]

CASES = [
    # symplectic
    pytest.param(lambda: g_map(nearly_isotropic_frame(), weighted_gasket()),
                 ValueError, "copies of the frame are not isotropic", id="reduce_copies-isotropy"),
    pytest.param(lambda: symplectic.reduction_defect(from_sym(np.eye(2)), w_trace(3, [0])),
                 ValueError, "different spaces", id="meet-shape"),
    pytest.param(lambda: compose(w_trace(3, [0]), w_trace(3, [0, 1])),
                 ValueError, "reduced space of w", id="compose-shape"),
    pytest.param(lambda: CoisotropicSubspace(np.eye(2), e0, np.eye(2)),
                 ValueError, "dimension bookkeeping", id="coisotropic-dimensions"),
    pytest.param(lambda: CoisotropicSubspace(e0, e1, np.zeros((0, 2))),
                 ValueError, "not omega-orthogonal", id="coisotropic-wo"),
    pytest.param(bad_trace_chart, ValueError, "does not kill W^o", id="coisotropic-chart"),
    pytest.param(lambda: tau_scale_frame(from_sym(np.eye(2)), 0.0),
                 ZeroScale, "alpha != 0", id="tau-scale-frame-zero"),
    # renorm
    pytest.param(lambda: CoordinateChart(()), ValueError, "at least one projector", id="chart-empty"),
    pytest.param(lambda: CoordinateChart(([[1, 1], [0, 0]], [[0, -1], [0, 1]])),
                 ValueError, "projector 0 is not symmetric", id="chart-symmetric"),
    pytest.param(lambda: CoordinateChart((np.eye(2), np.eye(3))),
                 ValueError, "projector 1 has shape (3, 3), expected (2, 2)", id="chart-shape"),
    pytest.param(lambda: CoordinateChart(([[1, 0], [0, 0]], [[1, 0], [0, 0]])),
                 ValueError, "projectors 0 and 1 are not orthogonal", id="chart-orthogonal"),
    pytest.param(lambda: symmetric_chart(3).matrix([1.0, 2.0, 3.0]),
                 ValueError, "one coordinate per projector", id="chart-coordinates"),
    pytest.param(lambda: symmetric_chart(3).coords(np.diag([1.0, 2.0, 3.0])),
                 NotEquivariant, "does not commute", id="chart-commute"),
    pytest.param(lambda: HomogeneousPoint(((0.0, 0.0), (1.0, 1.0))),
                 ValueError, "must be nonzero", id="homogeneous-zero"),
    pytest.param(lambda: orbit(np.eye(3), gasket(), steps=0),
                 ValueError, "at least one step", id="orbit-steps"),
    # grassmann
    pytest.param(lambda: exp_eta(np.eye(2)) + exp_eta(np.eye(3)),
                 ValueError, "ground sets differ", id="grassmann-add"),
    pytest.param(lambda: mul(exp_eta(np.eye(2)), exp_eta(np.eye(3))),
                 ValueError, "ground sets differ", id="grassmann-mul"),
    pytest.param(lambda: reduced_product(exp_eta(np.eye(2)), exp_eta(np.eye(3)), [0]),
                 ValueError, "ground sets differ", id="grassmann-reduced-product"),
    pytest.param(lambda: renorm_lift(exp_eta(np.eye(2)), gasket()),
                 ValueError, "live on the cell", id="grassmann-renorm-lift"),
    pytest.param(lambda: glue_morphism(exp_eta(np.eye(2)), VertexPartition.identity(3)),
                 ValueError, "match the ground set", id="grassmann-glue-size"),
    pytest.param(lambda: pair(exp_eta(np.eye(2)), "*"), ValueError, "sign must be", id="grassmann-pair-sign"),
    # linalg
    pytest.param(lambda: check_symmetric(np.zeros((2, 3))),
                 NotSymmetric, "expected a square matrix", id="linalg-symmetric-shape"),
    pytest.param(lambda: generalized_sym_eigvals(np.eye(2), np.ones(3)),
                 ValueError, "weight vector must match", id="linalg-pencil-shape"),
    pytest.param(lambda: kernel_basis(np.eye(2), tol=0.0),
                 ValueError, "tol must be positive", id="linalg-kernel-tol"),
    pytest.param(lambda: is_positive_definite(np.zeros((2, 3))),
                 NotHermitian, "expected a square matrix", id="linalg-definite-shape"),
    pytest.param(lambda: orthonormalize(np.ones(3)),
                 ValueError, "matrix of column vectors", id="linalg-orthonormalize-shape"),
    pytest.param(lambda: Subspace(3, np.eye(2)), ValueError, "basis rows", id="subspace-rows"),
    pytest.param(lambda: Subspace(2, np.ones((2, 1))), ValueError, "not orthonormal", id="subspace-orthonormal"),
    # network
    pytest.param(lambda: ElectricalNetwork(3, {}, (0.0, 0.0)),
                 ValueError, "dissipative vector length", id="network-dissipative"),
    pytest.param(lambda: VertexPartition(3, (0, 1)),
                 ValueError, "class_of length", id="partition-length"),
    pytest.param(lambda: VertexPartition(3, (0, 2, 2)),
                 ValueError, "contiguous", id="partition-ids"),
    pytest.param(lambda: VertexPartition.from_classes(3, [(0, 1), (1, 2)]),
                 ValueError, "vertex 1 appears in two classes", id="partition-classes"),
    pytest.param(lambda: trace_map(path3(), []),
                 ValueError, "boundary set must be nonempty", id="trace-empty"),
    pytest.param(lambda: trace_map(path3(), [0, 0]),
                 ValueError, "subset of vertex indices", id="trace-repeated"),
    pytest.param(lambda: trace_map(path3(), [0, 3]),
                 ValueError, "subset of vertex indices", id="trace-outside"),
    pytest.param(lambda: harmonic_extension(path3(), [0, 2], [1.0]),
                 ValueError, "boundary data length", id="harmonic-data"),
    pytest.param(lambda: glue(path3(), VertexPartition.identity(2)),
                 ValueError, "match matrix dimension", id="glue-size"),
    pytest.param(lambda: glue_network(ElectricalNetwork(3, {(0, 1): 1.0}), VertexPartition.identity(2)),
                 ValueError, "match network size", id="glue-network-size"),
    pytest.param(lambda: network_from_q(np.eye(2) * 1j),
                 NotADirichletForm, "network forms are real", id="network-from-q-complex"),
    pytest.param(lambda: network_from_q(np.diag([-1.0, 1.0])),
                 NotADirichletForm, "negative row sum", id="network-from-q-rows"),
    # selfsim
    pytest.param(lambda: structure(k=0, n=2, classes=(), boundary=()),
                 InvalidStructure, "cell size must be >= 1", id="validate-cell"),
    pytest.param(lambda: structure(n=1, boundary=(0, 1, 2)),
                 InvalidStructure, "need at least 2 copies", id="validate-copies"),
    pytest.param(lambda: structure(classes=tuple((p,) for p in range(8)) + ((8, 9),)),
                 InvalidStructure, "glue class 8 contains bad point 9", id="validate-point"),
    pytest.param(lambda: structure(classes=tuple((p,) for p in range(9)) + ((0, 1),)),
                 InvalidStructure, "point 0 lies in classes 0 and 9", id="validate-overlap"),
    pytest.param(lambda: structure(classes=tuple((p,) for p in range(8))),
                 InvalidStructure, "1 points not covered", id="validate-cover"),
    pytest.param(lambda: structure(boundary=(0, 4)),
                 InvalidStructure, "one entry per cell vertex", id="validate-boundary-length"),
    pytest.param(lambda: structure(boundary=(0, 4, 9)),
                 InvalidStructure, "boundary_map[2] = 9 is not a valid point", id="validate-boundary-point"),
    pytest.param(lambda: structure(weights_w=(1.0, 1.0)),
                 InvalidStructure, "weights w must have one entry per copy", id="validate-weights-length"),
    pytest.param(lambda: structure(weights_b=(1.0, 0.0, 1.0)),
                 InvalidStructure, "weights b must be strictly positive", id="validate-weights-sign"),
    pytest.param(lambda: structure(weak=ElectricalNetwork(3)),
                 InvalidStructure, "weak network must live on", id="validate-weak-size"),
    pytest.param(lambda: build_lattice(gasket(), 2).cell_map((0,)),
                 ValueError, "address length", id="cell-map-address"),
    pytest.param(lambda: build_lattice(gasket(), -1), ValueError, "level must be >= 0", id="build-lattice-level"),
    pytest.param(lambda: assemble_q(gasket(), np.eye(2), 1),
                 ValueError, "cell-sized square", id="assemble-q-shape"),
    pytest.param(lambda: assemble_q(gasket(), np.eye(3), -1),
                 ValueError, "level must be >= 0", id="assemble-q-level"),
    pytest.param(lambda: assemble_measure(gasket(), np.ones(2), 1),
                 ValueError, "cell-sized vector", id="assemble-measure-shape"),
    # spectra
    pytest.param(lambda: level_spectrum(gasket(), np.eye(2), np.ones(2), 1, "neumann"),
                 ValueError, "cell-sized square", id="cell-data-shape"),
]


@pytest.mark.parametrize("call,error,fragment", CASES)
def test_input_check(call, error, fragment):
    with pytest.raises(error) as info:
        call()
    assert fragment in str(info.value)
