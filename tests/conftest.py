import os

# One BLAS thread: with two threads on a two-core host the first small
# solve of a run sometimes stalls for about a second, which trips the
# wall-clock bounds of the acceptance tests.  Must be set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from fractal_spectra.config import load_config  # noqa: E402
from fractal_spectra.linalg import kernel_basis  # noqa: E402
from fractal_spectra.network import ElectricalNetwork  # noqa: E402
from fractal_spectra.selfsim import SelfSimilarStructure, gamma_bar, gamma_bar_semi  # noqa: E402

# nd_kernel_dimension: singular values <= this * the largest count as zero.
KERNEL_ORACLE_TOL = 1e-7


def _nd_kernel_dimension(q_n, b_n, boundary, lam):
    """dim ker of the stacked matrix [Q + lam I_b ; boundary rows]."""
    q_n = np.asarray(q_n, dtype=complex)
    n = q_n.shape[0]
    rows = np.zeros((len(boundary), n))
    for r, b in enumerate(boundary):
        rows[r, b] = 1.0
    stacked = np.vstack([q_n + lam * np.diag(np.asarray(b_n)), rows])
    return kernel_basis(stacked, tol=KERNEL_ORACLE_TOL).dim


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def triangle():
    return ElectricalNetwork(3, {(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0})


@pytest.fixture
def triangle_q(triangle):
    from fractal_spectra.network import q_matrix

    return q_matrix(triangle)


@pytest.fixture
def gasket():
    return load_config("sierpinski").structure


@pytest.fixture
def gbar():
    return gamma_bar(1.0, 2.0)


@pytest.fixture
def gsemi():
    return gamma_bar_semi(2.0, 4.0, 1.0, 2.0)


@pytest.fixture
def segment():
    return load_config("interval").structure


@pytest.fixture
def self_glued():
    """A glue class holding two vertices of one copy: points 1 and 2 (vertices
    1 and 2 of copy 0) and 3 (vertex 0 of copy 1)."""
    return SelfSimilarStructure(3, 3, ((1, 2, 3), (0,), (4,), (5, 6), (7,), (8,)), (0, 4, 8))


@pytest.fixture
def nd_kernel_dimension():
    """The stacked-kernel oracle of N-D multiplicities, independent of the
    library's boundary-rank rule."""
    return _nd_kernel_dimension
