import os

# One BLAS thread: with two threads on a two-core host the first small
# solve of a run sometimes stalls for about a second, which trips the
# wall-clock bounds of the acceptance tests.  Must be set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from fractal_spectra.network import ElectricalNetwork  # noqa: E402
from fractal_spectra.selfsim import (  # noqa: E402
    SelfSimilarStructure,
    gamma_bar,
    gamma_bar_semi,
    interval,
    sierpinski,
)


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
    return sierpinski()


@pytest.fixture
def gbar():
    return gamma_bar(1.0, 2.0)


@pytest.fixture
def gsemi():
    return gamma_bar_semi(2.0, 4.0, 1.0, 2.0)


@pytest.fixture
def segment():
    return interval()


@pytest.fixture
def self_glued():
    """A glue class holding two vertices of one copy: points 1 and 2 (vertices
    1 and 2 of copy 0) and 3 (vertex 0 of copy 1)."""
    return SelfSimilarStructure(3, 3, ((1, 2, 3), (0,), (4,), (5, 6), (7,), (8,)), (0, 4, 8))
