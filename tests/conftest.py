import numpy as np
import pytest

from fractal_spectra.network import ElectricalNetwork
from fractal_spectra.selfsim import gamma_bar, gamma_bar_semi, interval, sierpinski


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

