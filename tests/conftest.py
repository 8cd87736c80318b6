import warnings

import numpy as np
import pytest

from milburnsim.params import DispersiveValidityWarning, SystemParams

# the reference parameter sets run at delta = 2 * lam on purpose
warnings.simplefilter("ignore", DispersiveValidityWarning)


@pytest.fixture
def fig1a():
    return SystemParams(lam=1.0, epsilon=0.0, delta=2.0, gamma=1e6,
                        alpha=2.5, dcut=64)


@pytest.fixture
def fig1b():
    return SystemParams(lam=1.0, epsilon=0.5, delta=2.0, gamma=1e3,
                        alpha=2.5, dcut=64)


@pytest.fixture
def fig1c():
    return SystemParams(lam=1.0, epsilon=0.5, delta=2.0, gamma=1e6,
                        alpha=2.5, dcut=64)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
