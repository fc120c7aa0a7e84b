import numpy as np
import pytest

from _sampling import random_invertible, random_measure


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)


@pytest.fixture
def make_measure(rng):
    def make(n, max_atoms=4, scale=1.0):
        return random_measure(rng, n, max_atoms=max_atoms, scale=scale)
    return make


@pytest.fixture
def make_matrix(rng):
    def make(n, scale=1.0):
        return random_invertible(rng, n, scale=scale)
    return make
