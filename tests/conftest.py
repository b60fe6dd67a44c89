import numpy as np
import pytest

from steerdist.assemblage import Assemblage, element_keys


def random_hermitian(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2


def random_psd(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return g.conj().T @ g


def max_element_diff(asm1, asm2):
    """Largest entrywise deviation between two assemblages on one grid."""
    return max(
        float(np.max(np.abs(asm1.elements[k] - asm2.elements[k])))
        for k in element_keys(asm1.scenario)
    )


def white_noise(scenario):
    """Assemblage whose every element is identity / (d * outcomes per setting)."""
    d, k = scenario.element_dim, scenario.parties
    keys = element_keys(scenario)
    return Assemblage(scenario, {key: np.eye(d, dtype=complex) / (d * 2**k) for key in keys})


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
