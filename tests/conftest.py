import numpy as np
import pytest
from hypothesis import settings

from ifnet import network

# `pytest --hypothesis-profile=ci` draws the same examples on every run, so a CI
# run fails only on a change; local runs keep drawing new ones
settings.register_profile("ci", derandomize=True)


@pytest.fixture(scope="session")
def net_a():
    """Two mutually excitatory neurons, coupling 0.5 (anti-phase fixture)."""
    return network(2, 1.0, 1.2, 1.0, -1.0, [[0.0, 0.5], [0.5, 0.0]])


@pytest.fixture(scope="session")
def net_b():
    """Two mutually excitatory neurons, coupling 0.2 (repeller fixture)."""
    return network(2, 1.0, 1.2, 1.0, -1.0, [[0.0, 0.2], [0.2, 0.0]])


@pytest.fixture(scope="session")
def net_c():
    """One excitatory and two inhibitory neurons, |H| = 0.6 everywhere."""
    H = [[0.0, 0.6, 0.6],
         [-0.6, 0.0, -0.6],
         [-0.6, -0.6, 0.0]]
    return network(3, 1.0, 1.2, 1.0, -1.0, H)


@pytest.fixture(scope="session")
def net_d():
    """Two mutually inhibitory neurons, coupling -0.6."""
    return network(2, 1.0, 1.2, 1.0, -1.0, [[0.0, -0.6], [-0.6, 0.0]])


@pytest.fixture(scope="session")
def net_sync9():
    """Nine all-to-all excitatory neurons with uniform coupling 0.4."""
    H = np.full((9, 9), 0.4)
    np.fill_diagonal(H, 0.0)
    return network(9, 1.0, 1.2, 1.0, -1.0, H)
