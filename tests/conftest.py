"""Shared fixtures. The expensive default run is computed once per session."""

import time

import pytest

from kgbreather import SimParams, dft_forward, dft_inverse, integrate
from kgbreather.dynamics import linear_symbol, nonlinear_hat


def force(u, params):
    """dv/dt at the samples u on params.grid: the stage solver's two terms, in physical space."""
    uhat = dft_forward(u)
    return dft_inverse(linear_symbol(params) * uhat + nonlinear_hat(uhat, params))


@pytest.fixture()
def default_params():
    return SimParams()


class DefaultRun:
    """Bundle of everything the full default simulation produced."""

    def __init__(self):
        self.params = SimParams()
        start = time.monotonic()
        self.summary, self.snapshots, self.diagnostics, self.tracks = integrate(self.params)
        self.wall_seconds = time.monotonic() - start


@pytest.fixture(scope="session")
def default_run():
    """Full default simulation to t = 2048; shared by every test that needs it."""
    return DefaultRun()
