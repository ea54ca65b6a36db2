"""Continuous-time dynamics on the grid: the force terms and conserved quantities.

The second-order field equation is reduced to du/dt = v,
dv/dt = sigma*alpha*u_xx + mu*u - beta*u^3. In coefficient space the linear
part acts on mode m as lambda_m = mu - sigma*alpha*k_m^2 (linear_symbol) and
the cubic is taken alias-free on a 2x grid (nonlinear_hat); the stage solver
integrates exactly these two terms. sigma = +1 ("standard_wave") keeps the usual wave operator;
the equation as written with a +alpha*u_xx term moved to the other side
flips it. energy and momentum act along the last axis, so one call gives
every row of a stacked (..., N) block, inf or nan where a row overflows.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import DRIFT_GUARD
from .errors import InvalidParams
from .spectral import cube_hat, first_derivative


def linear_symbol(params):
    """lambda_m = mu - sigma*alpha*k_m^2, the linear force on each half-spectrum mode of params.grid."""
    return params.mu - params.sigma * params.alpha * params.grid.wavenumbers ** 2


def nonlinear_hat(uhat, params):
    """-beta times the alias-free cube, in coefficient space."""
    return -params.beta * cube_hat(uhat)


def energy(u, v, params):
    """Energy dx * sum(v^2/2 + sigma*alpha*(Du)^2/2 - mu*u^2/2 + beta*u^4/4) of each row; inf or nan on overflow."""
    du = first_derivative(u, params.grid)
    dens = (
        0.5 * v ** 2
        + 0.5 * params.sigma * params.alpha * du ** 2
        - 0.5 * params.mu * u ** 2
        + 0.25 * params.beta * u ** 4
    )
    return params.grid.dx * np.sum(dens, axis=-1)


def momentum(u, v, params):
    """Field momentum dx * sum(v * Du) of each row, inf or nan on overflow; quadratic, so Gauss steps keep it."""
    return params.grid.dx * np.sum(v * first_derivative(u, params.grid), axis=-1)


def energy_drift(e_now, e_ref):
    """(E - E0) / max(|E0|, DRIFT_GUARD) elementwise, so an (M, 1) e_ref serves (M, S) energies."""
    return (e_now - e_ref) / np.maximum(abs(e_ref), DRIFT_GUARD)


@dataclass(frozen=True)
class FixedPointSet:
    """Spatially uniform equilibria of the local dynamics in the (u, v) plane."""

    center: tuple
    plus: tuple
    minus: tuple

    def as_list(self):
        return [self.center, self.plus, self.minus]


def fixed_points(params):
    """(0,0) and (+-sqrt(mu/beta), 0); requires mu, beta > 0."""
    violations = []
    if params.mu <= 0:
        violations.append(f"mu must be positive for a double well, got {params.mu}")
    if params.beta <= 0:
        violations.append(f"beta must be positive for a double well, got {params.beta}")
    if violations:
        raise InvalidParams(violations)
    ustar = math.sqrt(params.mu / params.beta)
    return FixedPointSet(center=(0.0, 0.0), plus=(ustar, 0.0), minus=(-ustar, 0.0))
