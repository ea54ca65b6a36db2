"""Continuous-time dynamics on the grid: the force terms and conserved quantities.

The second-order field equation is reduced to du/dt = v,
dv/dt = sigma*alpha*u_xx + mu*u - beta*u^3. In coefficient space the linear
part acts on mode m as lambda_m = mu - sigma*alpha*k_m^2 (linear_symbol) and
the cubic is taken alias-free on a 2x grid (nonlinear_hat); the stage solver
integrates exactly these two terms. sigma = +1 ("standard_wave") keeps the usual wave operator;
the equation as written with a +alpha*u_xx term moved to the other side
flips it. energy and momentum act along the last axis, so one call gives
the value of every row of a stacked (S, N) block.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import DRIFT_GUARD
from .errors import InvalidParams, NonFinite
from .spectral import cube_hat, first_derivative


def linear_symbol(params):
    """lambda_m = mu - sigma*alpha*k_m^2, the linear force on each half-spectrum mode of params.grid."""
    return params.mu - params.sigma * params.alpha * params.grid.wavenumbers ** 2


def nonlinear_hat(uhat, params):
    """-beta times the alias-free cube, in coefficient space."""
    return -params.beta * cube_hat(uhat)


def energy(u, v, params):
    """Discrete energy dx * sum(v^2/2 + sigma*alpha*(Du)^2/2 - mu*u^2/2 + beta*u^4/4) of each row."""
    du = first_derivative(u, params.grid)
    dens = (
        0.5 * v ** 2
        + 0.5 * params.sigma * params.alpha * du ** 2
        - 0.5 * params.mu * u ** 2
        + 0.25 * params.beta * u ** 4
    )
    val = params.grid.dx * np.sum(dens, axis=-1)
    if not np.all(np.isfinite(val)):
        raise NonFinite("energy non-finite")
    return val


def momentum(u, v, params):
    """Discrete field momentum dx * sum(v * Du) of each row; quadratic, so Gauss steps preserve it."""
    val = params.grid.dx * np.sum(v * first_derivative(u, params.grid), axis=-1)
    if not np.all(np.isfinite(val)):
        raise NonFinite("momentum non-finite")
    return val


def energy_drift(e_now, e_ref):
    return (e_now - e_ref) / max(abs(e_ref), DRIFT_GUARD)


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
