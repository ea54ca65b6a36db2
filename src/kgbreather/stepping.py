"""Gauss-Legendre implicit Runge-Kutta stepping in Fourier space.

Per mode of the half-spectrum (spectral.py) the field equation reads
u'' = lambda_m u + N_m with lambda_m = mu - sigma*alpha*k_m^2
(dynamics.linear_symbol) and N the cubic term (dynamics.nonlinear_hat).
Putting the v stages V = v 1 + dt A (lambda_m U + N) into U = u 1 + dt A V
leaves, per mode, the real s x s system (I - dt^2 lambda_m A^2) U =
u 1 + dt v c + dt^2 A^2 N in the u stages alone, coupled across modes only
through N. Each step runs linearly implicit sweeps: the cubic is lagged, the
stage system is solved exactly with the cached K = (I - dt^2 lambda_m A^2)^-1
and G = dt^2 K A^2, and the sweep repeats until the true stage residual
(which equals -dt*A*(N_new - N_old) and is measured in the physical max norm)
falls below stage_tol. One stage force F = lambda_m U + N, from the last
sweep's cube, serves both updates: u + dt v + dt^2 (bA) F and v + dt b F.

Starting values: the u stages of one step and its start lie on the
collocation polynomial through (0, u_{n-1}) and (c_i, U_i). Evaluated at
1 + c_j, it gives the next step's stage guesses, one fixed (s, s+1) Lagrange
matrix applied to (uhat, U); the first sweep lags the cube of that guess
block. At the defaults this cuts the sweeps per step from 2 to
about 1.24. A step without a previous one (the first step of integrate, and
every irk_step) starts all stages from uhat, so one cube serves them all.

The state carried from step to step is one (2, N/2 + 1) coefficient block
c = (uhat, vhat) and its (2, N) sample block w = (u, v). The stages of u and
of the cubic are each held as one (s, N/2 + 1) block, so a sweep makes one
batched cube of all stages and one batched synthesis of the residual. Each
snapshot's w is written into one preallocated (2, S, N) block, which becomes
one stacked FieldState, so each diagnostics column comes from one call over
all S snapshots.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import accel
from .core import (
    DiagnosticsRow,
    FieldState,
    half_domain_masks,
    initial_state,
    is_odd,
    make_grid,
    odd_part,
    probe_indices,
)
from .dynamics import energy, energy_drift, fixed_points, linear_symbol, momentum, nonlinear_hat
from .errors import InvalidParams, LengthMismatch, NonFinite, StageSolveDiverged, UnsupportedStageCount
from .geometry import TracerTrack, _turns
from .spectral import dft_forward, dft_inverse

# Consecutive non-decreasing sweep residuals before declaring divergence.
_STALL_LIMIT = 5


@dataclass(frozen=True)
class ButcherTableau:
    stages: int
    order: int
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray


def gauss_tableau(stages):
    """Gauss-Legendre collocation tableau; order 2s for s stages (s in 1..3)."""
    if stages == 1:
        a = [[0.5]]
        b = [1.0]
        c = [0.5]
    elif stages == 2:
        r = math.sqrt(3.0) / 6.0
        a = [[0.25, 0.25 - r], [0.25 + r, 0.25]]
        b = [0.5, 0.5]
        c = [0.5 - r, 0.5 + r]
    elif stages == 3:
        r = math.sqrt(15.0)
        a = [
            [5.0 / 36.0, 2.0 / 9.0 - r / 15.0, 5.0 / 36.0 - r / 30.0],
            [5.0 / 36.0 + r / 24.0, 2.0 / 9.0, 5.0 / 36.0 - r / 24.0],
            [5.0 / 36.0 + r / 30.0, 2.0 / 9.0 + r / 15.0, 5.0 / 36.0],
        ]
        b = [5.0 / 18.0, 4.0 / 9.0, 5.0 / 18.0]
        c = [0.5 - r / 10.0, 0.5, 0.5 + r / 10.0]
    else:
        raise UnsupportedStageCount(f"stage count must be 1, 2, or 3, got {stages}")
    a = np.array(a, dtype=np.float64)
    a.setflags(write=False)
    b = np.array(b, dtype=np.float64)
    b.setflags(write=False)
    c = np.array(c, dtype=np.float64)
    c.setflags(write=False)
    return ButcherTableau(stages=stages, order=2 * stages, a=a, b=b, c=c)


@dataclass(frozen=True)
class StepReport:
    iterations: int
    residual: float
    converged: bool


class StageSolver:
    """Per-mode reduced stage matrices for one (params, grid); integrate reuses one for every step."""

    def __init__(self, params, grid):
        self.params = params
        self.dt = params.dt
        self.tableau = gauss_tableau(params.irk_stages)
        self.lam = linear_symbol(params, grid)
        a = self.tableau.a
        a2 = self.dt**2 * (a @ a)
        self.k = np.linalg.inv(np.eye(self.tableau.stages) - self.lam[:, None, None] * a2)
        self.g = self.k @ a2
        # Lagrange basis on the nodes (0, c_1..c_s) of one step, evaluated at
        # the next step's nodes 1 + c_j: row j extrapolates stage j
        nodes = [0.0, *self.tableau.c.tolist()]
        self.extrap = np.array(
            [
                [math.prod((x - m) / (node - m) for m in nodes if m != node) for node in nodes]
                for x in (1.0 + self.tableau.c).tolist()
            ]
        )

    def solve(self, c, t, start=None):
        """(stage_u, nl, StepReport) from the block c = (uhat, vhat); stages are (s, N/2+1) blocks.

        start is the (s, N/2+1) block of stage guesses; without one every stage starts from uhat.
        """
        uhat, vhat = c
        s = self.tableau.stages
        a = self.tableau.a
        tol = self.params.stage_tol
        # K (u 1 + dt v c), the part of every sweep that the cube does not change
        base = accel.stage_matvec(self.k, uhat + self.dt * self.tableau.c[:, None] * vhat)
        if start is None:  # every stage starts from uhat, so its cube serves all of them
            nl_old = np.broadcast_to(nonlinear_hat(uhat, self.params), (s, uhat.size))
        else:
            nl_old = nonlinear_hat(start, self.params)
        prev_res = math.inf
        stall = 0
        for it in range(1, self.params.stage_max_iter + 1):
            stage_u = base + accel.stage_matvec(self.g, nl_old)
            nl_new = nonlinear_hat(stage_u, self.params)
            # physical max norm of the only nonzero residual component
            res = float(np.max(np.abs(dft_inverse(self.dt * (a @ (nl_new - nl_old))))))
            nl_old = nl_new
            if res <= tol:
                return stage_u, nl_new, StepReport(it, res, True)
            if res >= prev_res:
                stall += 1
                if stall >= _STALL_LIMIT:
                    raise StageSolveDiverged(
                        f"stage residual stalled at {res:.3e} after {it} sweeps", t=t
                    )
            else:
                stall = 0
            prev_res = res
        raise StageSolveDiverged(
            f"stage residual {res:.3e} above {tol:.1e} after {self.params.stage_max_iter} sweeps",
            t=t,
        )

    def step(self, c, t, start=None):
        """(block, StepReport, start) for the (2, N/2+1) block c = (uhat, vhat) one step of dt after t.

        The returned start is the next step's stage guess: this step's
        collocation polynomial for u, through (0, uhat) and (c_i, U_i),
        extrapolated to 1 + c_j.
        """
        stage_u, nl, report = self.solve(c, t, start)
        f = self.lam * stage_u + nl  # one stage force serves both updates
        (uhat, vhat), b, dt = c, self.tableau.b, self.dt
        u_next = uhat + dt * vhat + dt**2 * ((b @ self.tableau.a) @ f)
        guess = self.extrap[:, :1] * uhat + self.extrap[:, 1:] @ stage_u
        return np.stack([u_next, vhat + dt * (b @ f)]), report, guess


def _check_start(state, grid):
    if state.u.shape != (grid.n,):
        raise LengthMismatch(f"a start is one {grid.n}-point state, got shape {state.u.shape}")


def irk_step(state, params, grid, solver=None):
    """Advance one grid.n-point state one step of size params.dt; returns (state, report).

    With no previous step to extrapolate from, every stage starts from uhat,
    as the first step of integrate does.
    """
    _check_start(state, grid)
    if solver is None:
        solver = StageSolver(params, grid)
    c, report, _ = solver.step(dft_forward(np.stack([state.u, state.v])), state.t)
    u, v = dft_inverse(c)
    return FieldState(t=state.t + solver.dt, u=u, v=v), report


@dataclass(frozen=True)
class RunSummary:
    final_state: "FieldState"
    steps: int
    max_abs_drift: float
    max_residual: float
    total_sweeps: int
    # sweep_counts[k - 1] steps took k stage sweeps
    sweep_counts: tuple


def integrate(params, grid=None, state=None):
    """March from the given (or default) state with round(t_end/dt) fixed steps of dt.

    The run starts at the state's t and ends at t + round(t_end/dt)*dt.
    Returns (RunSummary, snapshots, diagnostics, tracks): snapshots is one
    stacked FieldState of the start and every snapshot_every after it, row k
    at time snapshots.t[k]; diagnostics one DiagnosticsRow per snapshot;
    tracks one per-step TracerTrack per probe. The start must be one
    grid.n-point state, else LengthMismatch. A start that is exactly odd
    (u(L - x) = -u(x), likewise v) stays exactly odd at every step. Every
    step after the first starts its stages from the extrapolation of the
    step before (see the module docstring). Solver failures and non-finite
    states propagate with a ``t`` attribute attached.
    """
    if grid is None:
        grid = make_grid(params.grid_points, params.domain_length)
    if state is None:
        state = initial_state(params, grid)
    _check_start(state, grid)
    steps = int(round(params.t_end / params.dt))
    sps = int(round(params.snapshot_every / params.dt))
    solver = StageSolver(params, grid)
    # The exact flow and the scheme both commute with x -> L - x, so an odd
    # start stays odd; projecting each step keeps FFT roundoff from seeding
    # the even perturbations that the confined state amplifies.
    w = np.stack([state.u, state.v])
    keep_odd = is_odd(w)
    mask_left, mask_right = half_domain_masks(grid)
    idx = probe_indices(params, grid)
    try:
        fps = fixed_points(params)
    except InvalidParams:
        fps = None  # no double well (mu or beta <= 0): every tracer uses the origin

    def nearest_fp(u0):
        if fps is None:
            return (0.0, 0.0)
        return fps.minus if u0 < 0 else fps.plus

    # one time axis: tracers sample every step of it, snapshots every sps-th;
    # trk[0] holds the tracer samples of u and trk[1] those of v, likewise snap
    t_axis = state.t + np.arange(steps + 1) * params.dt
    trk = np.empty((2, len(idx), steps + 1))
    trk[:, :, 0] = w[:, idx]
    snap = np.empty((2, steps // sps + 1, grid.n))
    snap[:, 0] = w
    max_residual = 0.0
    sweeps = np.zeros(steps, dtype=np.int64)
    c = dft_forward(w)
    start = None  # the first step starts from uhat, as irk_step does
    for i in range(1, steps + 1):
        try:
            c, report, start = solver.step(c, float(t_axis[i - 1]), start)
            if keep_odd:  # odd fields have purely imaginary coefficients
                c = 1j * c.imag
            w = dft_inverse(c)
            if keep_odd:  # irfft of those is odd only to roundoff
                w = odd_part(w)
            if not np.all(np.isfinite(w)):
                raise NonFinite(f"non-finite field entries at t={t_axis[i]}")
        except (StageSolveDiverged, NonFinite) as exc:
            if getattr(exc, "t", None) is None:
                exc.t = float(t_axis[i])
            raise
        max_residual = max(max_residual, report.residual)
        sweeps[i - 1] = report.iterations
        trk[:, :, i] = w[:, idx]
        if i % sps == 0:
            snap[:, i // sps] = w
    state = FieldState(t=float(t_axis[-1]), u=w[0], v=w[1])
    snapshots = FieldState(t=t_axis[::sps], u=snap[0], v=snap[1])

    # turns of the first probe about the origin and of each of the first two
    # probes about the vacuum on its starting side, at every snapshot
    rot_origin = rot_left = rot_right = np.zeros(snapshots.t.size)
    if idx:
        rot_origin = _turns(trk[0, 0], trk[1, 0], (0.0, 0.0))[::sps]
        rot_left = _turns(trk[0, 0], trk[1, 0], nearest_fp(trk[0, 0, 0]))[::sps]
    if len(idx) > 1:
        rot_right = _turns(trk[0, 1], trk[1, 1], nearest_fp(trk[0, 1, 0]))[::sps]
    u, v = snapshots.u, snapshots.v
    e = energy(u, v, params, grid)
    drift = energy_drift(e, e[0])
    table = np.column_stack(
        [snapshots.t, e, momentum(u, v, params, grid), drift]
        + [u[:, mask_left].min(axis=1), u[:, mask_left].max(axis=1)]
        + [u[:, mask_right].min(axis=1), u[:, mask_right].max(axis=1)]
        + [rot_origin, rot_left, rot_right]
    )
    diagnostics = [DiagnosticsRow(*row) for row in table.tolist()]
    tracks = [
        TracerTrack(probe_x=params.probes[p], t=t_axis, u=trk[0, p], v=trk[1, p])
        for p in range(len(idx))
    ]
    summary = RunSummary(
        final_state=state,
        steps=steps,
        max_abs_drift=float(np.max(np.abs(drift))),
        max_residual=max_residual,
        total_sweeps=int(sweeps.sum()),
        sweep_counts=tuple(np.bincount(sweeps)[1:].tolist()),
    )
    return summary, snapshots, diagnostics, tracks
