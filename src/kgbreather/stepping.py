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

The state carried from step to step is one (2, N/2 + 1) coefficient block
c = (uhat, vhat), and integrate builds a FieldState from its (2, N) sample
block w = (u, v) only for snapshots and the final state. The stages of u and
of the cubic are each held as one (s, N/2 + 1) block, so a sweep makes one
batched cube of all stages and one batched synthesis of the residual.
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
from .errors import InvalidParams, NonFinite, StageSolveDiverged, UnsupportedStageCount
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

    def solve(self, c, t):
        """(stage_u, nl, StepReport) from the block c = (uhat, vhat); stages are (s, N/2+1) blocks."""
        uhat, vhat = c
        s = self.tableau.stages
        a = self.tableau.a
        tol = self.params.stage_tol
        # K (u 1 + dt v c), the part of every sweep that the cube does not change
        base = accel.stage_matvec(self.k, uhat + self.dt * self.tableau.c[:, None] * vhat)
        # every stage starts from uhat, so its cube serves all of them
        nl_old = np.broadcast_to(nonlinear_hat(uhat, self.params), (s, uhat.size))
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

    def step(self, c, t):
        """The (2, N/2+1) block c = (uhat, vhat) one step of dt after t, and the StepReport."""
        stage_u, nl, report = self.solve(c, t)
        f = self.lam * stage_u + nl  # one stage force serves both updates
        (uhat, vhat), b, dt = c, self.tableau.b, self.dt
        u_next = uhat + dt * vhat + dt**2 * ((b @ self.tableau.a) @ f)
        return np.stack([u_next, vhat + dt * (b @ f)]), report


def irk_step(state, params, grid, solver=None):
    """Advance one step of size params.dt; returns (state, report)."""
    if solver is None:
        solver = StageSolver(params, grid)
    c, report = solver.step(np.stack([dft_forward(state.u), dft_forward(state.v)]), state.t)
    u, v = dft_inverse(c)
    return FieldState(t=state.t + solver.dt, u=u, v=v), report


@dataclass(frozen=True)
class RunSummary:
    final_state: "FieldState"
    steps: int
    max_abs_drift: float
    max_residual: float
    total_sweeps: int


def integrate(params, grid=None, state=None):
    """March from the given (or default) state to t_end with fixed steps.

    Returns (RunSummary, snapshots, diagnostics, tracks): snapshots is a list
    of FieldState at t = 0, snapshot_every, ...; diagnostics one DiagnosticsRow
    per snapshot time; tracks one per-step TracerTrack per probe. A start
    that is exactly odd (u(L - x) = -u(x), likewise v) stays exactly odd at
    every step. Solver failures and non-finite states propagate with a ``t``
    attribute attached.
    """
    if grid is None:
        grid = make_grid(params.grid_points, params.domain_length)
    if state is None:
        state = initial_state(params, grid)
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

    # tracer samples of (u, v) at every step: trk[0] is u, trk[1] is v
    trk_t = np.arange(steps + 1) * params.dt
    trk_t[0] = state.t
    trk = np.empty((2, len(idx), steps + 1))
    trk[:, :, 0] = w[:, idx]
    snapshots = [state]
    max_residual = 0.0
    total_sweeps = 0
    t = state.t
    c = np.stack([dft_forward(state.u), dft_forward(state.v)])
    for i in range(1, steps + 1):
        t_next = i * params.dt
        try:
            c, report = solver.step(c, t)
            if keep_odd:  # odd fields have purely imaginary coefficients
                c = 1j * c.imag
            w = dft_inverse(c)
            if keep_odd:  # irfft of those is odd only to roundoff
                w = odd_part(w)
            if not np.all(np.isfinite(w)):
                raise NonFinite(f"non-finite field entries at t={t_next}")
        except (StageSolveDiverged, NonFinite) as exc:
            if getattr(exc, "t", None) is None:
                exc.t = t_next
            raise
        t = t_next
        max_residual = max(max_residual, report.residual)
        total_sweeps += report.iterations
        trk[:, :, i] = w[:, idx]
        if i % sps == 0:
            snapshots.append(FieldState(t=t, u=w[0], v=w[1]))
    state = snapshots[-1] if steps % sps == 0 else FieldState(t=t, u=w[0], v=w[1])

    # turns of the first probe about the origin and of each of the first two
    # probes about the vacuum on its starting side, at every snapshot
    rot_origin = rot_left = rot_right = np.zeros(len(snapshots))
    if idx:
        rot_origin = _turns(trk[0, 0], trk[1, 0], (0.0, 0.0))[::sps]
        rot_left = _turns(trk[0, 0], trk[1, 0], nearest_fp(trk[0, 0, 0]))[::sps]
    if len(idx) > 1:
        rot_right = _turns(trk[0, 1], trk[1, 1], nearest_fp(trk[0, 1, 0]))[::sps]
    e0 = energy(snapshots[0], params, grid)
    diagnostics = []
    for k, st in enumerate(snapshots):
        e = energy(st, params, grid)
        diagnostics.append(
            DiagnosticsRow(
                t=st.t,
                energy=e,
                momentum=momentum(st, params, grid),
                energy_drift=energy_drift(e, e0),
                u_min_left=float(np.min(st.u[mask_left])),
                u_max_left=float(np.max(st.u[mask_left])),
                u_min_right=float(np.min(st.u[mask_right])),
                u_max_right=float(np.max(st.u[mask_right])),
                rot_origin=float(rot_origin[k]),
                rot_left=float(rot_left[k]),
                rot_right=float(rot_right[k]),
            )
        )
    max_drift = max(abs(row.energy_drift) for row in diagnostics)
    tracks = [
        TracerTrack(probe_x=params.probes[p], t=trk_t, u=trk[0, p], v=trk[1, p])
        for p in range(len(idx))
    ]
    summary = RunSummary(
        final_state=state,
        steps=steps,
        max_abs_drift=max_drift,
        max_residual=max_residual,
        total_sweeps=total_sweeps,
    )
    return summary, snapshots, diagnostics, tracks
