"""Gauss-Legendre implicit Runge-Kutta stepping in Fourier space.

Per mode of the half-spectrum (spectral.py) the linear part of the
first-order system is L_m = [[0, 1], [lambda_m, 0]] with lambda_m =
mu - sigma*alpha*k_m^2 (dynamics.linear_symbol), so the stage equations split
into N/2 + 1 independent 2s x 2s real linear solves coupled only through the
cubic term (dynamics.nonlinear_hat). Each step runs linearly implicit sweeps:
the cubic is lagged, the linear stage system is solved exactly with a cached
batched inverse, and the sweep repeats until the true stage residual (which
equals -dt*(A ox I)*(N_new - N_old) and is measured in the physical max norm)
falls below stage_tol.

The state carried from step to step is the pair of half-spectra (uhat, vhat);
integrate synthesizes samples from it only for output. The stages of u, of v
and of the cubic are each held as one (s, N/2 + 1) block, so a sweep makes
one batched cube of all stages and one batched synthesis of the residual.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import accel
from .core import FieldState
from .dynamics import linear_symbol, nonlinear_hat
from .errors import InvalidParams, NonFinite, StageSolveDiverged, UnsupportedStageCount
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
    """Caches the batched inverse of the per-mode linear stage matrices.

    Valid for one (params, grid) combination; integrate builds one and reuses
    it for every step.
    """

    def __init__(self, params, grid):
        self.params = params
        self.dt = params.dt
        self.tableau = gauss_tableau(params.irk_stages)
        self.lam = linear_symbol(params, grid)
        s = self.tableau.stages
        # per mode, rows and columns interleave (u_i, v_i): I - dt*(A ox L_m)
        da = self.dt * self.tableau.a
        m = np.zeros((self.lam.size, 2 * s, 2 * s))
        m[:, np.arange(2 * s), np.arange(2 * s)] = 1.0
        m[:, 0::2, 1::2] -= da
        m[:, 1::2, 0::2] -= da * self.lam[:, None, None]
        self.minv = np.linalg.inv(m)

    def solve(self, uhat, vhat, t):
        """Return (stage_u, stage_v, nl, StepReport); the first three are (s, N/2+1) blocks."""
        s = self.tableau.stages
        a = self.tableau.a
        tol = self.params.stage_tol
        rhs = np.empty((uhat.size, 2 * s), dtype=np.complex128)
        rhs[:, 0::2] = uhat[:, None]
        # every stage starts from uhat, so its cube serves all of them
        nl_old = np.broadcast_to(nonlinear_hat(uhat, self.params), (s, uhat.size))
        prev_res = math.inf
        stall = 0
        for it in range(1, self.params.stage_max_iter + 1):
            rhs[:, 1::2] = (vhat + self.dt * (a @ nl_old)).T
            g = accel.stage_matvec(self.minv, rhs)
            stage_u, stage_v = g[:, 0::2].T, g[:, 1::2].T
            nl_new = nonlinear_hat(stage_u, self.params)
            # physical max norm of the only nonzero residual component
            res = float(np.max(np.abs(dft_inverse(self.dt * (a @ (nl_new - nl_old))))))
            nl_old = nl_new
            if res <= tol:
                return stage_u, stage_v, nl_new, StepReport(it, res, True)
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

    def step(self, uhat, vhat, t):
        """Half-spectra (uhat, vhat) one step of dt after t, and the StepReport."""
        stage_u, stage_v, nl, report = self.solve(uhat, vhat, t)
        b = self.tableau.b
        new_uhat = uhat + self.dt * (b @ stage_v)
        new_vhat = vhat + self.dt * (b @ (self.lam * stage_u + nl))
        return new_uhat, new_vhat, report


def irk_step(state, params, grid, solver=None):
    """Advance one step of size params.dt; returns (state, report)."""
    if solver is None:
        solver = StageSolver(params, grid)
    uhat, vhat, report = solver.step(dft_forward(state.u), dft_forward(state.v), state.t)
    u, v = dft_inverse(np.stack([uhat, vhat]))
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
    from .core import (
        DiagnosticsRow,
        half_domain_masks,
        initial_state,
        is_odd,
        make_grid,
        odd_part,
        probe_indices,
    )
    from .dynamics import energy, energy_drift, fixed_points, momentum
    from .geometry import TracerTrack, _turns

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
    keep_odd = is_odd(state.u) and is_odd(state.v)
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

    trk_t = np.empty(steps + 1)
    trk_u = np.empty((len(idx), steps + 1))
    trk_v = np.empty((len(idx), steps + 1))

    def record_tracers(step_no, st):
        trk_t[step_no] = st.t
        trk_u[:, step_no] = st.u[idx]
        trk_v[:, step_no] = st.v[idx]

    record_tracers(0, state)
    snapshots = [state]
    max_residual = 0.0
    total_sweeps = 0
    uhat, vhat = dft_forward(state.u), dft_forward(state.v)
    for i in range(1, steps + 1):
        t_next = i * params.dt
        try:
            uhat, vhat, report = solver.step(uhat, vhat, state.t)
            if keep_odd:  # odd fields have purely imaginary coefficients
                uhat, vhat = 1j * uhat.imag, 1j * vhat.imag
            u, v = dft_inverse(np.stack([uhat, vhat]))
            if keep_odd:  # irfft of those is odd only to roundoff
                u, v = odd_part(u), odd_part(v)
            state = FieldState(t=t_next, u=u, v=v)
        except (StageSolveDiverged, NonFinite) as exc:
            if getattr(exc, "t", None) is None:
                exc.t = t_next
            raise
        max_residual = max(max_residual, report.residual)
        total_sweeps += report.iterations
        record_tracers(i, state)
        if i % sps == 0:
            snapshots.append(state)

    # turns of the first probe about the origin and of each of the first two
    # probes about the vacuum on its starting side, at every snapshot
    rot_origin = rot_left = rot_right = np.zeros(len(snapshots))
    if idx:
        rot_origin = _turns(trk_u[0], trk_v[0], (0.0, 0.0))[::sps]
        rot_left = _turns(trk_u[0], trk_v[0], nearest_fp(trk_u[0, 0]))[::sps]
    if len(idx) > 1:
        rot_right = _turns(trk_u[1], trk_v[1], nearest_fp(trk_u[1, 0]))[::sps]
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
        TracerTrack(
            probe_x=params.probes[p],
            t=trk_t.copy(),
            u=trk_u[p].copy(),
            v=trk_v[p].copy(),
        )
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
