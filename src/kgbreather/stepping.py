"""Gauss-Legendre implicit Runge-Kutta stepping in Fourier space.

Per mode of the half-spectrum (spectral.py) the field equation reads
u'' = lambda_m u + N_m with lambda_m = mu - sigma*alpha*k_m^2
(dynamics.linear_symbol) and N the cubic term (dynamics.nonlinear_hat).
Putting the v stages V = v 1 + dt A (lambda_m U + N) into U = u 1 + dt A V
leaves, per mode, the real s x s system (I - dt^2 lambda_m A^2) U =
u 1 + dt v c + dt^2 A^2 N in the u stages alone, coupled across modes only
through N. Each step runs linearly implicit sweeps: the cubic is lagged, the
stage system is solved exactly with K = (I - dt^2 lambda_m A^2)^-1 and
G = dt^2 K A^2, and the sweep repeats until the true stage residual (which
equals -dt*A*(N_new - N_old) and is measured in the physical max norm) falls
below stage_tol. One stage force F = lambda_m U + N, from the last sweep's
cube, serves the update of both rows: (u, v) <- [[1, dt], [0, 1]] (u, v) +
(dt^2 bA, dt b) F.

Starting values: the u stages of one step and its start lie on the
collocation polynomial through (0, u_{n-1}) and (c_i, U_i). Evaluated at
1 + c_j, it gives the next step's stage guesses E U + e0 u, with (e0, E) one
fixed (s, s+1) Lagrange matrix. At the defaults this start cuts the sweeps
per step from 2 to about 1.24. StageSolver composes K, G and (e0, E) once
into per-mode maps that give the stages U and the guesses as one 2s-row
block:

    [U; E U + e0 u] = P_u u + P_v v + sum_j P_j N_j,
    P_u = [K 1; e0 + E K 1], P_v = dt [K c; E K c], P_j = [G e_j; E G e_j],

so each sweep is one map, one cube of that block and one residual. The
cube of the guess rows of the sweep where a member converges is the next
step's start, which its first sweep lags. A run thus makes one starting
cube in all: its first step (and every irk_step) has no previous step and
starts all stages from uhat, so one cube of uhat serves them all.

The state carried from step to step is one (M, 2, N/2 + 1) coefficient
block c = (uhat, vhat) of M members. StageSolver takes only such stacks
and returns one outcome per member. A single run is M = 1 through the same
loop, and irk_step stacks its one state the same way and raises its
member's exception. The members of an amplitude sweep differ only in their
starts, so they share lambda and the maps. A sweep makes one batched map,
one batched cube of the stages and guesses of its members and one batched
synthesis of their residual. The maps are row-wise products and the other
matrices act on the stage axis alone, so a member's numbers are bit for bit
those of its solo run. Each member keeps its own residual and stall count
and leaves the sweep block at its outcome: converged, stalled, out of
sweeps or non-finite. The first sweep's blocks hold every member; each
later sweep gathers the rows of the members still sweeping, so the map,
the cube and the residual act on those alone, and writes them back. A
member thus keeps the stages, cubes and next start of the sweep where its
residual first met stage_tol, and a stack of one never gathers. A member
whose cube overflows fails on its own non-finite residual, at the end time
of its step that the caller passes.

The samples w = (u, v) feed only the record, so integrate holds each
step's projected c in a pending block of _BLOCK // M steps (at least one)
and synthesizes, projects and checks it with one call each. It flushes the
block when full, at the last step and once every member has failed, writing
the block's tracer columns and snapshot rows into preallocated
(M, 2, P, steps + 1) and (M, 2, S, N) blocks. A failed member stays in the
block as the zero state, which converges in one sweep, so the member axis
is the same from the first step to the last. Its outcome is its first
failure: its solve's, or a non-finite sample's at an earlier step, with that
step's t. Per member the loop tallies only the largest stage residual and
the steps per sweep count. After it, both blocks and the time axes turn
read-only, and each member's records are views of them, not copies, as
are the diagnostics: one (M, S) record block whose energy, momentum and
margins take one row-wise call each per _BLOCK // M snapshots of the stack.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import accel
from .core import (
    DIAGNOSTICS_COLUMNS,
    FieldState,
    half_domain_masks,
    initial_state,
    is_odd,
    odd_part,
    probe_indices,
)
from .dynamics import energy, energy_drift, linear_symbol, momentum, nonlinear_hat
from .errors import InvalidParams, LengthMismatch, NonFinite, StageSolveDiverged
from .geometry import TracerTrack, _turns, vacuum_on_side
from .spectral import dft_forward, dft_inverse

# Consecutive non-decreasing sweep residuals before declaring divergence.
_STALL_LIMIT = 5
# Member-steps of samples that integrate synthesizes in one call, and
# snapshots that it takes the diagnostics of in one call.
_BLOCK = 64


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
        raise InvalidParams([f"irk_stages must be 1, 2, or 3, got {stages}"])
    a = np.array(a, dtype=np.float64)
    a.setflags(write=False)
    b = np.array(b, dtype=np.float64)
    b.setflags(write=False)
    c = np.array(c, dtype=np.float64)
    c.setflags(write=False)
    return ButcherTableau(stages=stages, order=2 * stages, a=a, b=b, c=c)


class StepReport(NamedTuple):
    iterations: int
    residual: float


class StageSolver:
    """Per-mode stage maps for one SimParams, on its grid; integrate reuses one for every step.

    The members of a stack share them, since they differ only in their states.
    """

    def __init__(self, params):
        self.params = params
        self.dt = dt = params.dt
        self.tableau = gauss_tableau(params.irk_stages)
        lam, a, b, s = linear_symbol(params), self.tableau.a, self.tableau.b, self.tableau.stages
        # Lagrange basis on the nodes (0, c_1..c_s) of one step, evaluated at
        # the next step's nodes 1 + c_j: row j extrapolates stage j
        nodes = [0.0, *self.tableau.c.tolist()]
        self.extrap = np.array(
            [
                [math.prod((x - m) / (node - m) for m in nodes if m != node) for node in nodes]
                for x in (1.0 + self.tableau.c).tolist()
            ]
        )
        e0, e = self.extrap[:, 0], self.extrap[:, 1:]
        a2 = dt**2 * (a @ a)
        k = np.linalg.inv(np.eye(s) - lam[:, None, None] * a2)
        g = k @ a2

        def stages_and_guesses(x, lead=0.0):
            """The (2s, n) column block [x; lead + E x] of the per-mode (n, s) stage values x."""
            return np.ascontiguousarray(np.concatenate([x, lead + x @ e.T], axis=1).T, dtype=complex)

        # the maps of stage_matvec, cast to complex once: (uhat, vhat) and the
        # lagged cubes N_j to the s stages and the s guesses of the next step
        self.map_c = [stages_and_guesses(k.sum(axis=2), e0), stages_and_guesses(dt * (k @ self.tableau.c))]
        self.map_nl = [stages_and_guesses(g[:, :, j]) for j in range(s)]
        self.lam = lam.astype(complex)
        # dt A and the update (uhat, vhat, F) -> [[1, dt], [0, 1]] (uhat, vhat) +
        # (dt^2 bA, dt b) F of the stage force F act along the stage axis alone:
        # real matrices, applied to the float64 views of complex blocks, which
        # hold each coefficient's real and imaginary parts side by side
        self.dt_a = dt * a
        self.update = np.block([[1.0, dt, dt**2 * (b @ a)], [0.0, 1.0, dt * b]])

    def _cube(self, x):
        """nonlinear_hat of a stack of row blocks, on its rows as one 2-d block, where numpy indexes fastest."""
        return nonlinear_hat(x.reshape(-1, x.shape[-1]), self.params).reshape(x.shape)

    def solve(self, c, t, start=None):
        """(stage_u, nl, outcomes, start) for an (M, 2, N/2+1) stack c of (uhat, vhat) over the (M, 2) step times t.

        Row k of t holds the start and the end of member k's step. The
        stages and their cubes are (M, s, N/2+1) blocks. start is the
        previous step's (M, s, N/2+1) cube of its guesses for this step's
        stages, which the first sweep lags; without it every stage starts
        from uhat, and one cube of uhat serves them all. Each sweep is one
        per-mode map, one cube and one residual: the map gives the stages
        and the next step's guesses as one (M, 2s, N/2+1) block, which one
        call cubes, and the returned start is the guess half of those cubes.
        A member leaves the sweeps at its outcome; later sweeps map, cube
        and measure only the members still sweeping and write their rows
        back, so a member's rows are those of the sweep where its residual
        first met stage_tol, the numbers it gets alone. outcomes holds one
        StepReport or exception per member, and a failed member's rows are
        zero. A member whose residual is not finite (its cube overflowed)
        fails with NonFinite at its step's end, a stalled one with
        StageSolveDiverged at its start.
        """
        m, s = len(c), self.tableau.stages
        tol, max_iter = self.params.stage_tol, self.params.stage_max_iter
        outcomes, prev_res, stall = [None] * m, [math.inf] * m, [0] * m
        live = slice(None)  # the members still sweeping: all of them until one has an outcome
        # an overflowing member's rows turn inf or nan until its outcome
        with np.errstate(over="ignore", invalid="ignore"):
            # P_u uhat + P_v vhat, the part of every sweep that the cube does not change
            base = accel.stage_matvec(self.map_c, c)
            nl_old = np.broadcast_to(self._cube(c[:, :1]), (m, s, c.shape[-1])) if start is None else start
            for it in range(1, max_iter + 1):
                new = base[live] + accel.stage_matvec(self.map_nl, nl_old[live])
                new_cubes = self._cube(new)
                # physical max norm of the only nonzero residual component, per
                # live member, taken before new_cubes overwrite nl_old's rows
                res = (self.dt_a @ (new_cubes[:, :s] - nl_old[live]).view(float)).view(complex)
                res = np.abs(dft_inverse(res)).max(axis=(1, 2)).tolist()
                if isinstance(live, slice):
                    block, cubes, members = new, new_cubes, range(m)
                else:
                    block[live], cubes[live], members = new, new_cubes, live
                nl_old = cubes[:, :s]
                for k, r in zip(members, res):
                    if not math.isfinite(r):
                        outcomes[k] = NonFinite("cubic term overflowed", t=float(t[k][1]))
                    elif r <= tol:
                        outcomes[k] = StepReport(it, r)
                    else:
                        stall[k] = stall[k] + 1 if r >= prev_res[k] else 0
                        prev_res[k] = r
                        if stall[k] >= _STALL_LIMIT:
                            message = f"stage residual stalled at {r:.3e} after {it} sweeps"
                        elif it == max_iter:
                            message = f"stage residual {r:.3e} above {tol:.1e} after {max_iter} sweeps"
                        else:
                            continue
                        outcomes[k] = StageSolveDiverged(message, t=float(t[k][0]))
                still = [k for k in members if outcomes[k] is None]
                if not still:
                    break
                if len(still) < len(members):
                    live = still  # later sweeps gather these rows and write them back
        for k, outcome in enumerate(outcomes):
            if not isinstance(outcome, StepReport):
                block[k] = cubes[k] = 0
        return block[:, :s], cubes[:, :s], outcomes, cubes[:, s:]

    def step(self, c, t, start=None):
        """(stack, outcomes, start) for the stack c one step of dt over the (M, 2) times t.

        c, t, start and the outcomes are solve's, and the returned start is
        the next step's: the cube of each member's collocation polynomial for
        u, through (0, uhat) and (c_i, U_i), at 1 + c_j. One stage force
        F = lambda U + N serves the update of both rows of the stack.
        """
        # a member whose update overflows turns non-finite, which the caller checks
        with np.errstate(over="ignore", invalid="ignore"):
            stage_u, nl, outcomes, start = self.solve(c, t, start)
            f = np.concatenate([c, self.lam * stage_u + nl], axis=1)
            return (self.update @ f.view(float)).view(complex), outcomes, start


def irk_step(state, solver):
    """Advance one N-point state one step of solver.dt; returns (state, report).

    The solver carries its params, whose grid_points is N. The state runs
    as a stack of one through the solver, and a failure raises that
    member's exception; a returned state that is not finite raises
    NonFinite at t + dt, as in integrate. With no previous step to
    extrapolate from, every stage starts from uhat, as the first step of
    integrate does.
    """
    n = solver.params.grid_points
    if state.u.shape != (n,):
        raise LengthMismatch(f"a start is one {n}-point state, got shape {state.u.shape}")
    t = state.t + solver.dt
    c, (outcome,), _ = solver.step(dft_forward(np.stack([state.u, state.v]))[None], [(state.t, t)])
    if not isinstance(outcome, StepReport):
        raise outcome
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed update, checked here
        w = dft_inverse(c[0])
    if not np.isfinite(w).all():
        raise NonFinite(f"non-finite field entries at t={t}", t=t)
    return FieldState(t=t, u=w[0], v=w[1]), outcome


@dataclass(frozen=True)
class RunSummary:
    final_state: "FieldState"
    steps: int
    max_abs_drift: float
    max_residual: float
    total_sweeps: int
    # sweep_counts[k - 1] steps took k stage sweeps
    sweep_counts: tuple


def integrate(params, state=None):
    """March from the given (or default) state with round(t_end/dt) fixed steps of dt.

    The run starts at the state's t and ends at t + round(t_end/dt)*dt.
    Returns (RunSummary, snapshots, diagnostics, tracks): snapshots is one
    stacked FieldState of the start and every snapshot_every after it, row k
    at time snapshots.t[k]; diagnostics an (S,) numpy.recarray of a float64
    field per DIAGNOSTICS_COLUMNS name, record k of snapshot k; tracks one
    per-step TracerTrack per probe. The arrays of all three are read-only
    views of one block per run, which the members of a stack share: the
    diagnostics are a row of one (M, S) record block.
    A start that is exactly odd (u(L - x) = -u(x), likewise v) stays exactly
    odd at every step. Every step after the first starts its stages from the
    extrapolation of the step before (see the module docstring). Every
    failure carries its t: a StageSolveDiverged the start of its step, a
    NonFinite the end.
    A state whose samples turn non-finite fails with NonFinite at the first
    such step, and one whose energy or momentum is not finite at a snapshot
    with NonFinite at the first such snapshot's t.

    The grid is params.grid. The start is one N-point state, N =
    params.grid_points, or a stack of M of them (u and v (M, N), t (M,))
    with M >= 1, else LengthMismatch. A stack runs as M members through one
    step loop and returns a list of M outcomes: each is the tuple that
    member returns alone, bit for bit, or the exception it raises alone. A
    failed member stays in the stack as the zero state, which converges in
    one sweep; its outcome is its first failure.
    """
    grid = params.grid
    if state is None:
        state = initial_state(params)
    if state.u.ndim > 2 or state.u.shape[-1] != grid.n or not state.u.size:
        raise LengthMismatch(
            f"a start is one {grid.n}-point state or a stack of them, got shape {state.u.shape}"
        )
    steps = int(round(params.t_end / params.dt))
    sps = int(round(params.snapshot_every / params.dt))
    solver = StageSolver(params)
    w = np.stack([state.u, state.v], axis=-2).reshape(-1, 2, grid.n)  # (M, 2, N)
    m = len(w)
    # The exact flow and the scheme both commute with x -> L - x, so an odd
    # start stays odd; projecting each step keeps FFT roundoff from seeding
    # the even perturbations that the confined state amplifies.
    odd = [k for k, x in enumerate(w) if is_odd(x)]
    odd = slice(None) if len(odd) == m else np.array(odd, dtype=np.intp)
    idx = probe_indices(params)
    # one time axis per member: tracers sample every step of it, snapshots
    # every sps-th; trk[k, 0] holds member k's tracer samples of u and
    # trk[k, 1] those of v, likewise snap
    t_axis = np.reshape(state.t, (m, 1)) + np.arange(steps + 1) * params.dt
    trk = np.empty((m, 2, len(idx), steps + 1))
    trk[..., 0] = w[:, :, idx]
    snap = np.empty((m, 2, steps // sps + 1, grid.n))
    snap[:, :, 0] = w
    # per member: the largest last residual of a step, and tally[k][j] steps that took j sweeps
    max_res, tally = [0.0] * m, [[0] * (params.stage_max_iter + 1) for _ in range(m)]
    errors = {}  # member -> (step, exception) of its first failure
    c = dft_forward(w)
    start = None  # the first step starts from uhat, as irk_step does
    block = max(1, _BLOCK // m)  # steps per pending block
    pending = []  # the projected c of each step since the last flush
    for i in range(1, steps + 1):
        c, results, start = solver.step(c, t_axis[:, i - 1 : i + 1], start)
        for k, r in enumerate(results):
            if isinstance(r, StepReport):
                tally[k][r.iterations] += 1
                max_res[k] = max(max_res[k], r.residual)
            else:
                errors.setdefault(k, (i, r))
                c[k] = 0  # the zero state, which every later step keeps in one sweep
        c.real[odd] = 0  # odd fields have purely imaginary coefficients
        pending.append(c)
        if len(pending) < block and i < steps and len(errors) < m:
            continue
        # the samples of steps i0 + 1 .. i; irfft of imaginary coefficients is odd only to roundoff
        i0 = i - len(pending)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowed member's rows ride along
            w = dft_inverse(np.stack(pending))
            w[:, odd] = odd_part(w[:, odd])
        pending = []
        trk[..., i0 + 1 : i + 1] = np.moveaxis(w[..., idx], 0, -1)
        snap[:, :, i0 // sps + 1 : i // sps + 1] = np.moveaxis(w[sps - 1 - i0 % sps :: sps], 0, 2)
        if not np.isfinite(w).all():
            bad = ~np.isfinite(w).all(axis=(2, 3))
            for k in np.flatnonzero(bad.any(axis=0)).tolist():
                at = i0 + 1 + int(bad[:, k].argmax())
                if at < errors.get(k, (math.inf,))[0]:
                    t = float(t_axis[k, at])
                    errors[k] = (at, NonFinite(f"non-finite field entries at t={t}", t=t))
        w = w[-1]
        if len(errors) == m:
            break

    # the diagnostics of every snapshot of the stack, one call each per chunk of
    # snapshots, so no temporary grows with the run; a failed member's rows are
    # never returned, and zeroed since first_derivative refuses non-finite samples
    snap[list(errors)] = 0
    diag = np.recarray((m, snap.shape[2]), dtype=[(name, float) for name in DIAGNOSTICS_COLUMNS])
    diag[...] = 0  # the rotation columns of a run with fewer than two probes stay zero
    diag["t"] = t_axis[:, ::sps]
    chunk = max(1, _BLOCK // m)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing row fails its member alone, below
        for a in range(0, diag.shape[1], chunk):
            u, v, d = snap[:, 0, a : a + chunk], snap[:, 1, a : a + chunk], diag[:, a : a + chunk]
            d["energy"], d["momentum"] = energy(u, v, params), momentum(u, v, params)
            for side, mask in zip(("left", "right"), half_domain_masks(grid)):
                d[f"u_min_{side}"], d[f"u_max_{side}"] = u[..., mask].min(axis=-1), u[..., mask].max(axis=-1)
        diag["energy_drift"] = energy_drift(diag["energy"], diag["energy"][:, :1])
    # a member with no earlier failure (a failed member's zero rows are finite)
    # fails at its first snapshot whose energy or momentum is not finite
    finite = np.isfinite(diag["energy"]) & np.isfinite(diag["momentum"])
    for k in np.flatnonzero(~finite.all(axis=1)).tolist():
        j = int(finite[k].argmin())
        t = float(diag["t"][k, j])
        name = "momentum" if math.isfinite(diag["energy"][k, j]) else "energy"
        errors[k] = (j * sps, NonFinite(f"{name} non-finite at t={t}", t=t))
    for k in set(range(m)) - set(errors):
        # turns of the first probe about the origin and of each of the first two
        # probes about the vacuum on its starting side, at every snapshot
        tu, tv = trk[k]
        if idx:
            diag["rot_origin"][k] = _turns(tu[0], tv[0], (0.0, 0.0))[::sps]
            diag["rot_left"][k] = _turns(tu[0], tv[0], vacuum_on_side(params, tu[0, 0]))[::sps]
        if len(idx) > 1:
            diag["rot_right"][k] = _turns(tu[1], tv[1], vacuum_on_side(params, tu[1, 0]))[::sps]

    # every record is a read-only view of these blocks, which FieldState and TracerTrack keep uncopied
    for x in (t_axis, trk, snap, diag):
        x.setflags(write=False)

    def outcome(k):
        if k in errors:
            return errors[k][1]
        tu, tv = trk[k]
        tracks = [TracerTrack(probe_x=params.probes[p], t=t_axis[k], u=tu[p], v=tv[p]) for p in range(len(idx))]
        summary = RunSummary(
            final_state=FieldState(t=float(t_axis[k, -1]), u=w[k, 0], v=w[k, 1]),
            steps=steps,
            max_abs_drift=float(np.max(np.abs(diag["energy_drift"][k]))),
            max_residual=max_res[k],
            total_sweeps=sum(j * n for j, n in enumerate(tally[k])),
            sweep_counts=tuple(np.trim_zeros(tally[k][1:], "b")),
        )
        return summary, FieldState(t=t_axis[k, ::sps], u=snap[k, 0], v=snap[k, 1]), diag[k], tracks

    outcomes = [outcome(k) for k in range(m)]
    if state.u.ndim == 1:
        if isinstance(outcomes[0], Exception):
            raise outcomes[0]
        return outcomes[0]
    return outcomes
