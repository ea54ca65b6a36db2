"""Tableau coefficients, the implicit stage solver, and the time marcher."""

import dataclasses
import math

import numpy as np
import pytest

from kgbreather import (
    FieldState,
    SimParams,
    StageSolveDiverged,
    UnsupportedStageCount,
    dft_forward,
    dft_inverse,
    energy,
    energy_drift,
    gauss_tableau,
    initial_state,
    integrate,
    irk_step,
    make_grid,
    momentum,
)
from kgbreather.core import reflect
from kgbreather.errors import LengthMismatch, NonFinite
from kgbreather.stepping import StageSolver

U_STAR = math.sqrt(0.00305)


def linear_mode_setup(dt, stages):
    """beta = 0 single-mode oscillator with omega = sqrt(5); exactly solvable."""
    length = 2.0 * math.pi
    n = 32
    p = SimParams(
        alpha=1.0,
        beta=0.0,
        mu=-1.0,
        domain_length=length,
        grid_points=n,
        dt=dt,
        t_end=dt,
        snapshot_every=dt,
        irk_stages=stages,
    )
    g = make_grid(n, length)
    s0 = FieldState(t=0.0, u=np.sin(2.0 * g.nodes), v=np.zeros(n))
    return p, g, s0


def test_tableau_one_stage_exact():
    tab = gauss_tableau(1)
    assert tab.stages == 1
    assert tab.order == 2
    assert tab.a.tolist() == [[0.5]]
    assert tab.b.tolist() == [1.0]
    assert tab.c.tolist() == [0.5]


def test_tableau_two_stage_exact():
    tab = gauss_tableau(2)
    r = math.sqrt(3.0) / 6.0
    assert tab.order == 4
    assert tab.b.tolist() == [0.5, 0.5]
    assert tab.c.tolist() == [0.5 - r, 0.5 + r]
    assert tab.a.tolist() == [[0.25, 0.25 - r], [0.25 + r, 0.25]]


@pytest.mark.parametrize("stages", [1, 2, 3])
def test_tableau_quadrature_order_conditions(stages):
    # sum b_i c_i^p = 1/(p+1) must hold for p < 2s
    tab = gauss_tableau(stages)
    for p in range(2 * stages):
        assert np.sum(tab.b * tab.c ** p) == pytest.approx(1.0 / (p + 1), abs=1e-14)


@pytest.mark.parametrize("stages", [1, 2, 3])
def test_tableau_structural_invariants(stages):
    tab = gauss_tableau(stages)
    assert abs(np.sum(tab.b) - 1.0) <= 1e-15
    assert np.max(np.abs(tab.a.sum(axis=1) - tab.c)) <= 1e-15
    # symplecticity: b_i a_ij + b_j a_ji = b_i b_j
    b, a = tab.b, tab.a
    m = b[:, None] * a + (b[:, None] * a).T - np.outer(b, b)
    assert np.max(np.abs(m)) <= 1e-14


@pytest.mark.parametrize("stages", [0, 4, -1])
def test_tableau_rejects_unsupported_counts(stages):
    with pytest.raises(UnsupportedStageCount):
        gauss_tableau(stages)


def test_tableau_arrays_are_read_only():
    tab = gauss_tableau(2)
    with pytest.raises(ValueError):
        tab.a[0, 0] = 0.0


def test_equilibrium_is_a_fixed_point_of_the_step():
    p = SimParams()
    g = make_grid(p.grid_points, p.domain_length)
    s0 = FieldState(t=0.0, u=np.full(g.n, U_STAR), v=np.zeros(g.n))
    s1, report = irk_step(s0, p, g)
    assert report.converged
    assert report.iterations == 1
    assert np.array_equal(s1.u, s0.u)
    assert np.max(np.abs(s1.v)) <= 1e-18
    assert s1.t == p.dt


@pytest.mark.parametrize(
    "stages,dt,lo,hi",
    [
        (1, 0.125, 6.0, 10.0),
        (2, 0.25, 22.0, 42.0),
        (3, 0.5, 100.0, 165.0),
    ],
)
def test_one_step_error_halving_ratio(stages, dt, lo, hi):
    # local error is O(dt^(2s+1)), so halving dt divides it by about 2^(2s+1)
    omega = math.sqrt(5.0)

    def state_error(step):
        p, g, s0 = linear_mode_setup(step, stages)
        s1, _ = irk_step(s0, p, g)
        ue = math.cos(omega * step) * np.sin(2.0 * g.nodes)
        ve = -omega * math.sin(omega * step) * np.sin(2.0 * g.nodes)
        return max(
            float(np.max(np.abs(s1.u - ue))),
            float(np.max(np.abs(s1.v - ve))) / omega,
        )

    ratio = state_error(dt) / state_error(dt / 2.0)
    assert lo <= ratio <= hi


def test_default_first_step_converges_fast():
    p = SimParams()
    g = make_grid(p.grid_points, p.domain_length)
    s1, report = irk_step(initial_state(p, g), p, g)
    assert report.converged
    assert report.iterations <= 10
    assert report.residual <= 1e-13
    assert np.all(np.isfinite(s1.u))


def test_explicit_solver_matches_fresh_one():
    p = SimParams()
    g = make_grid(p.grid_points, p.domain_length)
    s0 = initial_state(p, g)
    solver = StageSolver(p, g)
    a, _ = irk_step(s0, p, g, solver)
    b, _ = irk_step(s0, p, g)
    assert np.array_equal(a.u, b.u)
    assert np.array_equal(a.v, b.v)


@pytest.mark.parametrize("dealias", ["pad2x", "none"])
@pytest.mark.parametrize("stages", [1, 2, 3])
def test_integrate_and_chained_irk_steps_agree(stages, dealias):
    # a non-odd start, so integrate leaves the run unprojected; it then
    # differs from chained irk_step calls only by the samples' round trip
    p = SimParams(t_end=8.0, snapshot_every=8.0, irk_stages=stages, dealias=dealias)
    g = make_grid(p.grid_points, p.domain_length)
    s0 = initial_state(p, g)
    st = FieldState(t=0.0, u=s0.u + 1e-10, v=s0.v)
    summary, _, _, _ = integrate(p, g, st)
    solver = StageSolver(p, g)
    for _ in range(summary.steps):
        st, _ = irk_step(st, p, g, solver)
    assert st.t == summary.final_state.t
    assert np.max(np.abs(st.u - summary.final_state.u)) <= 1e-12
    assert np.max(np.abs(st.v - summary.final_state.v)) <= 1e-12


@pytest.mark.parametrize("stages", [1, 2, 3])
def test_stage_solver_returns_stage_blocks(stages):
    p = SimParams(irk_stages=stages)
    g = make_grid(p.grid_points, p.domain_length)
    s0 = initial_state(p, g)
    stage_u, nl, report = StageSolver(p, g).solve(
        np.stack([dft_forward(s0.u), dft_forward(s0.v)]), 0.0
    )
    for block in (stage_u, nl):
        assert block.shape == (stages, g.n // 2 + 1)
    assert report.converged


@pytest.mark.parametrize("stages", [1, 2, 3])
def test_reduced_stage_system_solves_the_first_order_stages(stages):
    # with V = v 1 + dt A (lam U + N), the Gauss stage equation U = u 1 + dt A V
    # holds up to dt A applied to the last sweep's residual (<= stage_tol)
    p = SimParams(irk_stages=stages, amplitude=0.12)
    g = make_grid(p.grid_points, p.domain_length)
    s0 = initial_state(p, g)
    c = np.stack([dft_forward(s0.u), dft_forward(0.01 * np.sin(np.pi * g.nodes / 4.0))])
    solver = StageSolver(p, g)
    stage_u, nl, report = solver.solve(c, 0.0)
    a = solver.tableau.a
    stage_v = c[1] + p.dt * (a @ (solver.lam * stage_u + nl))
    defect = dft_inverse(stage_u - c[0] - p.dt * (a @ stage_v))
    assert report.converged
    assert np.max(np.abs(defect)) <= p.dt * p.stage_tol


def test_stage_solver_reports_divergence_with_time():
    p = SimParams(stage_max_iter=1)
    g = make_grid(p.grid_points, p.domain_length)
    s0 = initial_state(p, g)
    with pytest.raises(StageSolveDiverged) as err:
        irk_step(s0, p, g)
    assert err.value.t == 0.0
    assert "1 sweeps" in str(err.value)


def not_one_grid_state(grid):
    """Starts that are not one grid.n-point state: too few points, and a stack."""
    s64 = initial_state(SimParams(grid_points=64), make_grid(64, grid.length))
    s0 = initial_state(SimParams(), grid)
    return [s64, FieldState(t=[0.0, 0.0], u=np.stack([s0.u, s0.u]), v=np.stack([s0.v, s0.v]))]


def test_integrate_rejects_a_start_that_is_not_one_grid_state():
    p = SimParams(t_end=1.0)
    g = make_grid(128, 8.0)
    for start in not_one_grid_state(g):
        with pytest.raises(LengthMismatch):
            integrate(p, g, start)


def test_irk_step_rejects_a_start_that_is_not_one_grid_state():
    p = SimParams()
    g = make_grid(128, 8.0)
    for start in not_one_grid_state(g):
        with pytest.raises(LengthMismatch):
            irk_step(start, p, g)


def test_integrate_tags_failure_time():
    # flipped laplacian sign with order-one alpha blows up almost immediately
    p = SimParams(laplacian_sign="as_written", alpha=1.0, t_end=64.0)
    with pytest.raises((StageSolveDiverged, NonFinite)) as err:
        integrate(p)
    assert err.value.t is not None
    assert 0.0 < err.value.t <= 64.0


def test_quadratic_action_is_conserved_on_linear_problem():
    p, g, st = linear_mode_setup(0.25, 2)
    omega = math.sqrt(5.0)
    solver = StageSolver(p, g)
    c0 = np.fft.fft(st.u)[2] / g.n
    act0 = abs(c0) ** 2
    worst = 0.0
    for _ in range(256):
        st, _ = irk_step(st, p, g, solver)
        cu = np.fft.fft(st.u)[2] / g.n
        cv = np.fft.fft(st.v)[2] / g.n
        act = abs(cu) ** 2 + abs(cv / omega) ** 2
        worst = max(worst, abs(act - act0) / act0)
    assert worst <= 1e-12


def test_short_run_is_time_reversible():
    p = SimParams(t_end=8.0, snapshot_every=8.0)
    g = make_grid(p.grid_points, p.domain_length)
    s0 = initial_state(p, g)
    fwd, _, _, _ = integrate(p, g, s0)
    mid = fwd.final_state
    back_start = FieldState(t=0.0, u=mid.u, v=-mid.v)
    back, _, _, _ = integrate(p, g, back_start)
    assert np.max(np.abs(back.final_state.u - s0.u)) <= 1e-12


def test_integrate_is_deterministic():
    p = SimParams(t_end=32.0)
    a, snaps_a, diags_a, _ = integrate(p)
    b, snaps_b, diags_b, _ = integrate(p)
    assert np.array_equal(a.final_state.u, b.final_state.u)
    assert np.array_equal(a.final_state.v, b.final_state.v)
    assert snaps_a.u.shape == snaps_b.u.shape
    assert diags_a == diags_b


def test_integrate_zero_length_run():
    p = SimParams(t_end=0.0)
    summary, snapshots, diagnostics, tracks = integrate(p)
    assert summary.steps == 0
    assert summary.max_abs_drift == 0.0
    assert snapshots.u.shape == (1, summary.final_state.u.size)
    assert len(diagnostics) == 1
    assert diagnostics[0].t == 0.0
    assert diagnostics[0].energy_drift == 0.0
    assert all(len(trk.t) == 1 for trk in tracks)


def test_integrate_runs_from_the_start_state_time():
    # snapshots, tracers and the final state share the start's time axis
    p = SimParams(t_end=1.0, snapshot_every=0.5)
    g = make_grid(p.grid_points, p.domain_length)
    s0 = initial_state(p, g)
    st = FieldState(t=5.0, u=s0.u, v=s0.v)
    summary, snapshots, diagnostics, tracks = integrate(p, g, st)
    solver = StageSolver(p, g)
    times = [st.t]
    for _ in range(summary.steps):
        st, _ = irk_step(st, p, g, solver)
        times.append(st.t)
    assert times[-1] == 6.0
    assert snapshots.t.tolist() == times[::4]
    assert [row.t for row in diagnostics] == times[::4]
    assert all(trk.t.tolist() == times for trk in tracks)
    assert summary.final_state.t == times[-1]


@pytest.mark.parametrize(
    "case",
    [
        {"amplitude": 0.1195, "t_end": 8.0, "snapshot_every": 0.125},
        {"t_end": 16.0, "snapshot_every": 1.0, "offset": 1e-3},
    ],
    ids=["record_shaped", "non_odd_start"],
)
def test_diagnostics_rows_match_the_functionals_of_their_snapshots(case):
    # integrate takes energy and momentum of all snapshots in one stacked call;
    # each row must equal the 1-d functional of its own snapshot bit for bit
    case = dict(case)
    offset = case.pop("offset", 0.0)
    p = SimParams(**case)
    g = make_grid(p.grid_points, p.domain_length)
    s0 = initial_state(p, g)
    start = FieldState(t=0.0, u=s0.u + offset * np.cos(np.pi * g.nodes / 4.0), v=s0.v)
    _, snapshots, diagnostics, _ = integrate(p, g, start)
    assert len(diagnostics) == snapshots.t.size == int(p.t_end / p.snapshot_every) + 1
    e0 = energy(snapshots.u[0], snapshots.v[0], p, g)
    for t, u, v, row in zip(snapshots.t, snapshots.u, snapshots.v, diagnostics):
        e = energy(u, v, p, g)
        assert row.t == t
        assert row.energy == e
        assert row.momentum == momentum(u, v, p, g)
        assert row.energy_drift == energy_drift(e, e0)


def test_integrate_snapshot_cadence_and_tracks():
    p = SimParams(t_end=64.0)
    summary, snapshots, diagnostics, tracks = integrate(p)
    assert summary.steps == 512
    assert snapshots.t.size == 5
    assert snapshots.t.tolist() == [0.0, 16.0, 32.0, 48.0, 64.0]
    assert [row.t for row in diagnostics] == [0.0, 16.0, 32.0, 48.0, 64.0]
    assert len(tracks) == 2
    assert tracks[0].probe_x == 2.0
    assert tracks[1].probe_x == 6.0
    for trk in tracks:
        assert len(trk.t) == summary.steps + 1
        assert np.all(np.diff(trk.t) > 0.0)
        assert np.all(np.isfinite(trk.u))


def test_single_probe_leaves_second_rotation_zero():
    p = SimParams(t_end=32.0, probes=(2.0,))
    _, _, diagnostics, tracks = integrate(p)
    assert len(tracks) == 1
    last = diagnostics[-1]
    assert last.rot_right == 0.0
    assert math.isfinite(last.rot_origin)
    assert math.isfinite(last.rot_left)


def test_sweep_counters_accumulate():
    p = SimParams(t_end=16.0)
    summary, _, _, _ = integrate(p)
    assert summary.total_sweeps >= summary.steps
    assert 0.0 < summary.max_residual <= p.stage_tol


def test_three_stage_run_conserves_energy_to_roundoff():
    # both updates use the same stage force lam U + N(U), so the s = 3
    # scheme's energy error stays at roundoff over 512 steps
    summary, _, _, _ = integrate(SimParams(irk_stages=3, t_end=64.0))
    assert summary.max_abs_drift <= 1e-12


def test_default_run_stays_exactly_odd():
    # the sine start is odd about x = 0 and x = L/2, and so is the exact flow;
    # the run keeps u(L - x) = -u(x) and v(L - x) = -v(x) bit for bit
    p = SimParams(t_end=128.0, snapshot_every=8.0)
    _, snapshots, _, tracks = integrate(p)
    assert snapshots.t.size == 17
    # reflect acts row by row, so one comparison covers every snapshot
    assert np.array_equal(reflect(snapshots.u), -snapshots.u)
    assert np.array_equal(reflect(snapshots.v), -snapshots.v)
    # the probes at x = 2 and x = 6 are mirror images of each other
    assert np.array_equal(tracks[1].u, -tracks[0].u)
    assert np.array_equal(tracks[1].v, -tracks[0].v)


@pytest.mark.parametrize(
    "resolution",
    [{}, {"dt": 0.0625}, {"grid_points": 256}],
    ids=["default", "dt_0.0625", "grid_points_256"],
)
def test_even_perturbation_grows_at_the_instability_rate(resolution):
    # A uniform offset is even about x = 0, so the start is not odd and the
    # run is left unprojected. The confined state is parametrically unstable
    # to it: the parity defect max|u(x) + u(L - x)| grows at about 0.046 per
    # time unit, at half the step and at twice the points alike, so the rate
    # belongs to the equation and not to the discretization. (A cos(pi x/4)
    # seed would not do: to first order it only translates the profile, which
    # does not grow.)
    p = SimParams(t_end=512.0, **resolution)
    g = make_grid(p.grid_points, p.domain_length)
    s0 = initial_state(p, g)
    start = FieldState(t=0.0, u=s0.u + 1e-10, v=s0.v)
    _, snapshots, _, _ = integrate(p, g, start)
    t = snapshots.t
    defect = np.max(np.abs(snapshots.u + reflect(snapshots.u)), axis=1)
    assert defect[0] == pytest.approx(2e-10, rel=1e-6)
    fit = (t >= 64.0) & (t <= 384.0)
    rate = float(np.polyfit(t[fit], np.log(defect[fit]), 1)[0])
    # measured 0.0460 at all three resolutions; the tolerance allows about 10 percent
    assert rate == pytest.approx(0.046, abs=0.005)
