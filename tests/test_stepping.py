"""Tableau coefficients, the implicit stage solver, and the time marcher."""

import dataclasses
import math
import pathlib
import tracemalloc
import warnings

import numpy as np
import pytest

import kgbreather.dynamics
import kgbreather.spectral
import kgbreather.stepping
from kgbreather import (
    FieldState,
    InvalidParams,
    SimParams,
    StageSolveDiverged,
    dft_forward,
    dft_inverse,
    energy,
    energy_drift,
    gauss_tableau,
    initial_state,
    integrate,
    irk_step,
    momentum,
)
from kgbreather import accel
from kgbreather.core import half_domain_masks, is_odd, odd_part, probe_indices, reflect
from kgbreather.errors import LengthMismatch, NonFinite
from kgbreather.stepping import StageSolver, StepReport

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
    g = p.grid
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
    with pytest.raises(InvalidParams, match=f"^irk_stages must be 1, 2, or 3, got {stages}$"):
        gauss_tableau(stages)


def test_tableau_arrays_are_read_only():
    tab = gauss_tableau(2)
    with pytest.raises(ValueError):
        tab.a[0, 0] = 0.0


def test_equilibrium_is_a_fixed_point_of_the_step():
    p = SimParams()
    g = p.grid
    s0 = FieldState(t=0.0, u=np.full(g.n, U_STAR), v=np.zeros(g.n))
    s1, report = irk_step(s0, StageSolver(p))
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
        s1, _ = irk_step(s0, StageSolver(p))
        ue = math.cos(omega * step) * np.sin(2.0 * g.nodes)
        ve = -omega * math.sin(omega * step) * np.sin(2.0 * g.nodes)
        return max(
            float(np.max(np.abs(s1.u - ue))),
            float(np.max(np.abs(s1.v - ve))) / omega,
        )

    ratio = state_error(dt) / state_error(dt / 2.0)
    assert lo <= ratio <= hi


def test_work_precision_against_a_three_stage_reference():
    # the largest snapshot difference in u or v at t_end = 256 from s = 3,
    # dt = 1/64, measured 4.739e-12 (s = 2, dt = 1/8, the default), 2.979e-13
    # (s = 2, dt = 1/16) and 4.580e-15 (s = 3, dt = 1/4); the last is at the
    # roundoff floor, so the checks are bounds
    p = SimParams(t_end=256.0)
    runs = {
        (stages, dt): integrate(dataclasses.replace(p, irk_stages=stages, dt=dt))[:2]
        for stages, dt in ((3, 1 / 64), (2, 0.125), (2, 0.0625), (3, 0.25))
    }
    ref = runs[3, 1 / 64][1]

    def error(stages, dt):
        snapshots = runs[stages, dt][1]
        assert np.array_equal(snapshots.t, ref.t)
        return max(np.abs(snapshots.u - ref.u).max(), np.abs(snapshots.v - ref.v).max())

    assert 14 <= error(2, 0.125) / error(2, 0.0625) <= 18  # order 4
    assert error(3, 0.25) < 1e-14 and 100 * error(3, 0.25) <= error(2, 0.125)
    default = runs[2, 0.125][0]
    assert 1.2 < default.total_sweeps / default.steps < 1.35


def test_default_first_step_converges_fast():
    p = SimParams()
    s1, report = irk_step(initial_state(p), StageSolver(p))
    assert report.iterations <= 10
    assert report.residual <= 1e-13
    assert np.all(np.isfinite(s1.u))


def test_explicit_solver_matches_fresh_one():
    p = SimParams()
    s0 = initial_state(p)
    solver = StageSolver(p)
    irk_step(s0, solver)  # a solver holds no state from step to step
    a, _ = irk_step(s0, solver)
    b, _ = irk_step(s0, StageSolver(p))
    assert np.array_equal(a.u, b.u)
    assert np.array_equal(a.v, b.v)


@pytest.mark.parametrize("stages", [1, 2, 3])
def test_integrate_and_chained_irk_steps_agree(stages):
    # a non-odd start, so integrate leaves the run unprojected; it then
    # differs from chained irk_step calls only by the samples' round trip
    p = SimParams(t_end=8.0, snapshot_every=8.0, irk_stages=stages)
    s0 = initial_state(p)
    st = FieldState(t=0.0, u=s0.u + 1e-10, v=s0.v)
    summary, _, _, _ = integrate(p, st)
    solver = StageSolver(p)
    for _ in range(summary.steps):
        st, _ = irk_step(st, solver)
    assert st.t == summary.final_state.t
    assert np.max(np.abs(st.u - summary.final_state.u)) <= 1e-12
    assert np.max(np.abs(st.v - summary.final_state.v)) <= 1e-12


@pytest.mark.parametrize("stages", [1, 2, 3])
def test_stage_extrapolation_reproduces_polynomials_of_degree_s(stages):
    # the s + 1 nodes (0, c_1..c_s) fix every polynomial of degree <= s, so
    # the extrapolation to 1 + c_j is exact for all of them
    p = SimParams(irk_stages=stages)
    solver = StageSolver(p)
    c = solver.tableau.c
    nodes = np.concatenate([[0.0], c])
    assert solver.extrap.shape == (stages, stages + 1)
    assert np.max(np.abs(solver.extrap.sum(axis=1) - 1.0)) <= 1e-13
    for degree in range(stages + 1):
        coef = np.linspace(1.0, -0.5, degree + 1)
        got = solver.extrap @ np.polyval(coef, nodes)
        assert np.max(np.abs(got - np.polyval(coef, 1.0 + c))) <= 1e-13


@pytest.mark.parametrize("stages", [1, 2, 3])
def test_integrate_first_step_matches_irk_step_bit_for_bit(stages):
    # integrate's first step has no previous stages, so it starts from uhat as irk_step does
    p = SimParams(t_end=0.125, snapshot_every=0.125, irk_stages=stages)
    s0 = initial_state(p)
    start = FieldState(t=0.0, u=s0.u + 1e-10, v=s0.v)  # not odd, so left unprojected
    summary, _, _, _ = integrate(p, start)
    s1, report = irk_step(start, StageSolver(p))
    assert summary.steps == 1
    assert summary.total_sweeps == report.iterations
    assert np.array_equal(summary.final_state.u, s1.u)
    assert np.array_equal(summary.final_state.v, s1.v)


@pytest.mark.parametrize("stages", [1, 2, 3])
def test_stage_solver_returns_stage_blocks(stages):
    p = SimParams(irk_stages=stages)
    g = p.grid
    s0 = initial_state(p)
    stage_u, nl, (report,), start = StageSolver(p).solve(
        np.stack([dft_forward(s0.u), dft_forward(s0.v)])[None], np.zeros((1, 2))
    )
    # the start is the cube of the next step's stage guesses
    for block in (stage_u, nl, start):
        assert block.shape == (1, stages, g.n // 2 + 1)
    assert report.residual <= p.stage_tol


@pytest.mark.parametrize("stages", [1, 2, 3])
def test_reduced_stage_system_solves_the_first_order_stages(stages):
    # with V = v 1 + dt A (lam U + N), the Gauss stage equation U = u 1 + dt A V
    # holds up to dt A applied to the last sweep's residual (<= stage_tol)
    p = SimParams(irk_stages=stages, amplitude=0.12)
    g = p.grid
    s0 = initial_state(p)
    c = np.stack([dft_forward(s0.u), dft_forward(0.01 * np.sin(np.pi * g.nodes / 4.0))])
    solver = StageSolver(p)
    stage_u, nl, (report,), _ = solver.solve(c[None], np.zeros((1, 2)))
    stage_u, nl = stage_u[0], nl[0]
    a = solver.tableau.a
    stage_v = c[1] + p.dt * (a @ (solver.lam * stage_u + nl))
    defect = dft_inverse(stage_u - c[0] - p.dt * (a @ stage_v))
    assert report.residual <= p.stage_tol
    assert np.max(np.abs(defect)) <= p.dt * p.stage_tol


def test_stage_solver_reports_divergence_with_time():
    p = SimParams(stage_max_iter=1)
    s0 = initial_state(p)
    with pytest.raises(StageSolveDiverged) as err:
        irk_step(s0, StageSolver(p))
    assert err.value.t == 0.0
    assert "1 sweeps" in str(err.value)


def not_one_default_state():
    """Starts that are not one state of the default grid: too few points, and a stack."""
    s64 = initial_state(SimParams(grid_points=64))
    s0 = initial_state(SimParams())
    return [s64, FieldState(t=[0.0, 0.0], u=np.stack([s0.u, s0.u]), v=np.stack([s0.v, s0.v]))]


def test_integrate_rejects_a_start_that_is_not_grid_states():
    # one state or a stack of them, each of grid.n points
    p = SimParams(t_end=1.0)
    g = p.grid
    s64, stack = not_one_default_state()
    s64_stack = FieldState(t=[0.0], u=[s64.u], v=[s64.v])
    block = FieldState(t=[[0.0, 0.0]], u=[stack.u], v=[stack.v])
    empty = FieldState(t=np.empty(0), u=np.empty((0, g.n)), v=np.empty((0, g.n)))
    for start in (s64, s64_stack, block, empty):
        with pytest.raises(LengthMismatch):
            integrate(p, start)


def test_irk_step_rejects_a_start_that_is_not_one_grid_state():
    p = SimParams()
    for start in not_one_default_state():
        with pytest.raises(LengthMismatch):
            irk_step(start, StageSolver(p))


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
    solver = StageSolver(p)
    c0 = np.fft.fft(st.u)[2] / g.n
    act0 = abs(c0) ** 2
    worst = 0.0
    for _ in range(256):
        st, _ = irk_step(st, solver)
        cu = np.fft.fft(st.u)[2] / g.n
        cv = np.fft.fft(st.v)[2] / g.n
        act = abs(cu) ** 2 + abs(cv / omega) ** 2
        worst = max(worst, abs(act - act0) / act0)
    assert worst <= 1e-12


def test_short_run_is_time_reversible():
    p = SimParams(t_end=8.0, snapshot_every=8.0)
    s0 = initial_state(p)
    fwd, _, _, _ = integrate(p, s0)
    mid = fwd.final_state
    back_start = FieldState(t=0.0, u=mid.u, v=-mid.v)
    back, _, _, _ = integrate(p, back_start)
    assert np.max(np.abs(back.final_state.u - s0.u)) <= 1e-12


def test_integrate_is_deterministic():
    p = SimParams(t_end=32.0)
    a, snaps_a, diags_a, _ = integrate(p)
    b, snaps_b, diags_b, _ = integrate(p)
    assert np.array_equal(a.final_state.u, b.final_state.u)
    assert np.array_equal(a.final_state.v, b.final_state.v)
    assert snaps_a.u.shape == snaps_b.u.shape
    assert diags_a.tobytes() == diags_b.tobytes()


def test_readme_library_block_runs_as_documented(capsys):
    # the README's "Library use" block as it stands: it prints the drift, the
    # last snapshot's rot_left from the diagnostics record, and the label
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library use\n\n```python\n", 1)[1].split("```", 1)[0]
    scope = {}
    exec(block, scope)
    drift, rot_left, label = capsys.readouterr().out.splitlines()
    summary, diagnostics = scope["summary"], scope["diagnostics"]
    assert float(drift) == summary.max_abs_drift
    assert isinstance(diagnostics, np.recarray) and len(diagnostics) == 33
    assert float(rot_left) == diagnostics.rot_left[-1] == diagnostics[-1].rot_left
    assert label == "indeterminate"


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
    s0 = initial_state(p)
    st = FieldState(t=5.0, u=s0.u, v=s0.v)
    summary, snapshots, diagnostics, tracks = integrate(p, st)
    solver = StageSolver(p)
    times = [st.t]
    for _ in range(summary.steps):
        st, _ = irk_step(st, solver)
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
        # 3 * 64 + 1 snapshots: four row blocks of the diagnostics pass, the last of one row
        {"amplitude": 0.1195, "t_end": 24.0, "snapshot_every": 0.125, "offset": 1e-3},
    ],
    ids=["record_shaped", "non_odd_start", "several_row_blocks"],
)
def test_diagnostics_rows_match_the_functionals_of_their_snapshots(case):
    # integrate takes energy, momentum and the margins of the snapshots in row
    # blocks; each row must equal both the 1-d functional of its own snapshot
    # and one call over the whole stack, bit for bit
    case = dict(case)
    offset = case.pop("offset", 0.0)
    p = SimParams(**case)
    g = p.grid
    s0 = initial_state(p)
    start = FieldState(t=0.0, u=s0.u + offset * np.cos(np.pi * g.nodes / 4.0), v=s0.v)
    _, snapshots, diagnostics, _ = integrate(p, start)
    assert len(diagnostics) == snapshots.t.size == int(p.t_end / p.snapshot_every) + 1
    e0 = energy(snapshots.u[0], snapshots.v[0], p)
    for t, u, v, row in zip(snapshots.t, snapshots.u, snapshots.v, diagnostics):
        e = energy(u, v, p)
        assert row.t == t
        assert row.energy == e
        assert row.momentum == momentum(u, v, p)
        assert row.energy_drift == energy_drift(e, e0)
    u, v = snapshots.u, snapshots.v
    left, right = half_domain_masks(g)
    whole = {
        "energy": energy(u, v, p),
        "momentum": momentum(u, v, p),
        "u_min_left": u[:, left].min(axis=1),
        "u_max_left": u[:, left].max(axis=1),
        "u_min_right": u[:, right].min(axis=1),
        "u_max_right": u[:, right].max(axis=1),
    }
    for name, column in whole.items():
        got = np.array([getattr(row, name) for row in diagnostics])
        assert got.tobytes() == column.tobytes(), name


def test_integrate_peaks_below_two_and_a_half_snapshot_blocks():
    # the snapshot block is freed once its FieldState copy exists, and the
    # diagnostics take row blocks, so the block, its copy and full-stack
    # temporaries are never alive together (2.15 blocks, measured)
    p = SimParams(amplitude=0.1195, t_end=256.0, snapshot_every=0.125)
    g = p.grid
    block = 2 * (int(p.t_end / p.snapshot_every) + 1) * g.n * 8  # u and v of every snapshot
    tracemalloc.start()
    try:
        _, snapshots, _, _ = integrate(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert snapshots.u.nbytes + snapshots.v.nbytes == block
    assert peak < 2.5 * block, f"peak {peak / block:.2f} snapshot blocks"


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
    # sweep_counts[k - 1] steps took k sweeps
    assert sum(summary.sweep_counts) == summary.steps
    assert sum(k * n for k, n in enumerate(summary.sweep_counts, 1)) == summary.total_sweeps


def test_a_run_makes_one_starting_cube_plus_one_per_sweep(monkeypatch):
    # counts, not timings, so host noise cannot move them
    calls = []
    cube_hat = kgbreather.spectral.cube_hat

    def counted(c):
        calls.append(c.shape)
        return cube_hat(c)

    monkeypatch.setattr(kgbreather.spectral, "cube_hat", counted)
    monkeypatch.setattr(kgbreather.dynamics, "cube_hat", counted)
    summary, _, _, _ = integrate(SimParams(t_end=16.0))
    # each sweep cubes the next step's guess with its stages, so only the
    # first step cubes a start of its own
    assert len(calls) == 1 + summary.total_sweeps


def test_a_run_makes_three_transforms_per_sweep_plus_one_per_record_block(monkeypatch):
    # per sweep, the cube's irfft and rfft and the residual's irfft; per
    # block of 64 steps, one synthesis; per run 7: the forward transform of
    # the start, the first step's cube of uhat, and the derivative (rfft and
    # irfft) inside energy and inside momentum. Every transform is an
    # np.fft attribute call, which is what perfbench counts.
    calls = []

    def counted(fn):
        def call(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)

        return call

    for name in ("fft", "ifft", "rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))
    summary, _, _, _ = integrate(SimParams(t_end=16.0))
    monkeypatch.undo()
    assert len(calls) == 3 * summary.total_sweeps + math.ceil(summary.steps / 64) + 7


def test_a_run_makes_one_synthesis_per_sweep_plus_one_per_record_block(monkeypatch):
    # each sweep synthesizes its residual, and each block of 64 steps its
    # samples; energy and momentum synthesize one derivative each
    calls = []
    dft_inverse = kgbreather.spectral.dft_inverse

    def counted(c):
        calls.append(np.shape(c))
        return dft_inverse(c)

    monkeypatch.setattr(kgbreather.spectral, "dft_inverse", counted)
    monkeypatch.setattr(kgbreather.stepping, "dft_inverse", counted)
    summary, _, _, _ = integrate(SimParams(t_end=16.0))
    assert len(calls) == summary.total_sweeps + math.ceil(summary.steps / 64) + 2


@pytest.mark.parametrize(
    "case, bound",
    [({}, 1.40), ({"irk_stages": 3}, 1.05), ({"amplitude": 0.12}, 2.10)],
    ids=["default", "irk_stages_3", "amplitude_0.12"],
)
def test_stage_sweeps_per_step_stay_low(case, bound):
    # measured 1.334, 1.002 and 2.002 with the extrapolated stage start;
    # every step starting from uhat took 2.000, 2.000 and 2.850
    summary, _, _, _ = integrate(SimParams(t_end=64.0, **case))
    assert summary.total_sweeps / summary.steps <= bound


def test_three_stage_run_conserves_energy_to_roundoff():
    # both updates use the same stage force lam U + N(U), so the s = 3
    # scheme's energy error stays at roundoff over 512 steps
    summary, _, _, _ = integrate(SimParams(irk_stages=3, t_end=64.0))
    assert summary.max_abs_drift <= 1e-12


def test_converged_energy_drift_is_the_fourth_order_truncation_error():
    # with converged stages (stage_tol = 1e-15) the drift at t_end = 256 is
    # 1.4472e-11 at dt = 0.125 and 8.4235e-13 at dt = 0.0625: a ratio of 17.2
    # against h^4 = 16. The default stage_tol reads 1.3522e-11, below the
    # converged value, because most steps stop after one sweep just under it.
    def drift(**case):
        return integrate(SimParams(t_end=256.0, **case))[0].max_abs_drift

    coarse, fine = drift(stage_tol=1e-15), drift(stage_tol=1e-15, dt=0.0625)
    assert 14.0 <= coarse / fine <= 20.0
    assert drift() < coarse


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
    s0 = initial_state(p)
    start = FieldState(t=0.0, u=s0.u + 1e-10, v=s0.v)
    _, snapshots, _, _ = integrate(p, start)
    t = snapshots.t
    defect = np.max(np.abs(snapshots.u + reflect(snapshots.u)), axis=1)
    assert defect[0] == pytest.approx(2e-10, rel=1e-6)
    fit = (t >= 64.0) & (t <= 384.0)
    rate = float(np.polyfit(t[fit], np.log(defect[fit]), 1)[0])
    # measured 0.0460 at all three resolutions; the tolerance allows about 10 percent
    assert rate == pytest.approx(0.046, abs=0.005)


def test_stage_matvec_on_a_stack_equals_one_call_per_member_bit_for_bit():
    rng = np.random.default_rng(3)
    solver = StageSolver(SimParams(irk_stages=3))
    x = rng.standard_normal((4, 3, 65)) + 1j * rng.standard_normal((4, 3, 65))
    got = accel.stage_matvec(solver.map_nl, x)
    assert got.shape == (4, 6, 65)
    for member, rows in zip(got, x):
        assert np.array_equal(member, accel.stage_matvec(solver.map_nl, rows))


# from the extrapolated stage start, A <= 0.04 takes about one sweep a step
# and A >= 0.1 about two
MEMBER_AMPLITUDES = (0.02, 0.04, 0.1, 0.12)


def stacked_start(params, amplitudes):
    """One stacked FieldState of the default start at each amplitude."""
    starts = [initial_state(dataclasses.replace(params, amplitude=a)) for a in amplitudes]
    return FieldState(t=[s.t for s in starts], u=[s.u for s in starts], v=[s.v for s in starts])


def assert_same_results(got, want):
    """Two integrate results hold the same numbers, bit for bit."""
    (summary, snapshots, diagnostics, tracks), (solo, solo_snapshots, solo_diagnostics, solo_tracks) = got, want
    pairs = [(snapshots, solo_snapshots), (summary.final_state, solo.final_state)]
    pairs += list(zip(tracks, solo_tracks, strict=True))
    for a, b in pairs:
        for name in ("t", "u", "v"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
    assert [trk.probe_x for trk in tracks] == [trk.probe_x for trk in solo_tracks]
    assert diagnostics.dtype == solo_diagnostics.dtype
    assert diagnostics.tobytes() == solo_diagnostics.tobytes()
    for name in ("steps", "max_abs_drift", "max_residual", "total_sweeps", "sweep_counts"):
        assert getattr(summary, name) == getattr(solo, name)


@pytest.mark.parametrize("stages", [1, 2, 3])
def test_each_member_of_a_stack_equals_its_solo_run_bit_for_bit(stages):
    p = SimParams(t_end=16.0, snapshot_every=4.0, irk_stages=stages)
    outcomes = integrate(p, stacked_start(p, MEMBER_AMPLITUDES))
    assert len(outcomes) == len(MEMBER_AMPLITUDES)
    for a, got in zip(MEMBER_AMPLITUDES, outcomes):
        assert_same_results(got, integrate(dataclasses.replace(p, amplitude=a)))
    # the members took different numbers of sweeps, so some left a solve before others
    assert len({summary.sweep_counts for summary, _, _, _ in outcomes}) > 1


def record_cubes(monkeypatch):
    """The list that every later cube input of the stage solver is copied into."""
    inputs = []
    cube = kgbreather.stepping.nonlinear_hat

    def recorded(x, params):
        inputs.append(x.copy())
        return cube(x, params)

    monkeypatch.setattr(kgbreather.stepping, "nonlinear_hat", recorded)
    return inputs


def test_a_member_that_converges_early_keeps_the_stages_of_its_own_sweep(monkeypatch):
    # in the second step A = 0.02 converges after one sweep and A = 0.12
    # after two; the second sweep runs on A = 0.12 alone, and A = 0.02 keeps
    # the stages, cubes and next start of its first
    p = SimParams()
    stack = stacked_start(p, (0.02, 0.12))
    solver = StageSolver(p)
    c, _, start = solver.step(dft_forward(np.stack([stack.u, stack.v], axis=1)), np.zeros((2, 2)))
    times = np.array([[p.dt, 2 * p.dt]] * 2)
    inputs = record_cubes(monkeypatch)
    stage_u, nl, reports, guess_nl = solver.solve(c, times, start)
    monkeypatch.undo()
    assert [r.iterations for r in reports] == [1, 2]
    # each sweep cubes the stage rows and the guess rows of the members
    # still sweeping, and the start's cube comes from the step before
    rows = [len(x) // p.irk_stages for x in inputs]
    assert rows == [4, 2]
    for k in range(2):
        solo = slice(k, k + 1)  # member k as a stack of one
        solo_u, solo_nl, solo_reports, solo_start = solver.solve(c[solo], times[solo], start[solo])
        assert [reports[k]] == solo_reports
        for got, want in zip((stage_u, nl, guess_nl), (solo_u, solo_nl, solo_start)):
            assert np.array_equal(got[k], want[0])
    # member 0's start is the cube of its own first sweep's stages extrapolated;
    # the map composes the extrapolation in advance, so it agrees to roundoff
    own = kgbreather.dynamics.nonlinear_hat(solver.extrap[:, :1] * c[0, :1] + solver.extrap[:, 1:] @ stage_u[0], p)
    assert np.max(np.abs(guess_nl[0] - own)) <= 1e-13 * np.max(np.abs(own))


@pytest.mark.parametrize("stages", [1, 2, 3])
def test_each_sweep_cubes_exactly_the_members_without_an_outcome(stages, monkeypatch):
    # alone, these members take 4, 2, 7 and 3 sweeps in their first step at
    # s = 1, 4, 2, 5 and 3 at s = 2, 3, 2, 5 and 3 at s = 3; sweep j cubes
    # the rows of the members that took j sweeps or more, in member order,
    # and each member's numbers are those of its solo solve
    p = SimParams(irk_stages=stages)
    stack = stacked_start(p, (0.3, 0.02, 1.0, 0.12))
    c = dft_forward(np.stack([stack.u, stack.v], axis=1))
    times = np.zeros((4, 2))
    solver = StageSolver(p)
    inputs = record_cubes(monkeypatch)
    *blocks, reports, start = solver.solve(c, times)
    sweeps, solos = inputs[1:], []  # the first cube is that of uhat, which starts every stage
    for k in range(4):
        inputs.clear()
        solos.append((solver.solve(c[k : k + 1], times[k : k + 1]), inputs[1:]))
    iterations = [r.iterations for r in reports]
    assert len(set(iterations)) > 2
    assert len(sweeps) == max(iterations)
    for j, x in enumerate(sweeps, start=1):
        live = [k for k, n in enumerate(iterations) if n >= j]
        assert np.array_equal(x, np.concatenate([solos[k][1][j - 1] for k in live]))
    for k, ((solo_u, solo_nl, solo_reports, solo_start), _) in enumerate(solos):
        assert [reports[k]] == solo_reports
        for got, want in zip((*blocks, start), (solo_u, solo_nl, solo_start)):
            assert np.array_equal(got[k], want[0])


def test_a_member_that_fails_in_the_first_sweep_leaves_the_sweep_block(monkeypatch):
    # A = 1e200 overflows its cube and fails in sweep 1; A = 0.02 needs two
    # sweeps, and the second cubes its rows alone
    p = SimParams(irk_stages=2)
    stack = stacked_start(p, (1e200, 0.02))
    c = dft_forward(np.stack([stack.u, stack.v], axis=1))
    times = np.array([[3.0, 3.0 + p.dt]] * 2)
    solver = StageSolver(p)
    inputs = record_cubes(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stage_u, nl, (failure, report), start = solver.solve(c, times)
    # the starting cube of uhat, then 2s rows a member in each sweep
    assert [len(x) for x in inputs] == [2, 8, 4]
    second = inputs.pop()
    inputs.clear()
    solo_u, solo_nl, solo_reports, solo_start = solver.solve(c[1:], times[1:])
    assert np.array_equal(second, inputs[2])
    assert isinstance(failure, NonFinite) and failure.t == 3.0 + p.dt
    assert report.iterations == 2 and [report] == solo_reports
    for got, want in zip((stage_u, nl, start), (solo_u, solo_nl, solo_start)):
        assert not got[0].any()
        assert np.array_equal(got[1], want[0])


def test_an_overflowing_member_fails_on_its_own_residual_inside_one_solve():
    # A = 1e200 overflows its cube; beside it A = 0.04 gets the stages,
    # cubes and report of its solo solve, and no numpy warning escapes
    p = SimParams()
    start = stacked_start(p, (0.04, 1e200))
    c = dft_forward(np.stack([start.u, start.v], axis=1))
    solver = StageSolver(p)
    times = np.array([[3.0, 3.0 + p.dt]] * 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stage_u, nl, (report, failure), start = solver.solve(c, times)
    blocks = (stage_u, nl, start)
    assert isinstance(failure, NonFinite) and str(failure) == "cubic term overflowed"
    assert failure.t == 3.0 + p.dt
    assert not any(block[1].any() for block in blocks)
    solo_u, solo_nl, solo_reports, solo_start = solver.solve(c[:1], times[:1])
    assert [report] == solo_reports
    for got, want in zip(blocks, (solo_u, solo_nl, solo_start)):
        assert np.array_equal(got[0], want[0])


def test_a_cube_overflow_in_integrate_carries_the_time_of_its_record_row():
    # beta = 1e-300 leaves the linear growth exp(10 t) of the uniform mode
    # alone, and the sweeps converge until the cube's transform overflows in
    # step 6. At dt = 0.1 the record's time 6 * 0.1 is one ulp above
    # 5 * 0.1 + 0.1, so the failure must take its t from the run's time axis.
    p = SimParams(mu=100.0, beta=1e-300, dt=0.1, t_end=1.0, snapshot_every=0.1)
    g = p.grid
    zero = np.zeros(g.n)
    stack = FieldState(t=[0.0, 0.0], u=[zero, np.full(g.n, 7.3e99)], v=[zero, zero])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (_, _, _, tracks), failure = integrate(p, stack)
    assert isinstance(failure, NonFinite) and str(failure) == "cubic term overflowed"
    assert tracks[0].t[6] != 5 * p.dt + p.dt
    assert failure.t == tracks[0].t[6]
    with pytest.raises(NonFinite) as solo:
        integrate(p, FieldState(t=0.0, u=stack.u[1], v=zero))
    assert solo.value.t == failure.t


def test_irk_step_overflow_fails_at_the_end_of_the_step_as_in_integrate():
    # NonFinite.t is the end of the failed step, StageSolveDiverged.t its start
    p = SimParams(amplitude=1e200, t_end=1.0)
    with pytest.raises(NonFinite, match="^cubic term overflowed$") as err:
        irk_step(initial_state(p), StageSolver(p))
    assert err.value.t == 0.125
    with pytest.raises(NonFinite) as solo:
        integrate(p)
    assert solo.value.t == err.value.t


# a huge linear force at a tiny dt: the stages converge in one sweep, but
# lambda_m U overflows in the update
OVERFLOWING_UPDATE = SimParams(alpha=1e304, dt=1e-160, grid_points=32, t_end=4e-160, snapshot_every=1e-160)


def overflowing_update_start(grid):
    """u = 1000 cos(k x) at the highest mode below Nyquist, whose update overflows at OVERFLOWING_UPDATE."""
    return FieldState(t=0.0, u=1000.0 * np.cos(grid.wavenumbers[-2] * grid.nodes), v=np.zeros(grid.n))


def test_irk_step_rejects_a_state_that_turns_non_finite():
    # the update overflows inside the step's errstate, so no numpy warning escapes
    p = OVERFLOWING_UPDATE
    g = p.grid
    start = overflowing_update_start(g)
    with warnings.catch_warnings(), pytest.raises(NonFinite, match="non-finite field") as err:
        warnings.simplefilter("error")
        irk_step(start, StageSolver(p))
    assert err.value.t == start.t + p.dt


def test_a_non_finite_sample_inside_a_pending_block_keeps_its_own_t():
    # member 1's samples turn non-finite in step 1, while its solve fails only
    # in step 2, where the pending block is flushed; its NonFinite still
    # carries the t of step 1, and member 0, the zero state, runs to the end
    p = OVERFLOWING_UPDATE
    g = p.grid
    bad = overflowing_update_start(g)
    stack = FieldState(t=[0.0, 0.0], u=[np.zeros(g.n), bad.u], v=[bad.v, bad.v])
    solver = StageSolver(p)
    c, reports, start = solver.step(dft_forward(np.stack([stack.u, stack.v], axis=1)), np.zeros((2, 2)))
    assert all(isinstance(r, StepReport) for r in reports)
    assert np.isfinite(c[0]).all() and not np.isfinite(c[1]).all()
    _, (_, second), _ = solver.step(c, np.array([[p.dt, 2 * p.dt]] * 2), start)
    assert isinstance(second, NonFinite) and second.t == 2 * p.dt
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        zero, failure = integrate(p, stack)
    assert isinstance(zero, tuple) and zero[0].steps == 4 and not zero[0].final_state.u.any()
    assert isinstance(failure, NonFinite) and str(failure) == "non-finite field entries at t=1e-160"
    assert failure.t == p.dt


def per_step_record(params, start):
    """(snapshots, tracer samples, final samples, step reports) of one start, synthesized and recorded step by step.

    The loop drives StageSolver.step by hand and synthesizes every step's
    samples from its projected coefficients: the reference for integrate,
    which synthesizes them a block of steps at a time.
    """
    solver = StageSolver(params)
    steps = round(params.t_end / params.dt)
    t = start.t + np.arange(steps + 1) * params.dt
    w = np.stack([start.u, start.v])[None]
    odd = is_odd(w)
    c, next_start = dft_forward(w), None
    samples, reports = [w[0]], []
    for i in range(1, steps + 1):
        c, (report,), next_start = solver.step(c, t[None, i - 1 : i + 1], next_start)
        if odd:
            c = 1j * c.imag
            w = odd_part(dft_inverse(c))
        else:
            w = dft_inverse(c)
        samples.append(w[0])
        reports.append(report)
    samples = np.array(samples)
    sps = round(params.snapshot_every / params.dt)
    return samples[::sps], samples[..., probe_indices(params)], samples[-1], reports


def test_the_block_built_record_equals_a_per_step_record():
    # 150 steps fill neither the 12-step blocks of five members nor the
    # 64-step blocks of one, and a snapshot every 3 steps divides neither
    p = SimParams(t_end=150 * 0.125, snapshot_every=3 * 0.125)
    g = p.grid
    stack = stacked_start(p, (0.02, 0.06, 0.1, 0.12, 0.16))
    uneven = 1e-10 * np.cos(g.nodes * 2 * math.pi / p.domain_length)
    starts = [
        FieldState(t=0.25 * k, u=u + (uneven if k % 2 else 0.0), v=v)
        for k, (u, v) in enumerate(zip(stack.u, stack.v))
    ]
    stack = FieldState(t=[s.t for s in starts], u=[s.u for s in starts], v=[s.v for s in starts])
    assert [is_odd(s.u) for s in starts] == [True, False, True, False, True]
    runs = list(zip(starts, integrate(p, stack))) + [(starts[0], integrate(p, starts[0]))]
    for start, (summary, snapshots, _, tracks) in runs:
        snaps, probes, final, reports = per_step_record(p, start)
        sweeps = [r.iterations for r in reports]
        assert snapshots.t.size == 51
        assert np.array_equal(snapshots.u, snaps[:, 0]) and np.array_equal(snapshots.v, snaps[:, 1])
        for k, trk in enumerate(tracks):
            assert np.array_equal(trk.u, probes[:, 0, k]) and np.array_equal(trk.v, probes[:, 1, k])
        assert np.array_equal(summary.final_state.u, final[0])
        assert np.array_equal(summary.final_state.v, final[1])
        assert summary.total_sweeps == sum(sweeps)
        assert summary.sweep_counts == tuple(np.bincount(sweeps)[1:].tolist())


def test_the_sweep_tallies_equal_a_recount_of_the_step_reports():
    # the members' largest sweep counts differ, so each tally has to end at
    # its own member's largest count
    p = SimParams(t_end=16.0)
    amplitudes = (0.02, 0.12, 0.3)
    outcomes = integrate(p, stacked_start(p, amplitudes))
    for a, (summary, _, _, _) in zip(amplitudes, outcomes):
        reports = per_step_record(p, initial_state(dataclasses.replace(p, amplitude=a)))[3]
        sweeps = [r.iterations for r in reports]
        assert summary.max_residual == max(r.residual for r in reports)
        assert summary.total_sweeps == sum(sweeps)
        assert summary.sweep_counts == tuple(np.bincount(sweeps)[1:].tolist())
        assert summary.sweep_counts[-1] > 0
    assert len({len(summary.sweep_counts) for summary, _, _, _ in outcomes}) > 1


def test_the_records_are_read_only_views_of_one_block_per_run():
    p = SimParams(t_end=8.0, snapshot_every=1.0)
    (_, snaps_a, diag_a, tracks_a), (_, snaps_b, diag_b, tracks_b) = integrate(p, stacked_start(p, (0.02, 0.12)))
    for snapshots, diagnostics, tracks in ((snaps_a, diag_a, tracks_a), (snaps_b, diag_b, tracks_b)):
        tracked = (y for trk in tracks for y in (trk.t, trk.u, trk.v))
        for x in (snapshots.t, snapshots.u, snapshots.v, diagnostics, *tracked):
            assert not x.flags.writeable
        # the tracks share one t array, whose every 8th sample is a snapshot's t
        assert np.shares_memory(tracks[0].t, tracks[1].t)
        assert np.shares_memory(snapshots.t, tracks[0].t)
    assert snaps_a.u.base is snaps_a.v.base is snaps_b.u.base is snaps_b.v.base
    assert tracks_a[0].u.base is tracks_a[1].v.base is tracks_b[0].u.base
    assert snaps_a.t.base is tracks_b[0].t.base
    # the diagnostics of both members are rows of one read-only (M, S) record block
    assert diag_a.base is diag_b.base and diag_a.base.shape == (2, 9)
    assert np.shares_memory(diag_a.base, diag_b) and not diag_a.base.flags.writeable


def test_a_stack_peaks_at_the_bytes_of_its_records():
    # the records are views of integrate's blocks and the sweep tallies do not
    # grow with the steps, so the blocks are the peak (1.3 blocks, measured;
    # copied records and per-step tallies read 3.3)
    p = SimParams(grid_points=32, t_end=192.0)
    stack = stacked_start(p, np.linspace(0.01, 0.16, 16).tolist())
    tracemalloc.start()
    try:
        outcomes = integrate(p, stack)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    blocks = 0
    for _, snapshots, _, tracks in outcomes:
        blocks += snapshots.u.nbytes + snapshots.v.nbytes + tracks[0].t.nbytes
        blocks += sum(trk.u.nbytes + trk.v.nbytes for trk in tracks)
    assert peak < 1.5 * blocks, f"peak {peak / blocks:.2f} blocks"


def test_a_failing_member_stops_at_its_own_time_and_the_others_march_on():
    # alone at N = 64: A = 1e200 overflows the cube in its first step, A = 25
    # stalls (its residual grows) at t = 0 and A = 16 runs out of sweeps at t = 0.375
    p = SimParams(grid_points=64, t_end=49.0)
    amplitudes = (0.02, 16.0, 25.0, 0.12, 1e200)
    outcomes = integrate(p, stacked_start(p, amplitudes))
    for a, got in zip(amplitudes, outcomes):
        solo = dataclasses.replace(p, amplitude=a)
        if isinstance(got, Exception):
            with pytest.raises(type(got)) as err:
                integrate(solo)
            assert str(got) == str(err.value)
            assert got.t == err.value.t
        else:
            assert_same_results(got, integrate(solo))
    assert [type(o).__name__ for o in outcomes] == [
        "tuple", "StageSolveDiverged", "StageSolveDiverged", "tuple", "NonFinite"
    ]
    # StageSolveDiverged.t is the start of the failed step, NonFinite.t its end
    assert [outcomes[k].t for k in (1, 2, 4)] == [0.375, 0.0, 0.125]
    assert "above" in str(outcomes[1]) and "stalled" in str(outcomes[2])


@pytest.mark.parametrize("beta, t_end", [(1.0, 0.0), (1e-300, 1.0)])
def test_a_member_whose_diagnostics_overflow_fails_on_its_own(beta, t_end):
    # at A = 1e80, u**4 overflows in the energy of the start; at beta = 1e-300
    # the cube stays small, so the steps converge and only the energy fails.
    # The diagnostics of the stack are one block, so the failing member sits
    # between two good ones, which keep their solo numbers
    p = SimParams(grid_points=32, beta=beta, t_end=t_end)
    ok, failure, ok_too = integrate(p, stacked_start(p, (0.04, 1e80, 0.12)))
    assert_same_results(ok, integrate(dataclasses.replace(p, amplitude=0.04)))
    assert_same_results(ok_too, integrate(dataclasses.replace(p, amplitude=0.12)))
    assert isinstance(failure, NonFinite) and failure.t == 0.0
    assert str(failure) == "energy non-finite at t=0.0"
    with pytest.raises(NonFinite, match="^energy non-finite at t=0.0$") as solo:
        integrate(dataclasses.replace(p, amplitude=1e80))
    assert solo.value.t == 0.0


def test_a_stack_that_fails_entirely_stops_at_its_last_failure(monkeypatch):
    # a failed member stays in the stack as the zero state, so every step
    # runs all three members; the run stops at the fourth step, where the
    # last member (A = 16) fails
    p = SimParams(grid_points=64, t_end=49.0)
    members = []
    step = StageSolver.step

    def counted(self, c, *args):
        members.append(len(c))
        return step(self, c, *args)

    monkeypatch.setattr(StageSolver, "step", counted)
    outcomes = integrate(p, stacked_start(p, (16.0, 25.0, 1e200)))
    assert members == [3] * 4
    assert [(type(o).__name__, o.t) for o in outcomes] == [
        ("StageSolveDiverged", 0.375), ("StageSolveDiverged", 0.0), ("NonFinite", 0.125)
    ]


@pytest.mark.parametrize("stages", [1, 2, 3])
def test_the_zero_state_takes_one_sweep_and_stays_zero(stages):
    # what a failed member costs the others in integrate's stack: one sweep
    # with a zero residual, with or without a start, and a zero step
    p = SimParams(irk_stages=stages)
    g = p.grid
    solver = StageSolver(p)
    zero = np.zeros((1, 2, g.n // 2 + 1), dtype=complex)
    for start in (None, np.zeros((1, stages, g.n // 2 + 1), dtype=complex)):
        *blocks, (report,), next_start = solver.solve(zero, np.zeros((1, 2)), start)
        assert report == StepReport(1, 0.0)
        assert not any(x.any() for x in (*blocks, next_start))
        c, _, _ = solver.step(zero, np.zeros((1, 2)), start)
        assert not c.any()


def test_members_keep_their_own_start_time_and_odd_projection():
    # an odd start is projected every step and a start with an even part is
    # not; in one stack each member still gets exactly its solo treatment
    p = SimParams(t_end=8.0, snapshot_every=4.0)
    s0 = initial_state(p)
    starts = [s0, FieldState(t=5.0, u=s0.u + 1e-10, v=s0.v)]
    stack = FieldState(t=[0.0, 5.0], u=[s.u for s in starts], v=[s.v for s in starts])
    outcomes = integrate(p, stack)
    for start, got in zip(starts, outcomes):
        assert_same_results(got, integrate(p, start))
    (_, odd, _, _), (_, mixed, _, _) = outcomes
    assert odd.t.tolist() == [0.0, 4.0, 8.0] and mixed.t.tolist() == [5.0, 9.0, 13.0]
    assert np.array_equal(reflect(odd.u), -odd.u)
    assert not np.array_equal(reflect(mixed.u), -mixed.u)


@pytest.mark.parametrize("sign", ["standard_wave", "as_written"])
@pytest.mark.parametrize("stages", [1, 2, 3])
def test_the_stage_maps_reproduce_the_stage_algebra(stages, sign):
    # the maps compose K = (I - dt^2 lam A^2)^-1, G = dt^2 K A^2, the
    # extrapolation and the update in advance; on random stacks they give
    # what the separate factors give, to 1e-14 of the magnitudes that enter
    # (the s = 3 extrapolation weights reach 77, so its guesses cancel)
    p = SimParams(irk_stages=stages, laplacian_sign=sign)
    g = p.grid
    solver = StageSolver(p)
    tab, dt, lam = gauss_tableau(stages), p.dt, kgbreather.dynamics.linear_symbol(p)
    a2 = dt**2 * (tab.a @ tab.a)
    k = np.linalg.inv(np.eye(stages) - lam[:, None, None] * a2)
    # Lagrange basis on the nodes (0, c_1..c_s), evaluated at 1 + c_j
    nodes = [0.0, *tab.c.tolist()]
    extrap = np.array(
        [[math.prod((x - y) / (z - y) for y in nodes if y != z) for z in nodes] for x in (1.0 + tab.c).tolist()]
    )
    rng = np.random.default_rng(stages)
    c, nl = (rng.standard_normal((3, rows, g.n // 2 + 1)) * (1 + 1j) for rows in (2, stages))

    def algebra(f):
        """The stages and guesses and the update, one factor at a time; with f = np.abs, the magnitudes that enter."""
        kk, gg, ee, cc, nn, ll, ba = (f(x) for x in (k, k @ a2, extrap, c, nl, lam, tab.b @ tab.a))
        # per mode m: stages U = K (u 1 + dt v c) + G N and guesses e0 u + E U
        stage_u = np.einsum("mij,kjm->kim", kk, cc[:, :1] + dt * tab.c[:, None] * cc[:, 1:])
        stage_u = stage_u + np.einsum("mij,kjm->kim", gg, nn)
        guess = ee[:, :1] * cc[:, :1] + ee[:, 1:] @ stage_u
        force = ll * stage_u + nn
        update = np.stack([cc[:, 0] + dt * cc[:, 1] + dt**2 * ba @ force, cc[:, 1] + dt * tab.b @ force], axis=1)
        return np.concatenate([stage_u, guess], axis=1), update

    def maps(c, nl):
        """The stages and guesses and the update as the solver composes them."""
        got = accel.stage_matvec(solver.map_c, c) + accel.stage_matvec(solver.map_nl, nl)
        f = np.concatenate([c, solver.lam * got[:, :stages] + nl], axis=1)
        return got, (solver.update @ f.view(float)).view(complex)

    (blocks, update), (block_scale, update_scale) = algebra(lambda x: x), algebra(np.abs)
    got = maps(c, nl)
    assert np.all(np.abs(got[0] - blocks) <= 1e-14 * block_scale)
    assert np.all(np.abs(got[1] - update) <= 1e-14 * update_scale)
    assert np.array_equal(solver.dt_a, dt * tab.a)
    assert np.array_equal(solver.extrap, extrap)
    # each member of the stack gets, bit for bit, what it gets alone
    for i in range(len(c)):
        for stacked, solo in zip(got, maps(c[i : i + 1], nl[i : i + 1])):
            assert np.array_equal(stacked[i], solo[0])
