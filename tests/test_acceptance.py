"""Acceptance gate: one test and one printed verdict line per criterion.

Criterion 6 fails on the faithful default configuration; the printed evidence
line carries the measured numbers. The x = 2 tracer never reaches the vacuum
u* = 0.0552 (it stays below 0.0400), so it does not circle (+u*, 0) and the
run classifies as `indeterminate`; it circles the odd steady state of the
collocated equations instead. Which fixed points the paper means is not
settled by its abstract, so the criterion is left as written. The README's
Tests section gives the numbers.
"""

import math
import os
import pathlib

import numpy as np
import pytest

from kgbreather import (
    FieldState,
    ModeLabel,
    SimParams,
    classify_mode,
    cumulative_rotation,
    half_domain_masks,
    initial_state,
    integrate,
    make_grid,
    self_intersections,
    winding_number,
)
from kgbreather.cli import main as cli_main, run_and_write
from kgbreather.errors import CenterOnLoop, DegenerateLoop
from kgbreather.core import params_from_dict
from kgbreather.runio import (
    read_diagnostics,
    read_manifest,
    read_snapshots,
    read_tracers,
    write_diagnostics,
    write_snapshots,
    write_tracers,
)

U_STAR = math.sqrt(0.00305)


def verdict(n, ok, evidence):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} | {evidence}")
    return ok


def test_criterion_1_conservation(default_run):
    drift = default_run.summary.max_abs_drift
    mom = max(abs(row.momentum) for row in default_run.diagnostics)
    wall = default_run.wall_seconds
    ok = drift <= 1e-8 and mom <= 1e-10 and wall <= 60.0
    assert verdict(
        1,
        ok,
        f"max|energy_drift|={drift:.6e} (tol 1e-8), max|momentum|={mom:.3e} "
        f"(tol 1e-10), wall={wall:.1f}s (limit 60)",
    )


def oscillator_error(dt, stages):
    # exactly solvable single mode: u_tt = alpha u_xx + mu u with omega = 1/2
    length = 2.0 * math.pi
    p = SimParams(
        alpha=2.0 ** -8,
        beta=0.0,
        mu=-0.24609375,
        domain_length=length,
        grid_points=16,
        dt=dt,
        t_end=50.0,
        snapshot_every=50.0,
        irk_stages=stages,
        probes=(),
    )
    g = make_grid(16, length)
    s0 = FieldState(t=0.0, u=np.sin(g.nodes), v=np.zeros(16))
    summary, _, _, _ = integrate(p, g, s0)
    exact = math.cos(0.5 * 50.0) * np.sin(g.nodes)
    return float(np.max(np.abs(summary.final_state.u - exact)))


def test_criterion_2_integrator_order():
    dts = [0.5, 0.25, 0.125, 0.0625]
    slopes = {}
    for stages in (1, 2):
        errs = [oscillator_error(dt, stages) for dt in dts]
        slopes[stages] = float(np.polyfit(np.log2(dts), np.log2(errs), 1)[0])
    ok = abs(slopes[1] - 2.0) <= 0.3 and abs(slopes[2] - 4.0) <= 0.3
    assert verdict(
        2, ok, f"slope(s=1)={slopes[1]:.4f} (want 2.0+-0.3), slope(s=2)={slopes[2]:.4f} (want 4.0+-0.3)"
    )


def smooth_run_final_u(n, dt):
    p = SimParams(grid_points=n, dt=dt, t_end=64.0, snapshot_every=64.0, probes=())
    g = make_grid(n, 8.0)
    u0 = 0.025 * np.exp(0.8 * np.sin(2.0 * np.pi * g.nodes / 8.0))
    s0 = FieldState(t=0.0, u=u0, v=np.zeros(n))
    summary, _, _, _ = integrate(p, g, s0)
    return summary.final_state.u


def test_criterion_3_spectral_accuracy():
    ref = smooth_run_final_u(128, 0.0625)
    time_floor = float(np.max(np.abs(ref - smooth_run_final_u(128, 0.03125))))
    e16 = float(np.max(np.abs(smooth_run_final_u(16, 0.0625) - ref[::8])))
    e32 = float(np.max(np.abs(smooth_run_final_u(32, 0.0625) - ref[::4])))
    ok = e32 <= 1e-12 and e32 < time_floor and e16 > time_floor
    assert verdict(
        3,
        ok,
        f"e(N=16)={e16:.3e}, e(N=32)={e32:.3e} (tol 1e-12), time floor={time_floor:.3e}",
    )


def test_criterion_4_equilibrium_preservation():
    p = SimParams(t_end=1250.0, snapshot_every=1250.0, probes=())
    g = make_grid(p.grid_points, p.domain_length)
    s0 = FieldState(t=0.0, u=np.full(g.n, U_STAR), v=np.zeros(g.n))
    summary, _, _, _ = integrate(p, g, s0)
    assert summary.steps == 10000
    du = float(np.max(np.abs(summary.final_state.u - U_STAR)))
    dv = float(np.max(np.abs(summary.final_state.v)))
    ok = du <= 1e-12 and dv <= 1e-12
    assert verdict(4, ok, f"max|u-u*|={du:.3e}, max|v|={dv:.3e} over 10^4 steps (tol 1e-12)")


def test_criterion_5_positive_side_confinement(default_run):
    kept = [row for row in default_run.diagnostics if row.t >= 256.0]
    worst_left = min(row.u_min_left for row in kept)
    worst_right = max(row.u_max_right for row in kept)
    ok = worst_left > 0.0 and worst_right < 0.0
    assert verdict(
        5,
        ok,
        f"min left-interior u={worst_left:.6e} (want > 0), "
        f"max right-interior u={worst_right:.6e} (want < 0) over t in [256, 2048]",
    )


def test_criterion_6_coexisting_rotations(default_run):
    last = default_run.diagnostics[-1]
    rot_left = last.rot_left          # probe x*=2 about (+u*, 0)
    rot_right = last.rot_right        # probe x*=6 about (-u*, 0)
    rot_origin = last.rot_origin      # probe x*=2 about (0, 0)
    result = classify_mode(default_run.diagnostics, default_run.tracks[0], default_run.params)
    ok = (
        abs(rot_left) >= 1.0
        and abs(rot_right) >= 1.0
        and abs(rot_origin) < abs(rot_left)
        and result.label is ModeLabel.BREATHER
    )
    assert verdict(
        6,
        ok,
        f"turns about (+u*,0)={rot_left:.4f}, about (-u*,0)={rot_right:.4f} (want |.| >= 1), "
        f"about origin={rot_origin:.4f} (want smaller than |{rot_left:.4f}|), "
        f"classify={result.label.value} (want breather)",
    )


def test_criterion_6_evidence_tracer_stays_below_the_vacuum(default_run):
    # the README's account of why criterion 6 fails: the x = 2 tracer stays in
    # u in [0.010667, 0.04], below the one-mode bound sqrt(8 lambda_1/(3 beta))
    # with lambda_1 = mu - alpha (pi/4)^2, itself below the vacuum u*, so it
    # hardly turns about (+u*, 0)
    p = default_run.params
    track = default_run.tracks[0]
    assert track.probe_x == 2.0
    lam1 = p.mu - p.alpha * (math.pi / 4.0) ** 2
    bound = math.sqrt(8.0 * lam1 / (3.0 * p.beta))
    assert float(np.min(track.u)) == pytest.approx(0.010667, abs=1e-6)
    assert float(np.max(track.u)) == pytest.approx(0.04, abs=1e-6)
    assert bound == pytest.approx(0.041326, abs=1e-6)
    assert float(np.max(track.u)) < bound < U_STAR
    assert cumulative_rotation(track, (U_STAR, 0.0)) == pytest.approx(0.00095, abs=1e-5)


def test_criterion_7_time_reversibility():
    p = SimParams(t_end=256.0, snapshot_every=256.0)
    g = make_grid(p.grid_points, p.domain_length)
    s0 = initial_state(p, g)
    fwd, _, _, _ = integrate(p, g, s0)
    flipped = FieldState(t=0.0, u=fwd.final_state.u, v=-fwd.final_state.v)
    back, _, _, _ = integrate(p, g, flipped)
    err = float(np.max(np.abs(back.final_state.u - s0.u)))
    ok = err <= 1e-6
    assert verdict(7, ok, f"max|u_back - u_0|={err:.3e} (tol 1e-6)")


def ray_parity(u, v, cu, cv):
    inside = 0
    m = len(u)
    for i in range(m):
        j = (i + 1) % m
        if (v[i] > cv) != (v[j] > cv):
            x_hit = u[i] + (cv - v[i]) / (v[j] - v[i]) * (u[j] - u[i])
            if x_hit > cu:
                inside ^= 1
    return inside


def test_criterion_8_geometry_oracles():
    rng = np.random.default_rng(808)
    mismatches = 0
    checked = 0
    for _ in range(200):
        m = int(rng.integers(3, 12))
        loop = FieldState(t=0.0, u=rng.standard_normal(m), v=rng.standard_normal(m))
        center = tuple(0.5 * rng.standard_normal(2))
        try:
            w = winding_number(loop, center)
        except (CenterOnLoop, DegenerateLoop):
            continue
        checked += 1
        if abs(w) % 2 != ray_parity(loop.u, loop.v, *center):
            mismatches += 1

    bow = FieldState(t=0.0, u=np.array([0.0, 1.0, 1.0, 0.0]), v=np.array([0.0, 1.0, 0.0, 1.0]))
    cb = self_intersections(bow)
    bow_ok = cb.count == 1 and cb.points.tolist() == [[0.5, 0.5]]

    n = 400
    t = (np.arange(n) + 0.5) * 2.0 * np.pi / n
    eight = FieldState(t=0.0, u=np.cos(t), v=np.sin(t) * np.cos(t))
    ce = self_intersections(eight)
    spacing = 2.0 * np.pi / n
    eight_ok = ce.count == 1 and float(np.hypot(*ce.points[0])) <= 2.0 * spacing

    ok = mismatches == 0 and checked >= 190 and bow_ok and eight_ok
    assert verdict(
        8,
        ok,
        f"parity mismatches={mismatches}/{checked}, bowtie exact={bow_ok}, "
        f"figure-eight node={eight_ok}",
    )


def test_criterion_9_determinism_and_io(tmp_path):
    p = SimParams(t_end=64.0)
    g = make_grid(p.grid_points, p.domain_length)

    # lossless csv round trip of real run output
    summary, snapshots, diagnostics, tracks = integrate(p, g)
    rt = tmp_path / "roundtrip"
    os.makedirs(rt)
    write_snapshots(rt / "snapshots.csv", snapshots, g)
    write_diagnostics(rt / "diagnostics.csv", diagnostics)
    write_tracers(rt / "tracers.csv", tracks)
    nodes, back_states = read_snapshots(rt / "snapshots.csv")
    lossless = (
        np.array_equal(nodes, g.nodes)
        and np.array_equal(back_states.u, snapshots.u)
        and np.array_equal(back_states.v, snapshots.v)
        and np.array_equal(back_states.t, snapshots.t)
        and read_diagnostics(rt / "diagnostics.csv") == diagnostics
        and all(
            np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v) and np.array_equal(a.t, b.t)
            for a, b in zip(tracks, read_tracers(rt / "tracers.csv"))
        )
    )

    # rerun from the manifest parameters, byte for byte
    dir_a = str(tmp_path / "a")
    dir_b = str(tmp_path / "b")
    run_and_write(p, dir_a)
    recovered = params_from_dict(read_manifest(os.path.join(dir_a, "manifest.json"))["params"])
    run_and_write(recovered, dir_b)
    byte_identical = all(
        pathlib.Path(dir_a, name).read_bytes() == pathlib.Path(dir_b, name).read_bytes()
        for name in ("snapshots.csv", "diagnostics.csv", "tracers.csv")
    )

    # replotting must reproduce identical svg bytes
    assert cli_main(["plot", "--out", dir_a]) == 0
    svg_first = {
        name: pathlib.Path(dir_a, name).read_bytes()
        for name in ("waveform.svg", "phase.svg")
    }
    assert cli_main(["plot", "--out", dir_a]) == 0
    svg_stable = all(
        pathlib.Path(dir_a, name).read_bytes() == svg_first[name] for name in svg_first
    )

    ok = lossless and byte_identical and svg_stable
    assert verdict(
        9,
        ok,
        f"csv round trip lossless={lossless}, manifest rerun byte-identical={byte_identical}, "
        f"svg replot stable={svg_stable}",
    )
