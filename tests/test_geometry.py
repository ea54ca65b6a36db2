"""Loops, winding numbers, rotation counts, crossings, and mode labels."""

import math

import numpy as np
import pytest

from kgbreather import (
    CenterOnLoop,
    CenterOnTrack,
    DegenerateLoop,
    DiagnosticsRow,
    FieldState,
    InsufficientData,
    LengthMismatch,
    ModeLabel,
    NonFinite,
    SimParams,
    TracerTrack,
    classify_mode,
    cumulative_rotation,
    initial_state,
    integrate,
    make_grid,
    self_intersections,
    winding_number,
)
from kgbreather.geometry import _turns

U_STAR = math.sqrt(0.00305)


def circle_loop(m=64, radius=1.0, cu=0.0, cv=0.0):
    # offset sampling keeps vertices off the axes
    th = (np.arange(m) + 0.5) * 2.0 * np.pi / m
    return FieldState(t=0.0, u=cu + radius * np.cos(th), v=cv + radius * np.sin(th))


def figure_eight(m=400):
    """Gerono lemniscate; the two lobes cross transversally at the origin."""
    t = (np.arange(m) + 0.5) * 2.0 * np.pi / m
    return FieldState(t=0.0, u=np.cos(t), v=np.sin(t) * np.cos(t))


def two_petal_rose(m=400):
    """r = sin 2theta; the two petals touch at the origin without crossing."""
    th = (np.arange(m) + 0.5) * np.pi / m
    r = np.sin(2.0 * th)
    return FieldState(t=0.0, u=r * np.cos(th), v=r * np.sin(th))


def circle_track(turns, m=256, radius=1.0, cu=0.0, cv=0.0, start=0.0):
    ang = start + np.linspace(0.0, turns * 2.0 * np.pi, m)
    return TracerTrack(
        probe_x=2.0,
        t=np.arange(m, dtype=float),
        u=cu + radius * np.cos(ang),
        v=cv + radius * np.sin(ang),
    )


def ray_parity(u, v, cu, cv):
    """Even-odd crossing parity of a rightward horizontal ray from (cu, cv)."""
    inside = 0
    m = len(u)
    for i in range(m):
        j = (i + 1) % m
        if (v[i] > cv) != (v[j] > cv):
            x_hit = u[i] + (cv - v[i]) / (v[j] - v[i]) * (u[j] - u[i])
            if x_hit > cu:
                inside ^= 1
    return inside


def test_phase_loop_preserves_the_field_state():
    # the loop of a one-state FieldState is its own (u, v); a row of a stack,
    # as plot takes one, is such a state
    p = SimParams()
    g = make_grid(p.grid_points, p.domain_length)
    s = initial_state(p, g)
    stack = FieldState(t=[s.t, 16.0], u=np.stack([s.u, -s.u]), v=np.stack([s.v, s.v]))
    loop = FieldState(t=stack.t[0], u=stack.u[0], v=stack.v[0])
    assert loop.t == 0.0
    assert np.array_equal(loop.u, s.u)
    assert np.array_equal(loop.v, s.v)
    assert loop.u.size == g.n
    assert float(np.max(loop.u)) == pytest.approx(p.amplitude, abs=1e-15)
    assert float(np.min(loop.u)) == pytest.approx(-p.amplitude, abs=1e-15)
    # the start is at rest, so its loop lies on the u axis and winds about nothing
    assert winding_number(loop, (U_STAR, 0.0)) == 0


def test_loop_construction_rejects_bad_input():
    with pytest.raises(NonFinite):
        FieldState(t=0.0, u=np.array([0.0, np.inf, 1.0]), v=np.zeros(3))
    with pytest.raises(LengthMismatch):
        FieldState(t=0.0, u=np.zeros(4), v=np.zeros(3))
    with pytest.raises(LengthMismatch):
        TracerTrack(probe_x=2.0, t=np.zeros(3), u=np.zeros(4), v=np.zeros(4))


def test_loop_arrays_are_read_only():
    loop = circle_loop()
    with pytest.raises(ValueError):
        loop.u[0] = 5.0


def test_winding_unit_circle():
    loop = circle_loop()
    assert winding_number(loop, (0.0, 0.0)) == 1
    assert winding_number(loop, (3.0, 0.0)) == 0


def test_winding_full_circle_sums_to_exactly_one_turn():
    loop = circle_loop(m=48)
    assert winding_number(loop, (0.0, 0.0)) == 1
    closed_u = np.append(loop.u, loop.u[0])
    closed_v = np.append(loop.v, loop.v[0])
    assert _turns(closed_u, closed_v, (0.0, 0.0))[-1] == pytest.approx(1.0, abs=1e-12)


def test_winding_negates_under_reversal():
    loop = circle_loop()
    rev = FieldState(t=0.0, u=loop.u[::-1], v=loop.v[::-1])
    assert winding_number(rev, (0.0, 0.0)) == -1


@pytest.mark.parametrize("shift", [1, 7, 31])
def test_winding_invariant_under_cyclic_shift(shift):
    loop = circle_loop()
    rolled = FieldState(t=0.0, u=np.roll(loop.u, shift), v=np.roll(loop.v, shift))
    assert winding_number(rolled, (0.0, 0.0)) == 1


def test_winding_ignores_duplicate_vertices():
    loop = circle_loop(m=32)
    u = np.concatenate([loop.u[:10], loop.u[9:], loop.u[:1]])
    v = np.concatenate([loop.v[:10], loop.v[9:], loop.v[:1]])
    messy = FieldState(t=0.0, u=u, v=v)
    assert winding_number(messy, (0.0, 0.0)) == 1


def test_winding_center_on_loop_raises():
    loop = circle_loop()
    with pytest.raises(CenterOnLoop):
        winding_number(loop, (float(loop.u[5]), float(loop.v[5])))


def test_winding_degenerate_loops_raise():
    with pytest.raises(DegenerateLoop):
        winding_number(FieldState(t=0.0, u=np.array([0.0, 1.0]), v=np.array([0.0, 0.0])), (5.0, 5.0))
    with pytest.raises(DegenerateLoop):
        winding_number(FieldState(t=0.0, u=np.ones(6), v=np.full(6, 2.0)), (5.0, 5.0))


def stacked_loops():
    loop = circle_loop()
    return FieldState(t=[0.0, 1.0], u=np.stack([loop.u, loop.u]), v=np.stack([loop.v, loop.v]))


def test_winding_rejects_a_stacked_state():
    with pytest.raises(LengthMismatch):
        winding_number(stacked_loops(), (0.0, 0.0))


def test_figure_eight_lobes_wind_oppositely():
    loop = figure_eight()
    right = winding_number(loop, (0.5, 0.0))
    left = winding_number(loop, (-0.5, 0.0))
    assert abs(right) == 1
    assert left == -right
    assert winding_number(loop, (2.0, 0.0)) == 0


def test_rose_petals_wind_once_each():
    loop = two_petal_rose()
    for center in ((0.5, 0.5), (0.5, -0.5)):
        w = winding_number(loop, center)
        assert abs(w) == 1
        assert w % 2 == ray_parity(loop.u, loop.v, *center)


def test_winding_matches_ray_parity_on_random_polygons():
    rng = np.random.default_rng(20240817)
    checked = 0
    for _ in range(200):
        m = int(rng.integers(3, 12))
        loop = FieldState(t=0.0, u=rng.standard_normal(m), v=rng.standard_normal(m))
        center = tuple(0.5 * rng.standard_normal(2))
        try:
            w = winding_number(loop, center)
        except (CenterOnLoop, DegenerateLoop):
            continue
        assert abs(w) % 2 == ray_parity(loop.u, loop.v, *center)
        checked += 1
    assert checked >= 190


def test_rotation_two_full_turns():
    trk = circle_track(2.0)
    assert cumulative_rotation(trk, (0.0, 0.0)) == pytest.approx(2.0, abs=1e-12)


def test_rotation_stationary_track_is_zero():
    trk = TracerTrack(probe_x=2.0, t=np.arange(5.0), u=np.ones(5), v=np.ones(5))
    assert cumulative_rotation(trk, (0.0, 0.0)) == 0.0


def test_rotation_fractional_arc():
    trk = circle_track(0.25, m=65)
    assert cumulative_rotation(trk, (0.0, 0.0)) == pytest.approx(0.25, abs=1e-12)


def test_rotation_negates_under_reversal():
    trk = circle_track(1.5, m=173)
    rev = TracerTrack(probe_x=2.0, t=trk.t, u=trk.u[::-1], v=trk.v[::-1])
    fwd = cumulative_rotation(trk, (0.0, 0.0))
    assert cumulative_rotation(rev, (0.0, 0.0)) == pytest.approx(-fwd, abs=1e-12)


def test_rotation_is_additive_over_concatenation():
    rng = np.random.default_rng(7)
    m = 300
    ang = np.cumsum(rng.uniform(-0.8, 1.4, m))
    rad = 1.0 + 0.3 * np.sin(np.linspace(0.0, 9.0, m))
    u, v = rad * np.cos(ang), rad * np.sin(ang)
    t = np.arange(m, dtype=float)
    whole = cumulative_rotation(TracerTrack(probe_x=2.0, t=t, u=u, v=v), (0.0, 0.0))
    k = 117
    head = TracerTrack(probe_x=2.0, t=t[: k + 1], u=u[: k + 1], v=v[: k + 1])
    tail = TracerTrack(probe_x=2.0, t=t[k:], u=u[k:], v=v[k:])
    parts = cumulative_rotation(head, (0.0, 0.0)) + cumulative_rotation(tail, (0.0, 0.0))
    assert parts == pytest.approx(whole, abs=1e-12)


def test_rotation_center_on_track_raises():
    trk = circle_track(1.0)
    with pytest.raises(CenterOnTrack):
        cumulative_rotation(trk, (float(trk.u[3]), float(trk.v[3])))


def test_sample_on_the_center_carries_no_angle():
    trk = circle_track(1.5, m=97, radius=0.5, cu=0.25)
    k = 40
    center = (float(trk.u[k]), float(trk.v[k]))
    u, v = np.delete(trk.u, k), np.delete(trk.v, k)
    without = _turns(u, v, center)
    with_it = _turns(trk.u, trk.v, center)
    # the count holds its value over the skipped sample and is otherwise unchanged
    assert with_it[k] == with_it[k - 1]
    assert np.array_equal(np.delete(with_it, k), without)
    assert cumulative_rotation(TracerTrack(probe_x=2.0, t=np.arange(96.0), u=u, v=v), center) == without[-1]
    with pytest.raises(CenterOnTrack):
        cumulative_rotation(trk, center)


def test_rotation_needs_two_samples():
    trk = TracerTrack(probe_x=2.0, t=np.array([0.0]), u=np.array([1.0]), v=np.array([0.0]))
    with pytest.raises(InsufficientData):
        cumulative_rotation(trk, (0.0, 0.0))


def test_convex_loop_has_no_crossings():
    cs = self_intersections(circle_loop())
    assert cs.count == 0
    assert len(cs) == 0
    assert cs.points.shape == (0, 2)
    # two or three vertices have no pair of non-adjacent edges
    for u, v in (([0.0, 1.0], [0.0, 0.0]), ([0.0, 1.0, 0.5], [0.0, 0.0, 1.0])):
        cs = self_intersections(FieldState(t=0.0, u=u, v=v))
        assert cs.count == 0
        assert cs.seg_a.dtype == np.int64
        assert cs.points.shape == (0, 2)


def test_bowtie_crossing_exact():
    bow = FieldState(t=0.0, u=np.array([0.0, 1.0, 1.0, 0.0]), v=np.array([0.0, 1.0, 0.0, 1.0]))
    cs = self_intersections(bow)
    assert cs.count == 1
    assert cs.seg_a.tolist() == [0]
    assert cs.seg_b.tolist() == [2]
    assert cs.ta.tolist() == [0.5]
    assert cs.tb.tolist() == [0.5]
    assert cs.points.tolist() == [[0.5, 0.5]]


def test_figure_eight_single_node_at_origin():
    m = 400
    cs = self_intersections(figure_eight(m))
    assert cs.count == 1
    # node must land within two sample spacings of the analytic node (0, 0)
    spacing = 2.0 * np.pi / m
    assert float(np.hypot(cs.points[0, 0], cs.points[0, 1])) <= 2.0 * spacing


def test_rose_petals_touch_but_do_not_cross():
    assert self_intersections(two_petal_rose()).count == 0


@pytest.mark.parametrize("shift", [0, 3, 50])
def test_crossings_invariant_under_shift_and_reversal(shift):
    base = figure_eight(120)
    variants = [
        FieldState(t=0.0, u=np.roll(base.u, shift), v=np.roll(base.v, shift)),
        FieldState(t=0.0, u=np.roll(base.u, shift)[::-1], v=np.roll(base.v, shift)[::-1]),
    ]
    want = self_intersections(base).points
    for loop in variants:
        got = self_intersections(loop).points
        assert got.shape == want.shape
        a = np.array(sorted(map(tuple, np.round(want, 9))))
        b = np.array(sorted(map(tuple, np.round(got, 9))))
        assert np.allclose(a, b, atol=1e-9)


def test_crossings_reject_coincident_points():
    with pytest.raises(DegenerateLoop):
        self_intersections(FieldState(t=0.0, u=np.full(8, 0.3), v=np.full(8, -0.7)))


def test_crossings_reject_a_stacked_state():
    with pytest.raises(LengthMismatch):
        self_intersections(stacked_loops())


def axis_pieces(loop):
    """Split a loop at its v = 0 crossings into sign-constant arcs.

    Each arc is closed by the implicit edge between its two axis crossing
    points, which lies on the u axis. A crossing is either an edge whose ends
    lie strictly on opposite sides of the axis, or a vertex on the axis whose
    neighbours lie on opposite sides; the vertex is then the crossing point
    itself. Any other on-axis vertex (a touch) is rejected.
    """
    u, v = np.asarray(loop.u), np.asarray(loop.v)
    m = u.size
    # each cut: (crossing point u, last vertex before it, first vertex after it)
    cuts = []
    for i in range(m):
        j = (i + 1) % m
        if v[i] == 0.0:
            assert v[i - 1] * v[j] < 0.0
            cuts.append((u[i], (i - 1) % m, j))
        elif v[j] != 0.0 and (v[i] > 0.0) != (v[j] > 0.0):
            s = v[i] / (v[i] - v[j])
            cuts.append((u[i] + s * (u[j] - u[i]), i, j))
    pieces = []
    for a in range(len(cuts)):
        pu, _, first = cuts[a]
        qu, last, _ = cuts[(a + 1) % len(cuts)]
        arc = (first + np.arange((last - first) % m + 1)) % m
        pieces.append(
            FieldState(
                t=0.0,
                u=np.concatenate([[pu], u[arc], [qu]]),
                v=np.concatenate([[0.0], v[arc], [0.0]]),
            )
        )
    return pieces


def test_axis_decomposition_on_a_circle():
    loop = circle_loop(m=64)
    pieces = axis_pieces(loop)
    assert len(pieces) == 2
    for center in ((0.0, 0.5), (0.0, -0.3), (3.0, 2.0), (0.2, 0.1)):
        total = sum(winding_number(p, center) for p in pieces)
        assert total == winding_number(loop, center)


def test_axis_decomposition_on_a_simulated_loop(default_run):
    # t = 256 snapshot: the exactly odd loop crosses the u axis twice, at the
    # on-axis vertices x = 0 and x = L/2, both of which sit on the origin
    snaps = default_run.snapshots
    loop = FieldState(t=snaps.t[16], u=snaps.u[16], v=snaps.v[16])
    assert loop.t == 256.0
    assert loop.v[0] == 0.0 and loop.v[loop.u.size // 2] == 0.0
    pieces = axis_pieces(loop)
    assert len(pieces) == 2
    for center in ((U_STAR, 0.0), (-U_STAR, 0.0), (0.1, 0.02)):
        total = sum(winding_number(p, center) for p in pieces)
        assert total == winding_number(loop, center)
    # the odd-symmetric loop passes through the origin itself, so the origin
    # is not an admissible winding center for this decomposition
    with pytest.raises(CenterOnLoop):
        winding_number(loop, (0.0, 0.0))


def rows_every_16(n_rows, m_left, m_right):
    return [
        DiagnosticsRow(
            t=16.0 * i,
            energy=0.0,
            momentum=0.0,
            energy_drift=0.0,
            u_min_left=m_left,
            u_max_left=m_left + 0.05,
            u_min_right=m_right - 0.05,
            u_max_right=m_right,
            rot_origin=0.0,
            rot_left=0.0,
            rot_right=0.0,
        )
        for i in range(n_rows)
    ]


def test_classify_confined_rotating_track_is_breather(default_params):
    rows = rows_every_16(17, 0.02, -0.02)
    track = circle_track(2.25, radius=0.01, cu=U_STAR, cv=0.0)
    res = classify_mode(rows, track, default_params)
    assert res.label is ModeLabel.BREATHER
    assert res.m_left == 0.02
    assert res.m_right == -0.02
    assert res.rot_left == pytest.approx(2.25, abs=1e-9)
    assert res.final_t == 256.0


def test_classify_origin_circler_with_broken_confinement_is_ordinary(default_params):
    rows = rows_every_16(17, -0.01, -0.02)
    track = circle_track(3.0, radius=0.1)
    res = classify_mode(rows, track, default_params)
    assert res.label is ModeLabel.ORDINARY
    assert res.rot_origin == pytest.approx(3.0, abs=1e-9)


def test_classify_confined_but_not_rotating_is_indeterminate(default_params):
    rows = rows_every_16(17, 0.02, -0.02)
    track = circle_track(2.0, radius=0.005, cu=U_STAR + 0.02, cv=0.0)
    res = classify_mode(rows, track, default_params)
    assert res.label is ModeLabel.INDETERMINATE
    assert abs(res.rot_left) < 1.0
    assert abs(res.rot_origin) < 1.0


def test_classify_transient_window_is_discarded(default_params):
    # a bad excursion strictly before t_skip = 32 must not affect the margins
    rows = rows_every_16(17, 0.02, -0.02)
    spoiled = rows_every_16(2, -5.0, 5.0) + rows[2:]
    res = classify_mode(spoiled, circle_track(2.25, radius=0.01, cu=U_STAR), default_params)
    assert res.label is ModeLabel.BREATHER
    assert res.m_left == 0.02


def test_classify_insufficient_data(default_params):
    good_track = circle_track(2.0, radius=0.01, cu=U_STAR)
    with pytest.raises(InsufficientData):
        classify_mode([], good_track, default_params)
    with pytest.raises(InsufficientData):
        classify_mode(rows_every_16(17, 0.02, -0.02), None, default_params)
    short = TracerTrack(probe_x=2.0, t=np.array([0.0]), u=np.array([0.1]), v=np.array([0.0]))
    with pytest.raises(InsufficientData):
        classify_mode(rows_every_16(17, 0.02, -0.02), short, default_params)
    # 3 rows reach t = 32, less than 4 snapshot intervals (64)
    with pytest.raises(InsufficientData):
        classify_mode(rows_every_16(3, 0.02, -0.02), good_track, default_params)


def test_classify_turns_equal_the_last_diagnostics_row_bit_for_bit():
    params = SimParams(amplitude=0.12, t_end=256.0)
    _, _, diagnostics, tracks = integrate(params)
    res = classify_mode(diagnostics, tracks[0], params)
    assert abs(res.rot_left) > 1.0  # the tracer actually rotates
    assert res.rot_left == diagnostics[-1].rot_left
    assert res.rot_origin == diagnostics[-1].rot_origin
